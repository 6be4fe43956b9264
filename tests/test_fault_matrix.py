"""A fault matrix: which commands notice a wrong kernel.

Each row injects one fault into one kernel; each column runs one command
through ``cli.main`` in process.  A cell is

* unaffected: the same exit status and output as without the fault;
* caught: exit 3, as when ``bench`` or ``crosscheck`` finds two values
  that disagree;
* refused: exit 2;
* silent: exit 0 with changed output, a wrong answer printed as right.

The silent cells are written out below.  A change that closes one
deletes it from ``_SILENT``; a change under which a cell turns silent
fails the test.
"""
from __future__ import annotations

import inspect
import re

from tribokit import analytic, cli, seqcore, tribomatrix

_COMMANDS = [
    ["eval", "--strategy", "recurrence", "C", "40", "50"],
    ["eval", "--strategy", "recurrence", "T", "--", "-50", "-40"],
    ["eval", "--strategy", "matrix", "C", "40", "50"],
    ["eval", "--strategy", "matrix", "T", "--", "-50", "-40"],
    ["eval", "--strategy", "binet", "C", "40", "50"],
    ["eval", "--strategy", "binet", "T", "--", "-50", "-40"],
    ["matrix", "7"],
    ["matrix", "--", "-7"],
    ["expand", "S", "8"],
    ["expand", "CEven", "8"],
    ["bench", "S", "50", "1"],
    ["bench", "C", "50", "1"],
    ["crosscheck", "S"],
    ["verify", "all", "--range", "0:30"],
]


def _plus_one(value):
    """value + 1, or a tuple (of tuples) with 1 added to its first entry."""
    if isinstance(value, tuple):
        return (_plus_one(value[0]), *value[1:])
    return value + 1


def _returns_plus_one(module, name):
    def inject(mp):
        original = getattr(module, name)
        mp.setattr(module, name, lambda *args: _plus_one(original(*args)))
    return inject


def _last_digit_changed(mp):
    original = seqcore._decimal_texts

    def texts(values, count):
        return [text[:-1] + str((int(text[-1]) + 1) % 10) for text in original(values, count)]
    mp.setattr(seqcore, "_decimal_texts", texts)


def _pass_sign_fault(mp):
    # at the source, so that no pass compiled before the fault hides it
    source = inspect.getsource(seqcore._pass)
    assert source.count("} - {") == 1
    namespace = dict(vars(seqcore))
    exec(source.replace("} - {", "} + {"), namespace)
    mp.setattr(seqcore, "_pass", namespace["_pass"])


_FAULTS = {
    "seqcore._square": _returns_plus_one(seqcore, "_square"),
    "seqcore._dot": _returns_plus_one(seqcore, "_dot"),
    "tribomatrix._trace_of_product": _returns_plus_one(tribomatrix, "_trace_of_product"),
    "tribomatrix.mat_pow": _returns_plus_one(tribomatrix, "mat_pow"),
    "analytic._rounded": _returns_plus_one(analytic, "_rounded"),
    "seqcore._decimal_texts": _last_digit_changed,
    "seqcore._pass": _pass_sign_fault,
}

_SILENT = {
    ("seqcore._square", "eval --strategy recurrence C 40 50"),
    ("seqcore._square", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._dot", "eval --strategy recurrence C 40 50"),
    ("seqcore._dot", "eval --strategy recurrence T -- -50 -40"),
    ("tribomatrix._trace_of_product", "eval --strategy matrix C 40 50"),
    ("tribomatrix.mat_pow", "eval --strategy matrix C 40 50"),
    ("tribomatrix.mat_pow", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix.mat_pow", "matrix 7"),
    ("tribomatrix.mat_pow", "matrix -- -7"),
    ("analytic._rounded", "eval --strategy binet C 40 50"),
    ("analytic._rounded", "eval --strategy binet T -- -50 -40"),
    ("seqcore._decimal_texts", "eval --strategy recurrence C 40 50"),
    ("seqcore._decimal_texts", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._decimal_texts", "eval --strategy matrix C 40 50"),
    ("seqcore._decimal_texts", "eval --strategy matrix T -- -50 -40"),
    ("seqcore._decimal_texts", "expand S 8"),
    ("seqcore._decimal_texts", "expand CEven 8"),
    ("seqcore._pass", "eval --strategy recurrence C 40 50"),
    ("seqcore._pass", "expand CEven 8"),
}


def _outputs(capsys):
    """Each command's exit status and output, bench's timings masked."""
    outputs = {}
    for argv in _COMMANDS:
        status = cli.main(argv)
        captured = capsys.readouterr()
        out = captured.out
        if argv[0] == "bench":
            out = re.sub(r"\d+\.\d{6}s", "<seconds>", out)
        outputs[" ".join(argv)] = status, out, captured.err
    return outputs


def _cell(before, after):
    if after == before:
        return "unaffected"
    return {cli.EXIT_FAILED: "caught", cli.EXIT_USAGE: "refused", cli.EXIT_OK: "silent"}[after[0]]


def test_the_fault_matrix_has_exactly_the_known_silent_cells(monkeypatch, capsys):
    before = _outputs(capsys)
    assert {status for status, _, _ in before.values()} == {cli.EXIT_OK}
    cells = {}
    for fault, inject in _FAULTS.items():
        with monkeypatch.context() as mp:
            inject(mp)
            after = _outputs(capsys)
        seqcore._pass.cache_clear()
        for command, output in after.items():
            cells[fault, command] = _cell(before[command], output)
    assert {cell for cell, kind in cells.items() if kind == "silent"} == _SILENT
