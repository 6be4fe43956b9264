"""A fault matrix: which commands notice a wrong kernel.

Each row injects one fault into one kernel; each column runs one command
through ``cli.main`` in process.  A cell is

* unaffected: the same exit status and output as without the fault;
* caught: exit 3, as when ``bench`` or ``crosscheck`` finds two values
  that disagree;
* refused: exit 2;
* silent: exit 0 with changed output, a wrong answer printed as right.

The silent cells are written out below, and the count of each kind.  A
change that closes one deletes it from ``_SILENT``; a change under which
a cell turns silent, or a caught one goes unnoticed, fails the test.
"""
from __future__ import annotations

import inspect
import re
from collections import Counter

from tribokit import analytic, cli, genfunc, seqcore, tribomatrix

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
    ["eval", "--format", "bfile", "S", "0", "8"],
    ["expand", "--num", "1,2", "--den", "1,0,0,2,-3", "12"],
    ["bench", "S", "50", "1"],
    ["bench", "C", "50", "1"],
    ["bench", "T", "--", "-50", "1"],
    ["crosscheck", "S"],
    ["verify", "all", "--range", "0:30"],
]


def _plus_one(value):
    """value + 1, or a tuple (of tuples) with 1 added to its first entry."""
    if isinstance(value, tuple):
        return (_plus_one(value[0]), *value[1:])
    return value + 1


def _returns(module, name, change=_plus_one):
    def inject(mp):
        original = getattr(module, name)
        mp.setattr(module, name, lambda *args: change(original(*args)))
    return inject


def _power_plus_one_unit(mp):
    # a ball's midpoint counts units of 2^-f, so one unit of value is 1 << f
    original = analytic._power

    def power(z, m, f):
        x, y, r = original(z, m, f)
        return x + (1 << f), y, r
    mp.setattr(analytic, "_power", power)


def _last_digit_changed(text):
    return re.sub(r"\d(?=\D*\Z)", lambda digit: str((int(digit[0]) + 1) % 10), text)


def _pass_sign_fault(mp):
    # at the source, so that no pass compiled before the fault hides it
    source = inspect.getsource(seqcore._pass)
    assert source.count("} - {") == 1
    namespace = dict(vars(seqcore))
    exec(source.replace("} - {", "} + {"), namespace)
    mp.setattr(seqcore, "_pass", namespace["_pass"])


_FAULTS = {
    "seqcore._square": _returns(seqcore, "_square"),
    "seqcore._times_x": _returns(seqcore, "_times_x"),
    "seqcore._dot": _returns(seqcore, "_dot"),
    "tribomatrix._square": _returns(tribomatrix, "_square"),
    "tribomatrix._times_a": _returns(tribomatrix, "_times_a"),
    "tribomatrix._times_a_inv": _returns(tribomatrix, "_times_a_inv"),
    "tribomatrix._trace_of_product": _returns(tribomatrix, "_trace_of_product"),
    "tribomatrix._entry_12_of_product": _returns(tribomatrix, "_entry_12_of_product"),
    "tribomatrix.mat_pow": _returns(tribomatrix, "mat_pow"),
    "analytic._power": _power_plus_one_unit,
    "analytic._rounded": _returns(analytic, "_rounded"),
    "genfunc.expand": _returns(genfunc, "expand", lambda out: [out[0] + 1, *out[1:]]),
    "seqcore._decimal_texts": _returns(
        seqcore, "_decimal_texts", lambda texts: list(map(_last_digit_changed, texts))),
    "seqcore.render_rows": _returns(seqcore, "render_rows", _last_digit_changed),
    "seqcore._pass": _pass_sign_fault,
}

_SILENT = {
    ("seqcore._square", "eval --strategy recurrence C 40 50"),
    ("seqcore._square", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._square", "eval --format bfile S 0 8"),
    ("seqcore._times_x", "eval --strategy recurrence C 40 50"),
    ("seqcore._times_x", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._times_x", "eval --format bfile S 0 8"),
    ("seqcore._dot", "eval --strategy recurrence C 40 50"),
    ("seqcore._dot", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._dot", "eval --format bfile S 0 8"),
    ("tribomatrix._square", "eval --strategy matrix C 40 50"),
    ("tribomatrix._square", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix._square", "matrix 7"),
    ("tribomatrix._square", "matrix -- -7"),
    ("tribomatrix._times_a", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix._times_a", "matrix 7"),
    ("tribomatrix._times_a_inv", "eval --strategy matrix C 40 50"),
    ("tribomatrix._times_a_inv", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix._times_a_inv", "matrix -- -7"),
    ("tribomatrix._trace_of_product", "eval --strategy matrix C 40 50"),
    ("tribomatrix._entry_12_of_product", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix.mat_pow", "eval --strategy matrix C 40 50"),
    ("tribomatrix.mat_pow", "eval --strategy matrix T -- -50 -40"),
    ("tribomatrix.mat_pow", "matrix 7"),
    ("tribomatrix.mat_pow", "matrix -- -7"),
    ("analytic._power", "eval --strategy binet C 40 50"),
    ("analytic._power", "bench T -- -50 1"),
    ("analytic._rounded", "eval --strategy binet C 40 50"),
    ("analytic._rounded", "eval --strategy binet T -- -50 -40"),
    ("genfunc.expand", "expand S 8"),
    ("genfunc.expand", "expand CEven 8"),
    ("genfunc.expand", "expand --num 1,2 --den 1,0,0,2,-3 12"),
    ("seqcore._decimal_texts", "eval --strategy recurrence C 40 50"),
    ("seqcore._decimal_texts", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore._decimal_texts", "eval --strategy matrix C 40 50"),
    ("seqcore._decimal_texts", "eval --strategy matrix T -- -50 -40"),
    ("seqcore._decimal_texts", "expand S 8"),
    ("seqcore._decimal_texts", "expand CEven 8"),
    ("seqcore._decimal_texts", "eval --format bfile S 0 8"),
    ("seqcore._decimal_texts", "expand --num 1,2 --den 1,0,0,2,-3 12"),
    ("seqcore.render_rows", "eval --strategy recurrence C 40 50"),
    ("seqcore.render_rows", "eval --strategy recurrence T -- -50 -40"),
    ("seqcore.render_rows", "eval --strategy matrix C 40 50"),
    ("seqcore.render_rows", "eval --strategy matrix T -- -50 -40"),
    ("seqcore.render_rows", "eval --strategy binet C 40 50"),
    ("seqcore.render_rows", "eval --strategy binet T -- -50 -40"),
    ("seqcore.render_rows", "expand S 8"),
    ("seqcore.render_rows", "expand CEven 8"),
    ("seqcore.render_rows", "eval --format bfile S 0 8"),
    ("seqcore.render_rows", "expand --num 1,2 --den 1,0,0,2,-3 12"),
    ("seqcore._pass", "eval --strategy recurrence C 40 50"),
    ("seqcore._pass", "expand CEven 8"),
    ("seqcore._pass", "expand --num 1,2 --den 1,0,0,2,-3 12"),
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
    assert Counter(cells.values()) == {"silent": 52, "caught": 30, "unaffected": 173}
