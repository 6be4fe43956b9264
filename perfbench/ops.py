"""Running one benchmark operation and checking its output.

``prepare`` does the untimed set-up of an operation (temporary config
files and b-files) and returns the call to time.  ``check`` parses what
the call produced and compares it with a value from a different method
than the one the operation used:

* recurrence results against ``tribomatrix.mat_pow``: single values
  directly, spans through three anchor rows plus the defining recurrence
  between consecutive rows;
* matrix and Binet results against ``seqcore.sequence_range`` (spans) or
  ``seqcore.term`` (single indices, which needs no window of earlier terms);
* b-file round trips and crosschecks against rows from ``sequence_range``;
* root-finder output by evaluating the cubic at the printed roots;
* identity sweeps must be clean on the canonical seeds and must report
  a counterexample on every mutated seed.

A mismatch raises ``Wrong``; the caller aborts the run on it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import mpmath

import tribokit
from tribokit import analytic, cli, identities, oeis, seqcore, tribomatrix
from tribokit.seqcore import SequenceKind

KINDS = {"T": SequenceKind.TRIBONACCI, "S": SequenceKind.GENERALIZED_LUCAS, "C": SequenceKind.MINOR_SUM}
# Recurrence coefficients (c1, c2, c3): a(n) = c1*a(n-1) + c2*a(n-2) + c3*a(n-3).
_COEFFS = {"T": (1, 1, 1), "S": (1, 1, 1), "C": (-1, -1, 1)}
_FORMS = {"MINOR": tribokit.SForm.MINOR, "OGF": tribokit.SForm.OGF,
          "MINOR_EXPANSION": tribokit.CForm.MINOR_EXPANSION, "SQUARE": tribokit.CForm.SQUARE}
_SEEDS = {"t": (0, 1, 1), "s": (3, 1, 3), "c": (3, -1, -1)}
CLI_OPS = frozenset({"eval", "matrix", "bench", "expand", "crosscheck", "crosscheck_file",
                     "verify", "roots"})


class Wrong(Exception):
    """An operation's output disagrees with the independent method."""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``tribokit.cli.main`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


# ------------------------------------------------------------ preparing

def _write(tmp: str, name: str, text: str) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return path


def _config(tmp: str, precision: int) -> str:
    return _write(tmp, f"precision-{precision}.cfg", f"precision = {precision}\n")


def _argv(op: dict, tmp: str) -> list[str]:
    kind = op["op"]
    fmt = ["--format", op["format"]]
    if kind == "eval":
        extra = ["--config", _config(tmp, op["precision"])] if "precision" in op else []
        return ["eval", *fmt, *extra, "--strategy", op["strategy"], "--",
                op["kind"], str(op["lo"]), str(op["hi"])]
    if kind == "matrix":
        return ["matrix", *fmt, str(op["n"])]
    if kind == "bench":
        return ["bench", *fmt, op["kind"], str(op["n"]), "1"]
    if kind == "expand":
        return ["expand", *fmt, op["source"], str(op["count"])]
    if kind == "crosscheck":
        return ["crosscheck", *fmt, op["kind"], "--rows", str(op["rows"])]
    if kind == "crosscheck_file":
        rows = seqcore.sequence_range(KINDS[op["kind"]], op["lo"], op["hi"])
        path = _write(tmp, "written.txt", "".join(f"{n} {v}\n" for n, v in rows))
        return ["crosscheck", *fmt, op["kind"], path, str(len(rows))]
    if kind == "verify":
        argv = ["verify", *fmt, op["identity"], f"--range={op['lo']}:{op['hi']}"]
        if op["m_lo"] is not None:
            argv.append(f"--m-range={op['m_lo']}:{op['m_hi']}")
        return argv
    if kind == "roots":
        return ["roots", *fmt, "--config", _config(tmp, op["precision"])]
    raise ValueError(f"not a CLI operation: {kind}")


def _bfile_roundtrip(op: dict, path: str) -> tuple[Any, Any]:
    kind = KINDS[op["kind"]]
    sequence_id = oeis.OEIS_IDS[kind]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(oeis.format_bfile(kind, op["lo"], op["hi"]))
    with open(path, encoding="ascii") as handle:
        bfile = oeis.parse_bfile(handle.read(), sequence_id)
    return bfile, oeis.crosscheck(kind, bfile, len(bfile.rows))


def _fault_sweep(op: dict) -> list:
    seeds = {f"{name}_seeds": value for name, value in _SEEDS.items()}
    mutated = list(_SEEDS[op["sequence"]])
    mutated[op["position"]] += op["delta"]
    seeds[f"{op['sequence']}_seeds"] = tuple(mutated)
    backend = identities.SequenceBackend.with_seeds(**seeds)
    return identities.verify_all((0, op["hi"]), backend=backend)


def _vieta(op: dict) -> tuple[Any, Any]:
    roots = analytic.char_roots(op["precision"])
    return roots, analytic.vieta_check(roots)


def prepare(op: dict, tmp: str) -> Callable[[], Any]:
    """Write the operation's files and return the call to time."""
    kind = op["op"]
    if kind in CLI_OPS:
        argv = _argv(op, tmp)
        return lambda: run_cli(argv)
    # Library entry points are looked up at call time, so a traced run
    # reaches them through its wrappers.
    if kind == "s_from_t":
        return lambda: tribokit.s_from_t(op["n"], _FORMS[op["form"]])
    if kind == "c_from_t":
        return lambda: tribokit.c_from_t(op["n"], _FORMS[op["form"]])
    if kind == "bfile_roundtrip":
        path = os.path.join(tmp, "roundtrip.txt")
        return lambda: _bfile_roundtrip(op, path)
    if kind == "boundary":
        return lambda: identities.boundary_consistency((0, op["hi"]))
    if kind == "fault_sweep":
        return lambda: _fault_sweep(op)
    if kind == "vieta":
        return lambda: _vieta(op)
    raise ValueError(f"unknown operation type: {kind}")


def failed(result: Any) -> bool:
    """A CLI call fails on a usage or domain error; exit 3 is a verdict to check."""
    return isinstance(result, CliResult) and result.code not in (0, 3)


# ------------------------------------------------------------- oracles

def _adjugate(m) -> list[list[int]]:
    """Inverse of a determinant-one 3x3 matrix."""
    def cof(r: int, c: int) -> int:
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        return -minor if (r + c) % 2 else minor
    return [[cof(c, r) for c in range(3)] for r in range(3)]


def _trace(m) -> int:
    return m[0][0] + m[1][1] + m[2][2]


def _minor_sum(m) -> int:
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0] + m[0][0] * m[2][2] - m[0][2] * m[2][0]
            + m[1][1] * m[2][2] - m[1][2] * m[2][1])


def matrix_value(kind: str, n: int) -> int:
    """T, S or C at any integer n from A^n (or its inverse for n < 0)."""
    m = tribomatrix.mat_pow(abs(n))
    if n < 0:
        m = _adjugate(m)
    if kind == "T":
        return m[0][1]
    return _trace(m) if kind == "S" else _minor_sum(m)


def _range_values(kind: str, lo: int, hi: int) -> list[int]:
    return [v for _, v in seqcore.sequence_range(KINDS[kind], lo, hi)]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def _rows(fmt: str, text: str, json_key: str) -> list[tuple[int, int]]:
    """(index, value) rows of eval or expand output in any format."""
    if fmt in ("plain", "bfile"):
        return [(int(a), int(b)) for a, b in (line.split() for line in text.splitlines())]
    if fmt == "csv":
        return [(int(a), int(b)) for a, b in list(csv.reader(io.StringIO(text)))[1:]]
    data = json.loads(text)
    if json_key == "values":
        return [(item["n"], int(item["value"])) for item in data["values"]]
    return list(enumerate(int(value) for value in data["coefficients"]))


def _fields(fmt: str, text: str) -> dict[str, str]:
    """``key value`` lines (plain) or ``field,value`` rows (csv)."""
    if fmt == "plain":
        return dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
    return {row[0]: row[-1] for row in list(csv.reader(io.StringIO(text)))[1:]}


# --------------------------------------------------------------- checks

def _check_eval(op: dict, result: CliResult) -> None:
    kind, lo, hi = op["kind"], op["lo"], op["hi"]
    rows = _rows(op["format"], result.stdout, "values")
    _expect([n for n, _ in rows] == list(range(lo, hi + 1)), f"eval {kind} {lo}..{hi}: wrong indices")
    values = [v for _, v in rows]
    if op["strategy"] == "recurrence":
        # Three consecutive anchors from A^n fix the whole span once every
        # row satisfies the defining recurrence.
        for i in range(min(3, len(values))):
            _expect(values[i] == matrix_value(kind, lo + i), f"eval {kind} {lo + i}: wrong value")
        c1, c2, c3 = _COEFFS[kind]
        for i in range(3, len(values)):
            _expect(values[i] == c1 * values[i - 1] + c2 * values[i - 2] + c3 * values[i - 3],
                    f"eval {kind} {lo + i}: wrong value")
    elif lo == hi:
        _expect(values == [seqcore.term(KINDS[kind], lo)], f"eval {kind} {lo}: wrong value")
    else:
        _expect(values == _range_values(kind, lo, hi), f"eval {kind} {lo}..{hi}: wrong values")


def _check_matrix(op: dict, result: CliResult) -> None:
    n, fmt, text = op["n"], op["format"], result.stdout
    if fmt == "json":
        data = json.loads(text)
        entries = [[int(x) for x in row] for row in data["entries"]]
        trace, minor_sum = int(data["trace"]), int(data["minors"]["total"])
    elif fmt == "csv":
        table = {(row[0], row[1]): int(row[2]) for row in list(csv.reader(io.StringIO(text)))[1:]}
        entries = [[table[("entry", f"{i}{j}")] for j in range(3)] for i in range(3)]
        trace, minor_sum = table[("trace", "")], table[("minor_sum", "")]
    else:
        lines = text.splitlines()
        entries = [[int(x) for x in line.split()] for line in lines[1:4]]
        fields = _fields("plain", "\n".join(lines[4:]))
        trace, minor_sum = int(fields["trace"]), int(fields["minor_sum"])
    t = {k: seqcore.term(SequenceKind.TRIBONACCI, k) for k in (n + 1, n, n - 1)}
    t[n - 2] = t[n + 1] - t[n] - t[n - 1]
    t[n - 3] = t[n] - t[n - 1] - t[n - 2]
    # A^n holds T(n+1) .. T(n-3); the walk gives three, the recurrence the rest.
    expected = [
        [t[n + 1], t[n], t[n - 1]],
        [t[n] + t[n - 1], t[n - 1] + t[n - 2], t[n - 2] + t[n - 3]],
        [t[n], t[n - 1], t[n - 2]],
    ]
    _expect(entries == expected, f"matrix {n}: wrong entries")
    _expect(trace == _trace(expected), f"matrix {n}: wrong trace")
    _expect(minor_sum == _minor_sum(expected), f"matrix {n}: wrong minor sum")


def _same_int(text: str, value: int) -> bool:
    """Compare a bench value, possibly shortened to '<k digits> prefix...'."""
    if not text.startswith("<"):
        return int(text) == value
    length, prefix = text[1:].split(" digits> ")
    try:
        full = str(value)
    except ValueError:  # beyond the int-to-str limit, so not what was printed
        return False
    return len(full) == int(length) and full.startswith(prefix.rstrip("."))


def _check_bench(op: dict, result: CliResult) -> None:
    kind, n, fmt, text = op["kind"], op["n"], op["format"], result.stdout
    if fmt == "json":
        data = json.loads(text)
        values = {row["strategy"]: row["value"] for row in data["strategies"]}
        agree = data["exact_agreement"]
    elif fmt == "csv":
        values = {row[0]: row[2] or None for row in list(csv.reader(io.StringIO(text)))[1:]}
        agree = None
    else:
        values = {}
        for line in text.splitlines()[1:-1]:
            strategy, rest = line.split(None, 1)
            values[strategy] = rest.split("value=", 1)[1].split("  ")[0] if "value=" in rest else None
        agree = text.splitlines()[-1].endswith("yes")
    expected = matrix_value(kind, n)
    _expect(values["recurrence"] is not None and _same_int(values["recurrence"], expected),
            f"bench {kind} {n}: wrong recurrence value")
    _expect(values["matrix"] == values["recurrence"], f"bench {kind} {n}: matrix value differs")
    _expect(agree in (None, True), f"bench {kind} {n}: strategies reported as disagreeing")
    if values.get("binet") is not None:
        _expect(_same_int(values["binet"], expected), f"bench {kind} {n}: wrong binet value")


def _check_expand(op: dict, result: CliResult) -> None:
    source, count = op["source"], op["count"]
    rows = _rows(op["format"], result.stdout, "coefficients")
    if source == "CEven":
        expected = _range_values("C", 0, 2 * count - 2)[::2]
    else:
        expected = _range_values(source, 0, count - 1)
    _expect(rows == list(enumerate(expected)), f"expand {source} {count}: wrong coefficients")


def _crosscheck_report(fmt: str, text: str) -> tuple[int | None, int]:
    """(rows compared, mismatch count); csv lists mismatches only."""
    if fmt == "json":
        data = json.loads(text)
        return data["rows_compared"], len(data["mismatches"])
    if fmt == "csv":
        return None, len(text.splitlines()) - 1
    fields = dict(part.split("=") for part in text.splitlines()[0].split() if "=" in part)
    return int(fields["rows"]), int(fields["mismatches"])


_fixture_cache: dict[str, list[tuple[int, int]]] = {}


def _fixture_rows(kind: str) -> list[tuple[int, int]]:
    if kind not in _fixture_cache:
        sequence_id = oeis.OEIS_IDS[KINDS[kind]]
        path = os.path.join(os.path.dirname(oeis.__file__), "fixtures", f"b{sequence_id[1:]}.txt")
        with open(path, encoding="ascii") as handle:
            _fixture_cache[kind] = [
                (int(a), int(b)) for a, b in
                (line.split() for line in handle if line.strip() and not line.startswith("#"))
            ]
    return _fixture_cache[kind]


def _check_crosscheck(op: dict, result: CliResult) -> None:
    kind, fmt = op["kind"], op["format"]
    if op["op"] == "crosscheck":
        listed = _fixture_rows(kind)[:op["rows"]]
    else:
        listed = seqcore.sequence_range(KINDS[kind], op["lo"], op["hi"])
    lo, hi = listed[0][0], listed[-1][0]
    truth = dict(zip(range(lo, hi + 1), _range_values(kind, lo, hi)))
    bad = sum(truth.get(n) != value for n, value in listed)
    rows, mismatches = _crosscheck_report(fmt, result.stdout)
    _expect(rows in (None, len(listed)), f"crosscheck {kind}: compared {rows} rows, not {len(listed)}")
    _expect(mismatches == bad and result.code == (3 if bad else 0),
            f"crosscheck {kind}: reported {mismatches} mismatches, expected {bad}")


def _check_roundtrip(op: dict, result: Any) -> None:
    bfile, report = result
    written = seqcore.sequence_range(KINDS[op["kind"]], op["lo"], op["hi"])
    _expect(list(bfile.rows) == written, f"b-file {op['kind']} {op['lo']}..{op['hi']}: wrong rows")
    _expect(report.ok and report.rows_compared == len(written),
            f"b-file {op['kind']}: crosscheck did not confirm {len(written)} rows")


def _verify_reports(fmt: str, text: str) -> list[tuple[str, int, int]]:
    """(identity, cases, counterexamples) per report."""
    if fmt == "json":
        return [(r["identity"], r["cases_checked"], len(r["counterexamples"]))
                for r in json.loads(text)["reports"]]
    if fmt == "csv":
        return [(row[0], int(row[2]), int(row[3])) for row in list(csv.reader(io.StringIO(text)))[1:]]
    out = []
    for line in text.splitlines():
        if line.startswith(" "):
            continue
        fields = dict(part.split("=") for part in line.split() if "=" in part)
        out.append((line.split()[0], int(fields["cases"]), int(fields["counterexamples"])))
    return out


_records: dict[str, Any] = {}


def _registry() -> dict[str, Any]:
    """Identity records by name, in registry order (built once, untraced)."""
    if not _records:
        _records.update((r.name, r) for r in identities.registry())
    return _records


def _expected_cases(name: str, n_bounds: tuple[int, int], m_bounds: tuple[int, int]) -> int:
    record = _registry()[name]
    ns = range(n_bounds[0], n_bounds[1] + 1)
    if record.arity == 1:
        return sum(1 for n in ns if record.domain(n))
    ms = range(m_bounds[0], m_bounds[1] + 1)
    return sum(1 for n in ns for m in ms if record.domain(n, m))


def _check_verify(op: dict, result: CliResult) -> None:
    n_bounds = (op["lo"], op["hi"])
    m_bounds = n_bounds if op["m_lo"] is None else (op["m_lo"], op["m_hi"])
    reports = _verify_reports(op["format"], result.stdout)
    names = list(_registry()) if op["identity"] == "all" else [op["identity"]]
    _expect([r[0] for r in reports] == names, f"verify {op['identity']}: wrong report list")
    for name, cases, bad in reports:
        _expect(bad == 0, f"verify {name}: counterexamples on the canonical seeds")
        _expect(cases == _expected_cases(name, n_bounds, m_bounds), f"verify {name}: wrong case count")
    _expect(result.code == 0, f"verify {op['identity']}: exit status {result.code}")


def _cubic(x: Any) -> Any:
    return ((x - 1) * x - 1) * x - 1


def _check_root_values(p: int, alpha: Any, beta: Any) -> None:
    with mpmath.workdps(p + 10):
        tolerance = mpmath.mpf(10) ** (2 - p)
        _expect(1.83 < alpha < 1.84 and abs(_cubic(mpmath.mpf(alpha))) < tolerance,
                f"roots {p}: alpha is not a root")
        _expect(abs(_cubic(mpmath.mpc(beta))) < tolerance and mpmath.mpc(beta).imag > 0,
                f"roots {p}: beta is not a root")


def _check_roots(op: dict, result: CliResult) -> None:
    p, fmt, text = op["precision"], op["format"], result.stdout
    if fmt == "json":
        data = json.loads(text)
        precision, alpha = data["precision"], data["alpha"]
        beta_re, beta_im = data["beta"]["real"], data["beta"]["imag"]
    else:
        fields = _fields(fmt, text)
        precision, alpha = int(fields["precision"]), fields["alpha"]
        if fmt == "csv":
            beta_re, beta_im = fields["beta_real"], fields["beta_imag"]
        else:
            beta_re, beta_im = fields["beta"].rstrip("i").split(" + ")
    _expect(precision == p, f"roots: ran at precision {precision}, not {p}")
    with mpmath.workdps(p + 10):  # parse the printed digits at full precision
        _check_root_values(p, mpmath.mpf(alpha), mpmath.mpc(beta_re, beta_im))


def _check_vieta(op: dict, result: Any) -> None:
    roots, residuals = result
    p = op["precision"]
    limit = 10.0 ** -min(p, 300)  # the residuals are floats, which end near 1e-308
    _expect(max(residuals.sum_res, residuals.pair_res, residuals.prod_res) < limit,
            f"vieta {p}: residuals above {limit}")
    with mpmath.workdps(p + 10):
        _check_root_values(p, roots.alpha, roots.beta)


def _check_boundary(op: dict, report: Any) -> None:
    _expect(report.ok and report.cases_checked == op["hi"] + 1, f"boundary 0..{op['hi']}: not clean")


def _check_fault(op: dict, reports: list) -> None:
    found = sum(len(r.counterexamples) for r in reports)
    _expect(found > 0, f"fault sweep {op['sequence']}[{op['position']}]{op['delta']:+d}: "
                       "mutated seed went unnoticed")


def _check_lib_value(op: dict, value: int) -> None:
    kind = "S" if op["op"] == "s_from_t" else "C"
    _expect(value == matrix_value(kind, op["n"]), f"{op['op']} {op['n']} {op['form']}: wrong value")


_CHECKS = {
    "eval": _check_eval, "matrix": _check_matrix, "bench": _check_bench, "expand": _check_expand,
    "crosscheck": _check_crosscheck, "crosscheck_file": _check_crosscheck, "verify": _check_verify,
    "roots": _check_roots, "s_from_t": _check_lib_value, "c_from_t": _check_lib_value,
    "bfile_roundtrip": _check_roundtrip, "boundary": _check_boundary, "fault_sweep": _check_fault,
    "vieta": _check_vieta,
}


def check(op: dict, result: Any) -> None:
    """Raise ``Wrong`` unless the successful result is the right answer."""
    try:
        _CHECKS[op["op"]](op, result)
    except Wrong as exc:
        raise Wrong(f"{exc} [{json.dumps(op)}]") from exc
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise Wrong(f"unreadable output ({type(exc).__name__}: {exc}) [{json.dumps(op)}]") from exc
