"""tribokit command line: eval, verify, expand, matrix, roots, crosscheck, bench.

Each ``cmd_*`` returns ``(exit status, output)`` and writes nothing: text
for plain, csv and bfile, or a json payload dict.  ``main`` is the one
place that writes stdout.  In json it adds the ``command`` key and writes
each ``JSONText`` value (rows that ``render_rows`` rendered already)
between the pieces of the ``json.dumps`` envelope, so megabytes of digits
never pass through ``json.dumps``.  Every row is rendered, or refused,
before the first byte is written.

Exit status: 0 success; 3 a verification or crosscheck found mismatches,
or two of ``bench``'s values disagree; 2 a usage, domain or IO error (any
ValueError or OSError, a failed write and a Binet enclosure that does not
round, ``analytic.PrecisionError``, included) or a MemoryError, which
``main`` alone prints as one ``tribokit: <message>`` line.  A value past
the int/str digit limit for certain, work past DIGIT_BUDGET or
SWEEP_BUDGET, and bench repetitions past MAX_REPETITIONS, are refused so
before any evaluation.

The module level imports only ``seqcore`` from the package; each command
imports its own layer, and ``json`` or ``csv``, where it runs.
``STRATEGIES`` is the one list of the ways ``eval`` and ``bench`` reach a(n).
"""
from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import seqcore
from .seqcore import SequenceKind

if TYPE_CHECKING:
    from . import identities, oeis

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAILED = 3

CONFIG_ENV = "TRIBOKIT_CONFIG"
_COMMENT = re.compile(r"(?:^|\s)#.*")
FORMATS = ("plain", "json", "csv", "bfile")

# What a command returns: its exit status, and text or a json payload.
Output = tuple[int, str | dict[str, Any]]

# Work budgets, checked before any evaluation, each at least 10x what the
# README advertises: S(0)..S(100000) print 1.3e9 digits, and `verify CONS_3
# --range 0:400 --m-range 2:402` holds 2.3e10 point-bits.
DIGIT_BUDGET = 3 * 10**10  # decimal digits of the values one command prints
SWEEP_BUDGET = 10**12  # a verify's points times value bits (identities.sweep_bits)
MAX_REPETITIONS = 1000  # bench reports its fastest repetition; a thousand is plenty


class JSONText(NamedTuple):
    """A json payload value whose JSON text is rendered already; ``main``
    writes it into the envelope as it stands."""

    text: str

    def __str__(self) -> str:  # csv writes each field through str()
        return self.text


class CliConfig(NamedTuple):
    default_range: tuple[int, int] = (0, 100)
    precision: int = 30
    fixture_dir: str | None = None
    output_format: str = "plain"
    oeis_url: str = "https://oeis.org"


def _parse_bounds(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"bounds must look like LO:HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty bounds: {lo} exceeds {hi}")
    return lo, hi


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc


def load_config(path: str | None) -> CliConfig:
    """Defaults, overlaid with ``key = value`` lines from a config file;
    a ``#`` at the start of a line or after whitespace starts a comment."""
    config = CliConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV) or None
    if path is None:
        return config
    for line_number, raw in enumerate(_read(path, "config").splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_number}: expected key = value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key == "default_range":
            try:
                config = config._replace(default_range=_parse_bounds(value))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
        elif key == "precision":
            try:
                precision = int(value)
            except ValueError:
                raise ValueError(f"{path}:{line_number}: precision must be an integer") from None
            if precision < 15:
                raise ValueError(f"{path}:{line_number}: precision must be >= 15")
            config = config._replace(precision=precision)
        elif key == "fixture_dir":
            config = config._replace(fixture_dir=value)
        elif key == "output_format":
            if value not in FORMATS:
                raise ValueError(f"{path}:{line_number}: output_format must be one of {FORMATS}")
            config = config._replace(output_format=value)
        elif key == "oeis_url":
            config = config._replace(oeis_url=value)
        else:
            raise ValueError(f"{path}:{line_number}: unknown config key {key!r}")
    return config


def _within(command: str, estimate: int, budget: int, unit: str) -> None:
    if estimate > budget:
        raise ValueError(
            f"{command}: an estimated {estimate:,} {unit} exceed the budget of {budget:,}")


def _printable(command: str, low: int, digits: int) -> None:
    """Refuse, before any evaluation, output that could not be printed:
    with str(int)'s ValueError when a value passes its digit limit for
    certain (``low``, as from ``seqcore.digit_bounds``), as printing it
    would, or when the printed digits may pass DIGIT_BUDGET."""
    limit = seqcore._str_limit()
    if limit and low > limit:
        raise ValueError(seqcore._STR_LIMIT_MESSAGE.format(limit))
    _within(command, digits, DIGIT_BUDGET, "printed digits")


def _csv(header: list[str], rows: list[list[Any]]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------- eval

class Strategy(NamedTuple):
    """One way to evaluate a(n) of T, S or C; ``STRATEGIES`` lists them all.
    Each function takes the layer's module first, imported by ``module()`` as
    it runs, and calls the layer through it; ``point`` prepares its evaluator
    outside ``timed``."""

    layer: str  # the package module it evaluates by
    texts: Callable[..., list[str]]  # (layer, kind, lo, hi, precision): eval's a(lo)..a(hi)
    point: Callable[..., dict[str, Any]]  # (layer, kind, n, precision, timed): bench's row
    cap: Callable[..., float] = lambda layer, precision: float("inf")  # eval's largest |n|

    def module(self) -> Any:
        import importlib

        return importlib.import_module(f"{__package__}.{self.layer}")


def _binet_texts(analytic: Any, kind: SequenceKind, lo: int, hi: int, precision: int) -> list[str]:
    return list(map(str, analytic.binet_range(kind, lo, hi, precision)))


def _binet_point(analytic: Any, kind: SequenceKind, n: int, precision: int,
                 timed: Callable) -> dict[str, Any]:
    try:
        row = timed(lambda: analytic.binet_round(kind, n, precision))
    except analytic.PrecisionError as exc:
        return {"seconds": None, "value": None, "note": f"bound exceeded: {exc}"}
    # a Fraction 0 or above 2^-60: the radius of a term of modulus below one
    # is at least 3 units of its bitlength(|n|) + 40 fractional bits
    return {**row, "bound": float(analytic.binet_error_bound(kind, n, precision))}


def _number(analytic: Any, value: Any) -> float | JSONText:
    """An mpf as a float or, nonzero below 1e-300, where a float would
    underflow, as number text at its true decimal exponent (four digits),
    which json, csv and ``_sci`` print as it stands."""
    if not value or value >= 1e-300:
        return float(value)
    return JSONText(analytic.exponent_text(value, 4))


def _sci(value: float | JSONText) -> str:
    """Plain text of a ``_number`` value: a float to four digits, as 1.448e-26."""
    return value.text if isinstance(value, JSONText) else f"{value:.3e}"


STRATEGIES: dict[str, Strategy] = {
    "recurrence": Strategy(
        "seqcore",
        texts=lambda seqcore, kind, lo, hi, precision: seqcore.range_text(kind, lo, hi),
        point=lambda seqcore, kind, n, precision, timed: timed(lambda: seqcore.term(kind, n))),
    # T and S off A^n, C off A^-n (no 2x2 minors): the first value off two half powers,
    # then one step by A or A^-1 a row, in exact decimal
    "matrix": Strategy(
        "tribomatrix",
        texts=lambda tribomatrix, kind, lo, hi, precision: tribomatrix.range_text(kind, lo, hi),
        point=lambda tribomatrix, kind, n, precision, timed:
            timed(lambda: tribomatrix.term(kind, n))),
    "binet": Strategy(
        "analytic", _binet_texts, _binet_point,
        cap=lambda analytic, precision: analytic.binet_index_cap(precision)),
}


def render_rows(fmt: str, header: str, start: int | None, texts: list[str]) -> str:
    """Rows of consecutive indices and the decimal texts of their values,
    built in one join: the one rendering of ``eval`` and ``expand`` rows and
    of ``oeis.format_bfile``.

    ``header`` is the csv header, ``index,value``.  plain and bfile give
    ``n text`` lines, csv gives ``n,text`` lines under the header, and json
    gives the array text ``[{"n": 0, "value": "3"}, ...]``, keyed by the
    header's names.  With ``start`` None the rows are a bare list: the text
    formats number them from 0, and json gives ``["3", ...]``.  A text is
    ASCII digits with an optional minus sign, which csv never quotes and
    json never escapes.
    """
    if fmt == "json" and not texts:
        return "[]"
    count = len(texts)
    first = start or 0
    indices = map(str, range(first, first + count))
    if fmt != "json":
        head = header + "\n" if fmt == "csv" else ""
        columns = [indices, ["," if fmt == "csv" else " "] * count, texts, ["\n"] * count]
    elif start is None:
        head = '["'
        columns = [texts, ['", "'] * (count - 1) + ['"]']]
    else:
        index_key, value_key = header.split(",")
        head = f'[{{"{index_key}": '
        columns = [indices, [f', "{value_key}": "'] * count, texts,
                   [f'"}}, {{"{index_key}": '] * (count - 1) + ['"}]']]
    width = len(columns)
    pieces = [head] + [""] * (width * count)
    for offset, column in enumerate(columns, 1):
        pieces[offset::width] = column
    return "".join(pieces)


def cmd_eval(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    if fmt == "bfile" and args.lo < 0:
        raise ValueError("bfile format requires lo >= 0")
    kind = SequenceKind.from_string(args.kind)
    if args.lo > args.hi:
        raise ValueError(f"empty range: {args.lo} exceeds {args.hi}")
    name, strategy, precision = args.strategy, STRATEGIES[args.strategy], config.precision
    layer = strategy.module()
    if max(abs(args.lo), abs(args.hi)) > (cap := strategy.cap(layer, precision)):
        raise ValueError(f"{name} strategy is certified only for |n| <= {cap} at precision {precision}")
    _printable("eval", *seqcore.digit_bounds(kind, args.lo, args.hi))
    rows = render_rows(fmt, "n,value", args.lo, strategy.texts(layer, kind, args.lo, args.hi, precision))
    if fmt == "json":
        return EXIT_OK, {"kind": kind.value, "strategy": args.strategy, "values": JSONText(rows)}
    return EXIT_OK, rows


# -------------------------------------------------------------- verify

def _report_payload(report: identities.VerificationReport) -> dict[str, Any]:
    return {
        "identity": report.identity,
        "bounds": report.bounds,
        "cases_checked": report.cases_checked,
        "counterexamples": [
            {"point": list(point), "lhs": str(lhs), "rhs": str(rhs)}
            for point, lhs, rhs in report.counterexamples
        ],
        "ok": report.ok,
    }


def cmd_verify(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    n_bounds = _parse_bounds(args.range) if args.range else config.default_range
    m_bounds = _parse_bounds(args.m_range) if args.m_range else n_bounds
    from . import identities

    name = None if args.identity.lower() == "all" else args.identity.upper()
    try:
        _within("verify", identities.sweep_bits(name, n_bounds, m_bounds), SWEEP_BUDGET,
                "point-bits")
        if name is None:
            reports = identities.verify_all(n_bounds, m_bounds)
        else:
            reports = [identities.verify(name, n_bounds, m_bounds)]
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    status = EXIT_OK if all(r.ok for r in reports) else EXIT_FAILED
    if fmt == "json":
        return status, {"reports": [_report_payload(r) for r in reports], "ok": status == EXIT_OK}
    if fmt == "csv":
        return status, _csv(
            ["identity", "bounds", "cases_checked", "counterexamples", "ok"],
            [[r.identity, r.bounds, r.cases_checked, len(r.counterexamples), r.ok]
             for r in reports],
        )
    lines = []
    for report in reports:
        lines.append(
            f"{report.identity}  {report.bounds}  cases={report.cases_checked}  "
            f"counterexamples={len(report.counterexamples)}  {'ok' if report.ok else 'FAILED'}"
        )
        for point, lhs, rhs in report.counterexamples[:10]:
            lines.append(f"  at {point}: lhs={lhs} rhs={rhs}")
        hidden = len(report.counterexamples) - 10
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
    return status, "\n".join(lines)


# -------------------------------------------------------------- expand

def _parse_coeffs(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece.strip()) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must be a comma-separated integer list, got {text!r}") from None


def cmd_expand(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    if args.source is not None and (args.num or args.den):
        raise ValueError("give either a builtin name or --num/--den, not both")
    from . import genfunc

    if args.source is not None:
        ogf = genfunc.builtin_ogf(args.source)
        kind, step = genfunc.builtin_rows(args.source)
        _printable("expand", *seqcore.digit_bounds(kind, 0, step * (args.count - 1), step))
    elif args.num and args.den:
        ogf = genfunc.RationalOGF(_parse_coeffs(args.num, "--num"), _parse_coeffs(args.den, "--den"))
    else:
        raise ValueError("expand needs a builtin name (S, C, CEven) or both --num and --den")
    rows = render_rows(fmt, "n,coefficient", None, genfunc.expand_text(ogf, args.count))
    if fmt == "json":
        return EXIT_OK, {
            "numerator": list(ogf.numerator),
            "denominator": list(ogf.denominator),
            "coefficients": JSONText(rows),
        }
    return EXIT_OK, rows


# -------------------------------------------------------------- matrix

def cmd_matrix(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    from . import tribomatrix

    # A^n's entries and trace run to about S(n)'s digits, its minors and their total C(n)'s
    s_low, s_high = seqcore.digit_bounds(SequenceKind.GENERALIZED_LUCAS, args.n)
    c_low, c_high = seqcore.digit_bounds(SequenceKind.MINOR_SUM, args.n)
    _printable("matrix", max(s_low, c_low), 10 * s_high + 4 * c_high)
    power = tribomatrix.mat_pow(args.n)
    minors = tribomatrix.minors_of(power)
    trace = tribomatrix.trace(power)
    if fmt == "json":
        return EXIT_OK, {
            "n": args.n,
            "entries": [[str(entry) for entry in row] for row in power],
            "trace": str(trace),
            "minors": {
                "minor_12": str(minors.minor_12),
                "minor_13": str(minors.minor_13),
                "minor_23": str(minors.minor_23),
                "total": str(minors.total),
            },
        }
    if fmt == "csv":
        rows = [["entry", f"{i}{j}", str(power[i][j])] for i in range(3) for j in range(3)]
        rows.append(["trace", "", str(trace)])
        rows.append(["minor_sum", "", str(minors.total)])
        return EXIT_OK, _csv(["field", "position", "value"], rows)
    lines = [f"A^{args.n}"]
    lines.extend(" ".join(str(entry) for entry in row) for row in power)
    lines.append(f"trace {trace}")
    lines.append(f"minors {minors.minor_12} {minors.minor_13} {minors.minor_23}")
    lines.append(f"minor_sum {minors.total}")
    return EXIT_OK, "\n".join(lines)


# --------------------------------------------------------------- roots

def cmd_roots(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    from . import analytic

    precision = args.precision if args.precision is not None else config.precision
    # alpha prints precision significant digits; plain prints six parts of them
    _printable("roots", precision, 6 * precision)
    roots = analytic.char_roots(precision)
    vieta = analytic.vieta_check(roots)
    sum_res, pair_res, prod_res = (_number(analytic, r)
                                   for r in (vieta.sum_res, vieta.pair_res, vieta.prod_res))
    alpha, beta_re, beta_im, abs_beta = analytic.root_texts(roots)
    if fmt == "json":
        return EXIT_OK, {
            "precision": precision,
            "alpha": alpha,
            "beta": {"real": beta_re, "imag": beta_im},
            "abs_beta": abs_beta,
            "residuals": JSONText("".join(_json_pieces(
                {"sum": sum_res, "pair": pair_res, "product": prod_res}))),
            "index_cap": analytic.binet_index_cap(precision),
        }
    if fmt == "csv":
        return EXIT_OK, _csv(["field", "value"], [
            ["precision", precision],
            ["alpha", alpha],
            ["beta_real", beta_re],
            ["beta_imag", beta_im],
            ["abs_beta", abs_beta],
            ["residual_sum", sum_res],
            ["residual_pair", pair_res],
            ["residual_product", prod_res],
            ["index_cap", analytic.binet_index_cap(precision)],
        ])
    return EXIT_OK, "\n".join([
        f"precision {precision}",
        f"alpha {alpha}",
        f"beta {beta_re} + {beta_im}i",
        f"gamma {beta_re} - {beta_im}i",
        f"|beta| {abs_beta}",
        f"residual_sum {_sci(sum_res)}",
        f"residual_pair {_sci(pair_res)}",
        f"residual_product {_sci(prod_res)}",
        f"index_cap {analytic.binet_index_cap(precision)}",
    ])


# ---------------------------------------------------------- crosscheck

def transport_factory(base_url: str) -> Callable[[str], str]:
    """``oeis.http_transport``: a module-level hook so tests can substitute a canned transport."""
    from . import oeis

    return oeis.http_transport(base_url)


def _fixture(sequence_id: str, args: argparse.Namespace, config: CliConfig) -> oeis.BFile:
    from . import oeis

    if args.fetch:
        return oeis.fetch_bfile(sequence_id, transport_factory(config.oeis_url))
    if args.fixture is not None:
        text = _read(args.fixture, "fixture")
    elif config.fixture_dir is not None:
        text = _read(os.path.join(config.fixture_dir, f"b{sequence_id[1:]}.txt"), "fixture")
    else:
        text = oeis.bundled_fixture_text(sequence_id)
    return oeis.parse_bfile(text, sequence_id)


def cmd_crosscheck(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    from . import oeis

    kind = SequenceKind.from_string(args.kind)
    sequence_id = oeis.OEIS_IDS[kind]
    rows = args.rows_override if args.rows_override is not None else args.rows
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    try:
        bfile = _fixture(sequence_id, args, config)
    except oeis.BFileError as exc:
        raise ValueError(f"{sequence_id}: {exc}") from exc
    report = oeis.crosscheck(kind, bfile, rows)
    status = EXIT_OK if report.ok else EXIT_FAILED
    if fmt == "json":
        return status, {
            "sequence_id": report.sequence_id,
            "offset_used": report.offset_used,
            "rows_compared": report.rows_compared,
            "mismatches": [
                {"index": index, "local": str(local), "bfile": str(listed)}
                for index, local, listed in report.mismatches
            ],
            "ok": report.ok,
        }
    if fmt == "csv":
        return status, _csv(
            ["index", "local", "bfile"],
            [[index, str(local), str(listed)] for index, local, listed in report.mismatches],
        )
    lines = [
        f"{report.sequence_id}  offset={report.offset_used}  rows={report.rows_compared}  "
        f"mismatches={len(report.mismatches)}  {'ok' if report.ok else 'FAILED'}"
    ]
    lines.extend(
        f"  at {index}: local={local} bfile={listed}"
        for index, local, listed in report.mismatches
    )
    return status, "\n".join(lines)


# --------------------------------------------------------------- bench

def bench_strategies(
    kind: SequenceKind, n: int, repetitions: int, precision: int
) -> tuple[list[dict[str, Any]], bool]:
    """Time each strategy at index n; returns (rows, whether every value
    they print agrees).  A row past its strategy's cap prints no value."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if repetitions > MAX_REPETITIONS:
        raise ValueError(f"bench: repetitions must be <= {MAX_REPETITIONS:,}, got {repetitions:,}")

    def timed(evaluate: Callable[[], int]) -> dict[str, Any]:
        seconds = []
        for _ in range(repetitions):
            start = time.perf_counter()
            value = evaluate()
            seconds.append(time.perf_counter() - start)
        return {"seconds": min(seconds), "value": value}

    rows = [{"strategy": name, **strategy.point(strategy.module(), kind, n, precision, timed)}
            for name, strategy in STRATEGIES.items()]
    return rows, len({row["value"] for row in rows} - {None}) < 2


def _short_int(value: int) -> str:
    text = str(value)
    if len(text) <= 40:
        return text
    return f"<{len(text)} digits> {text[:12]}..."


def cmd_bench(args: argparse.Namespace, config: CliConfig, fmt: str) -> Output:
    kind = SequenceKind.from_string(args.kind)
    if 1 <= args.reps <= MAX_REPETITIONS:  # other counts are refused by bench_strategies first
        low, high = seqcore.digit_bounds(kind, args.n)
        shown = sum(abs(args.n) <= strategy.cap(strategy.module(), config.precision)
                    for strategy in STRATEGIES.values())
        _printable("bench", low, shown * high)
    rows, agreement = bench_strategies(kind, args.n, args.reps, config.precision)
    status = EXIT_OK if agreement else EXIT_FAILED
    if fmt == "json":
        strategies = [{**row, "value": None if row["value"] is None else str(row["value"])}
                      for row in rows]
        return status, {"kind": kind.value, "n": args.n, "repetitions": args.reps,
                        "strategies": strategies, "exact_agreement": agreement}
    if fmt == "csv":
        return status, _csv(
            ["strategy", "seconds", "value", "note", "bound"],
            [[row["strategy"], row["seconds"],
              "" if row["value"] is None else str(row["value"]),
              row.get("note", ""), row.get("bound", "")] for row in rows],
        )
    lines = [f"bench {kind.value} n={args.n} repetitions={args.reps}"]
    for row in rows:
        if row["value"] is None:
            lines.append(f"{row['strategy']:<12} {row['note']}")
        else:
            seconds = f"{row['seconds']:.6f}s"
            extra = f"  bound={_sci(row['bound'])}" if "bound" in row else ""
            lines.append(f"{row['strategy']:<12} {seconds}  value={_short_int(row['value'])}{extra}")
    lines.append(f"exact strategies agree: {'yes' if agreement else 'NO'}")
    return status, "\n".join(lines)


# ------------------------------------------------------------- parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default from config, plain otherwise)")
    common.add_argument("--config", default=None, metavar="PATH",
                        help=f"config file (also via ${CONFIG_ENV})")

    parser = argparse.ArgumentParser(
        prog="tribokit",
        description="Exact Tribonacci-family sequences, identities, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate sequence terms over a range")
    p.add_argument("kind", help="T, S or C")
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--strategy", choices=tuple(STRATEGIES), default=next(iter(STRATEGIES)))

    p = sub.add_parser("verify", parents=[common], help="check identities over index bounds")
    p.add_argument("identity", help="an identity name or 'all'")
    p.add_argument("--range", default=None, metavar="LO:HI",
                   help="bounds for n (default from config)")
    p.add_argument("--m-range", default=None, metavar="LO:HI",
                   help="bounds for m (defaults to the n bounds)")

    p = sub.add_parser("expand", parents=[common],
                       help="expand a rational generating function")
    p.add_argument("source", nargs="?", default=None, help="builtin: S, C or CEven")
    p.add_argument("count", type=int, help="number of coefficients")
    p.add_argument("--num", default=None, metavar="CSV",
                   help="numerator coefficients; a list that starts with '-' is written --num=-3,-1,2")
    p.add_argument("--den", default=None, metavar="CSV", help="denominator coefficients")

    p = sub.add_parser("matrix", parents=[common],
                       help="show A^n with trace and principal minors")
    p.add_argument("n", type=int)

    p = sub.add_parser("roots", parents=[common],
                       help="roots of x^3 - x^2 - x - 1 with Vieta residuals")
    p.add_argument("precision", nargs="?", type=int, default=None,
                   help="decimal digits, >= 15 (default from config)")

    p = sub.add_parser("crosscheck", parents=[common],
                       help="compare a sequence against an OEIS b-file")
    p.add_argument("kind", help="T, S or C")
    p.add_argument("fixture", nargs="?", default=None,
                   help="b-file path (default: bundled fixture)")
    p.add_argument("rows", nargs="?", type=int, default=50,
                   help="rows to compare (default 50)")
    p.add_argument("--rows", dest="rows_override", type=int, default=None,
                   help="rows to compare without naming a fixture path")
    p.add_argument("--fetch", action="store_true", help="retrieve the live b-file")

    p = sub.add_parser("bench", parents=[common],
                       help="time the evaluation strategies at one index")
    p.add_argument("kind", help="T, S or C")
    p.add_argument("n", type=int)
    p.add_argument("reps", nargs="?", type=int, default=3,
                   help=f"repetitions, 1 to {MAX_REPETITIONS:,}; min is reported (default 3)")
    return parser


def _json_pieces(payload: dict[str, Any]) -> list[str]:
    """Pieces of ``json.dumps(payload)``, with each ``JSONText`` value's
    text as one piece, so rows that are rendered already are not copied."""
    import json

    pieces = []
    for key, value in payload.items():
        pieces += (", " if pieces else "{", json.dumps(key), ": ",
                   value.text if isinstance(value, JSONText) else json.dumps(value))
    pieces.append("}")
    return pieces


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        fmt = args.format or config.output_format
        if fmt == "bfile" and args.command != "eval":
            raise ValueError(f"bfile format does not apply to {args.command}")
        # looked up at call time, so a substituted cmd_* is the one that runs
        status, output = globals()[f"cmd_{args.command}"](args, config, fmt)
        pieces = _json_pieces({"command": args.command, **output}) if fmt == "json" else [output]
        for piece in pieces:
            sys.stdout.write(piece)
        if not pieces[-1].endswith("\n"):
            sys.stdout.write("\n")
        return status
    except (ValueError, OSError) as exc:
        print(f"tribokit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"tribokit: {args.command}: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
