"""Machine-checkable identity catalogue for the S/C/T sequences.

Every identity is a record: a name, an index arity, its statement, the
domain predicate and both sides compiled from that statement, and the
backend they read.  A statement is written once, as ``lhs = rhs
[domain]``, so the text is what gets checked.  ``verify`` sweeps a record
over inclusive index bounds and reports every tuple where the two sides
differ, so a claim is either confirmed over the stated range or refuted
with concrete counterexamples; bounds holding no case of the record's
domain are refused.  ``boundary_consistency`` sweeps one more statement,
the right sides of PROD_GE and PROD_LT joined on the diagonal n = m.
Nothing is ever compared in floating point.

A sweep reads each sequence value once: the same statement compiles into
a filter of the in-domain points, the index sets its calls read there,
the largest |index| a point reads, and one comprehension over value
tables, each call a subscript.  The backend is asked for those indices
alone, going out from zero, so a sweep holds the values its points read
and no others (CONS_3 reads S only at multiples of n), each from its
first read to its last.  A sweep of more than _CHUNK points and values
runs in chunks taken in order of that largest |index|, and drops each
value after the last chunk that reads it.  A chunk ends at _CHUNK points
or where its points times the bits of its widest value pass _BITS, so
chunks shrink only where values are wide: over [0, N]^2 CONS_3 peaks at
7 MB under tracemalloc at N = 200 and 21 MB at N = 400, most of it the
points themselves, where 8,192-point chunks peaked at 17 and 68 MB and
holding every value to the end grew as N^4.

Each record carries the SequenceBackend it evaluates through, a triple of
pure int -> int functions for T, S and C.  The default backend runs the
passes of ``seqcore.RECURRENCES`` (``Recurrence.memo``) per backend;
alternative seeds on the same recurrences can be injected to prove the
checks are actually sensitive to faults.  The statements of S_T_FORMS
and C_T_FORMS are built from ``seqcore.T_FORMS``, the formula texts
``s_from_t`` and ``c_from_t`` run, so all 14 records are compiled from
text.
"""
from __future__ import annotations

import ast
import bisect
import functools
import math
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

from .seqcore import (RECURRENCES, T_FORMS, CForm, Recurrence, SequenceKind, SForm,
                      _alpha_bits)

Bounds = tuple[int, int]
Counterexample = tuple[tuple[int, ...], int, int]
Points = Iterable[tuple[int, ...]]
Seeds = tuple[int, int, int]
Sides = Callable[..., tuple[Callable[..., bool], Callable[..., int], Callable[..., int]]]
Cases = Callable[[Points], list[tuple[int, ...]]]
Reads = Callable[[list[tuple[int, ...]]], tuple[set[int], set[int], set[int]]]
Reach = Callable[..., int]
Sweep = Callable[..., list[Counterexample]]

# A chunk of a streamed sweep holds at most _CHUNK points, whose count times
# the width in bits of the widest value they read (``_width``) stays within
# _BITS: narrow values go 8,192 points a chunk, CONS_3's widest over
# [0, 250]^2 about 300.
_CHUNK = 8192
_BITS = 1 << 24
_WORD = 64


class SequenceBackend(NamedTuple):
    """The three sequence evaluators the identity records read from."""

    t: Callable[[int], int]
    s: Callable[[int], int]
    c: Callable[[int], int]

    @classmethod
    def with_seeds(
        cls,
        t_seeds: Seeds | None = None,
        s_seeds: Seeds | None = None,
        c_seeds: Seeds | None = None,
    ) -> "SequenceBackend":
        """Backend over possibly mutated seed triples (fault injection);
        a triple left out keeps its sequence's own seeds."""
        return cls(*(  # SequenceKind lists T, S, C in this order
            Recurrence(RECURRENCES[kind].coeffs, seeds or RECURRENCES[kind].seeds).memo()
            for kind, seeds in zip(SequenceKind, (t_seeds, s_seeds, c_seeds))
        ))

    @classmethod
    def default(cls) -> "SequenceBackend":
        return cls.with_seeds()


# The package's one dataclass: perfbench/tracing.py rewraps a record's sides
# with ``dataclasses.replace``, which keeps every other field.
@dataclass(frozen=True)
class IdentityRecord:
    name: str
    arity: int
    statement: str
    domain: Callable[..., bool] = field(repr=False)
    lhs: Callable[..., int] = field(repr=False)
    rhs: Callable[..., int] = field(repr=False)
    backend: SequenceBackend = field(repr=False)  # what ``_run`` asks for values


class VerificationReport(NamedTuple):
    identity: str
    bounds: str
    cases_checked: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


# (name, statement): each formula identity exactly as stated.  A statement
# reads ``lhs = rhs`` with an optional ``  [domain]`` clause; ``registry``
# compiles it, so the text is the record.
CATALOGUE: tuple[tuple[str, str], ...] = (
    ("REC_C", "C(n) = -C(n-1) - C(n-2) + C(n-3)"),
    ("REC_CEVEN", "C(2n) = -C(2n-2) - 3*C(2n-4) + C(2n-6)"),
    ("PROD_GE", "S(n)*S(n+m) = S(2n+m) + S(m)*C(n) - C(n-m)  [n >= m >= 0]"),
    ("PROD_LT", "S(n)*S(n+m) = S(2n+m) + S(m)*C(n) - S(m-n)  [0 <= n < m]"),
    ("CONS_1", "S(n)*S(n-1) = S(2n-1) + C(n-1) - C(n-2)  [n >= 1]"),
    ("CONS_2", "S(n)*S(2n) = S(3n) + S(n)*C(n) - 3  [n >= 0]"),
    ("CONS_3", "S(n)*S(n*m) = S(n*(m+1)) + S(n*(m-1))*C(n) - S(n*(m-2))  [n >= 0, m >= 2]"),
    ("SQUARE", "S(n)^2 = S(2n) + 2*C(n)  [n >= 0]"),
    ("CUBE", "S(n)^3 = S(3n) + 3*S(n)*C(n) - 3  [n >= 0]"),
    ("QUARTIC_A", "S(n)^4 = S(4n) + 2*C(2n) + 4*C(n)^2 + 4*S(2n)*C(n)  [n >= 0]"),
    ("QUARTIC_B", "S(n)^4 = S(4n) - 4*S(n) + 4*S(2n)*C(n) + 6*C(n)^2  [n >= 0]"),
    ("CN2", "2*S(n) = C(n)^2 - C(2n)  [n >= 0]"),
)


_COMPARISONS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _allowed(node: ast.AST, calls: bool = True) -> bool:
    """Whether ``node`` uses only integers, n, m, one-argument S/C/T
    calls, + - * **, unary minus, comparisons and ``and``.  A call's
    argument calls none, has no ``**`` and names n and m once at most, so
    every index is affine in n and in m: its |value| over a box is
    largest at one of the box's corners (``sweep_bits``)."""
    match node:
        case ast.Constant(value=value):
            return type(value) is int
        case ast.Name(id="n" | "m"):
            return True
        case ast.Call(func=ast.Name(id="S" | "C" | "T"), args=[arg], keywords=[]):
            names = [leaf.id for leaf in ast.walk(arg) if isinstance(leaf, ast.Name)]
            return calls and len(names) == len(set(names)) and _allowed(arg, False)
        case ast.BinOp(left, ast.Add() | ast.Sub() | ast.Mult() | ast.Pow() as op, right):
            return ((calls or not isinstance(op, ast.Pow))
                    and _allowed(left, calls) and _allowed(right, calls))
        case ast.UnaryOp(ast.USub(), operand):
            return _allowed(operand, calls)
        case ast.Compare(left, ops, comparators):
            return all(isinstance(op, _COMPARISONS) for op in ops) and all(
                _allowed(side, calls) for side in (left, *comparators))
        case ast.BoolOp(ast.And(), values):
            return all(_allowed(value, calls) for value in values)
    return False


class _Tables(ast.NodeTransformer):
    """Each S(k), C(k) and T(k) call turned into a subscript, S[k]: a read
    of a value table."""

    def visit_Call(self, node: ast.Call) -> ast.Subscript:
        return ast.Subscript(node.func, node.args[0], ast.Load())


@functools.cache
def _compile(statement: str) -> tuple[int, Sides, Cases, Reads, Reach, Sweep]:
    """Arity, ``sides``, ``cases``, ``reads``, ``reach`` and ``sweep`` for one
    statement, compiled once per process, in one code object, from the same
    trees.  ``sides(T, S, C)`` is the record's ``(domain, lhs, rhs)`` over
    those evaluators.  ``cases(points)`` lists the points in the domain, in
    their order.  ``reads(points)`` is the T, S and C index sets that the calls
    of both sides read at the points; ``reach(n[, m])`` is the largest
    |index| they read at one point; ``sweep(points, T, S, C)`` evaluates
    both sides with each call a subscript of a value table and lists
    (point, lhs, rhs) wherever they differ, in point order."""
    source = re.sub(r"(\d)(?=[A-Za-z(])", r"\1*", statement).replace("^", "**")
    equation, _, clause = source.partition("  [")
    sides = equation.split(" = ")
    texts = sides + [clause.removesuffix("]").replace(",", " and")] if clause else sides
    try:
        trees = [ast.parse(text, mode="eval").body for text in texts]
    except SyntaxError:
        raise ValueError(f"statement does not parse: {statement!r}") from None
    if len(sides) != 2 or not all(map(_allowed, trees)):
        raise ValueError(
            f"statement is not an equation over integers, n, m and S/C/T: {statement!r}")
    names = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    params = ("n", "m") if "m" in names else ("n",)
    lhs, rhs, *domain = map(ast.unparse, trees)
    lambdas = ", ".join(f"lambda {', '.join(params)}: ({text})"
                        for text in (*(domain or ["True"]), lhs, rhs))
    args: dict[str, dict[str, None]] = {"T": {}, "S": {}, "C": {}}  # ordered sets
    for node in (node for tree in trees[:2] for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            args[node.func.id][ast.unparse(node.args[0])] = None
    point = "".join(f"{p}, " for p in params)
    reads = ", ".join("{%s}" % ", ".join([f"*[{a} for {point}in points]" for a in texts] or ["*()"])
                      for texts in args.values())
    reach = "lambda %s: max(0, %s)" % (", ".join(params), ", ".join(
        f"abs({a})" for a in dict.fromkeys(a for texts in args.values() for a in texts)))
    left, right = (ast.unparse(_Tables().visit(tree)) for tree in trees[:2])
    sweep = (f"[(({point}), l, r) for {point}in points"
             f" if (l := ({left})) != (r := ({right}))]")
    cases = "[(%s) for %sin points%s]" % (point, point, "".join(f" if ({text})" for text in domain))
    functions = eval(compile(f"(lambda T, S, C: ({lambdas}), lambda points: {cases},"
                             f" lambda points: ({reads}),"
                             f" {reach}, lambda points, T, S, C: {sweep})",
                             statement, "eval"),
                     {"__builtins__": {"abs": abs, "max": max}})
    return len(params), *functions


def _records(statements: Iterable[tuple[str, str]],
             backend: SequenceBackend | None) -> list[IdentityRecord]:
    """The compiled (name, statement) records, evaluated over ``backend``."""
    b = backend if backend is not None else SequenceBackend.default()
    records = []
    for name, statement in statements:
        arity, sides, *_ = _compile(statement)
        records.append(IdentityRecord(name, arity, statement, *sides(*b), b))
    return records


def _statements() -> list[tuple[str, str]]:
    """The 14 records' (name, statement) pairs: ``CATALOGUE`` followed by
    S_T_FORMS and C_T_FORMS, whose statements join one squared residual per
    ``seqcore.T_FORMS`` text, zero exactly when every T-form gives S(n) or
    C(n)."""
    t_forms = [(name, " + ".join(f"({T_FORMS[form]} - {target}(n))**2" for form in forms) + " = 0")
               for name, forms, target in (("S_T_FORMS", SForm, "S"), ("C_T_FORMS", CForm, "C"))]
    return [*CATALOGUE, *t_forms]


def registry(backend: SequenceBackend | None = None) -> list[IdentityRecord]:
    """The 14 identity records of ``_statements``, evaluated over ``backend``."""
    return _records(_statements(), backend)


def _find(names: Sequence[str], name: str) -> int:
    """Where the identity of that name stands among ``names``."""
    if name not in names:
        raise KeyError(f"no identity named {name!r}; known: {', '.join(names)}")
    return names.index(name)


def _box(arity: int, n_bounds: Bounds, m_bounds: Bounds | None) -> tuple[Points, str]:
    """The index tuples within inclusive bounds (m's default to n's) and their text."""
    bounds = (n_bounds, m_bounds or n_bounds)[:arity]
    return (product(*(range(lo, hi + 1) for lo, hi in bounds)),
            ", ".join(f"{v} in [{lo}, {hi}]" for v, (lo, hi) in zip("nm", bounds)))


def _run(record: IdentityRecord, points: Points, bounds: str) -> VerificationReport:
    """Compare both sides at each in-domain point; refused if there is none.

    The backend is asked once for each value the points read, going out
    from zero, in one table per sequence that the compiled sweep reads.  The
    indices the points read are gathered _CHUNK points at a time; once a
    sweep has more points, and they read more values, than one chunk holds,
    it streams (``_stream``), so it holds a value only from the chunk that
    reaches its index to the last chunk that reads it.  Any other sweep
    holds them all until it ends.  The points come in ascending order, and
    so do the counterexamples."""
    _, _, cases, reads, reach, sweep = _compile(record.statement)
    points = cases(points)
    if not points:
        raise ValueError(f"{record.name}: no case of its domain lies in {bounds}")
    most = min(_CHUNK, _BITS // _WORD)  # the most points one chunk holds
    read: list[set[int]] = [set(), set(), set()]
    for start in range(0, len(points), _CHUNK):
        for seen, ks in zip(read, reads(points[start:start + _CHUNK])):
            seen |= ks
        if min(len(points), sum(map(len, read))) > most:
            del read  # the stream gathers them chunk by chunk
            counterexamples = _stream(points, record.backend, reads, reach, sweep)
            break
    else:
        wanted = [sorted(indices, key=abs) for indices in read]  # no pass restarts
        counterexamples = sweep(points, *(dict(zip(ks, map(f, ks)))
                                          for f, ks in zip(record.backend, wanted)))
    return VerificationReport(record.name, bounds, len(points), tuple(counterexamples))


def _width(k: int) -> int:
    """Bits that T(k), S(k) or C(k) takes at most, plus one word: each
    grows at most as alpha^|k| (``seqcore._alpha_bits``)."""
    return _alpha_bits(k) + _WORD


def sweep_bits(name: str | None, n_bounds: Bounds, m_bounds: Bounds | None = None) -> int:
    """A sweep's size before it runs, in O(records): for the record named,
    or every record when ``name`` is None, the points of its box times the
    ``_width`` of the largest |index| its statement reads there, which its
    compiled ``reach`` gives at one of the box's corners (``_allowed``);
    summed."""
    names, statements = zip(*_statements())
    total = 0
    for statement in statements if name is None else [statements[_find(names, name)]]:
        arity, *_, reach, _ = _compile(statement)
        bounds = (n_bounds, m_bounds or n_bounds)[:arity]
        points = math.prod(hi - lo + 1 for lo, hi in bounds)
        total += points * _width(max(reach(*corner) for corner in product(*bounds)))
    return total


def _stream(points: list[tuple[int, ...]], backend: SequenceBackend,
            reads: Reads, reach: Reach, sweep: Sweep) -> list[Counterexample]:
    """``sweep`` over the points in chunks, after sorting them in place by
    ``reach``, the largest |index| each reads (ties keep their order).  A
    chunk ends before the point that would take it past _CHUNK points, or
    its points times the ``_width`` of its widest value past _BITS; it holds
    one point at least.  Each sequence's indices that the chunks read are
    asked in order of |k|: before a chunk, those up to its largest are asked
    and tabled, so every pass still goes out from zero; after it, the values
    no later chunk reads are dropped.  The counterexamples come back sorted
    by point."""
    points.sort(key=lambda point: reach(*point))
    ends = [0]
    while (start := ends[-1]) < len(points):
        span = range(start + 1, min(start + _CHUNK, len(points)) + 1)
        fit = bisect.bisect_right(
            span, _BITS, key=lambda end: (end - start) * _width(reach(*points[end - 1])))
        ends.append(span[max(fit, 1) - 1])
    chunks = list(zip(ends, ends[1:]))
    tops = [reach(*points[end - 1]) for end in ends[1:]]
    # per chunk, the indices of each sequence that no later chunk reads
    drops: list[list[set[int]]] = []
    later: list[set[int]] = [set(), set(), set()]
    for start, end in reversed(chunks):
        drops.append([ks - seen for ks, seen in zip(reads(points[start:end]), later)])
        for seen, ks in zip(later, drops[-1]):
            seen |= ks
    wanted = [sorted(seen, key=abs) for seen in later]  # no pass restarts
    del later
    tables: list[dict[int, int]] = [{}, {}, {}]
    found: list[Counterexample] = []
    for (start, end), low, top, drop in zip(chunks, [-1, *tops], tops, reversed(drops)):
        for at, ks, table in zip(backend, wanted, tables):
            new = ks[bisect.bisect_right(ks, low, key=abs):bisect.bisect_right(ks, top, key=abs)]
            table.update(zip(new, map(at, new)))
        found += sweep(points[start:end], *tables)
        for table, ks in zip(tables, drop):
            for k in ks:
                del table[k]
    found.sort(key=lambda counterexample: counterexample[0])
    return found


def verify(
    name: str,
    n_bounds: Bounds,
    m_bounds: Bounds | None = None,
    backend: SequenceBackend | None = None,
) -> VerificationReport:
    """Check one identity on every in-domain tuple within the bounds."""
    records = registry(backend)
    record = records[_find([r.name for r in records], name)]
    return _run(record, *_box(record.arity, n_bounds, m_bounds))


def verify_all(
    n_bounds: Bounds,
    m_bounds: Bounds | None = None,
    backend: SequenceBackend | None = None,
) -> list[VerificationReport]:
    """Every registry record over shared bounds, in registry order."""
    return [_run(record, *_box(record.arity, n_bounds, m_bounds)) for record in registry(backend)]


def boundary_consistency(
    bounds: Bounds = (0, 50), backend: SequenceBackend | None = None
) -> VerificationReport:
    """At n = m the right sides of the catalogue's PROD_GE and PROD_LT
    must coincide; a counterexample is ((n, n), PROD_GE rhs, PROD_LT rhs).

    PROD_GE subtracts C(0) and PROD_LT (extended to n = m) subtracts
    S(0); both equal 3, so the diagonal has a single consistent value.
    """
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"BOUNDARY: empty bounds, {lo} exceeds {hi}")
    rhs = {name: statement.partition("  [")[0].split(" = ")[1] for name, statement in CATALOGUE}
    statement = f"{rhs['PROD_GE']} = {rhs['PROD_LT']}  [n == m]"
    [diagonal] = _records([("BOUNDARY", statement)], backend)
    return _run(diagonal, ((n, n) for n in range(lo, hi + 1)), f"n = m in [{lo}, {hi}]")
