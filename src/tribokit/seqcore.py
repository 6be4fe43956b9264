"""Exact evaluation of the Tribonacci-family sequences.

Three integer sequences share the cubic x^3 - x^2 - x - 1:

* ``T`` -- Tribonacci numbers, seeds 0, 1, 1, each term the sum of the
  previous three.
* ``S`` -- the generalized Lucas companion, seeds 3, 1, 3, same
  recurrence.  S(n) is the power sum of the three roots of the cubic.
* ``C`` -- the minor-sum sequence, seeds 3, -1, -1, with recurrence
  C(n) = -C(n-1) - C(n-2) + C(n-3).  C(n) is the power sum of the
  pairwise root products.

``RECURRENCES`` holds each sequence once, as a ``Recurrence`` of
coefficients and seeds, whose passes the identity sweeps also read
(``memo``; fault injection swaps the seeds).  ``T_FORMS`` holds the
T-forms of S and C once, as formula texts that ``s_from_t``, ``c_from_t``
and the identity statements compile, and ``T_FROM_S`` the S-form of T.

A term a(n), n >= 0, is x^n modulo the cubic: an O(log n) ladder of
squarings (Fiduccia's method), each of five big squarings.  A negative
index reads the sequence backwards (``Recurrence.reversed``), integral as
c3 is +-1.  Every linear
pass -- range rows, identity sweeps, printed ranges and expansions -- is one
generator compiled per coefficient tuple (``_pass``) over int or exact
decimal arithmetic; in decimal a printed row costs O(digits), where
CPython's int-to-str is quadratic.  Only compiled passes outlive a call.
"""
from __future__ import annotations

import decimal
import functools
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from decimal import Decimal
from enum import Enum, unique
from itertools import islice
from typing import NamedTuple


@unique
class SequenceKind(Enum):
    """Selector for the three sequences; values are the CLI letters."""

    TRIBONACCI = "T"
    GENERALIZED_LUCAS = "S"
    MINOR_SUM = "C"

    @classmethod
    def from_string(cls, text: str) -> "SequenceKind":
        """Accept the single letters T/S/C or spelled-out names."""
        key = text.strip().upper().replace("-", "_")
        aliases = {
            "T": cls.TRIBONACCI,
            "TRIBONACCI": cls.TRIBONACCI,
            "S": cls.GENERALIZED_LUCAS,
            "LUCAS": cls.GENERALIZED_LUCAS,
            "GENERALIZED_LUCAS": cls.GENERALIZED_LUCAS,
            "C": cls.MINOR_SUM,
            "MINOR_SUM": cls.MINOR_SUM,
            "MINORSUM": cls.MINOR_SUM,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(f"unknown sequence kind: {text!r} (expected T, S or C)") from None


@unique
class SForm(Enum):
    """The two linear combinations of T values that produce S(n)."""

    MINOR = "minor"
    OGF = "ogf"


@unique
class CForm(Enum):
    """The two quadratic combinations of T values that produce C(n)."""

    MINOR_EXPANSION = "minor-expansion"
    SQUARE = "square"


Coeffs = tuple[int, int, int]


def _square(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)^2 mod x^3 - c1*x^2 - c2*x - c3: five big squarings, then a fold.

    r(x)^2 = p0 + p1*x + ... + p4*x^4 is interpolated from p0 = r0^2,
    p4 = r2^2 and the squares of r(1), r(-1) and r(2); its divisions by 2
    and 6 are exact."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    p0, p4 = r0 * r0, r2 * r2
    plus, minus, two = r0 + r1 + r2, r0 - r1 + r2, r0 + 2 * r1 + 4 * r2
    plus, minus, two = plus * plus, minus * minus, two * two
    odd = (plus - minus) // 2  # p1 + p3
    p2 = (plus + minus) // 2 - p0 - p4
    p3 = (two - p0 - 4 * p2 - 16 * p4 - 2 * odd) // 6
    p1 = odd - p3
    p1, p2, p3 = p1 + c3 * p4, p2 + c2 * p4, p3 + c1 * p4  # x^4 = c1*x^3 + c2*x^2 + c3*x
    return p0 + c3 * p3, p1 + c2 * p3, p2 + c1 * p3  # x^3 = c1*x^2 + c2*x + c3


def _times_x(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)*x mod the cubic: a shift and a fold, no big products."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    return c3 * r2, r0 + c2 * r2, r1 + c1 * r2


def _power(coeffs: Coeffs, n: int) -> Coeffs:
    """(r0, r1, r2) with x^n = r0 + r1*x + r2*x^2 mod the cubic, for n >= 0,
    so that a(n) = r0*a(0) + r1*a(1) + r2*a(2).  Left-to-right binary on n."""
    r = (1, 0, 0)
    for bit in bin(n)[2:]:
        r = _square(coeffs, r)
        if bit == "1":
            r = _times_x(coeffs, r)
    return r


def _dot(r: Coeffs, seeds: Coeffs) -> int:
    return r[0] * seeds[0] + r[1] * seeds[1] + r[2] * seeds[2]


# Exact decimal arithmetic that reads no thread-local context: integer sums
# and small multiples never round, and any inexact step would raise.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)

# The arithmetics a pass runs over, as the source of a sum, a difference and
# a product by a constant: int operators, or the methods of _EXACT.
_INT = ("({} + {})", "({} - {})", "{} * {}")
_DECIMAL = ("_EXACT.add({}, {})", "_EXACT.subtract({}, {})", "_EXACT.multiply({}, {})")


def _pairwise(join: str, xs: list[str]) -> str:
    """xs joined pairwise by ``join``, log2(len(xs)) deep, within the parser's nesting limit."""
    while len(xs) > 1:
        xs = [join.format(a, b) for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) - len(xs) % 2:]
    return xs[0]


def _linear(coeffs: Iterable[int], names: Iterable[str], arithmetic: tuple[str, str, str]) -> str:
    """Source of the sum of coeffs[k]*names[k] in ``arithmetic``: a name of
    coefficient +-1 is added or subtracted, one of 0 left out, and only the
    others are multiplied; the sums nest pairwise."""
    add, subtract, multiply = arithmetic
    plus, minus = [], []
    for c, x in zip(map(operator.index, coeffs), names):
        if c:
            (plus if c > 0 else minus).append(x if abs(c) == 1 else multiply.format(abs(c), x))
    step = _pairwise(add, plus or ["0"])
    return subtract.format(step, _pairwise(add, minus)) if minus else step


@functools.lru_cache(maxsize=256)
def _pass(coeffs: tuple[int, ...], arithmetic: tuple[str, str, str]) -> Callable[..., Iterator]:
    """Generator function: from a window a(n), ..., a(n+d-1), d = len(coeffs),
    yield a(n), a(n+1), ... without end, each later a(k) = coeffs[0]*a(k-1)
    + ... + coeffs[d-1]*a(k-d) as one expression in ``arithmetic`` that adds
    or subtracts a neighbour of coefficient +-1, leaves out one of 0 and
    multiplies only by the others, its sums nested pairwise.  At most 256
    are cached, as ``expand --num/--den`` brings coefficients from outside."""
    names = [f"x{k}" for k in range(len(coeffs))]  # x0 holds a(k-d), the last a(k-1)
    step = _linear(coeffs, reversed(names), arithmetic)
    window = ", ".join(names)
    source = (f"def _pass({window}):\n    yield from ({window},)[:-1]\n    while True:\n"
              f"        yield {names[-1]}\n        {window} = {', '.join([*names[1:], step])}\n")
    namespace: dict[str, Callable[..., Iterator]] = {}
    exec(source, globals(), namespace)
    return namespace["_pass"]


class _RecurrenceFields(NamedTuple):
    coeffs: Coeffs
    seeds: Coeffs


class Recurrence(_RecurrenceFields):
    """a(n) = c1*a(n-1) + c2*a(n-2) + c3*a(n-3) for coeffs (c1, c2, c3), from
    seeds (a(0), a(1), a(2)).  c3 must be 1 or -1, so ``reversed`` is integral.
    An immutable named tuple; ``_make`` (and so ``_replace``) runs the check too."""

    __slots__ = ()

    def __new__(cls, coeffs: Coeffs, seeds: Coeffs) -> "Recurrence":
        if abs(coeffs[2]) != 1:
            raise ValueError(f"c3 must be 1 or -1, got coefficients {coeffs}")
        return super().__new__(cls, coeffs, seeds)

    @classmethod
    def _make(cls, iterable) -> "Recurrence":
        return cls(*iterable)

    @property
    def reversed(self) -> "Recurrence":
        """b(k) = a(2 - k), read for every negative index: as 1/c3 == c3, b has
        coefficients (-c3*c2, -c3*c1, c3) and the seeds reversed."""
        c1, c2, c3 = self.coeffs
        return Recurrence((-c3 * c2, -c3 * c1, c3), self.seeds[::-1])

    def at(self, n: int) -> int:
        """a(n) at any integer n from one ladder call."""
        if n < 0:
            return self.reversed.at(2 - n)
        return _dot(_power(self.coeffs, n), self.seeds)

    def window(self, lo: int) -> Coeffs:
        """a(lo), a(lo+1), a(lo+2) from one ladder call and two shifts."""
        if lo < 0:
            return self.reversed.window(-lo)[::-1]
        r0 = _power(self.coeffs, lo)
        r1 = _times_x(self.coeffs, r0)
        r2 = _times_x(self.coeffs, r1)
        return _dot(r0, self.seeds), _dot(r1, self.seeds), _dot(r2, self.seeds)

    def terms(self, lo: int) -> Iterator[int]:
        """a(lo), a(lo+1), ... without end: the ladder's window, then the int pass."""
        return _pass(self.coeffs, _INT)(*self.window(lo))

    def memo(self) -> Callable[[int], int]:
        """Bi-infinite evaluator that holds no table: a(n) for n >= 0 continues
        the int pass a(0), a(1), ... of the seeds, and for n < 0 the pass
        a(2), a(1), a(0), a(-1), ... of ``reversed``; a pass asked below its
        position restarts from the seeds.  Asked going out from zero
        (ascending for n >= 0, descending for n < 0), each pass runs once
        and holds only its window and its last value."""

        def walk(r: Recurrence) -> Callable[[int], int]:
            k, value, rest = -1, 0, _pass(r.coeffs, _INT)(*r.seeds)

            def at(j: int) -> int:  # the j-th value of r's pass
                nonlocal k, value, rest
                if j != k:
                    if j < k:
                        k, rest = -1, _pass(r.coeffs, _INT)(*r.seeds)
                    value = next(rest) if j == k + 1 else next(islice(rest, j - k - 1, None))
                    k = j
                return value

            return at

        ahead, behind = walk(self), walk(self.reversed)
        return lambda n: ahead(n) if n >= 0 else behind(2 - n)


# The one recurrence table of the package.
RECURRENCES: dict[SequenceKind, Recurrence] = {
    SequenceKind.TRIBONACCI: Recurrence((1, 1, 1), (0, 1, 1)),
    SequenceKind.GENERALIZED_LUCAS: Recurrence((1, 1, 1), (3, 1, 3)),
    SequenceKind.MINOR_SUM: Recurrence((-1, -1, 1), (3, -1, -1)),
}

# C(2k) satisfies an order-3 recurrence of its own in the half index k.
_C_EVEN = Recurrence((-1, -3, 1), (3, -1, -5))

# S(n) and C(n) as combinations of T values, each the text of one formula
# in T and n: the paper's T-forms, evaluated by s_from_t and c_from_t and
# compiled into the statements of the S_T_FORMS / C_T_FORMS identities.
T_FORMS: dict[SForm | CForm, str] = {
    SForm.MINOR: "T(n) + 2*T(n-1) + 3*T(n-2)",
    SForm.OGF: "3*T(n+1) - 2*T(n) - T(n-1)",
    CForm.MINOR_EXPANSION: "2*T(n+1)*T(n-2) + T(n+1)*T(n-1) - T(n)**2"
                           " - 2*T(n)*T(n-1) - T(n-1)*T(n-3) + T(n-2)**2",
    CForm.SQUARE: "-T(n)**2 + 2*T(n-1)**2 + 3*T(n-2)**2"
                  " - 2*T(n)*T(n-1) + 2*T(n)*T(n-2) + 4*T(n-1)*T(n-2)",
}

T_FROM_S = (22, (5, 1, 2))  # 22*T(n) = 5*S(n-1) + S(n) + 2*S(n+1) at every n: analytic's T


def tribonacci(n: int) -> int:
    """T(n) for any integer n (T(0)=0, T(1)=1, T(2)=1)."""
    return term(SequenceKind.TRIBONACCI, n)


def s_lucas(n: int) -> int:
    """S(n) for any integer n (S(0)=3, S(1)=1, S(2)=3)."""
    return term(SequenceKind.GENERALIZED_LUCAS, n)


def c_seq(n: int) -> int:
    """C(n) for any integer n (C(0)=3, C(1)=-1, C(2)=-1)."""
    return term(SequenceKind.MINOR_SUM, n)


def c_even(k: int) -> int:
    """C(2k) through the dedicated even-index recurrence.

    C(2k) = -C(2k-2) - 3*C(2k-4) + C(2k-6) with seeds C(0)=3, C(2)=-1,
    C(4)=-5, indexed by the half index k, any integer.
    """
    return _C_EVEN.at(k)


def term(kind: SequenceKind, n: int) -> int:
    """Single term of the selected sequence at any integer index."""
    return RECURRENCES[kind].at(n)


def sequence_range(kind: SequenceKind, lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, value) pairs for lo..hi inclusive: one ladder, then one linear pass."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    return list(zip(range(lo, hi + 1), islice(RECURRENCES[kind].terms(lo), hi - lo + 1)))


def tribonacci_window(n: int) -> Callable[[int], int]:
    """k -> T(k) for k in n-3..n+1, read from one range pass."""
    return dict(sequence_range(SequenceKind.TRIBONACCI, n - 3, n + 1)).__getitem__


_STR_LIMIT_MESSAGE = (
    "Exceeds the limit ({} digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def _decimal_texts(values: Iterable[Decimal]) -> Iterator[str]:
    """Text of each exact decimal integer, equal to str() of the int, in
    O(digits) each; past the digit limit of str(int) (sign not counted) it
    raises str(int)'s ValueError, with its message, at the value it meets."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    for value in values:
        if limit and value.adjusted() >= limit:
            raise ValueError(_STR_LIMIT_MESSAGE.format(limit))
        yield _EXACT.to_sci_string(value)


def _text_terms(coeffs: tuple[int, ...], window: Sequence[int]) -> Iterator[str]:
    """Decimal text of the window values, then of each later term
    a(n) = coeffs[0]*a(n-1) + ... + coeffs[d-1]*a(n-d), d = len(coeffs) <= len(window),
    without end.

    Window values go through str(int) one at a time, as they are asked for;
    later terms run the decimal pass, O(digits) each to compute and to print
    (``_decimal_texts``).
    """
    texts = []
    for text in map(str, window):
        yield text
        texts.append(text)
    d = len(coeffs)
    yield from _decimal_texts(islice(_pass(coeffs, _DECIMAL)(*map(Decimal, texts[-d:])), d, None))


def range_text(kind: SequenceKind, lo: int, hi: int) -> list[str]:
    """Decimal text of a(lo)..a(hi), equal to str() of each value of
    ``sequence_range``: one ladder call, then one decimal pass."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    recurrence = RECURRENCES[kind]
    return list(islice(_text_terms(recurrence.coeffs, recurrence.window(lo)), hi - lo + 1))


@functools.cache
def _t_form(text: str) -> Callable[[Callable[[int], int], int], int]:
    """(T, n) -> the value of one ``T_FORMS`` text, compiled once per text."""
    return eval(compile(f"lambda T, n: {text}", text, "eval"), {"__builtins__": {}})


def s_from_t(n: int, form: SForm) -> int:
    """S(n) as a linear combination of Tribonacci numbers."""
    return _t_form(T_FORMS[SForm(form)])(tribonacci_window(n), n)


def c_from_t(n: int, form: CForm) -> int:
    """C(n) as a quadratic combination of Tribonacci numbers."""
    return _t_form(T_FORMS[CForm(form)])(tribonacci_window(n), n)
