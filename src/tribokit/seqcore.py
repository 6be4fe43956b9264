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
coefficients and seeds, which the identity sweeps also memoize (fault
injection swaps the seeds).  ``T_FORMS`` holds the T-forms of S and C
once, for ``s_from_t``, ``c_from_t`` and the identity catalogue.

A single term a(n) needs only x^n modulo the recurrence's cubic: an
O(log |n|) ladder of squarings (Fiduccia's method), at any integer n, as
the trailing coefficients +-1 make x invertible.  A range runs the ladder
once for its first terms, then one linear pass over its rows.  A range
that is to be printed runs that pass in decimal radix instead
(``range_text``), so each row costs O(digits) to add and to print where
CPython's int-to-str conversion is quadratic.  Every function is pure
and exact, with no caching shared between calls.
"""
from __future__ import annotations

import decimal
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum, unique
from itertools import islice


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

    MINOR = "minor"  # S(n) = T(n) + 2*T(n-1) + 3*T(n-2)
    OGF = "ogf"      # S(n) = 3*T(n+1) - 2*T(n) - T(n-1)


@unique
class CForm(Enum):
    """The two quadratic combinations of T values that produce C(n)."""

    MINOR_EXPANSION = "minor-expansion"
    SQUARE = "square"


Coeffs = tuple[int, int, int]


def _square(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)^2 mod x^3 - c1*x^2 - c2*x - c3: six big products, then a fold."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    p0, p1, p2, p3, p4 = r0 * r0, 2 * r0 * r1, r1 * r1 + 2 * r0 * r2, 2 * r1 * r2, r2 * r2
    p1, p2, p3 = p1 + c3 * p4, p2 + c2 * p4, p3 + c1 * p4  # x^4 = c1*x^3 + c2*x^2 + c3*x
    return p0 + c3 * p3, p1 + c2 * p3, p2 + c1 * p3  # x^3 = c1*x^2 + c2*x + c3


def _times_x(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)*x mod the cubic: a shift and a fold, no big products."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    return c3 * r2, r0 + c2 * r2, r1 + c1 * r2


def _over_x(coeffs: Coeffs, r: Coeffs) -> Coeffs:
    """r(x)/x mod the cubic, using x^-1 = c3*(x^2 - c1*x - c2) since 1/c3 == c3."""
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    return r1 - c3 * c2 * r0, r2 - c3 * c1 * r0, c3 * r0


def _power(coeffs: Coeffs, n: int) -> Coeffs:
    """(r0, r1, r2) with x^n = r0 + r1*x + r2*x^2 mod the cubic, so that
    a(n) = r0*a(0) + r1*a(1) + r2*a(2).  Left-to-right binary on |n|."""
    step = _times_x if n >= 0 else _over_x
    r = (1, 0, 0)
    for bit in bin(abs(n))[2:]:
        r = _square(coeffs, r)
        if bit == "1":
            r = step(coeffs, r)
    return r


def _dot(r: Coeffs, seeds: Coeffs) -> int:
    return r[0] * seeds[0] + r[1] * seeds[1] + r[2] * seeds[2]


@dataclass(frozen=True)
class Recurrence:
    """a(n) = c1*a(n-1) + c2*a(n-2) + c3*a(n-3) for coeffs (c1, c2, c3), from
    seeds (a(0), a(1), a(2)).  |c3| = 1 keeps the reverse direction integral."""

    coeffs: Coeffs
    seeds: Coeffs

    def at(self, n: int) -> int:
        """a(n) at any integer n from one ladder call."""
        return _dot(_power(self.coeffs, n), self.seeds)

    def window(self, lo: int) -> Coeffs:
        """a(lo), a(lo+1), a(lo+2) from one ladder call and two shifts."""
        r0 = _power(self.coeffs, lo)
        r1 = _times_x(self.coeffs, r0)
        r2 = _times_x(self.coeffs, r1)
        return _dot(r0, self.seeds), _dot(r1, self.seeds), _dot(r2, self.seeds)

    def terms(self, lo: int) -> Iterator[int]:
        """a(lo), a(lo+1), ... without end, in constant memory: one ladder
        call for the window, then one recurrence step a term."""
        c1, c2, c3 = self.coeffs
        a, b, c = self.window(lo)
        while True:
            yield a
            a, b, c = b, c, c1 * c + c2 * b + c3 * a

    def memo(self) -> Callable[[int], int]:
        """Bi-infinite evaluator with extend-on-demand caching."""
        c1, c2, c3 = self.coeffs
        fwd: list[int] = list(self.seeds)
        bwd: list[int] = fwd[::-1]  # bwd[k + 2] holds a(-k)

        def at(n: int) -> int:
            if n >= 0:
                while len(fwd) <= n:
                    fwd.append(c1 * fwd[-1] + c2 * fwd[-2] + c3 * fwd[-3])
                return fwd[n]
            while len(bwd) <= 2 - n:
                bwd.append(c3 * (bwd[-3] - c1 * bwd[-2] - c2 * bwd[-1]))
            return bwd[2 - n]

        return at


# The one recurrence table of the package.
RECURRENCES: dict[SequenceKind, Recurrence] = {
    SequenceKind.TRIBONACCI: Recurrence((1, 1, 1), (0, 1, 1)),
    SequenceKind.GENERALIZED_LUCAS: Recurrence((1, 1, 1), (3, 1, 3)),
    SequenceKind.MINOR_SUM: Recurrence((-1, -1, 1), (3, -1, -1)),
}

# C(2k) satisfies an order-3 recurrence of its own in the half index k.
_C_EVEN = Recurrence((-1, -3, 1), (3, -1, -5))

# S(n) and C(n) as combinations of T values, each a function of (t, n)
# where t(k) is T(k): the paper's T-forms, read by s_from_t, c_from_t and
# the S_T_FORMS / C_T_FORMS identity sweeps.
T_FORMS: dict[SForm | CForm, Callable[[Callable[[int], int], int], int]] = {
    SForm.MINOR: lambda t, n: t(n) + 2 * t(n - 1) + 3 * t(n - 2),
    SForm.OGF: lambda t, n: 3 * t(n + 1) - 2 * t(n) - t(n - 1),
    CForm.MINOR_EXPANSION: lambda t, n: (
        2 * t(n + 1) * t(n - 2) + t(n + 1) * t(n - 1) - t(n) ** 2
        - 2 * t(n) * t(n - 1) - t(n - 1) * t(n - 3) + t(n - 2) ** 2
    ),
    CForm.SQUARE: lambda t, n: (
        -t(n) ** 2 + 2 * t(n - 1) ** 2 + 3 * t(n - 2) ** 2
        - 2 * t(n) * t(n - 1) + 2 * t(n) * t(n - 2) + 4 * t(n - 1) * t(n - 2)
    ),
}


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
    C(4)=-5, indexed by the half index k >= 0.
    """
    if k < 0:
        raise ValueError(f"half index must be >= 0, got {k}")
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


# Exact decimal arithmetic that reads no thread-local context: integer sums
# and small multiples never round, and any inexact step would raise.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_STR_LIMIT_MESSAGE = (
    "Exceeds the limit ({} digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit"
)


def _text_terms(coeffs: Sequence[int], window: Sequence[int]) -> Iterator[str]:
    """Decimal text of the window values, then of each later term
    a(n) = coeffs[0]*a(n-1) + ... + coeffs[d-1]*a(n-d), d = len(coeffs) <= len(window),
    without end.

    Window values go through str(int) one at a time, as they are asked for.
    Later terms are summed in decimal radix, so a term costs O(digits) to
    compute and to print.  Each obeys the digit limit str(int) obeys
    (sys.get_int_max_str_digits, sign not counted) and fails with its message.
    """
    last = []
    for value in window:
        text = str(value)
        yield text
        last.append(Decimal(text))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    add, subtract, multiply = _EXACT.add, _EXACT.subtract, _EXACT.multiply
    steps = [(-k, c > 0, None if abs(c) == 1 else Decimal(abs(c)))
             for k, c in enumerate(coeffs, start=1) if c]
    zero = Decimal(0)
    while True:
        value = zero  # subtracting never yields -0 under ROUND_HALF_EVEN
        for back, positive, scale in steps:
            x = last[back] if scale is None else multiply(scale, last[back])
            value = add(value, x) if positive else subtract(value, x)
        if limit and value.adjusted() >= limit:
            raise ValueError(_STR_LIMIT_MESSAGE.format(limit))
        yield _EXACT.to_sci_string(value)
        last.append(value)
        del last[0]


def range_text(kind: SequenceKind, lo: int, hi: int) -> list[str]:
    """Decimal text of a(lo)..a(hi), equal to str() of each value of
    ``sequence_range``: one ladder call, then one decimal pass."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    recurrence = RECURRENCES[kind]
    return list(islice(_text_terms(recurrence.coeffs, recurrence.window(lo)), hi - lo + 1))


def s_from_t(n: int, form: SForm) -> int:
    """S(n) as a linear combination of Tribonacci numbers."""
    return T_FORMS[SForm(form)](tribonacci_window(n), n)


def c_from_t(n: int, form: CForm) -> int:
    """C(n) as a quadratic combination of Tribonacci numbers."""
    return T_FORMS[CForm(form)](tribonacci_window(n), n)
