"""Exact evaluation of the Tribonacci-family sequences.

Three integer sequences share the cubic x^3 - x^2 - x - 1:

* ``T`` -- Tribonacci numbers, seeds 0, 1, 1, each term the sum of the
  previous three.
* ``S`` -- the generalized Lucas companion, seeds 3, 1, 3, same
  recurrence.  S(n) is the power sum of the three roots of the cubic.
* ``C`` -- the minor-sum sequence, seeds 3, -1, -1, with recurrence
  C(n) = -C(n-1) - C(n-2) + C(n-3).  C(n) is the power sum of the
  pairwise root products.

A single term a(n) needs only x^n modulo the recurrence's cubic: an
O(log |n|) ladder of squarings (Fiduccia's method), at any integer n, as
the trailing coefficients +-1 make x invertible.  A range runs the ladder
once for its first terms, then one linear pass over its rows.  Every
function is pure and exact, with no caching shared between calls.
"""
from __future__ import annotations

from collections.abc import Iterator
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

# (c1, c2, c3) with a(n) = c1*a(n-1) + c2*a(n-2) + c3*a(n-3), and the
# seed triple (a(0), a(1), a(2)).  |c3| = 1 keeps the reverse direction
# integral.
_RECURRENCES: dict[SequenceKind, tuple[Coeffs, Coeffs]] = {
    SequenceKind.TRIBONACCI: ((1, 1, 1), (0, 1, 1)),
    SequenceKind.GENERALIZED_LUCAS: ((1, 1, 1), (3, 1, 3)),
    SequenceKind.MINOR_SUM: ((-1, -1, 1), (3, -1, -1)),
}

# C(2k) satisfies an order-3 recurrence of its own in the half index k.
_EVEN_COEFFS = (-1, -3, 1)
_EVEN_SEEDS = (3, -1, -5)


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


def iter_terms(kind: SequenceKind, lo: int) -> Iterator[int]:
    """a(lo), a(lo+1), ... without end, in constant memory: one ladder call
    for the window a(lo), a(lo+1), a(lo+2), then one recurrence step a term."""
    coeffs, seeds = _RECURRENCES[kind]
    c1, c2, c3 = coeffs
    r0 = _power(coeffs, lo)
    r1 = _times_x(coeffs, r0)
    a, b, c = _dot(r0, seeds), _dot(r1, seeds), _dot(_times_x(coeffs, r1), seeds)
    while True:
        yield a
        a, b, c = b, c, c1 * c + c2 * b + c3 * a


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
    return _dot(_power(_EVEN_COEFFS, k), _EVEN_SEEDS)


def term(kind: SequenceKind, n: int) -> int:
    """Single term of the selected sequence at any integer index."""
    coeffs, seeds = _RECURRENCES[kind]
    return _dot(_power(coeffs, n), seeds)


def sequence_range(kind: SequenceKind, lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, value) pairs for lo..hi inclusive: one ladder, then one linear pass."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    return list(zip(range(lo, hi + 1), islice(iter_terms(kind, lo), hi - lo + 1)))


def s_from_t(n: int, form: SForm) -> int:
    """S(n) as a linear combination of Tribonacci numbers."""
    t = dict(sequence_range(SequenceKind.TRIBONACCI, n - 3, n + 1))
    if form is SForm.MINOR:
        return t[n] + 2 * t[n - 1] + 3 * t[n - 2]
    if form is SForm.OGF:
        return 3 * t[n + 1] - 2 * t[n] - t[n - 1]
    raise ValueError(f"unknown S form: {form!r}")


def c_from_t(n: int, form: CForm) -> int:
    """C(n) as a quadratic combination of Tribonacci numbers."""
    t = dict(sequence_range(SequenceKind.TRIBONACCI, n - 3, n + 1))
    if form is CForm.MINOR_EXPANSION:
        return (
            2 * t[n + 1] * t[n - 2]
            + t[n + 1] * t[n - 1]
            - t[n] ** 2
            - 2 * t[n] * t[n - 1]
            - t[n - 1] * t[n - 3]
            + t[n - 2] ** 2
        )
    if form is CForm.SQUARE:
        return (
            -t[n] ** 2
            + 2 * t[n - 1] ** 2
            + 3 * t[n - 2] ** 2
            - 2 * t[n] * t[n - 1]
            + 2 * t[n] * t[n - 2]
            + 4 * t[n - 1] * t[n - 2]
        )
    raise ValueError(f"unknown C form: {form!r}")
