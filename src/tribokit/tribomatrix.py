"""Exact 3x3 matrix route to the sequences.

The companion-style matrix A = [[1,1,0],[1,0,1],[1,0,0]] has
characteristic polynomial x^3 - x^2 - x - 1, so tr(A^n) = S(n) and the
sum of the order-2 principal minors of A^n = C(n).  Entries of A^n are
Tribonacci numbers; see ``entries_from_tribonacci``.  det A = 1, so the
inverse of A is integral too, and all of this holds at every integer n.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import seqcore
# ``tribonacci`` stays bound here for perfbench/tracing.py, which wraps it by this name.
from .seqcore import SequenceKind, tribonacci  # noqa: F401

Row = tuple[int, int, int]
Matrix3 = tuple[Row, Row, Row]

_A: Matrix3 = ((1, 1, 0), (1, 0, 1), (1, 0, 0))
_A_INV: Matrix3 = ((0, 0, 1), (1, 0, -1), (0, 1, -1))
_I: Matrix3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def tribomatrix() -> Matrix3:
    """The generator matrix A."""
    return _A


def identity() -> Matrix3:
    return _I


def mat_mul(a: Matrix3, b: Matrix3) -> Matrix3:
    """Exact product of two 3x3 integer matrices."""
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )  # type: ignore[return-value]


def mat_pow(n: int) -> Matrix3:
    """A^n for any integer n: binary exponentiation of A, or of A^-1 when
    n < 0, to the power |n| (A^0 = I)."""
    result = _I
    base = _A if n >= 0 else _A_INV
    n = abs(n)
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def mat_pow_naive(n: int) -> Matrix3:
    """A^n by |n| multiplications by A or A^-1; reference oracle for mat_pow."""
    step = _A if n >= 0 else _A_INV
    result = _I
    for _ in range(abs(n)):
        result = mat_mul(result, step)
    return result


def entries_from_tribonacci(n: int) -> Matrix3:
    """A^n assembled directly from Tribonacci numbers, for any integer n.

    Rows: (T(n+1), T(n), T(n-1)),
          (T(n)+T(n-1), T(n-1)+T(n-2), T(n-2)+T(n-3)),
          (T(n), T(n-1), T(n-2)), read from one window of T; T at
    negative indices makes n = 0 reproduce the identity matrix.
    """
    t = seqcore.tribonacci_window(n)
    return (
        (t(n + 1), t(n), t(n - 1)),
        (t(n) + t(n - 1), t(n - 1) + t(n - 2), t(n - 2) + t(n - 3)),
        (t(n), t(n - 1), t(n - 2)),
    )


def trace(m: Matrix3) -> int:
    return m[0][0] + m[1][1] + m[2][2]


def determinant(m: Matrix3) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def trace_pow(n: int) -> int:
    """tr(A^n) = S(n) for any integer n."""
    return trace(mat_pow(n))


@dataclass(frozen=True)
class MinorSumReport:
    """The three order-2 principal minors of A^n and their sum (= C(n))."""

    minor_12: int
    minor_13: int
    minor_23: int
    total: int

    def __post_init__(self) -> None:
        if self.total != self.minor_12 + self.minor_13 + self.minor_23:
            raise ValueError("total must equal the sum of the three minors")


def minors_of(m: Matrix3) -> MinorSumReport:
    """Order-2 principal minors of any 3x3 matrix."""
    m12 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    m13 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    m23 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    return MinorSumReport(m12, m13, m23, m12 + m13 + m23)


def minor_sum(n: int) -> MinorSumReport:
    """Principal 2x2 minors of A^n; their sum equals C(n)."""
    return minors_of(mat_pow(n))


def term_of(kind: SequenceKind, power: Matrix3) -> int:
    """T(n), S(n) or C(n) read off power = A^n: an entry, the trace, the minor sum."""
    if kind is SequenceKind.TRIBONACCI:
        return power[0][1]
    if kind is SequenceKind.GENERALIZED_LUCAS:
        return trace(power)
    return minors_of(power).total
