"""Exact 3x3 matrix route to the sequences.

The companion-style matrix A = [[1,1,0],[1,0,1],[1,0,0]] has
characteristic polynomial x^3 - x^2 - x - 1, so tr(A^n) = S(n) and the
sum of the order-2 principal minors of A^n = C(n).  Entries of A^n are
Tribonacci numbers; see ``entries_from_tribonacci``.  det A = 1, so the
inverse of A is integral too, and all of this holds at every integer n.

det A = 1 also makes adj(A^n) = A^-n, whose diagonal holds those minors,
so C(n) = tr(A^-n).  ``terms`` reads T(n) = (A^n)_12 and S(n) = tr(A^n)
off A^n, and C(n) = tr(A^-n) off A^-n, whose entries have about half the
digits of A^n's at n > 0.  The trade is at negative indices: for k > 0,
C(-k) is read off A^k, so it costs what S(k) costs.  ``minors_of`` and
``minor_sum`` keep the paper's definition for ``tribokit matrix``.

``mat_pow`` is left-to-right binary powering with an 18-product squaring.
A single value off A^m (m = n, or -n for C) is read off two half powers
X = A^(m//2) and Y = X, or Y = X*A when m is odd: tr(XY) costs 9 big
products, 6 when Y is X, and (XY)_12 costs 3, where forming A^m = XY costs
18 or more.  The squaring and both reads are identities for every 3x3
matrix, not facts about A, so this route shares nothing with ``seqcore``'s
ladder but the definition of A.
"""
from __future__ import annotations

from collections.abc import Iterator
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
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = b
    return (
        (a11 * b11 + a12 * b21 + a13 * b31,
         a11 * b12 + a12 * b22 + a13 * b32,
         a11 * b13 + a12 * b23 + a13 * b33),
        (a21 * b11 + a22 * b21 + a23 * b31,
         a21 * b12 + a22 * b22 + a23 * b32,
         a21 * b13 + a22 * b23 + a23 * b33),
        (a31 * b11 + a32 * b21 + a33 * b31,
         a31 * b12 + a32 * b22 + a33 * b32,
         a31 * b13 + a32 * b23 + a33 * b33),
    )


def _square(m: Matrix3) -> Matrix3:
    """m*m for any 3x3 integer matrix in 18 big products, not 27.

    With {i, j, k} = {1, 2, 3}: off the diagonal,
    (m^2)_ij = m_ij*(m_ii + m_jj) + m_ik*m_kj; on it,
    (m^2)_ii = m_ii^2 + m_ij*m_ji + m_ik*m_ki, and the three diagonal
    entries share the cross products b*d, c*g and f*h.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    bd, cg, fh = b * d, c * g, f * h
    ae, ai, ei = a + e, a + i, e + i
    return (
        (a * a + bd + cg, b * ae + c * h, c * ai + b * f),
        (d * ae + f * g, bd + e * e + fh, f * ei + d * c),
        (g * ai + h * d, h * ei + g * b, cg + fh + i * i),
    )


def mat_pow(n: int) -> Matrix3:
    """A^n for any integer n (A^0 = I): left-to-right binary powering on |n|.

    Each bit squares the running power; each set bit then multiplies it by
    A, or by A^-1 when n < 0, whose entries lie in {-1, 0, 1}.
    """
    base = _A if n >= 0 else _A_INV
    result = _I
    for bit in bin(abs(n))[2:]:
        result = _square(result)
        if bit == "1":
            result = mat_mul(result, base)
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
    """tr(A^n) = S(n) for any integer n, read off two half powers by ``terms``."""
    return next(terms(SequenceKind.GENERALIZED_LUCAS, n))


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


def _trace_of_product(x: Matrix3, y: Matrix3) -> int:
    """tr(x*y) = sum of x_ij*y_ji for any 3x3 matrices, without forming x*y:
    9 big products, or 6 when y is x, as then it is
    a^2 + e^2 + i^2 + 2(bd + cg + fh)."""
    (a, b, c), (d, e, f), (g, h, i) = x
    if y is x:
        return a * a + e * e + i * i + 2 * (b * d + c * g + f * h)
    (p, q, r), (s, t, u), (v, w, z) = y
    return a * p + b * s + c * v + d * q + e * t + f * w + g * r + h * u + i * z


def _entry_12_of_product(x: Matrix3, y: Matrix3) -> int:
    """(x*y)_12 for any 3x3 matrices: row 1 of x times column 2 of y, 3 big products."""
    return x[0][0] * y[0][1] + x[0][1] * y[1][1] + x[0][2] * y[2][1]


def terms(kind: SequenceKind, lo: int) -> Iterator[int]:
    """a(lo), a(lo+1), ... without end, off A^m with m = lo, or m = -lo for C.

    The first value is read off the half powers X = A^(m//2) and Y = X, or
    Y = X*A when m is odd, so A^m is not formed for it.  Only a second value
    forms A^m, as X squared (times A when m is odd); then each value costs
    one product, by A, or by A^-1 for C."""
    m, step = (-lo, _A_INV) if kind is SequenceKind.MINOR_SUM else (lo, _A)
    if kind is SequenceKind.TRIBONACCI:
        first, read = _entry_12_of_product, (lambda power: power[0][1])
    else:
        first, read = _trace_of_product, trace
    half = mat_pow(m // 2)
    yield first(half, mat_mul(half, _A) if m % 2 else half)
    power = _square(half)
    if m % 2:
        power = mat_mul(power, _A)
    while True:
        power = mat_mul(power, step)
        yield read(power)
