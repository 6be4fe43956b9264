"""Exact 3x3 matrix route to the sequences.

The companion-style matrix A = [[1,1,0],[1,0,1],[1,0,0]] has
characteristic polynomial x^3 - x^2 - x - 1, so tr(A^n) = S(n) and the
sum of the order-2 principal minors of A^n = C(n).  Entries of A^n are
Tribonacci numbers; see ``entries_from_tribonacci``.  det A = 1, so the
inverse of A is integral too, and all of this holds at every integer n.

det A = 1 also makes adj(A^n) = A^-n, whose diagonal holds those minors,
so C(n) = tr(A^-n).  ``term`` reads T(n) = (A^n)_12 and S(n) = tr(A^n)
off A^n, and C(n) = tr(A^-n) off A^-n, whose entries have about half the
digits of A^n's at n > 0.  The trade is at negative indices: for k > 0,
C(-k) is read off A^k, so it costs what S(k) costs.  ``minors_of`` and
``minor_sum`` keep the paper's definition for ``tribokit matrix``.

``mat_pow`` is left-to-right binary powering with an 18-product squaring
and, at each set bit, one product by A or A^-1, written out here as six
additions (``_times_a``, ``_times_a_inv``).  A single value off A^m
(m = n, or -n for C) is read off two half powers X = A^(m//2) and Y = X,
or Y = X*A when m is odd: tr(XY) costs 9 big products, 6 when Y is X, and
(XY)_12 costs 3, where forming A^m = XY costs 18 or more.  The squaring
and both reads are identities for every 3x3 matrix, not facts about A, and
the two steps are A's and A^-1's columns, so this route shares no
arithmetic with ``seqcore``'s ladder or its compiled passes: only the
definition of A.

A range (``range_text``) forms A^m once, lifts it to Decimal and then
steps it in ``seqcore._EXACT``, each row one ``_times_a`` or
``_times_a_inv`` step, which are written in plain operators and so run
on ints or Decimals alike.  So each printed row after the first costs
time linear in its digits, where CPython's int-to-str is quadratic.
"""
from __future__ import annotations

import decimal
from collections.abc import Iterator
from decimal import Decimal
from itertools import islice
from typing import NamedTuple

from . import seqcore
# ``tribonacci`` stays bound here for perfbench/tracing.py, which wraps it by this name.
from .seqcore import SequenceKind, tribonacci  # noqa: F401

Row = tuple[int, int, int]
Matrix3 = tuple[Row, Row, Row]

_A: Matrix3 = ((1, 1, 0), (1, 0, 1), (1, 0, 0))
_A_INV: Matrix3 = ((0, 0, 1), (1, 0, -1), (0, 1, -1))
_I: Matrix3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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
    A (``_times_a``), or by A^-1 when n < 0 (``_times_a_inv``): six additions.
    """
    times_base = _times_a if n >= 0 else _times_a_inv
    result = _I
    for bit in bin(abs(n))[2:]:
        result = _square(result)
        if bit == "1":
            result = times_base(result)
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
    """tr(A^n) = S(n) for any integer n, read off two half powers by ``term``."""
    return term(SequenceKind.GENERALIZED_LUCAS, n)


class MinorSumReport(NamedTuple):
    """The three order-2 principal minors of A^n and their sum (= C(n))."""

    minor_12: int
    minor_13: int
    minor_23: int

    @property
    def total(self) -> int:
        return self.minor_12 + self.minor_13 + self.minor_23


def minors_of(m: Matrix3) -> MinorSumReport:
    """Order-2 principal minors of any 3x3 matrix."""
    m12 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    m13 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    m23 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    return MinorSumReport(m12, m13, m23)


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


def _times_a(m: Matrix3) -> Matrix3:
    """m*A for any 3x3 matrix m of ints or Decimals: A's columns are
    (1, 1, 1), (1, 0, 0) and (0, 1, 0), so each row (a, b, c) of m becomes
    (a + b + c, a, b), two additions where ``mat_mul`` makes nine products."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((a + b + c, a, b), (d + e + f, d, e), (g + h + i, g, h))


def _times_a_inv(m: Matrix3) -> Matrix3:
    """m*A^-1 for any 3x3 matrix m of ints or Decimals: A^-1's columns are
    (0, 1, 0), (0, 0, 1) and (1, -1, -1), so each row (a, b, c) of m becomes
    (b, c, a - (b + c)), two additions or subtractions."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((b, c, a - (b + c)), (e, f, d - (e + f)), (h, i, g - (h + i)))


def _walk(kind: SequenceKind, lo: int) -> Iterator:
    """a(lo) as an int, then a(lo+1), a(lo+2), ... as Decimals without end,
    off A^m with m = lo, or m = -lo for C.

    The first value is read off the half powers X = A^(m//2) and Y = X, or
    Y = X*A when m is odd, so A^m is not formed for it.  Only a second value
    forms A^m, as X squared (times A when m is odd), and lifts it to Decimal
    entry by entry; then each value costs one step of six additions, by A
    (``_times_a``), or by A^-1 for C (``_times_a_inv``), in the caller's
    context, which must be exact."""
    m, step = (-lo, _times_a_inv) if kind is SequenceKind.MINOR_SUM else (lo, _times_a)
    half = mat_pow(m // 2)
    other = _times_a(half) if m % 2 else half
    tribonacci_kind = kind is SequenceKind.TRIBONACCI
    yield (_entry_12_of_product if tribonacci_kind else _trace_of_product)(half, other)
    power = _times_a(_square(half)) if m % 2 else _square(half)
    power = tuple(tuple(map(Decimal, row)) for row in power)
    read = (lambda power: power[0][1]) if tribonacci_kind else trace
    while True:
        power = step(power)
        yield read(power)


def term(kind: SequenceKind, n: int) -> int:
    """a(n) off the half powers of A^m, m = n, or m = -n for C (``_walk``)."""
    return next(_walk(kind, n))


def range_text(kind: SequenceKind, lo: int, hi: int) -> list[str]:
    """Decimal text of a(lo)..a(hi), equal to str() of each value.

    The first value is str() of the half-power read; the rest step A^m in
    Decimal (``_walk``), in ``seqcore._EXACT``, and print in O(digits) each,
    under the digit limit of str(int) with its message
    (``seqcore._decimal_texts``)."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} exceeds hi={hi}")
    values = _walk(kind, lo)
    with decimal.localcontext(seqcore._EXACT):
        return [str(next(values)), *islice(seqcore._decimal_texts(values), hi - lo)]
