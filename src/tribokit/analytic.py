"""High-precision root finding and Binet-style evaluation.

The cubic x^3 - x^2 - x - 1 has one real root alpha in (1.83, 1.84) and
a conjugate pair beta, gamma with |beta| = 1/sqrt(alpha) < 1.  Then

    S(n) = alpha^n + beta^n + gamma^n
    C(n) = alpha^-n + beta^-n + gamma^-n
    T(n) = k_1*alpha^n + k_2*beta^n + k_3*gamma^n,  k_i = (5/a_i + 1 + 2*a_i)/22

hold for every integer n: C is the power sum of the pairwise products,
each the reciprocal of the third root (alpha*beta*gamma = 1), and T reads
22*T(n) = 5*S(n-1) + S(n) + 2*S(n+1) (``seqcore.T_FROM_S``) root by root.

The Binet path is exact integer arithmetic, proved, not estimated.  alpha
is enclosed between a/2^W and (a+1)/2^W by an exact sign change of the
cubic; beta, 1/alpha and 1/beta follow from alpha by Vieta with outward
rounding (``math.isqrt`` for Im beta); each power is binary powering on a
Gaussian ball, a fixed-point midpoint and a radius rounded outward at every
product; gamma's term is the conjugate of beta's, so the sum is the alpha
term plus twice the real part of the beta term.  W is chosen from n, so
the precision only sets the index cap, ``binet_index_cap``, past which
rounding is refused.  ``binet_range`` rounds a range of rows to the one
integer within each enclosure, off one enclosure of alpha at the widest
row's W, shifted down for each narrower row, and raises PrecisionError
when an enclosure does not hold exactly one; ``binet_round`` is its one
row, and ``binet_error_bound`` the enclosure's half-width.  Nothing is
cached between calls, and the Binet path reads no process-global state.

``char_roots`` reads alpha off the same certified enclosure, at as many
bits as its working digits carry: the midpoint of a/2^W and (a+1)/2^W,
rounded to those bits, is alpha correctly rounded.  beta and gamma come
from the deflated quadratic whose root sum is 1 - alpha and whose root
product is 1/alpha.  Its precision is a decimal digit count (>= 15), and it,
``vieta_check`` and ``root_texts``, which serve ``roots``, run under an
mpmath working precision with guard digits: mpmath's precision is a
process-global context, so callers that mix precisions across threads
should serialize calls to those three.

This is the one module of the package that imports mpmath, and it does
so only inside the functions that call it: ``char_roots``, ``vieta_check``,
``root_texts`` and ``exponent_text``, which serve ``roots`` alone.  The CLI
imports this module only inside the commands that use it (``roots``,
``bench`` and ``eval --strategy binet``), and of those only ``roots`` pays
for loading mpmath; ``root_texts`` prints the roots for ``roots``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .seqcore import T_FROM_S, SequenceKind, _alpha_bits

_GUARD_DIGITS = 10


class PrecisionError(ValueError):
    """A numeric result could not be certified at the requested precision."""


class RootSet(NamedTuple):
    """The three roots of x^3 - x^2 - x - 1 at a given decimal precision."""

    alpha: Any  # mpmath.mpf
    beta: Any   # mpmath.mpc, positive imaginary part
    gamma: Any  # mpmath.mpc, conjugate of beta
    precision: int


class VietaResiduals(NamedTuple):
    """|e1 - 1|, |e2 + 1|, |e3 - 1| for the elementary symmetric sums, each
    an mpf (a float would underflow to 0 below about 1e-308)."""

    sum_res: Any  # mpmath.mpf
    pair_res: Any
    prod_res: Any


def char_roots(precision: int) -> RootSet:
    """Compute all three roots to ``precision`` decimal digits (>= 15)."""
    if precision < 15:
        raise ValueError(f"precision must be >= 15 decimal digits, got {precision}")
    import mpmath

    with mpmath.workdps(precision + _GUARD_DIGITS):
        # w, mpmath's (digits + 1) * log2(10) bits, is at least the working
        # digits' worth; as alpha's ulp is 2^(1 - w), no rounding tie lies
        # strictly between a / 2^w and (a + 1) / 2^w, so the mpf of their
        # midpoint is alpha correctly rounded
        w = mpmath.mp.prec
        alpha = mpmath.mpf((2 * _alpha(w) + 1, -(w + 1)))
        real = (1 - alpha) / 2
        imag = mpmath.sqrt(4 / alpha - (1 - alpha) ** 2) / 2
        beta = mpmath.mpc(real, imag)
        gamma = mpmath.mpc(real, -imag)
    return RootSet(alpha=alpha, beta=beta, gamma=gamma, precision=precision)


def vieta_check(roots: RootSet) -> VietaResiduals:
    """Residuals of the three Vieta identities (sum 1, pairs -1, product 1),
    with twice the roots' guard digits, so they measure the roots and not
    the rounding of the check itself."""
    import mpmath

    with mpmath.workdps(roots.precision + 2 * _GUARD_DIGITS):
        a, b, g = roots.alpha, roots.beta, roots.gamma
        return VietaResiduals(
            sum_res=abs(a + b + g - 1),
            pair_res=abs(a * b + a * g + b * g + 1),
            prod_res=abs(a * b * g - 1),
        )


def root_texts(roots: RootSet) -> tuple[str, str, str, str]:
    """alpha, the real and imaginary parts of beta, and |beta|, each
    printed to ``roots.precision`` significant digits."""
    import mpmath

    digits = roots.precision
    with mpmath.workdps(digits + _GUARD_DIGITS):
        return (
            mpmath.nstr(roots.alpha, digits),
            mpmath.nstr(roots.beta.real, digits),
            mpmath.nstr(roots.beta.imag, digits),
            mpmath.nstr(abs(roots.beta), digits),
        )


def exponent_text(value: Any, digits: int) -> str:
    """An mpf as ``digits`` significant digits in exponent form, as
    1.448e-701, at any exponent: no float underflow."""
    import mpmath

    return mpmath.nstr(value, digits, strip_zeros=False, min_fixed=0, max_fixed=0)


def binet_index_cap(precision: int) -> int:
    """Largest |n| certified for rounding at the given decimal precision."""
    return 2 * precision


_MARGIN_BITS = 40  # fractional bits past a power's own size: enclosures near 2^-30 wide
_ALPHA_FLOAT = 1.8392867552141612  # alpha to about 2^-52, where integer Newton starts
_FLOAT_BITS = 48

Ball = tuple[int, int, int]


def _cubic(a: int, w: int) -> int:
    """2^(3w) * (x^3 - x^2 - x - 1) at x = a / 2^w, exactly."""
    one = 1 << w
    return ((a - one) * a - one * one) * a - (one * one << w)


def _alpha(w: int) -> int:
    """The integer a with a / 2^w < alpha < (a + 1) / 2^w.

    Integer Newton starts from a float and climbs bit counts that about
    double each step (a step leaves about 0.83 times the square of the
    error before it), so only the last step divides at w bits.  The result
    is then certified, not trusted: the cubic is negative at a / 2^w and
    positive at (a + 1) / 2^w, and alpha is its one real root.
    """
    rungs = [w]
    while rungs[-1] > _FLOAT_BITS:
        rungs.append((rungs[-1] + 5) // 2)
    bits = rungs.pop()
    a = int(_ALPHA_FLOAT * (1 << bits))
    for more in reversed(rungs):
        a <<= more - bits
        bits, one = more, 1 << more
        a -= _cubic(a, bits) // ((3 * a - 2 * one) * a - one * one)
    while _cubic(a, w) > 0:
        a -= 1
    while _cubic(a + 1, w) < 0:
        a += 1
    return a


# A Ball (x, y, r) at f fractional bits holds every complex number within
# r / 2^f of (x + iy) / 2^f.  A product floors its midpoint back to f bits,
# which moves it by less than sqrt(2) units, so its radius, floored too,
# takes 3 more: 1 for its own floor and 2 for the midpoint's move.

def _ball(lo: int, hi: int) -> tuple[int, int]:
    """Midpoint and radius of the integer interval [lo, hi]."""
    mid = (lo + hi) >> 1
    return mid, hi - mid


def _mul(p: Ball, q: Ball, f: int) -> Ball:
    (x1, y1, r1), (x2, y2, r2) = p, q
    spread = (abs(x1) + abs(y1)) * r2 + (abs(x2) + abs(y2) + r2) * r1
    return (x1 * x2 - y1 * y2) >> f, (x1 * y2 + x2 * y1) >> f, (spread >> f) + 3


def _square(p: Ball, f: int) -> Ball:
    x, y, r = p
    spread = (2 * (abs(x) + abs(y)) + r) * r
    return ((x - y) * (x + y)) >> f, (2 * x * y) >> f, (spread >> f) + 3


def _power(z: Ball, m: int, f: int) -> Ball:
    """z^m (m >= 0) by left-to-right binary powering; z^0 is one exactly."""
    if m == 0:
        return 1 << f, 0, 0
    power = z
    for bit in bin(m)[3:]:
        power = _square(power, f)
        if bit == "1":
            power = _mul(power, z, f)
    return power


def _real_root(a: int, f: int) -> tuple[Ball, Ball]:
    """Balls of alpha and 1/alpha at f bits, from alpha in [a, a + 1] / 2^f.
    1/alpha = alpha^2 - alpha - 1 (Vieta), increasing in alpha past 1/2."""
    one = 1 << f

    def inverse(c: int) -> int:  # 2^(2f) / alpha at alpha = c / 2^f
        return (c - one) * c - one * one

    mid, rad = _ball(inverse(a) >> f, -(-inverse(a + 1) >> f))
    return (a, 0, 1), (mid, 0, rad)


def _complex_root(a: int, f: int) -> tuple[Ball, Ball]:
    """Balls of beta and 1/beta at f bits, from alpha in [a, a + 1] / 2^f.

    By Vieta Re beta = (1 - alpha) / 2 and |beta|^2 = 1/alpha, so
    (Im beta)^2 = 1/alpha - (Re beta)^2 = (3*alpha^2 - 2*alpha - 5) / 4,
    both monotone in alpha past 1: the ends of alpha's interval bound them,
    and math.isqrt rounds Im beta outward.  1/beta = alpha * conj(beta).
    """
    one, b = 1 << f, a + 1
    re, re_rad = _ball((one - b) >> 1, (one - a + 1) >> 1)
    im, im_rad = _ball(math.isqrt(((3 * a - 2 * one) * a - 5 * one * one) >> 2),
                       math.isqrt(((3 * b - 2 * one) * b - 5 * one * one + 3) >> 2) + 1)
    return (re, im, re_rad + im_rad), _mul((a, 0, 1), (re, -im, re_rad + im_rad), f)


def _bits(kind: SequenceKind, n: int) -> tuple[int, int, int]:
    """m, and the fractional bits of the small and of the big term at index n."""
    m = -n if kind is SequenceKind.MINOR_SUM else n
    k = abs(m)
    small, bits = k.bit_length() + _MARGIN_BITS, _alpha_bits(k)
    return m, small, (bits if m >= 0 else bits // 2) + small


def _binet(kind: SequenceKind, n: int, precision: int,
           alpha: Callable[[int], int] | None = None) -> tuple[int, int, int]:
    """(x, r, d): the Binet sum at index n lies within r / d of x / d.

    The sum is w_1 * alpha^m + 2 * Re(w_2 * beta^m), m = -n for C and n
    otherwise; w = 1 but for T, where w_i = 22 * k_i = 5/a_i + 1 + 2*a_i
    and d carries the 22.  For m >= 0 alpha's term dominates, about
    0.88*m bits before the point; for m < 0 the conjugate pair's, about
    0.44*|m|.  That term runs at its size plus bitlength(|m|) +
    _MARGIN_BITS fractional bits, the term of modulus below one at
    bitlength(|m|) + _MARGIN_BITS, so the work is sized by n alone.
    ``alpha(w)`` is alpha's enclosure at w bits, by default ``_alpha``.
    """
    cap = binet_index_cap(precision)
    if abs(n) > cap:
        raise PrecisionError(
            f"|n| = {abs(n)} exceeds the certified index cap {cap} "
            f"at precision {precision}"
        )
    m, small, big = _bits(kind, n)
    k = abs(m)
    a = (alpha or _alpha)(big)
    weighted = kind is SequenceKind.TRIBONACCI
    scale, (before, at, after) = T_FROM_S
    x = r = 0
    for root, f, times in ((_real_root, big if m >= 0 else small, 1),
                           (_complex_root, small if m >= 0 else big, 2)):
        z, inv = root(a >> (big - f), f)
        term = _power(z if m >= 0 else inv, k, f)
        if weighted:
            (ix, iy, ir), (zx, zy, zr) = inv, z
            weight = (before * ix + (at << f) + after * zx, before * iy + after * zy,
                      before * ir + after * zr)
            term = _mul(term, weight, f)
        x += times * term[0] << (big - f)
        r += times * term[2] << (big - f)
    return x, r, (scale if weighted else 1) << big


def binet_s(n: int, precision: int) -> Fraction:
    """The midpoint of the enclosure of alpha^n + beta^n + gamma^n."""
    x, _, d = _binet(SequenceKind.GENERALIZED_LUCAS, n, precision)
    return Fraction(x, d)


def binet_c(n: int, precision: int) -> Fraction:
    """The midpoint of the enclosure of alpha^-n + beta^-n + gamma^-n, the
    power sum of the pairwise root products that defines C(n)."""
    x, _, d = _binet(SequenceKind.MINOR_SUM, n, precision)
    return Fraction(x, d)


def binet_error_bound(kind: SequenceKind, n: int, precision: int) -> Fraction:
    """Half-width of the Binet enclosure at index n; raises PrecisionError
    past the index cap."""
    _, r, d = _binet(kind, n, precision)
    return Fraction(r, d)


def _rounded(n: int, precision: int, x: int, r: int, d: int) -> int:
    """The one integer within r / d of x / d; PrecisionError if there is not one."""
    low, high = -((r - x) // d), (x + r) // d
    if low != high:
        raise PrecisionError(
            f"the Binet enclosure at n={n}, precision {precision} holds "
            f"{max(high - low + 1, 0)} integers: refusing to round"
        )
    return low


def binet_round(kind: SequenceKind, n: int, precision: int) -> int:
    """The one integer in the Binet enclosure at index n: the one row of
    ``binet_range``.  Raises PrecisionError when |n| exceeds the index cap
    or the enclosure does not hold exactly one integer, so a successful
    return is the exact sequence value."""
    return binet_range(kind, n, n, precision)[0]


def binet_range(kind: SequenceKind, lo: int, hi: int, precision: int) -> list[int]:
    """The one integer in the Binet enclosure at each n from lo to hi,
    raising the first row's PrecisionError.

    alpha is enclosed once, at the widest working size W of the rows within
    the index cap, and each row shifts that enclosure to its own size w:
    alpha is irrational, so floor(alpha * 2^w) is unique, and a >> (W - w)
    is again the exact enclosure.
    """
    rows = range(lo, hi + 1)
    cap = binet_index_cap(precision)
    widest = max((_bits(kind, n)[2] for n in rows if abs(n) <= cap), default=0)
    a = _alpha(widest)

    def alpha(w: int) -> int:
        return a >> (widest - w)

    return [_rounded(n, precision, *_binet(kind, n, precision, alpha)) for n in rows]
