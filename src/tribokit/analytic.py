"""High-precision root finding and Binet-style evaluation.

The cubic x^3 - x^2 - x - 1 has one real root alpha in (1.83, 1.84) and
a conjugate pair beta, gamma with |beta| = 1/sqrt(alpha) < 1.  Then

    S(n) = alpha^n + beta^n + gamma^n
    C(n) = alpha^-n + beta^-n + gamma^-n
    T(n) = k_1*alpha^n + k_2*beta^n + k_3*gamma^n,  k_i = (5/a_i + 1 + 2*a_i)/22

hold for every integer n: C is the power sum of the pairwise products,
each the reciprocal of the third root (alpha*beta*gamma = 1), and T reads
22*T(n) = 5*S(n-1) + S(n) + 2*S(n+1) (``seqcore.T_FROM_S``) root by root.
alpha is located by Newton's method started at 1.8, each step at about
twice the digits of the one before, so that only the last one or two run
at the full working precision; beta and gamma come from the deflated
quadratic whose root sum is 1 - alpha and whose root product is
1/alpha, so the Vieta identities hold by construction up to rounding.

Precision is a decimal digit count (>= 15).  All arithmetic runs under
an mpmath working precision with guard digits; because the working
precision is a process-global context, callers that mix precisions
across threads should serialize calls.  Each Binet evaluation computes
two powers, of alpha and of beta, by binary powering (products only,
never exp(m*log z)), takes gamma's term as the conjugate of beta's, and
derives both the value and its error bound from the three terms, the
bound an mpf, which keeps its exponent far below the float range;
nothing is cached between calls.

This is the one module of the package that imports mpmath.  The CLI
imports this module only inside the commands that use it (``roots``,
``bench`` and ``eval --strategy binet``), so no other command pays for
loading mpmath; ``root_texts`` prints the roots for ``roots``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import mpmath

from .seqcore import T_FROM_S, SequenceKind

_GUARD_DIGITS = 10
_NEWTON_MAX_ITER = 200
# Newton takes lower rungs of precision only from 2 * _LOW_DIGITS working
# digits on; below that a step costs about the same at any precision.
_LOW_DIGITS = 20
# Safety factor absorbing ulp constants of the power evaluations and the
# final Newton residual; deliberately generous, the certified window is
# still far below the 0.5 rounding threshold.
_BOUND_SAFETY = 100


class PrecisionError(ArithmeticError):
    """A numeric result could not be certified at the requested precision."""


@dataclass(frozen=True)
class RootSet:
    """The three roots of x^3 - x^2 - x - 1 at a given decimal precision."""

    alpha: Any  # mpmath.mpf
    beta: Any   # mpmath.mpc, positive imaginary part
    gamma: Any  # mpmath.mpc, conjugate of beta
    precision: int


@dataclass(frozen=True)
class VietaResiduals:
    """|e1 - 1|, |e2 + 1|, |e3 - 1| for the elementary symmetric sums, each
    an mpf (a float would underflow to 0 below about 1e-308)."""

    sum_res: Any  # mpmath.mpf
    pair_res: Any
    prod_res: Any


def _poly(x: Any) -> Any:
    return ((x - 1) * x - 1) * x - 1


def _poly_deriv(x: Any) -> Any:
    return (3 * x - 2) * x - 1


def _converge(start: Any, digits: int, moved: int) -> Any:
    """Newton steps for alpha from ``start`` at ``digits`` working digits,
    until a step moves x by at most 10^-moved."""
    with mpmath.workdps(digits):
        x = mpmath.mpf(start)
        tol = mpmath.mpf(10) ** -moved
        for _ in range(_NEWTON_MAX_ITER):
            x, prev = x - _poly(x) / _poly_deriv(x), x
            if abs(x - prev) <= tol:
                return x
    raise RuntimeError(f"Newton iteration did not converge within {_NEWTON_MAX_ITER} steps")


def char_roots(precision: int) -> RootSet:
    """Compute all three roots to ``precision`` decimal digits (>= 15)."""
    if precision < 15:
        raise ValueError(f"precision must be >= 15 decimal digits, got {precision}")
    work = precision + _GUARD_DIGITS
    # Each rung of the ladder has about twice the digits of the one below.
    # Below the working precision a rung stops at a step that moves x by
    # 10^-(digits/2): the next error is about 0.83 times its square, so x
    # is then correct to about the rung's digits, and the next rung needs
    # one step.  Only the last one or two steps run at the working
    # precision, under its own stopping test.
    ladder = [work]
    while ladder[-1] >= 2 * _LOW_DIGITS:
        ladder.append(ladder[-1] // 2 + 1)
    # The cubic is increasing and convex on [1.8, 2], so the first step
    # lands past alpha and every later step falls toward it.
    x = "1.8"
    for digits in reversed(ladder[1:]):
        x = _converge(x, digits, digits // 2)
    x = _converge(x, work, work - 2)
    with mpmath.workdps(work):
        alpha = x
        real = (1 - alpha) / 2
        imag = mpmath.sqrt(4 / alpha - (1 - alpha) ** 2) / 2
        beta = mpmath.mpc(real, imag)
        gamma = mpmath.mpc(real, -imag)
    return RootSet(alpha=alpha, beta=beta, gamma=gamma, precision=precision)


def vieta_check(roots: RootSet) -> VietaResiduals:
    """Residuals of the three Vieta identities (sum 1, pairs -1, product 1),
    with twice the roots' guard digits, so they measure the roots and not
    the rounding of the check itself."""
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
    digits = roots.precision
    with mpmath.workdps(digits + _GUARD_DIGITS):
        return (
            mpmath.nstr(roots.alpha, digits),
            mpmath.nstr(roots.beta.real, digits),
            mpmath.nstr(roots.beta.imag, digits),
            mpmath.nstr(abs(roots.beta), digits),
        )


def binet_index_cap(precision: int) -> int:
    """Largest |n| certified for rounding at the given decimal precision."""
    return 2 * precision


def _pow(z: Any, m: int) -> Any:
    """z^m by left-to-right binary powering at the working precision.

    mpmath's ``**`` switches to exp(m*log z) once |m| times the mantissa
    length passes 10,000 bits, which costs more than these products.
    """
    if m < 0:
        z, m = 1 / z, -m
    power = mpmath.mpf(1)
    for bit in bin(m)[2:]:
        power *= power
        if bit == "1":
            power *= z
    return power


def _power_terms(kind: SequenceKind, n: int, roots: RootSet) -> tuple[Any, Any, Any]:
    """k_i * a_i^m for the three roots: m = -n for C, else n; k_i = 1 but for T.

    gamma is conj(beta), and mpmath rounds the real and imaginary parts
    alike, so the gamma term is the conjugate of the beta term bit for
    bit: one power serves the pair.
    """
    m = -n if kind is SequenceKind.MINOR_SUM else n
    scale, (before, at, after) = T_FROM_S
    alpha_term, beta_term = (_pow(z, m) if kind is not SequenceKind.TRIBONACCI
                             else (before / z + at + after * z) / scale * _pow(z, m)
                             for z in (roots.alpha, roots.beta))
    return alpha_term, beta_term, mpmath.conj(beta_term)


def _binet(kind: SequenceKind, n: int, roots: RootSet) -> tuple[Any, Any]:
    """(value, bound): the real Binet sum at index n and its certified
    absolute error, both mpf (a float bound would underflow to 0 below
    about 1e-308), from one evaluation of the power terms: a power of
    alpha, one of beta, and its conjugate for gamma.

    The bound scales with the magnitudes of the three power terms, the
    index, and 10^(-precision); it decays with the conjugate-pair
    contribution for the terms below modulus one.
    """
    cap = binet_index_cap(roots.precision)
    if abs(n) > cap:
        raise PrecisionError(
            f"|n| = {abs(n)} exceeds the certified index cap {cap} "
            f"at precision {roots.precision}"
        )
    with mpmath.workdps(roots.precision + _GUARD_DIGITS):
        terms = _power_terms(kind, n, roots)
        total = mpmath.mpc(0)
        for t in terms:
            total += t
        real, imag = total.real, abs(total.imag)
        if imag > mpmath.mpf("1e-6") * max(1, abs(real)):
            raise PrecisionError(
                f"imaginary residue {imag} at n={n}: precision exhausted"
            )
        magnitude = sum(abs(t) for t in terms)
        bound = magnitude * (abs(n) + 1) * _BOUND_SAFETY * mpmath.mpf(10) ** (-roots.precision)
        return real, bound


def binet_s(n: int, roots: RootSet) -> Any:
    """Real part of alpha^n + beta^n + gamma^n (imaginary part must vanish)."""
    return _binet(SequenceKind.GENERALIZED_LUCAS, n, roots)[0]


def binet_c(n: int, roots: RootSet) -> Any:
    """Real part of alpha^-n + beta^-n + gamma^-n, the power sum of the
    pairwise root products that defines C(n)."""
    return _binet(SequenceKind.MINOR_SUM, n, roots)[0]


def binet_error_bound(kind: SequenceKind, n: int, roots: RootSet) -> Any:
    """Certified absolute error of the Binet evaluation at index n, an mpf;
    raises PrecisionError past the index cap."""
    return _binet(kind, n, roots)[1]


def binet_round(kind: SequenceKind, n: int, roots: RootSet,
                with_bound: bool = False) -> int | tuple[int, Any]:
    """Nearest integer to the Binet value, refused unless certified.

    Raises PrecisionError when |n| exceeds the index cap or the error
    bound reaches 0.5, so a successful return is the exact sequence
    value.  With ``with_bound`` it returns (value, bound), the bound that
    certified it, from the same evaluation.
    """
    value, bound = _binet(kind, n, roots)
    if bound >= 0.5:
        raise PrecisionError(
            f"error bound {float(bound)} >= 0.5 at n={n}, precision {roots.precision}: "
            "refusing to round"
        )
    with mpmath.workdps(roots.precision + _GUARD_DIGITS):
        rounded = int(mpmath.nint(value))
    return (rounded, bound) if with_bound else rounded
