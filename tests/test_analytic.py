from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from tribokit import analytic
from tribokit.analytic import (
    PrecisionError,
    binet_c,
    binet_error_bound,
    binet_index_cap,
    binet_range,
    binet_round,
    binet_s,
    char_roots,
    vieta_check,
)
from tribokit.cli import bench_strategies
from tribokit.seqcore import T_FROM_S, SequenceKind, c_seq, s_lucas, term, tribonacci


def _alpha_by_bisection() -> float:
    """Independent float64 oracle for the real root of x^3 - x^2 - x - 1."""
    f = lambda x: x * x * x - x * x - x - 1
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_rejects_low_precision():
    with pytest.raises(ValueError):
        char_roots(14)


@pytest.mark.parametrize("precision", [*range(15, 401), 1500])
def test_newton_converges_at_every_precision(precision):
    # alpha comes from _alpha's integer Newton and sign change, at the bits
    # of the working precision, so the cubic vanishes to the digits asked
    roots = char_roots(precision)
    with mpmath.workdps(precision + 10):
        cubic = roots.alpha**3 - roots.alpha**2 - roots.alpha - 1
        assert abs(cubic) < mpmath.mpf(10) ** (2 - precision)


def test_alpha_digits():
    roots = char_roots(15)
    oracle = _alpha_by_bisection()
    assert abs(float(roots.alpha) - oracle) < 1e-13
    assert mpmath.nstr(roots.alpha, 15) == "1.83928675521416"
    assert 1.83 < roots.alpha < 1.84


def test_beta_structure():
    roots = char_roots(15)
    assert roots.beta.imag > 0
    # compare at the stored precision; the ambient context would round a ulp
    with mpmath.workdps(roots.precision + 10):
        assert roots.gamma == mpmath.conj(roots.beta)
    beta_abs = abs(roots.beta)
    assert beta_abs < 1
    # printed reference value, rounded to six significant digits
    assert abs(float(beta_abs) - 0.737353) < 5e-7
    assert abs(float(roots.alpha * beta_abs**2) - 1) < 1e-12


@pytest.mark.parametrize("precision,ceiling", [(15, 1e-12), (30, 1e-14)])
def test_vieta_residuals_small(precision, ceiling):
    residuals = vieta_check(char_roots(precision))
    assert residuals.sum_res < ceiling
    assert residuals.pair_res < ceiling
    assert residuals.prod_res < ceiling


def test_vieta_residuals_do_not_blow_up_with_precision():
    low = vieta_check(char_roots(15))
    high = vieta_check(char_roots(30))
    for field in ("sum_res", "pair_res", "prod_res"):
        assert getattr(high, field) <= getattr(low, field) * 10 + 1e-300


def test_vieta_detects_perturbation():
    roots = char_roots(15)
    with mpmath.workdps(30):
        off = roots._replace(alpha=roots.alpha + mpmath.mpf("1e-6"))
    residuals = vieta_check(off)
    assert 5e-7 < residuals.sum_res < 2e-6


def test_binet_s_values():
    assert abs(float(binet_s(0, 30)) - 3) < 1e-12
    assert abs(float(binet_s(5, 30)) - 21) < 1e-9
    assert abs(float(binet_s(-1, 30)) + 1) < 1e-9


def test_binet_c_values():
    assert abs(float(binet_c(0, 30)) - 3) < 1e-12
    assert abs(float(binet_c(1, 30)) + 1) < 1e-9
    assert abs(float(binet_c(6, 30)) - 11) < 1e-8


def test_binet_round_matches_recurrences():
    for n in range(-20, 41):
        assert binet_round(SequenceKind.TRIBONACCI, n, 30) == tribonacci(n)
        assert binet_round(SequenceKind.GENERALIZED_LUCAS, n, 30) == s_lucas(n)
        assert binet_round(SequenceKind.MINOR_SUM, n, 30) == c_seq(n)


def test_binet_round_spot_values():
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 9, 30) == 241
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 10, 30) == 443
    assert binet_round(SequenceKind.MINOR_SUM, 4, 30) == -5


@settings(max_examples=40, deadline=None)
@given(case=st.integers(15, 200).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(-2 * p, 2 * p))))
@example(case=(1500, 3000))
@example(case=(1500, -3000))
@example(case=(1500, 2999))
@example(case=(1500, -2999))
def test_binet_round_is_exact_up_to_the_cap(case):
    precision, n = case
    for kind in SequenceKind:
        assert binet_round(kind, n, precision) == term(kind, n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-10**4, 10**4), kind=st.sampled_from(SequenceKind))
@example(n=10**4, kind=SequenceKind.TRIBONACCI)
@example(n=-10**4, kind=SequenceKind.TRIBONACCI)
@example(n=10**4, kind=SequenceKind.MINOR_SUM)
@example(n=-10**4, kind=SequenceKind.GENERALIZED_LUCAS)
def test_binet_round_is_exact_to_ten_thousand(n, kind):
    # the cap is the only use of the precision: 5000 lets every |n| <= 10^4 through
    assert binet_round(kind, n, 5000) == term(kind, n)


def test_binet_round_is_exact_on_every_index_up_to_500():
    for kind in SequenceKind:
        assert [binet_round(kind, n, 250) for n in range(-500, 501)] == \
            [term(kind, n) for n in range(-500, 501)], kind


def _cubic_at(x: Fraction) -> Fraction:
    return x**3 - x**2 - x - 1


@pytest.mark.parametrize("w", [1, 7, 40, 48, 49, 53, 97, 100, 1000, 2691, 9000])
def test_alpha_enclosure_is_a_sign_change_of_the_cubic(w):
    a = analytic._alpha(w)
    assert _cubic_at(Fraction(a, 2**w)) < 0 < _cubic_at(Fraction(a + 1, 2**w))
    with mpmath.workdps(w // 3 + 30):  # and alpha is the cubic's root there
        assert a == int(mpmath.floor(mpmath.findroot(_cubic_at, mpmath.mpf("1.84")) * 2**w))


def test_binet_powers_never_take_exp_of_a_log(monkeypatch):
    # nor any other mpmath call: every name the Binet path could reach
    # mpmath by is cut off
    class Refuse:
        __spec__ = None  # read by the import system when the name is imported

        def __getattr__(self, name):
            raise AssertionError(f"the Binet path read mpmath.{name}")

    monkeypatch.setitem(sys.modules, "mpmath", Refuse())
    for kind in SequenceKind:
        for n in (-799, -1, 0, 1, 799):
            assert binet_round(kind, n, 400) == term(kind, n)
            assert binet_error_bound(kind, n, 400) < 0.5
    assert binet_s(7, 400) and binet_c(7, 400)


def test_binet_results_do_not_depend_on_mpmaths_precision():
    def results():
        return [(binet_round(kind, n, 1500, with_bound=True), binet_s(n, 1500), binet_c(n, 1500))
                for kind in SequenceKind for n in (-2999, -60, -1, 0, 1, 60, 2999)]

    expected = results()
    for dps in (5, 3000):
        with mpmath.workdps(dps):
            assert results() == expected


def test_index_cap():
    assert binet_index_cap(30) == 60
    assert binet_index_cap(15) == 30


def test_refuses_beyond_cap():
    with pytest.raises(PrecisionError):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 61, 30)
    with pytest.raises(PrecisionError):
        binet_s(-61, 30)
    with pytest.raises(PrecisionError):
        binet_round(SequenceKind.MINOR_SUM, 31, 15)


def test_refuses_when_bound_too_large(monkeypatch):
    # an enclosure one unit wider on each side holds three integers
    original = analytic._binet
    monkeypatch.setattr(analytic, "_binet",
                        lambda kind, n, precision: (lambda x, r, d: (x, r + d, d))(
                            *original(kind, n, precision)))
    with pytest.raises(PrecisionError, match="holds 3 integers: refusing to round"):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 5, 15)
    # and with too few fractional bits the computed enclosure itself grows
    # past one integer: refused, never rounded to a wrong value
    monkeypatch.setattr(analytic, "_binet", original)
    refused = 0
    for margin in (-4, -2, 0):
        monkeypatch.setattr(analytic, "_MARGIN_BITS", margin)
        for kind in SequenceKind:
            for n in (-2999, -1000, 1000, 2999):
                try:
                    assert binet_round(kind, n, 1500) == term(kind, n)
                except PrecisionError as exc:
                    assert "refusing to round" in str(exc)
                    refused += 1
    assert refused >= 12


def test_binet_round_refuses_an_enclosure_holding_no_integer(monkeypatch):
    # an enclosure strictly between two integers cannot be a sequence value
    monkeypatch.setattr(analytic, "_binet", lambda kind, n, precision: (21 * 8 + 4, 1, 8))
    with pytest.raises(PrecisionError, match="holds 0 integers: refusing to round"):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 5, 30)


def test_error_bound_profile():
    bounds = [binet_error_bound(SequenceKind.GENERALIZED_LUCAS, n, 30) for n in range(41)]
    assert all(b < 0.5 for b in bounds)
    # S(0) = 3 has the exact powers 1; past it the fractional bits grow with
    # the powers' size, so the half-width stays flat, near 2^-40
    assert bounds[0] == 0
    assert all(0 < bound < 1e-11 for bound in bounds[1:])


def test_bound_certifies_rounding_at_the_cap():
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 60, 30) == s_lucas(60)
    assert binet_round(SequenceKind.MINOR_SUM, -60, 30) == c_seq(-60)


def test_error_bound_refuses_beyond_cap():
    assert binet_error_bound(SequenceKind.MINOR_SUM, -60, 30) < 0.5
    with pytest.raises(PrecisionError, match="exceeds the certified index cap 60"):
        binet_error_bound(SequenceKind.MINOR_SUM, -61, 30)


def _count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of the calls to analytic.<name>."""
    calls = []
    original = getattr(analytic, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analytic, name, counted)
    return calls


@pytest.mark.parametrize("kind", [SequenceKind.GENERALIZED_LUCAS, SequenceKind.MINOR_SUM])
def test_binet_round_computes_its_power_terms_once(monkeypatch, kind):
    # one enclosure of alpha, then one power of each of alpha and beta (or
    # of their reciprocals), to the exponent 57
    enclosures, powers = _count_calls(monkeypatch, "_alpha"), _count_calls(monkeypatch, "_power")
    expected = s_lucas(57) if kind is SequenceKind.GENERALIZED_LUCAS else c_seq(57)
    assert binet_round(kind, 57, 40) == expected
    assert len(enclosures) == 1
    assert [args[1] for args in powers] == [57, 57]


def _rounds(kind, lo, hi, precision):
    """Each row's binet_round, or the message of the first row it refuses."""
    try:
        return [binet_round(kind, n, precision) for n in range(lo, hi + 1)]
    except PrecisionError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("lo,precision,margin", [
    (2998, 1500, None), (-3000, 1500, None), (-1, 30, None),
    (59, 30, None),          # the third row is past the cap
    (-2999, 1500, -4),       # too few fractional bits: enclosures too wide to round
    (2997, 1500, -4),
])
def test_a_binet_range_encloses_alpha_once(monkeypatch, kind, lo, precision, margin):
    # three rows off one enclosure of alpha, shifted down to each row's bits:
    # the same values, or the same first refusal, as binet_round row by row
    if margin is not None:
        monkeypatch.setattr(analytic, "_MARGIN_BITS", margin)
    expected = _rounds(kind, lo, lo + 2, precision)
    enclosures = _count_calls(monkeypatch, "_alpha")
    try:
        assert binet_range(kind, lo, lo + 2, precision) == expected
    except PrecisionError as exc:
        assert str(exc) == expected
    assert len(enclosures) == 1


def test_bench_times_every_binet_repetition(monkeypatch):
    # no cache between calls: each timed repetition evaluates the Binet
    # enclosure afresh, and the reported bound is the last one's
    calls = _count_calls(monkeypatch, "_binet")
    rows, agree = bench_strategies(SequenceKind.GENERALIZED_LUCAS, 50, 3, 30)
    assert agree
    binet = next(row for row in rows if row["strategy"] == "binet")
    assert binet["value"] == s_lucas(50)
    assert [args[1] for args in calls] == [50] * 3
    assert binet["bound"] == binet_error_bound(SequenceKind.GENERALIZED_LUCAS, 50, 30) < 0.5


def test_root_texts_match_an_independent_oracle():
    # the secant method of mpmath.findroot from points near each root, at 30
    # more digits, shares neither the integer enclosure nor the deflation;
    # the roots carry _GUARD_DIGITS past the printed ones, so every Vieta
    # residual stays far below the last printed digit
    cubic = lambda x: ((x - 1) * x - 1) * x - 1
    for precision in range(15, 1501, 7):
        with mpmath.workdps(precision + 30):
            alpha = mpmath.findroot(cubic, mpmath.mpf("1.84"))
            beta = mpmath.findroot(cubic, mpmath.mpc("-0.42", "0.6"))
            expected = tuple(mpmath.nstr(x, precision)
                             for x in (alpha, beta.real, beta.imag, abs(beta)))
        roots = char_roots(precision)
        assert analytic.root_texts(roots) == expected, precision
        for residual in vieta_check(roots):
            assert residual < mpmath.mpf(10) ** -(precision + 9), precision


@pytest.mark.parametrize("precision", [15, 29, 30, 400, 1500])
def test_char_roots_reads_alpha_off_one_enclosure(monkeypatch, precision):
    # alpha is the midpoint of the one enclosure [a, a + 1] / 2^w that
    # Binet uses, with w at least the working digits' worth of bits
    calls = []
    original = analytic._alpha

    def counted(w):
        calls.append((w, original(w)))
        return calls[-1][1]

    monkeypatch.setattr(analytic, "_alpha", counted)
    roots = char_roots(precision)
    assert len(calls) == 1
    (w, a), = calls
    assert w >= (precision + analytic._GUARD_DIGITS) * math.log2(10)
    assert a <= mpmath.ldexp(roots.alpha, w) <= a + 1


@pytest.mark.parametrize("precision", [15, 30, 400, 1500])
def test_power_balls_enclose_the_powers_of_the_roots(precision):
    # gamma's term is taken as the conjugate of beta's; the ball of each
    # power must hold that power of the root, and its conjugate gamma's,
    # against mpmath's polyroots at more digits than the ball carries
    cap = binet_index_cap(precision)
    for n in sorted({-cap, -cap + 1, -precision - 3, -7, -1, 0, 1, 2, 5, precision, cap - 1, cap}):
        k = abs(n)
        for f in {k.bit_length() + 40, (88 * k if n >= 0 else 44 * k) // 100 + k.bit_length() + 40}:
            a = analytic._alpha(f)
            with mpmath.workdps((f + k) // 3 + 30):
                alpha, beta, gamma = sorted(mpmath.polyroots([1, -1, -1, -1], extraprec=2 * f),
                                            key=lambda z: (mpmath.im(z) != 0, mpmath.im(z) < 0))
                one = mpmath.mpf(2) ** f
                for root, roots in ((alpha, analytic._real_root(a, f)),
                                    (beta, analytic._complex_root(a, f))):
                    for z, (x, y, r) in zip((root, 1 / root), roots):
                        assert abs(z - mpmath.mpc(x, y) / one) <= r / one, (f, z)
                    x, y, r = analytic._power(roots[0] if n >= 0 else roots[1], k, f)
                    assert abs(root**n - mpmath.mpc(x, y) / one) <= r / one, (n, f, root)
                    if root is beta:
                        assert abs(gamma**n - mpmath.mpc(x, -y) / one) <= r / one, (n, f)
