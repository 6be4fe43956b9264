from __future__ import annotations

import dataclasses

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from tribokit import analytic
from tribokit.analytic import (
    PrecisionError,
    binet_c,
    binet_error_bound,
    binet_index_cap,
    binet_round,
    binet_s,
    char_roots,
    vieta_check,
)
from tribokit.cli import bench_strategies
from tribokit.seqcore import SequenceKind, c_seq, s_lucas, term, tribonacci


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
    # a converged Newton step lands on the bracket end it started from; it
    # must end the iteration, not send the root back to bisection
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
        off = dataclasses.replace(roots, alpha=roots.alpha + mpmath.mpf("1e-6"))
    residuals = vieta_check(off)
    assert 5e-7 < residuals.sum_res < 2e-6


def test_binet_s_values():
    roots = char_roots(30)
    assert abs(float(binet_s(0, roots)) - 3) < 1e-12
    assert abs(float(binet_s(5, roots)) - 21) < 1e-9
    assert abs(float(binet_s(-1, roots)) + 1) < 1e-9


def test_binet_c_values():
    roots = char_roots(30)
    assert abs(float(binet_c(0, roots)) - 3) < 1e-12
    assert abs(float(binet_c(1, roots)) + 1) < 1e-9
    assert abs(float(binet_c(6, roots)) - 11) < 1e-8


def test_binet_round_matches_recurrences():
    roots = char_roots(30)
    for n in range(-20, 41):
        assert binet_round(SequenceKind.TRIBONACCI, n, roots) == tribonacci(n)
        assert binet_round(SequenceKind.GENERALIZED_LUCAS, n, roots) == s_lucas(n)
        assert binet_round(SequenceKind.MINOR_SUM, n, roots) == c_seq(n)


def test_binet_round_spot_values():
    roots = char_roots(30)
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 9, roots) == 241
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 10, roots) == 443
    assert binet_round(SequenceKind.MINOR_SUM, 4, roots) == -5


@settings(max_examples=40, deadline=None)
@given(case=st.integers(15, 200).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(-2 * p, 2 * p))))
@example(case=(1500, 3000))
@example(case=(1500, -3000))
@example(case=(1500, 2999))
@example(case=(1500, -2999))
def test_binet_round_is_exact_up_to_the_cap(case):
    precision, n = case
    roots = char_roots(precision)
    for kind in SequenceKind:
        assert binet_round(kind, n, roots) == term(kind, n)


def test_binet_powers_never_take_exp_of_a_log(monkeypatch):
    # mpmath's ** on an mpc computes exp(n*log z) once |n| times the
    # mantissa's bits passes 10,000, as it does here (p = 400, |n| = 799)
    roots = char_roots(400)

    def refuse(*args, **kwargs):
        raise AssertionError("a Binet power went through exp(n*log z)")

    monkeypatch.setattr(mpmath.libmp.libmpc, "mpc_log", refuse)
    monkeypatch.setattr(mpmath.libmp.libmpc, "mpc_exp", refuse)
    for kind in SequenceKind:
        for n in (799, -799):
            assert binet_round(kind, n, roots) == term(kind, n)


def test_index_cap():
    assert binet_index_cap(30) == 60
    assert binet_index_cap(15) == 30


def test_refuses_beyond_cap():
    roots30 = char_roots(30)
    with pytest.raises(PrecisionError):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 61, roots30)
    with pytest.raises(PrecisionError):
        binet_s(-61, roots30)
    roots15 = char_roots(15)
    with pytest.raises(PrecisionError):
        binet_round(SequenceKind.MINOR_SUM, 31, roots15)


def test_refuses_when_bound_too_large(monkeypatch):
    roots = char_roots(15)
    monkeypatch.setattr(analytic, "_BOUND_SAFETY", 10**40)
    with pytest.raises(PrecisionError, match="refusing to round"):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 5, roots)


def test_error_bound_profile():
    roots = char_roots(30)
    bounds = [
        binet_error_bound(SequenceKind.GENERALIZED_LUCAS, n, roots) for n in range(41)
    ]
    assert all(b < 0.5 for b in bounds)
    # flat up to float-accumulation growth
    assert all(bounds[n] < bounds[0] + n * 1e-12 for n in range(1, 41))
    assert bounds[0] < 1e-12


def test_bound_certifies_rounding_at_the_cap():
    roots = char_roots(30)
    assert binet_round(SequenceKind.GENERALIZED_LUCAS, 60, roots) == s_lucas(60)
    assert binet_round(SequenceKind.MINOR_SUM, -60, roots) == c_seq(-60)


def test_error_bound_refuses_beyond_cap():
    roots = char_roots(30)
    assert binet_error_bound(SequenceKind.MINOR_SUM, -60, roots) < 0.5
    with pytest.raises(PrecisionError, match="exceeds the certified index cap 60"):
        binet_error_bound(SequenceKind.MINOR_SUM, -61, roots)


def _count_power_terms(monkeypatch) -> list:
    calls = []
    original = analytic._power_terms

    def counted(kind, n, roots):
        calls.append(n)
        return original(kind, n, roots)

    monkeypatch.setattr(analytic, "_power_terms", counted)
    return calls


@pytest.mark.parametrize("kind", [SequenceKind.GENERALIZED_LUCAS, SequenceKind.MINOR_SUM])
def test_binet_round_computes_its_power_terms_once(monkeypatch, kind):
    calls = _count_power_terms(monkeypatch)
    roots = char_roots(40)
    expected = s_lucas(57) if kind is SequenceKind.GENERALIZED_LUCAS else c_seq(57)
    assert binet_round(kind, 57, roots) == expected
    assert calls == [57]


def test_bench_times_every_binet_repetition(monkeypatch):
    # no cache between calls: each timed repetition evaluates the power
    # terms afresh, and the reported bound takes one more evaluation
    calls = _count_power_terms(monkeypatch)
    rows, agree = bench_strategies(SequenceKind.GENERALIZED_LUCAS, 50, 3, 30)
    assert agree
    binet = next(row for row in rows if row["strategy"] == "binet")
    assert binet["value"] == s_lucas(50)
    assert binet["bound"] < 0.5
    assert calls == [50] * 4


def test_char_roots_raises_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(analytic, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="did not converge within 1 steps"):
        char_roots(30)


def test_binet_round_refuses_a_sum_that_is_not_real(monkeypatch):
    def skewed(kind, n, roots):
        return mpmath.mpc(5, 1), mpmath.mpc(0), mpmath.mpc(0)

    monkeypatch.setattr(analytic, "_power_terms", skewed)
    with pytest.raises(PrecisionError, match="imaginary residue"):
        binet_round(SequenceKind.GENERALIZED_LUCAS, 10, char_roots(30))
