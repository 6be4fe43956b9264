from __future__ import annotations

import decimal
import sys
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_c, oracle_s, oracle_t
from tribokit import seqcore, tribomatrix
from tribokit.genfunc import RationalOGF, builtin_ogf, expand, expand_text
from tribokit.seqcore import (
    _C_EVEN,
    RECURRENCES,
    T_FROM_S,
    _square,
    CForm,
    Recurrence,
    SForm,
    SequenceKind,
    c_even,
    c_from_t,
    c_seq,
    range_text,
    s_from_t,
    s_lucas,
    sequence_range,
    term,
    tribonacci,
)
from tribokit.tribomatrix import mat_pow, minors_of, trace

# frozen from the brute-force oracles in conftest
T_FIRST = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504]
S_FIRST = [3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499]
C_FIRST = [3, -1, -1, 5, -5, -1, 11, -15, 3, 23, -41, 21, 43]
T_NEGATIVE = {-1: 0, -2: 1, -3: -1, -4: 0, -5: 2, -6: -3}
C_EVEN_FIRST = [3, -1, -5, 11, 3, -41, 43, 83, -253, 47]


def test_initial_terms():
    assert [tribonacci(n) for n in range(13)] == T_FIRST
    assert [s_lucas(n) for n in range(13)] == S_FIRST
    assert [c_seq(n) for n in range(13)] == C_FIRST


def test_spot_values():
    assert tribonacci(10) == 149
    assert s_lucas(3) == 7
    assert s_lucas(4) == 11
    assert s_lucas(9) == 241
    assert s_lucas(10) == 443
    assert c_seq(3) == 5
    assert c_seq(4) == -5
    assert c_seq(6) == 11


def test_negative_indices():
    for n, expected in T_NEGATIVE.items():
        assert tribonacci(n) == expected
    assert s_lucas(-1) == -1
    assert c_seq(-1) == 1


def test_matches_oracle_both_directions():
    table_t, table_s, table_c = oracle_t(-60, 120), oracle_s(-60, 120), oracle_c(-60, 120)
    for n in range(-60, 121):
        assert tribonacci(n) == table_t[n]
        assert s_lucas(n) == table_s[n]
        assert c_seq(n) == table_c[n]


def test_forward_and_reverse_recurrences_consistent():
    lo, hi = -200, 200
    for kind, fwd_holds, rev_holds in [
        (SequenceKind.TRIBONACCI,
         lambda v, n: v[n] == v[n - 1] + v[n - 2] + v[n - 3],
         lambda v, n: v[n - 3] == v[n] - v[n - 1] - v[n - 2]),
        (SequenceKind.GENERALIZED_LUCAS,
         lambda v, n: v[n] == v[n - 1] + v[n - 2] + v[n - 3],
         lambda v, n: v[n - 3] == v[n] - v[n - 1] - v[n - 2]),
        (SequenceKind.MINOR_SUM,
         lambda v, n: v[n] == -v[n - 1] - v[n - 2] + v[n - 3],
         lambda v, n: v[n - 3] == v[n] + v[n - 1] + v[n - 2]),
    ]:
        values = dict(sequence_range(kind, lo, hi))
        for n in range(lo + 3, hi + 1):
            assert fwd_holds(values, n), (kind, n)
            assert rev_holds(values, n), (kind, n)


def test_sequence_range_example():
    assert sequence_range(SequenceKind.TRIBONACCI, -3, 0) == [
        (-3, -1), (-2, 1), (-1, 0), (0, 0)
    ]
    assert sequence_range(SequenceKind.MINOR_SUM, 2, 2) == [(2, -1)]


def test_sequence_range_rejects_empty():
    with pytest.raises(ValueError):
        sequence_range(SequenceKind.GENERALIZED_LUCAS, 5, 4)


@given(
    kind=st.sampled_from(list(SequenceKind)),
    lo=st.integers(min_value=-150, max_value=150),
    width=st.integers(min_value=0, max_value=40),
)
def test_sequence_range_matches_single_terms(kind, lo, width):
    pairs = sequence_range(kind, lo, lo + width)
    assert [n for n, _ in pairs] == list(range(lo, lo + width + 1))
    assert all(value == term(kind, n) for n, value in pairs)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(SequenceKind)),
    lo=st.integers(min_value=-400, max_value=400),
    width=st.integers(min_value=0, max_value=60),
)
@example(kind=SequenceKind.TRIBONACCI, lo=-6, width=8)  # zero rows T(-4), T(-1), T(0)
@example(kind=SequenceKind.MINOR_SUM, lo=-300, width=0)
def test_range_text_is_str_of_the_range_pass(kind, lo, width):
    expected = [str(value) for _, value in sequence_range(kind, lo, lo + width)]
    assert range_text(kind, lo, lo + width) == expected


def test_range_text_rejects_empty():
    with pytest.raises(ValueError, match="empty range"):
        range_text(SequenceKind.TRIBONACCI, 1, 0)


def _str_error(value: int) -> str:
    with pytest.raises(ValueError) as info:
        str(value)
    return str(info.value)


# |a(n)| passes 4300 digits near n = 16250 for T and S and near n = 32490
# for C.  Each range starts below the limit, so its first row past the
# limit is summed in decimal, not converted by str(int).
LIMIT_CROSSINGS = [
    (SequenceKind.TRIBONACCI, 16230, 16270),
    (SequenceKind.GENERALIZED_LUCAS, 16230, 16270),
    (SequenceKind.MINOR_SUM, 32470, 32560),
]
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the default 4300-digit int-to-str limit",
)


@needs_digit_limit
@pytest.mark.parametrize("kind, lo, hi", LIMIT_CROSSINGS, ids=["T", "S", "C"])
def test_range_text_fails_past_the_digit_limit_as_str_does(kind, lo, hi):
    values = [value for _, value in sequence_range(kind, lo, hi)]
    assert all(len(str(abs(value))) <= 4300 for value in values[:3])
    with pytest.raises(ValueError) as info:
        range_text(kind, lo, hi)
    assert str(info.value) == _str_error(values[-1])


@needs_digit_limit
def test_range_text_does_not_count_the_sign_against_the_limit():
    # C(32488) is negative with exactly 4300 digits, the longest row here
    values = [value for _, value in sequence_range(SequenceKind.MINOR_SUM, 32470, 32488)]
    assert values[-1] < 0 and len(str(values[-1])) == 4301
    assert range_text(SequenceKind.MINOR_SUM, 32470, 32488) == [str(value) for value in values]


@needs_digit_limit
@pytest.mark.parametrize("kind, lo, hi", LIMIT_CROSSINGS, ids=["T", "S", "C"])
def test_range_text_under_a_raised_limit_is_str(kind, lo, hi):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        expected = [str(value) for _, value in sequence_range(kind, lo, hi)]
        assert range_text(kind, lo, hi) == expected
    finally:
        sys.set_int_max_str_digits(saved)


def test_range_text_ignores_and_keeps_the_callers_decimal_context():
    kind = SequenceKind.GENERALIZED_LUCAS
    # S steps by +-1 only; CEven's 3 and this order-4 denominator's 0, 2 and 3
    # also run products, which must not round at the caller's precision either
    ogfs = {
        "CEven": (builtin_ogf("CEven"), 400),
        "order 4": (RationalOGF((1, 2), (1, 0, 0, 2, -3)), 200),
    }
    with decimal.localcontext() as context:
        context.prec = 5
        before = (context.prec, context.rounding, dict(context.flags), dict(context.traps))
        texts = range_text(kind, -200, 200)
        expansions = {name: expand_text(ogf, count) for name, (ogf, count) in ogfs.items()}
        assert decimal.getcontext() is context
        assert (context.prec, context.rounding, dict(context.flags), dict(context.traps)) == before
    assert texts == [str(value) for _, value in sequence_range(kind, -200, 200)]
    for name, (ogf, count) in ogfs.items():
        assert expansions[name] == [str(value) for value in expand(ogf, count)], name


def test_every_decimal_row_builder_keeps_the_callers_context(monkeypatch):
    # Five digits and no traps: a Decimal operator in the caller's context
    # would round these rows silently.  Each builder runs its pass in
    # _EXACT and hands the caller's context back, on return and on a raise.
    S, C, T = SequenceKind.GENERALIZED_LUCAS, SequenceKind.MINOR_SUM, SequenceKind.TRIBONACCI
    user = RationalOGF((-3, -1, 2), (1, -1, 0, 1, 2, -3))  # steps by 1, 0, -1, -2 and 3

    def values(kind, lo, hi):
        return [value for _, value in sequence_range(kind, lo, hi)]

    calls = {
        "seqcore S": (lambda: range_text(S, 900, 1000), values(S, 900, 1000)),
        "seqcore C": (lambda: range_text(C, -1000, -900), values(C, -1000, -900)),
        "matrix T by A": (lambda: tribomatrix.range_text(T, 900, 1000), values(T, 900, 1000)),
        "matrix C by A^-1": (lambda: tribomatrix.range_text(C, 1800, 1900),
                             values(C, 1800, 1900)),
        "expand CEven": (lambda: expand_text(builtin_ogf("CEven"), 400),
                         expand(builtin_ogf("CEven"), 400)),
        "expand num/den": (lambda: expand_text(user, 300), expand(user, 300)),
    }
    monkeypatch.setattr(seqcore, "_str_limit", lambda: 4300)  # S(16248) is the first past it
    refused = {"seqcore S": lambda: range_text(S, 16200, 16400),
               "matrix S by A": lambda: tribomatrix.range_text(S, 16200, 16400)}
    with decimal.localcontext() as context:
        context.prec = 5
        context.traps = dict.fromkeys(context.traps, False)

        def state():
            return context.prec, context.rounding, dict(context.flags), dict(context.traps)

        before = state()
        for name, (call, expected) in calls.items():
            assert call() == list(map(str, expected)), name
            assert decimal.getcontext() is context and state() == before, name
        for name, call in refused.items():
            with pytest.raises(ValueError, match="Exceeds the limit"):
                call()
            assert decimal.getcontext() is context and state() == before, name


_BIG = st.integers(min_value=-10**300, max_value=10**300)
_TRIPLES = st.tuples(_BIG, _BIG, _BIG)
_MATRICES = st.tuples(_TRIPLES, _TRIPLES, _TRIPLES)


def _kernel_results(coeffs, r, s, x, y) -> dict[str, object]:
    """Each exact kernel written in operators, run on the given operands."""
    m = tribomatrix
    return {
        "seqcore._square": _square(coeffs, r),
        "seqcore._times_x": seqcore._times_x(coeffs, r),
        "seqcore._dot": seqcore._dot(r, s),
        "tribomatrix._square": m._square(x),
        "tribomatrix._trace_of_product, y is x": m._trace_of_product(x, x),
        "tribomatrix._trace_of_product": m._trace_of_product(x, y),
        "tribomatrix._entry_12_of_product": m._entry_12_of_product(x, y),
        "tribomatrix._times_a": m._times_a(x),
        "tribomatrix._times_a_inv": m._times_a_inv(x),
    }


def _texts(value) -> object:
    """Text of each number in a nest of tuples, zero without its sign: a
    Decimal product keeps it (0 * -1 is -0), where no printed row meets
    one, as the decimal passes multiply only by positive constants."""
    if isinstance(value, tuple):
        return tuple(map(_texts, value))
    return str(value) if value else "0"


def _lifted(value) -> object:
    return tuple(map(_lifted, value)) if isinstance(value, tuple) else decimal.Decimal(value)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3),
       r=_TRIPLES, s=_TRIPLES, x=_MATRICES, y=_MATRICES)
def test_kernels_in_operators_give_int_results_on_exact_decimals(coeffs, r, s, x, y):
    # The operand type is the arithmetic: each kernel run on Decimals in
    # _EXACT prints what it prints on ints, _square's exact // by 2 and 6
    # included, where Decimal truncates and int floors.
    expected = _kernel_results(coeffs, r, s, x, y)
    with decimal.localcontext(seqcore._EXACT):
        lifted = _kernel_results(coeffs, *map(_lifted, (r, s, x, y)))
    for name, result in lifted.items():
        assert _texts(result) == _texts(expected[name]), name


@pytest.mark.parametrize("coeffs", [(1, 1, 2), (1, 1, 0), (-1, -1, -2)])
def test_recurrence_refuses_a_trailing_coefficient_other_than_plus_or_minus_one(coeffs):
    # with c3 = 2, a(-1) = (a(2) - a(1) - a(0)) / 2 is not an integer step
    with pytest.raises(ValueError, match="c3 must be 1 or -1"):
        Recurrence(coeffs, (1, 2, 4))
    # the named tuple's own constructors run the same check
    recurrence = Recurrence((1, 1, 1), (1, 2, 4))
    with pytest.raises(ValueError, match="c3 must be 1 or -1"):
        recurrence._replace(coeffs=coeffs)
    with pytest.raises(ValueError, match="c3 must be 1 or -1"):
        Recurrence._make([coeffs, (1, 2, 4)])
    with pytest.raises(AttributeError):
        recurrence.coeffs = coeffs


@settings(max_examples=40, deadline=None)
@given(
    c1=st.integers(min_value=-3, max_value=3),
    c2=st.integers(min_value=-3, max_value=3),
    c3=st.sampled_from([-1, 1]),
    seeds=st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3),
    lo=st.integers(min_value=-300, max_value=300),
)
@example(c1=-1, c2=-3, c3=1, seeds=_C_EVEN.seeds, lo=-300)
def test_memo_and_terms_match_the_ladder(c1, c2, c3, seeds, lo):
    # coefficients 0, +-1 and larger, in both directions
    recurrence = Recurrence((c1, c2, c3), seeds)
    memo = recurrence.memo()
    values = [recurrence.at(n) for n in range(-300, 301)]  # values[n + 300] is a(n)
    assert [memo(n) for n in range(-300, 301)] == values
    # memo, at and window all read n < 0 through ``reversed``: check the
    # values against the seeds and the forward recurrence themselves
    assert values[300:303] == list(seeds)
    for n in range(-297, 301):
        a = values[n + 300 - 3:n + 300 + 1]
        assert a[3] == c1 * a[2] + c2 * a[1] + c3 * a[0], n
    assert list(islice(recurrence.terms(lo), 12)) == [recurrence.at(n) for n in range(lo, lo + 12)]


def _square_by_six_products(coeffs, r):
    (c1, c2, c3), (r0, r1, r2) = coeffs, r
    p0, p1, p2, p3, p4 = r0 * r0, 2 * r0 * r1, r1 * r1 + 2 * r0 * r2, 2 * r1 * r2, r2 * r2
    p1, p2, p3 = p1 + c3 * p4, p2 + c2 * p4, p3 + c1 * p4
    return p0 + c3 * p3, p1 + c2 * p3, p2 + c1 * p3


_SIGNED = st.integers(min_value=-10**60, max_value=10**60)


@given(coeffs=st.tuples(*[st.integers(min_value=-10**6, max_value=10**6)] * 3),
       r=st.tuples(_SIGNED, _SIGNED, _SIGNED))
@example(coeffs=_C_EVEN.coeffs, r=(-3, 5, -7))
@example(coeffs=RECURRENCES[SequenceKind.MINOR_SUM].coeffs, r=(10**40 + 1, -(10**39), 7))
def test_five_squarings_square_as_six_products_do(coeffs, r):
    # interpolation, not a fact about the cubic: any coefficients, any signs
    assert _square(coeffs, r) == _square_by_six_products(coeffs, r)


class NoProducts(int):
    """An int that refuses to be multiplied, so a step by +-1 must add it."""

    def __mul__(self, other):
        raise AssertionError("multiplied a neighbour of coefficient +-1")

    __rmul__ = __mul__


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_memo_steps_by_plus_or_minus_one_without_products(kind):
    recurrence = RECURRENCES[kind]
    memo = Recurrence(recurrence.coeffs, tuple(map(NoProducts, recurrence.seeds))).memo()
    assert [memo(n) for n in range(-50, 51)] == [recurrence.at(n) for n in range(-50, 51)]


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_terms_step_by_plus_or_minus_one_without_products(kind, monkeypatch):
    recurrence = RECURRENCES[kind]
    expected = [term(kind, n) for n in range(-20, 21)]  # term reads window too
    window = tuple(map(NoProducts, recurrence.window(-20)))
    monkeypatch.setattr(Recurrence, "window", lambda self, lo: window)
    assert list(islice(recurrence.terms(-20), 41)) == expected


def test_c_even_matches_full_sequence():
    assert [c_even(k) for k in range(10)] == C_EVEN_FIRST
    assert c_even(3) == 11
    for k in range(-300, 301):
        assert c_even(k) == c_seq(2 * k)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(SequenceKind)),
    n=st.integers(min_value=-10**4, max_value=10**4),
)
def test_ladder_matches_range_pass_and_matrix_power(kind, n):
    value = term(kind, n)
    assert sequence_range(kind, n - 5, n)[-1] == (n, value)
    power = mat_pow(n)
    by_matrix = {
        SequenceKind.TRIBONACCI: power[0][1],
        SequenceKind.GENERALIZED_LUCAS: trace(power),
        SequenceKind.MINOR_SUM: minors_of(power).total,
    }[kind]
    assert value == by_matrix


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=-10**4, max_value=10**4),
       k=st.integers(min_value=-10**4, max_value=10**4))
def test_ladder_negation_and_even_index(n, k):
    assert c_seq(n) == s_lucas(-n)
    assert c_even(k) == c_seq(2 * k)


@pytest.mark.parametrize(
    "evaluate",
    [lambda: s_lucas(10**5), lambda: c_from_t(10**5, CForm.SQUARE)],
    ids=["term_S", "c_from_t_square"],
)
def test_single_values_at_1e5_within_a_second(evaluate):
    start = time.perf_counter()
    evaluate()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1.0s"


def test_s_from_t_examples():
    assert s_from_t(2, SForm.MINOR) == 3
    assert s_from_t(2, SForm.OGF) == 3


def test_s_from_t_agrees_with_recurrence():
    for n in range(-100, 101):
        expected = s_lucas(n)
        assert s_from_t(n, SForm.MINOR) == expected
        assert s_from_t(n, SForm.OGF) == expected


def test_c_from_t_examples():
    # the n=1 case reads T(-1)=0 and T(-2)=1 through the reversed recurrence
    assert c_from_t(1, CForm.MINOR_EXPANSION) == -1
    assert c_from_t(2, CForm.SQUARE) == -1


def test_c_from_t_agrees_with_recurrence():
    for n in range(-100, 101):
        expected = c_seq(n)
        assert c_from_t(n, CForm.MINOR_EXPANSION) == expected
        assert c_from_t(n, CForm.SQUARE) == expected


def test_t_from_the_s_window_agrees_with_recurrence():
    scale, (before, at, after) = T_FROM_S
    s = dict(sequence_range(SequenceKind.GENERALIZED_LUCAS, -301, 301))
    t = dict(sequence_range(SequenceKind.TRIBONACCI, -300, 300))
    for n in range(-300, 301):
        assert scale * t[n] == before * s[n - 1] + at * s[n] + after * s[n + 1]


def test_s_and_c_swap_under_negation():
    for n in range(0, 101):
        assert s_lucas(-n) == c_seq(n)
        assert c_seq(-n) == s_lucas(n)


_SPELLINGS = {
    "t": SequenceKind.TRIBONACCI,
    "Tribonacci": SequenceKind.TRIBONACCI,
    "S": SequenceKind.GENERALIZED_LUCAS,
    "lUcAs": SequenceKind.GENERALIZED_LUCAS,
    "generalized-Lucas": SequenceKind.GENERALIZED_LUCAS,
    " c ": SequenceKind.MINOR_SUM,
    "minor-sum": SequenceKind.MINOR_SUM,
    "MinorSum": SequenceKind.MINOR_SUM,
}


def test_kind_parsing():
    for text, kind in _SPELLINGS.items():
        assert SequenceKind.from_string(text) is kind
        assert SequenceKind.from_string(text.upper().replace("-", "_")) is kind
    for text in ("Q", "", "SS", "MINOR SUM", "lucas_"):
        with pytest.raises(ValueError) as refused:
            SequenceKind.from_string(text)
        assert str(refused.value) == f"unknown sequence kind: {text!r} (expected T, S or C)"


# ------------------------------------------------ digit bounds before arithmetic

def _digits(value: int) -> int:
    """Decimal digits of |value|, found against powers of ten, without str()."""
    size = abs(value)
    digits = max(1, (size.bit_length() - 1) * 30102 // 100000)  # at most the true count
    while 10 ** digits <= size:
        digits += 1
    return digits


def _check_bounds(kind: SequenceKind, values: dict[int, int], step: int) -> None:
    """Every value within its single bounds, and each run of rows ending at
    each n within the rows' bounds: some row at least low, all at most high."""
    for n, value in values.items():
        low, high = seqcore.digit_bounds(kind, n)
        assert low <= _digits(value) <= high, (kind, n)
    for n in values:
        for width in (2, 3, 7):
            rows = [values[k] for k in range(n - width * step, n + 1, step) if k in values]
            low, high = seqcore.digit_bounds(kind, n - width * step, n, step)
            if len(rows) == width + 1:
                assert low <= max(map(_digits, rows)), (kind, n, width, step)
                assert sum(map(_digits, rows)) <= high, (kind, n, width, step)


# |a(n)| passes 4,300 digits near n = 16,250 where alpha's term dominates
# (n > 0 for T and S, n < 0 for C) and near 32,500 where the pair does; C(2k)
# is C at even n, whose rows step by 2.
@pytest.mark.parametrize("center", [16250, -16250, 32500, -32500])
@pytest.mark.parametrize("kind, step", [(SequenceKind.TRIBONACCI, 1),
                                        (SequenceKind.GENERALIZED_LUCAS, 1),
                                        (SequenceKind.MINOR_SUM, 1), (SequenceKind.MINOR_SUM, 2)],
                         ids=["T", "S", "C", "C(2k)"])
def test_digit_bounds_hold_around_the_limit_crossings(kind, step, center):
    rows = sequence_range(kind, center - 60, center + 60)
    _check_bounds(kind, {n: value for n, value in rows if n % step == 0}, step)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(SequenceKind)), n=st.integers(-10**5, 10**5),
       width=st.integers(0, 6), step=st.sampled_from([1, 2]))
@example(kind=SequenceKind.MINOR_SUM, n=10**5, width=2, step=2)
def test_digit_bounds_hold_at_any_index(kind, n, width, step):
    last = n + width * step
    values = dict(sequence_range(kind, n, last)[::step])
    low, high = seqcore.digit_bounds(kind, n, last, step)
    assert low <= max(map(_digits, values.values()))
    assert sum(map(_digits, values.values())) <= high
    for k, value in values.items():
        low, high = seqcore.digit_bounds(kind, k)
        assert low <= _digits(value) <= high


def test_digit_bounds_are_tight_where_alpha_dominates():
    for kind, n in ((SequenceKind.TRIBONACCI, 16250), (SequenceKind.GENERALIZED_LUCAS, 16248),
                    (SequenceKind.MINOR_SUM, -16248)):
        assert seqcore.digit_bounds(kind, n) == (4301, 4301)
    assert seqcore.digit_bounds(SequenceKind.GENERALIZED_LUCAS, 16247)[0] == 4300
    assert seqcore.digit_bounds(SequenceKind.MINOR_SUM, 16248)[0] == 0  # the pair's side
    assert seqcore.digit_bounds(SequenceKind.GENERALIZED_LUCAS, 5, 4) == (0, 0)


def test_digit_bounds_take_constant_time_at_any_index():
    start = time.perf_counter()
    single = seqcore.digit_bounds(SequenceKind.GENERALIZED_LUCAS, 10**400)
    rows = seqcore.digit_bounds(SequenceKind.MINOR_SUM, -10**400, 10**400, 2)
    assert time.perf_counter() - start < 0.05
    assert 0 < single[0] <= single[1] and 0 < rows[0] <= rows[1]


def test_the_growth_constants_against_mpmath():
    import mpmath

    with mpmath.workdps(50):
        alpha = mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8)
        beta = mpmath.mpc((1 - alpha) / 2, mpmath.sqrt(1 / alpha - ((1 - alpha) / 2) ** 2))
        assert abs(beta**3 - beta**2 - beta - 1) < mpmath.mpf(10) ** -45
        one, far = seqcore._ONE, seqcore._FAR
        lo, hi = seqcore._LOG10_ALPHA
        assert lo / one < mpmath.log10(alpha) < hi / one and hi - lo == 1
        assert mpmath.log(alpha, 2) < seqcore._BITS_PER_100 / mpmath.mpf(100)
        share = seqcore._PAIR_SHARE / mpmath.mpf(1000)
        theta = mpmath.arg(beta)
        assert share < mpmath.sin(theta) < share + mpmath.mpf(10) ** -3
        # three phases a row or two rows apart leave no gap above 180 - 2*acos(share) degrees mod pi
        for step in (1, 2):
            phases = sorted(mpmath.fmod(k * step * theta, mpmath.pi) for k in range(3))
            gaps = [b - a for a, b in zip(phases, [*phases[1:], phases[0] + mpmath.pi])]
            assert mpmath.cos(max(gaps) / 2) > share
        weight = {  # each root's weight: 1 for S; (5/r + 1 + 2r)/22 for T
            SequenceKind.GENERALIZED_LUCAS: lambda r: 1,
            SequenceKind.TRIBONACCI: lambda r: (5 / r + 1 + 2 * r) / 22,
        }
        for kind, w in weight.items():
            a, b = abs(w(alpha)), abs(w(beta))
            dropped = 2 * b * abs(beta) ** far / (a * alpha**far)
            pair_dropped = a * alpha**-far / (share * 2 * b * alpha ** (far / 2))
            c = seqcore._WEIGHTS[kind]
            assert mpmath.log10(a) - 2 / one < c.alpha / one <= mpmath.log10(a * (1 - dropped))
            assert (mpmath.log10(share * 2 * b) - 2 / one < c.pair / one
                    <= mpmath.log10(share * 2 * b * (1 - pair_dropped)))
            assert c.high / one >= mpmath.log10(a + 2 * b)


def test_the_bit_bound_keeps_binet_sizes_and_sweep_widths():
    from tribokit import analytic, identities

    for k in [*range(0, 3000), *range(3000, 10**6, 997), 10**9 + 7]:
        assert seqcore._alpha_bits(k) == 88 * k // 100
        assert identities._width(k) == k * 88 // 100 + 64
        for kind in SequenceKind:
            for n in (k, -k):
                m = -n if kind is SequenceKind.MINOR_SUM else n
                small = k.bit_length() + 40
                big = (88 * k if m >= 0 else 44 * k) // 100 + small
                assert analytic._bits(kind, n) == (m, small, big)
