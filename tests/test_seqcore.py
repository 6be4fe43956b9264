from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_c, oracle_s, oracle_t
from tribokit.seqcore import (
    CForm,
    SForm,
    SequenceKind,
    c_even,
    c_from_t,
    c_seq,
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


def test_c_even_matches_full_sequence():
    assert [c_even(k) for k in range(10)] == C_EVEN_FIRST
    assert c_even(3) == 11
    for k in range(101):
        assert c_even(k) == c_seq(2 * k)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(SequenceKind)),
    n=st.integers(min_value=-10**4, max_value=10**4),
)
def test_ladder_matches_range_pass_and_matrix_power(kind, n):
    value = term(kind, n)
    assert sequence_range(kind, n - 5, n)[-1] == (n, value)
    if n >= 0:
        power = mat_pow(n)
        by_matrix = {
            SequenceKind.TRIBONACCI: power[0][1],
            SequenceKind.GENERALIZED_LUCAS: trace(power),
            SequenceKind.MINOR_SUM: minors_of(power).total,
        }[kind]
        assert value == by_matrix


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=-10**4, max_value=10**4), k=st.integers(min_value=0, max_value=10**4))
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


def test_c_even_rejects_negative():
    with pytest.raises(ValueError):
        c_even(-1)


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


def test_s_and_c_swap_under_negation():
    for n in range(0, 101):
        assert s_lucas(-n) == c_seq(n)
        assert c_seq(-n) == s_lucas(n)


def test_kind_parsing():
    assert SequenceKind.from_string("t") is SequenceKind.TRIBONACCI
    assert SequenceKind.from_string("S") is SequenceKind.GENERALIZED_LUCAS
    assert SequenceKind.from_string("minor-sum") is SequenceKind.MINOR_SUM
    with pytest.raises(ValueError):
        SequenceKind.from_string("Q")
