from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tribokit.seqcore import SequenceKind, c_seq, s_lucas, term
from tribokit.tribomatrix import (
    MinorSumReport,
    determinant,
    entries_from_tribonacci,
    identity,
    mat_mul,
    mat_pow,
    mat_pow_naive,
    minor_sum,
    minors_of,
    trace,
    term_of,
    trace_pow,
    tribomatrix,
)

A = ((1, 1, 0), (1, 0, 1), (1, 0, 0))
A2 = ((2, 1, 1), (2, 1, 0), (1, 1, 0))
A3 = ((4, 2, 1), (3, 2, 1), (2, 1, 1))


def test_generator_matrix():
    assert tribomatrix() == A
    assert trace(A) == 1
    assert determinant(A) == 1


def test_mat_mul():
    assert mat_mul(A, identity()) == A
    assert mat_mul(identity(), A) == A
    assert mat_mul(A, A) == A2
    assert mat_mul(A2, A) == mat_mul(A, A2) == A3


def test_mat_pow_small():
    assert mat_pow(0) == identity()
    assert mat_pow(1) == A
    assert mat_pow(2) == A2
    assert mat_pow(3) == A3


def test_mat_pow_rejects_negative():
    with pytest.raises(ValueError):
        mat_pow(-1)
    with pytest.raises(ValueError):
        mat_pow_naive(-2)


def test_binary_pow_matches_naive():
    for n in range(65):
        assert mat_pow(n) == mat_pow_naive(n)


@given(a=st.integers(min_value=0, max_value=32), b=st.integers(min_value=0, max_value=32))
def test_power_additivity(a, b):
    assert mat_pow(a + b) == mat_mul(mat_pow(a), mat_pow(b))


def test_entries_formula_identity_at_zero():
    assert entries_from_tribonacci(0) == identity()


def test_entries_formula_matches_power():
    for n in range(65):
        assert entries_from_tribonacci(n) == mat_pow(n)


def test_entries_formula_rejects_negative():
    with pytest.raises(ValueError):
        entries_from_tribonacci(-1)


def test_trace_pow_is_s():
    assert trace_pow(5) == 21
    for n in range(65):
        assert trace_pow(n) == s_lucas(n)


def test_minor_sum_examples():
    report = minor_sum(1)
    assert (report.minor_12, report.minor_13, report.minor_23) == (-1, 0, 0)
    assert report.total == -1
    assert minor_sum(0) == MinorSumReport(1, 1, 1, 3)
    assert minor_sum(4).total == -5


def test_minor_sum_is_c():
    for n in range(65):
        assert minor_sum(n).total == c_seq(n)


def test_determinant_of_powers_is_one():
    for n in range(65):
        assert determinant(mat_pow(n)) == 1


def test_minors_of_matches_minor_sum():
    for n in range(10):
        assert minors_of(mat_pow(n)) == minor_sum(n)


def test_minor_report_total_invariant():
    with pytest.raises(ValueError):
        MinorSumReport(1, 1, 1, 4)


def test_term_of_reads_each_kind_off_the_matrix_power():
    for kind in SequenceKind:
        for n in range(0, 41):
            assert term_of(kind, mat_pow(n)) == term(kind, n), (kind, n)
