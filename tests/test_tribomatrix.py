from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from tribokit import tribomatrix as tribomatrix_module
from tribokit.seqcore import SequenceKind, c_seq, s_lucas, term
from tribokit.tribomatrix import (
    MinorSumReport,
    _entry_12_of_product,
    _square,
    _trace_of_product,
    determinant,
    entries_from_tribonacci,
    identity,
    mat_mul,
    mat_pow,
    mat_pow_naive,
    minor_sum,
    minors_of,
    terms,
    trace,
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


def test_mat_pow_negative_is_the_integral_inverse():
    a_inv = ((0, 0, 1), (1, 0, -1), (0, 1, -1))
    assert mat_pow(-1) == mat_pow_naive(-1) == a_inv
    assert mat_mul(A, a_inv) == mat_mul(a_inv, A) == identity()
    assert mat_pow(-3) == ((1, -1, 0), (-1, 2, -1), (-1, 0, 2))


def test_binary_pow_matches_naive():
    for n in range(-64, 65):
        assert mat_pow(n) == mat_pow_naive(n)


_BIG = st.integers(min_value=-10**40, max_value=10**40)
_ROW = st.tuples(_BIG, _BIG, _BIG)


@given(m=st.tuples(_ROW, _ROW, _ROW))
def test_square_is_the_product_for_any_matrix(m):
    # An identity for every integer matrix, not a fact about powers of A.
    assert _square(m) == mat_mul(m, m)


@given(x=st.tuples(_ROW, _ROW, _ROW), y=st.tuples(_ROW, _ROW, _ROW))
def test_reads_of_a_product_hold_for_any_matrices(x, y):
    # Identities for every integer matrix: no Cayley-Hamilton, no commuting with A.
    assert _trace_of_product(x, y) == trace(mat_mul(x, y))
    assert _entry_12_of_product(x, y) == mat_mul(x, y)[0][1]
    # x is x: the six-product square read; an equal copy takes the nine-product read.
    copy = tuple(tuple([*row]) for row in x)
    assert copy is not x
    assert _trace_of_product(x, x) == _trace_of_product(x, copy) == trace(mat_mul(x, x))


@pytest.mark.parametrize("n", [2**17 - 1, -(2**17 - 1), 10**5, -(10**5)])
def test_mat_pow_matches_entries_formula_at_large_n(n):
    assert mat_pow(n) == entries_from_tribonacci(n)


@pytest.mark.parametrize("n", [0, 1, -1, 2**10, -(2**10), 2**10 - 1, -(2**10 - 1), 12345, -12345])
def test_mat_pow_multiplies_by_the_base_once_per_set_bit(monkeypatch, n):
    expected, base = mat_pow_naive(n), mat_pow_naive(1 if n >= 0 else -1)
    right_operands = []
    original = tribomatrix_module.mat_mul

    def counting(a, b):
        right_operands.append(b)
        return original(a, b)

    monkeypatch.setattr(tribomatrix_module, "mat_mul", counting)
    assert mat_pow(n) == expected
    # Squarings go through _square; every product is by A or A^-1 itself.
    assert len(right_operands) == abs(n).bit_count()
    assert all(b == base for b in right_operands)


@given(a=st.integers(min_value=-32, max_value=32), b=st.integers(min_value=-32, max_value=32))
def test_power_additivity(a, b):
    assert mat_pow(a + b) == mat_mul(mat_pow(a), mat_pow(b))


def test_entries_formula_identity_at_zero():
    assert entries_from_tribonacci(0) == identity()


def test_entries_formula_matches_power():
    for n in range(-64, 65):
        assert entries_from_tribonacci(n) == mat_pow(n)


def test_trace_pow_is_s():
    assert trace_pow(5) == 21
    for n in range(-64, 65):
        assert trace_pow(n) == s_lucas(n)


def test_minor_sum_examples():
    report = minor_sum(1)
    assert (report.minor_12, report.minor_13, report.minor_23) == (-1, 0, 0)
    assert report.total == -1
    assert minor_sum(0) == MinorSumReport(1, 1, 1, 3)
    assert minor_sum(4).total == -5


def test_minor_sum_is_c():
    for n in range(-64, 65):
        assert minor_sum(n).total == c_seq(n)


def test_determinant_of_powers_is_one():
    for n in range(-64, 65):
        assert determinant(mat_pow(n)) == 1


def test_minors_of_matches_minor_sum():
    for n in range(10):
        assert minors_of(mat_pow(n)) == minor_sum(n)


def test_minor_report_total_invariant():
    with pytest.raises(ValueError):
        MinorSumReport(1, 1, 1, 4)


@given(kind=st.sampled_from(SequenceKind), lo=st.integers(min_value=-10**3, max_value=10**3),
       count=st.integers(min_value=1, max_value=4))
def test_terms_reads_each_kind_off_a_matrix_power(kind, lo, count):
    assert list(islice(terms(kind, lo), count)) == [term(kind, lo + i) for i in range(count)]


def test_minor_sum_of_a_power_is_the_trace_of_its_inverse():
    # adj(A^n) = A^-n since det A = 1, so each principal minor of A^n is a
    # diagonal entry of A^-n; ``terms`` reads C(n) = tr(A^-n) on this fact.
    for n in range(-64, 65):
        report, inverse = minors_of(mat_pow(n)), mat_pow(-n)
        assert (report.minor_12, report.minor_13, report.minor_23) == (
            inverse[2][2], inverse[1][1], inverse[0][0])
        assert report.total == trace(inverse) == c_seq(n)


_READS_OFF_MAT_POW = {
    SequenceKind.TRIBONACCI: lambda n: mat_pow(n)[0][1],
    SequenceKind.GENERALIZED_LUCAS: lambda n: trace(mat_pow(n)),
    SequenceKind.MINOR_SUM: lambda n: trace(mat_pow(-n)),
}


@given(kind=st.sampled_from(SequenceKind), lo=st.integers(min_value=-3000, max_value=3000))
@example(kind=SequenceKind.TRIBONACCI, lo=2999)
@example(kind=SequenceKind.GENERALIZED_LUCAS, lo=-2999)
@example(kind=SequenceKind.MINOR_SUM, lo=3000)
@example(kind=SequenceKind.MINOR_SUM, lo=-1)
def test_terms_match_the_values_read_off_mat_pow(kind, lo):
    # The first value comes off two half powers, the later ones off A^lo stepped.
    read = _READS_OFF_MAT_POW[kind]
    assert list(islice(terms(kind, lo), 12)) == [read(n) for n in range(lo, lo + 12)]
