from __future__ import annotations

import decimal
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_c, oracle_s, oracle_t
from tribokit import tribomatrix as tribomatrix_module
from tribokit import seqcore
from tribokit.seqcore import SequenceKind, c_seq, s_lucas, sequence_range
from tribokit.tribomatrix import (
    MinorSumReport,
    _entry_12_of_product,
    _square,
    _trace_of_product,
    determinant,
    entries_from_tribonacci,
    mat_mul,
    mat_pow,
    mat_pow_naive,
    minor_sum,
    minors_of,
    range_text,
    term,
    trace,
    trace_pow,
)

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
A = ((1, 1, 0), (1, 0, 1), (1, 0, 0))
A2 = ((2, 1, 1), (2, 1, 0), (1, 1, 0))
A3 = ((4, 2, 1), (3, 2, 1), (2, 1, 1))


def test_generator_matrix():
    assert tribomatrix_module._A == mat_pow(1) == A
    assert trace(A) == 1
    assert determinant(A) == 1


def test_mat_mul():
    assert mat_mul(A, IDENTITY) == A
    assert mat_mul(IDENTITY, A) == A
    assert mat_mul(A, A) == A2
    assert mat_mul(A2, A) == mat_mul(A, A2) == A3


def test_mat_pow_small():
    assert mat_pow(0) == IDENTITY
    assert mat_pow(1) == A
    assert mat_pow(2) == A2
    assert mat_pow(3) == A3


def test_mat_pow_negative_is_the_integral_inverse():
    a_inv = ((0, 0, 1), (1, 0, -1), (0, 1, -1))
    assert mat_pow(-1) == mat_pow_naive(-1) == a_inv
    assert mat_mul(A, a_inv) == mat_mul(a_inv, A) == IDENTITY
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


@given(m=st.tuples(_ROW, _ROW, _ROW))
def test_steps_are_the_products_by_a_and_its_inverse_for_any_matrix(m):
    assert tribomatrix_module._times_a(m) == mat_mul(m, A)
    assert tribomatrix_module._times_a_inv(m) == mat_mul(m, mat_pow_naive(-1))


@pytest.mark.parametrize("n", [0, 1, -1, 2**10, -(2**10), 2**10 - 1, -(2**10 - 1), 12345, -12345])
def test_mat_pow_multiplies_by_the_base_once_per_set_bit(monkeypatch, n):
    steps, products = [], []
    original_mul = tribomatrix_module.mat_mul

    def counting(name):
        original = getattr(tribomatrix_module, name)

        def counted(m):
            steps.append((name, type(m[0][0])))
            return original(m)

        return counted

    def counting_mul(a, b):
        products.append(b)
        return original_mul(a, b)

    expected = mat_pow_naive(n)
    for name in ("_times_a", "_times_a_inv"):
        monkeypatch.setattr(tribomatrix_module, name, counting(name))
    monkeypatch.setattr(tribomatrix_module, "mat_mul", counting_mul)
    assert mat_pow(n) == expected
    # Squarings go through _square; every product is one step on ints by A,
    # or by A^-1 when n < 0, and none is a general product.
    step = "_times_a" if n >= 0 else "_times_a_inv"
    assert steps == [(step, int)] * abs(n).bit_count()
    assert products == []


# A fresh interpreter injects a sign fault at the source of seqcore._pass,
# which writes the step of the recurrence's compiled passes, before any pass
# or matrix step has run, and prints what both routes give after it.  The
# marker is the f-string that writes the subtraction.
_SIGN_FAULT = """
import inspect, json
from tribokit import seqcore, tribomatrix
from tribokit.seqcore import SequenceKind

source = inspect.getsource(seqcore._pass)
assert source.count("} - {") == 1
exec(source.replace("} - {", "} + {"), vars(seqcore))
seqcore._pass.cache_clear()
print(json.dumps({
    "matrix": [tribomatrix.range_text(kind, -8, 8) for kind in SequenceKind],
    "mat_pow": tribomatrix.mat_pow(-7),
    "recurrence": seqcore.range_text(SequenceKind.MINOR_SUM, -8, 8),
}))
"""


def test_a_sign_fault_in_the_recurrences_generator_leaves_the_matrix_route_alone():
    package_root = os.path.dirname(os.path.dirname(tribomatrix_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SIGN_FAULT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    faulted = json.loads(done.stdout)
    texts = [[str(values[n]) for n in range(-8, 9)]
             for values in (oracle_t(-8, 8), oracle_s(-8, 8), oracle_c(-8, 8))]
    # The recurrence's C pass subtracts, so the fault shows there ...
    assert faulted["recurrence"] != texts[2]
    # ... and the matrix route, which computes with none of its code, is unchanged.
    assert faulted["matrix"] == texts
    assert faulted["mat_pow"] == [list(row) for row in mat_pow_naive(-7)]


@given(a=st.integers(min_value=-32, max_value=32), b=st.integers(min_value=-32, max_value=32))
def test_power_additivity(a, b):
    assert mat_pow(a + b) == mat_mul(mat_pow(a), mat_pow(b))


def test_entries_formula_identity_at_zero():
    assert entries_from_tribonacci(0) == IDENTITY


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
    assert minor_sum(0) == MinorSumReport(1, 1, 1)
    assert minor_sum(0).total == 3
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


@given(minors=st.tuples(_BIG, _BIG, _BIG))
def test_minor_report_total_invariant(minors):
    # The total is derived from the three minors, so no report can disagree with them.
    report = MinorSumReport(*minors)
    assert report.total == sum(minors)
    assert tuple(report) == minors


@given(kind=st.sampled_from(SequenceKind), lo=st.integers(min_value=-10**3, max_value=10**3),
       count=st.integers(min_value=1, max_value=4))
def test_terms_reads_each_kind_off_a_matrix_power(kind, lo, count):
    # Against the ladder, which shares nothing with this route but the definition of A.
    assert [term(kind, lo + i) for i in range(count)] == [
        seqcore.term(kind, lo + i) for i in range(count)]


def test_minor_sum_of_a_power_is_the_trace_of_its_inverse():
    # adj(A^n) = A^-n since det A = 1, so each principal minor of A^n is a
    # diagonal entry of A^-n; ``term`` reads C(n) = tr(A^-n) on this fact.
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
    # A single value comes off two half powers, a range's later rows off A^lo
    # stepped in exact decimal.
    read = _READS_OFF_MAT_POW[kind]
    assert term(kind, lo) == read(lo)
    assert range_text(kind, lo, lo + 11) == [str(read(n)) for n in range(lo, lo + 12)]


@settings(deadline=None)
@given(kind=st.sampled_from(SequenceKind), lo=st.integers(min_value=-3000, max_value=3000),
       count=st.integers(min_value=1, max_value=40))
@example(kind=SequenceKind.TRIBONACCI, lo=-3000, count=40)
@example(kind=SequenceKind.GENERALIZED_LUCAS, lo=2999, count=2)
@example(kind=SequenceKind.MINOR_SUM, lo=-1, count=40)
def test_range_text_is_str_of_each_value_of_terms(kind, lo, count):
    # The first row off the half powers, the rest stepped in exact decimal;
    # the expected values come off the recurrence's range pass.
    hi = lo + count - 1
    assert range_text(kind, lo, hi) == [str(value) for _, value in sequence_range(kind, lo, hi)]


def test_range_text_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        range_text(SequenceKind.TRIBONACCI, 1, 0)


_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_STR_LIMIT != 4300, reason="needs the default 4300-digit int-to-str limit")
@pytest.mark.parametrize("kind, lo, hi", [
    (SequenceKind.GENERALIZED_LUCAS, 19801, 20000),
    (SequenceKind.GENERALIZED_LUCAS, 16200, 16300),
    (SequenceKind.MINOR_SUM, 32000, 32600),
], ids=["S past at the first row", "S crossing", "C crossing"])
def test_range_text_fails_on_the_row_that_str_fails_on(kind, lo, hi):
    values = [value for _, value in sequence_range(kind, lo, hi)]
    past = next(k for k, value in enumerate(values) if Decimal(value).adjusted() >= _STR_LIMIT)
    message = (f"Exceeds the limit ({_STR_LIMIT} digits) for integer string conversion; "
               "use sys.set_int_max_str_digits() to increase the limit")
    with pytest.raises(ValueError) as info:
        range_text(kind, lo, lo + past)
    assert str(info.value) == message
    if past:
        assert range_text(kind, lo, lo + past - 1) == list(map(str, values[:past]))


def test_range_text_ignores_the_callers_decimal_context():
    # Five digits and no traps: a step through Decimal operators would round
    # silently here.
    spans = [(kind, lo, lo + 60) for kind in SequenceKind for lo in (-3000, 2940)]
    expected = [[str(seqcore.term(kind, n)) for n in range(lo, hi + 1)] for kind, lo, hi in spans]
    with decimal.localcontext() as context:
        context.prec = 5
        context.traps = dict.fromkeys(context.traps, False)
        assert [range_text(kind, lo, hi) for kind, lo, hi in spans] == expected
