from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from tribokit import seqcore
from tribokit.genfunc import RationalOGF, builtin_ogf, expand, expand_text, recurrence_of
from tribokit.seqcore import SequenceKind, c_even, sequence_range


def test_builtin_coefficients():
    # the paper's printed OGFs, which genfunc derives from seqcore's recurrence table:
    # S = (3 - 2x - x^2)/(1 - x - x^2 - x^3), C = (3 + 2x + x^2)/(1 + x + x^2 - x^3),
    # CEven = (3 + 2x + 3x^2)/(1 + x + 3x^2 - x^3)
    s = builtin_ogf("S")
    assert (s.numerator, s.denominator) == ((3, -2, -1), (1, -1, -1, -1))
    c = builtin_ogf("C")
    assert (c.numerator, c.denominator) == ((3, 2, 1), (1, 1, 1, -1))
    even = builtin_ogf("CEven")
    assert (even.numerator, even.denominator) == ((3, 2, 3), (1, 1, 3, -1))


def test_builtin_name_errors():
    with pytest.raises(ValueError):
        builtin_ogf("X")


def test_expand_examples():
    assert expand(builtin_ogf("S"), 5) == [3, 1, 3, 7, 11]
    assert expand(builtin_ogf("C"), 4) == [3, -1, -1, 5]
    assert expand(builtin_ogf("CEven"), 4) == [3, -1, -5, 11]


def test_expand_count_validation():
    with pytest.raises(ValueError):
        expand(builtin_ogf("S"), 0)


def test_denominator_validation():
    with pytest.raises(ValueError):
        RationalOGF((1,), (2, 1))
    with pytest.raises(ValueError):
        RationalOGF((1,), (1,))
    with pytest.raises(ValueError):
        RationalOGF((1,), (1, 0, 0))  # all-zero tail trims away the degree


@pytest.mark.parametrize("num,den,bad", [
    ((3.7,), (1, -1), "3.7"),
    (("3",), (1, -1), "'3'"),
    ((1,), (1, -1.0), "-1.0"),
])
def test_non_integer_coefficients_are_refused(num, den, bad):
    with pytest.raises(ValueError) as err:
        RationalOGF(num, den)
    assert str(err.value) == f"coefficient must be an integer, got {bad}"


def test_make_and_replace_run_the_checks():
    ogf = RationalOGF((3, 0), (1, -1, 0))
    assert ogf == ((3,), (1, -1)) and RationalOGF._make([(3, 0), (1, -1, 0)]) == ogf
    assert ogf._replace(numerator=(1, 2, 0)) == RationalOGF((1, 2), (1, -1))
    with pytest.raises(ValueError, match="constant term 1"):
        ogf._replace(denominator=(2, 1))
    with pytest.raises(ValueError, match="must be an integer"):
        RationalOGF._make([(1.5,), (1, -1)])


def test_trailing_zeros_are_trimmed():
    ogf = RationalOGF((3, 0, 0), (1, -1, 0, 0, 0))
    assert ogf.numerator == (3,)
    assert ogf.denominator == (1, -1)
    assert expand(ogf, 4) == [3, 3, 3, 3]


def test_expansions_match_sequences():
    count = 300
    s_vals = [v for _, v in sequence_range(SequenceKind.GENERALIZED_LUCAS, 0, count - 1)]
    c_vals = [v for _, v in sequence_range(SequenceKind.MINOR_SUM, 0, count - 1)]
    assert expand(builtin_ogf("S"), count) == s_vals
    assert expand(builtin_ogf("C"), count) == c_vals
    assert expand(builtin_ogf("CEven"), count) == [c_even(k) for k in range(count)]


@given(
    den_name=st.sampled_from(["S", "C", "CEven"]),
    num1=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    num2=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
)
def test_expand_is_linear_in_the_numerator(den_name, num1, num2):
    den = builtin_ogf(den_name).denominator
    width = max(len(num1), len(num2))
    total = tuple(
        (num1[k] if k < len(num1) else 0) + (num2[k] if k < len(num2) else 0)
        for k in range(width)
    )
    count = 100
    left = expand(RationalOGF(total, den), count)
    right = [
        a + b
        for a, b in zip(
            expand(RationalOGF(tuple(num1), den), count),
            expand(RationalOGF(tuple(num2), den), count),
        )
    ]
    assert left == right


def test_recurrence_of_builtins():
    assert recurrence_of(builtin_ogf("S")) == ((1, 1, 1), (3, 1, 3))
    assert recurrence_of(builtin_ogf("C")) == ((-1, -1, 1), (3, -1, -1))
    assert recurrence_of(builtin_ogf("CEven")) == ((-1, -3, 1), (3, -1, -5))


@pytest.mark.parametrize("name, recurrence", [
    ("S", seqcore.RECURRENCES[SequenceKind.GENERALIZED_LUCAS]),
    ("C", seqcore.RECURRENCES[SequenceKind.MINOR_SUM]),
    ("CEven", seqcore._C_EVEN),
])
def test_builtins_give_back_their_recurrences(name, recurrence):
    assert recurrence_of(builtin_ogf(name)) == (recurrence.coeffs, recurrence.seeds)


@pytest.mark.parametrize("name", ["S", "C", "CEven"])
def test_recurrence_round_trip(name):
    ogf = builtin_ogf(name)
    coeffs, seeds = recurrence_of(ogf)
    values = list(seeds)
    count = 200
    while len(values) < count:
        n = len(values)
        values.append(sum(coeffs[k - 1] * values[n - k] for k in range(1, len(coeffs) + 1)))
    assert values == expand(ogf, count)


def test_recurrence_of_high_degree_numerator():
    # numerator degree exceeds the denominator degree: the seed window widens
    ogf = RationalOGF((1, 0, 0, 0, 5), (1, -1))
    coeffs, seeds = recurrence_of(ogf)
    assert coeffs == (1,)
    assert len(seeds) == 5
    assert seeds == tuple(expand(ogf, 5))


@pytest.mark.parametrize("name", ["S", "C", "CEven"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 400])
def test_expand_text_of_builtins_is_str_of_expand(name, count):
    ogf = builtin_ogf(name)
    assert expand_text(ogf, count) == [str(value) for value in expand(ogf, count)]


@settings(max_examples=80, deadline=None)
@given(
    num=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8),
    den_tail=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5).filter(any),
    count=st.integers(min_value=1, max_value=60),
)
@example(num=[1], den_tail=[1, -1] * 200 + [0, 2, -3] * 50, count=560)
def test_expand_text_is_str_of_expand(num, den_tail, count):
    # coefficients past +-1 and zeros; counts inside and past the seed window;
    # a step of 500 terms, more than nested calls or parentheses allow in source
    ogf = RationalOGF(tuple(num), (1, *den_tail))
    assert expand_text(ogf, count) == [str(value) for value in expand(ogf, count)]


def test_expand_text_count_validation():
    with pytest.raises(ValueError, match="count must be >= 1"):
        expand_text(builtin_ogf("S"), 0)
