from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legscale import (
    binomial,
    falling_factorial,
    format_rational,
    parse_rational,
    rising_factorial,
)

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_falling_factorial_examples():
    assert falling_factorial(5, 2) == 20  # 5 * 4
    # (3/2) * (1/2), checked by hand
    assert falling_factorial(Fraction(3, 2), 2) == Fraction(3, 4)
    for x in (0, 7, Fraction(-5, 3), Fraction(1, 2)):
        assert falling_factorial(x, 0) == 1


def test_rising_factorial_examples():
    assert rising_factorial(-3, 4) == 0  # hits the factor (-3 + 3)
    assert rising_factorial(-3, 2) == 6  # (-3) * (-2)
    for j in range(8):
        assert rising_factorial(1, j) == __import__("math").factorial(j)


def test_rising_factorial_truncation_point():
    # (-n)_j vanishes exactly for j > n; this bounds every series in the package
    for n in range(6):
        for j in range(10):
            value = rising_factorial(-n, j)
            assert (value == 0) == (j > n)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    for n in range(10):
        assert binomial(n, 0) == 1


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        falling_factorial(1, -1)
    with pytest.raises(ValueError):
        rising_factorial(1, -2)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(2, -1)


@given(x=small_rationals, n=st.integers(0, 20), m=st.integers(0, 20))
@settings(deadline=None)
def test_falling_factorial_shift_identity(x, n, m):
    lhs = falling_factorial(x, n) * falling_factorial(x - n, m)
    assert lhs == falling_factorial(x, n + m)


@given(a=small_rationals, j=st.integers(0, 20))
@settings(deadline=None)
def test_rising_is_reflected_falling(a, j):
    assert rising_factorial(a, j) == (-1) ** j * falling_factorial(-a, j)


@given(n=st.integers(0, 40), k=st.integers(0, 40))
def test_binomial_matches_falling_factorial(n, k):
    import math

    assert binomial(n, k) == falling_factorial(n, k) / math.factorial(k)


@given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**12))
def test_parse_format_round_trip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value


def test_parse_accepts_both_forms():
    assert parse_rational("5") == 5
    assert parse_rational("5/1") == 5
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7/3") == Fraction(7, 3)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)


def test_format_shortens_integers():
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 4)) == "3/2"


# "\u0663" is an Arabic-Indic 3 and "\uff13" a fullwidth 3: only ASCII digits count
@pytest.mark.parametrize(
    "bad", ["", "1.5", "1e3", "3/0", "a/b", "1/2/3", "--4", "\u0663", "\uff13/\u0667"]
)
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
