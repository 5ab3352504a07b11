"""sympy as a test-only differential oracle for the exact tables."""

from fractions import Fraction as F

import pytest

from geopoly import families as fam
from geopoly.params import HsuShiueParams
from geopoly.stirling import cached_table

numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")

N_MAX = 60


def _fraction(r):
    return F(int(r.p), int(r.q))


def test_stirling_second_kind_against_sympy():
    table = cached_table(HsuShiueParams(0, 1, 0), N_MAX)
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert table.value(n, k) == int(numbers.stirling(n, k)), (n, k)


def test_bernoulli_numbers_against_sympy():
    ours = fam.bernoulli_numbers(N_MAX)
    for n in range(N_MAX + 1):
        theirs = _fraction(numbers.bernoulli(n))
        if n == 1:  # sympy takes B_1 = +1/2, the t e^t/(e^t - 1) convention
            theirs = -theirs
        assert ours[n] == theirs, n


def test_euler_polynomials_at_zero_against_sympy():
    # E_n(0), the Euler polynomials at 0, not the Euler numbers
    ours = fam._degenerate_euler_values(1, 0, 0, N_MAX)
    for n in range(N_MAX + 1):
        assert ours[n] == _fraction(numbers.euler(n, 0)), n


@pytest.mark.parametrize("x", [F(0), F(1, 3), F(-5, 2)], ids=str)
def test_euler_polynomials_against_sympy(x):
    # E_n(x) through the order-1, alpha = 0 degenerate Euler value
    from sympy import Rational

    sympy_x = Rational(x.numerator, x.denominator)
    for n in range(13):
        assert fam.degenerate_euler(n, 1, 0, x) == _fraction(numbers.euler(n, sympy_x)), n
