from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from geopoly.polynomials import PolyQ
from geopoly.series import PowerSeries, divide


def test_normalization_and_degree():
    assert PolyQ.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyQ.from_coeffs([0, 0]).degree == -1
    assert PolyQ.zero() == PolyQ.from_coeffs([])
    assert PolyQ.const(F(2, 3)).degree == 0


def test_exact_evaluation():
    p = PolyQ.from_coeffs([F(1, 6), -1, 1])  # x^2 - x + 1/6
    assert p(F(1, 2)) == F(-1, 12)
    assert p(0) == F(1, 6)


def fraction_horner(coeffs, x):
    """The reference: Horner's rule on reduced Fractions."""
    out = F(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=12),
    x=st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
@example(coeffs=[], x=F(-3, 2))  # the zero polynomial
@example(coeffs=[F(1, 6), F(-5, 4), F(7, 3)], x=F(0))
@example(coeffs=[F(-1, 3), 0, 0, F(2, 5)], x=F(-7, 4))
def test_evaluation_equals_fraction_horner(coeffs, x):
    p = PolyQ.from_coeffs(coeffs)
    got = p(x)
    assert isinstance(got, F) and got == fraction_horner(p.coeffs, x)
    assert p(str(x)) == got


def test_arithmetic():
    p = PolyQ.from_coeffs([1, 1])
    q = PolyQ.from_coeffs([-1, 1])
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).degree == -1
    assert (p * F(1, 2)).coeffs == (F(1, 2), F(1, 2))


def test_derivative_and_shift():
    p = PolyQ.from_coeffs([3, 0, 5])  # 3 + 5x^2
    assert p.derivative().coeffs == (0, 10)
    assert p.derivative(2).coeffs == (10,)
    assert p.derivative(3).degree == -1
    assert p.shift_x(2).coeffs == (0, 0, 3, 0, 5)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(small_fractions, max_size=8), a=small_fractions, b=small_fractions)
def test_integral_is_termwise_antiderivative(coeffs, a, b):
    termwise = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    p = PolyQ.from_coeffs(coeffs)
    assert p.integral(a, b) == termwise
    assert p.integral(b, a) == -termwise


def test_integral_by_hand():
    p = PolyQ.from_coeffs([F(1, 6), -1, 1])  # x^2 - x + 1/6, i.e. B_2(x)
    assert p.integral(0, 1) == 0
    assert p.integral(-1, 0) == F(1, 3) + F(1, 2) + F(1, 6)
    assert PolyQ.zero().integral(-1, 5) == 0
    assert PolyQ.const(3).integral("-1/2", 0) == F(3, 2)


def test_substitute_series():
    # p(x) = x + x^2 at x = t/(1-t): coefficients by hand convolution
    p = PolyQ.from_coeffs([0, 1, 1])
    t = PowerSeries.t(5)
    u = divide(t, 1 - t)
    out = p.at_series(u)
    # t/(1-t) = t + t^2 + ...; (t/(1-t))^2 = t^2 + 2t^3 + 3t^4 + ...
    assert [out.coeff(j) for j in range(5)] == [0, 1, 2, 3, 4]
    assert PolyQ.zero().at_series(u).is_zero()
