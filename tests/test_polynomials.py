import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly.polynomials import PolyQ
from geopoly.series import PowerSeries


def test_normalization_and_degree():
    assert PolyQ.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyQ.from_coeffs([0, 0]).degree == -1
    assert PolyQ(()) == PolyQ.from_coeffs([])
    assert PolyQ.from_coeffs([F(2, 3)]).degree == 0


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
    assert PolyQ(()).integral(-1, 5) == 0
    assert PolyQ.from_coeffs([3]).integral("-1/2", 0) == F(3, 2)


# ---------------------------------------------------------------------------
# The canonical integer form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, same",
    [
        (PolyQ((1, 0)), PolyQ.from_coeffs([1])),  # a trailing zero
        (PolyQ((0, 3, 0, 0), 9), PolyQ.from_coeffs([0, F(1, 3)])),
        (PolyQ((0, 0, 0), 5), PolyQ(())),  # the zero polynomial, any denominator
        (PolyQ((), -7), PolyQ.from_coeffs([0, 0])),
        (PolyQ((2, -4), -6), PolyQ.from_coeffs([F(-1, 3), F(2, 3)])),  # negative den
        (PolyQ((6, 0, 9), 12), PolyQ.from_coeffs([F(1, 2), 0, F(3, 4)])),  # non-reduced den
        (PolyQ((-10, 0, 0), -4), PolyQ.from_coeffs([F(5, 2)])),
    ],
)
def test_canonical_form_is_value_equality(raw, same):
    assert raw == same and hash(raw) == hash(same) and raw.degree == same.degree
    assert (raw.nums, raw.den) == (same.nums, same.den)
    assert raw.den > 0 and math.gcd(raw.den, *raw.nums) == 1
    assert not raw.nums or raw.nums[-1] != 0


def test_zero_polynomial_form():
    for zero in (PolyQ(()), PolyQ((0,), 3), PolyQ((0, 0), -2), PolyQ.from_coeffs([])):
        assert (zero.nums, zero.den, zero.degree, zero.coeffs) == ((), 1, -1, ())


@pytest.mark.parametrize("bad", [1.5, Decimal("1.5"), "1/2", True, F(1, 2), None])
def test_field_constructor_refuses_non_integers(bad):
    with pytest.raises(TypeError):
        PolyQ((bad, 2))
    with pytest.raises(TypeError):
        PolyQ((1, 2), bad)


@pytest.mark.parametrize("bad", [1.5, Decimal("1.5"), True, None])
def test_rational_constructor_refuses_inexact_values(bad):
    with pytest.raises(TypeError):
        PolyQ.from_coeffs([1, bad])


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        PolyQ((1, 2), 0)


# ---------------------------------------------------------------------------
# Every integer operation against Fraction-per-coefficient reference loops
# ---------------------------------------------------------------------------


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_integral(cs, a, b):
    anti = [F(0)] + [c / (k + 1) for k, c in enumerate(cs)]
    return fraction_horner(anti, b) - fraction_horner(anti, a)


coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
point = st.fractions(min_value=-4, max_value=4, max_denominator=30)
BIG = 2**61 - 1  # a Mersenne prime


@settings(max_examples=120, deadline=None)
@given(
    a=st.lists(coefficient, max_size=9),
    b=st.lists(coefficient, max_size=9),
    x=point,
    lo=point,
    hi=point,
)
@example(a=[], b=[], x=F(1, 3), lo=F(-1), hi=F(0))  # zero polynomials
@example(a=[F(7, 3)], b=[F(0), F(0), F(1)], x=F(0), lo=F(2), hi=F(2))  # a constant, x = 0, a = b
@example(a=[F(1), F(-2), F(0), F(3)], b=[F(-1, 2)], x=F(-3), lo=F(-2), hi=F(3))  # integer x
@example(
    a=[F(1, BIG), F(-3, BIG * 7), F(2, 3**30)],
    b=[F(BIG, 5**20), F(0), F(-1, BIG)],
    x=F(-17, 29),
    lo=F(BIG, 3**30),
    hi=F(-1, BIG),
)  # large denominators
def test_integer_ops_equal_fraction_reference(a, b, x, lo, hi):
    p, q = PolyQ.from_coeffs(a), PolyQ.from_coeffs(b)
    a, b = ref_trim(a), ref_trim(b)
    assert list(p.coeffs) == a and list(q.coeffs) == b
    assert p(x) == fraction_horner(a, x) and p(-x) == fraction_horner(a, -x)
    assert p.integral(lo, hi) == ref_integral(a, lo, hi)
    assert p.integral(-1, 0) == ref_integral(a, F(-1), F(0))
    for order in (0, 3, 12):
        assert p.to_series(order) == PowerSeries.from_coeffs(a or [0], order)
    for result in (p, q):
        assert result.den > 0 and math.gcd(result.den, *result.nums) == 1
        assert not result.nums or result.nums[-1] != 0
