import ast
import inspect
import textwrap
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from geopoly.exact import (
    as_rational,
    falling_factorial,
    gen_factorial,
    over_lcm,
    rising_factorial,
)
from geopoly.params import HsuShiueParams

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
MERSENNE_61 = 2**61 - 1  # prime, so coprime to 3^30


def _is_lcm_of_denominators(den, values):
    # a common multiple M of d_1..d_n is their lcm iff gcd(M/d_1, ..., M/d_n) = 1
    if not values:
        return den == 1
    return all(den % v.denominator == 0 for v in values) and gcd(
        *(den // v.denominator for v in values)
    ) == 1


@given(st.lists(st.fractions(), max_size=8))
@example([])
@example([F(0), F(0)])
@example([F(0), F(-5, 6), F(7, 4)])
@example([F(-1, MERSENNE_61), F(2, 3**30), F(-3)])
def test_over_lcm_writes_values_over_their_lcm(values):
    nums, den = over_lcm(values)
    assert {type(v) for v in nums} <= {int} and type(den) is int
    assert [F(v, den) for v in nums] == values
    assert _is_lcm_of_denominators(den, values)


@given(alpha=st.fractions(), beta=st.fractions(), r=st.fractions())
@example(alpha=F(0), beta=F(3, 2), r=F(-1, 4))  # alpha = 0
@example(alpha=F(2, 5), beta=F(0), r=F(0))  # beta = 0 and r = 0
@example(alpha=F(-1, 3), beta=F(-5, 2), r=F(-7, 6))  # all negative
@example(alpha=F(1, MERSENNE_61), beta=F(-2, 3**30), r=F(5))  # coprime denominators
def test_integer_form_writes_the_triple_over_its_lcm(alpha, beta, r):
    assume(alpha or beta or r)
    d, a, b, c = HsuShiueParams(alpha, beta, r).integer_form()
    assert {type(v) for v in (d, a, b, c)} == {int}
    assert (F(a, d), F(b, d), F(c, d)) == (alpha, beta, r)
    assert _is_lcm_of_denominators(d, [alpha, beta, r])


def test_gen_factorial_empty_product():
    assert gen_factorial(F(7, 3), F(-5, 2), 0) == 1


def test_gen_factorial_direct_products():
    # (5|2)_3 = 5*3*1 and (4|1)_2 = falling factorial (4)_2
    assert gen_factorial(5, 2, 3) == 15
    assert gen_factorial(4, 1, 2) == 12
    assert gen_factorial(4, 1, 2) == falling_factorial(4, 2)


def test_rising_falling_hand_values():
    assert rising_factorial(F(1, 2), 0) == 1
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(-2, 3) == 0  # hits the zero factor
    assert falling_factorial(1, 2) == 0
    assert falling_factorial(F(7, 2), 2) == F(7, 2) * F(5, 2)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        gen_factorial(1, 1, -1)
    with pytest.raises(ValueError):
        rising_factorial(1, -2)
    with pytest.raises(ValueError):
        falling_factorial(1, -2)


@given(z=rationals, alpha=rationals, n=st.integers(1, 20))
def test_gen_factorial_recurrence(z, alpha, n):
    assert gen_factorial(z, alpha, n) == gen_factorial(z, alpha, n - 1) * (
        z - (n - 1) * alpha
    )


def _iterated_product(z, alpha, n):
    # (z|alpha)_n one reduced Fraction factor at a time, as a reference
    out = F(1)
    for j in range(n):
        out *= z - j * alpha
    return out


wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@given(z=wide_rationals, alpha=wide_rationals, n=st.integers(0, 30), zero_at=st.integers(0, 29))
def test_gen_factorial_matches_iterated_product(z, alpha, n, zero_at):
    value = gen_factorial(z, alpha, n)
    assert type(value) is F and value == _iterated_product(z, alpha, n)
    assert gen_factorial(z, 0, n) == _iterated_product(z, F(0), n) == z**n
    # z = zero_at * alpha puts a zero factor at j = zero_at
    hit = zero_at * alpha
    assert gen_factorial(hit, alpha, n) == _iterated_product(hit, alpha, n)
    if zero_at < n:
        assert gen_factorial(hit, alpha, n) == 0


@given(z=wide_rationals, alpha=wide_rationals, n=st.integers(-30, -1))
def test_gen_factorial_negative_n_still_raises(z, alpha, n):
    with pytest.raises(ValueError, match="n must be >= 0"):
        gen_factorial(z, alpha, n)


@given(x=rationals, n=st.integers(0, 20))
def test_rising_reflection(x, n):
    assert rising_factorial(-x, n) == (-1) ** n * falling_factorial(x, n)


@given(z=rationals, n=st.integers(0, 20))
def test_zero_increment_is_power(z, n):
    assert gen_factorial(z, 0, n) == z**n


@given(x=rationals, n=st.integers(0, 15))
def test_results_are_normalized(x, n):
    v = rising_factorial(x, n)
    assert F(v.numerator, v.denominator) == v
    assert v.denominator > 0


def test_as_rational_accepts_exact_forms():
    assert as_rational(F(3, 4)) == F(3, 4)
    assert as_rational(-7) == F(-7)
    assert as_rational(" -3/4 ") == F(-3, 4)
    assert as_rational("+12") == F(12)


@pytest.mark.parametrize(
    "value, error",
    [
        (0.1, TypeError),
        (1.5, TypeError),
        (True, TypeError),
        (False, TypeError),
        (Decimal("1.5"), TypeError),
        (None, TypeError),
        ("1.5", ValueError),
        ("1e3", ValueError),
        ("1/0", ValueError),
        ("1/-2", ValueError),
        ("", ValueError),
        ("inf", ValueError),
    ],
)
def test_as_rational_rejects_inexact_input(value, error):
    with pytest.raises(error):
        as_rational(value)


def test_params_reject_floats_and_decimal_strings():
    with pytest.raises(TypeError):
        HsuShiueParams(0.1, 1, 0)
    with pytest.raises(ValueError):
        HsuShiueParams("1.5", 1, 0)
    assert HsuShiueParams("1/2", 1, 0).alpha == F(1, 2)


@given(x=wide_rationals, n=st.integers(0, 30))
@example(x=F(0), n=0)
@example(x=F(0), n=5)
@example(x=F(-3), n=6)  # the rising product reaches 0
@example(x=F(4), n=7)  # the falling product reaches 0
@example(x=F(-7, 3), n=9)
def test_factorials_match_fraction_loops(x, n):
    # <x>_n = (x|-1)_n and (x)_n = (x|1)_n, one reduced Fraction factor at a time
    for value, reference in (
        (rising_factorial(x, n), _iterated_product(x, -1, n)),
        (falling_factorial(x, n), _iterated_product(x, 1, n)),
    ):
        assert type(value) is F and value == reference
        assert (value.numerator, value.denominator) == (reference.numerator, reference.denominator)
    # integer arguments, as Python ints
    k = x.numerator
    assert rising_factorial(k, n) == _iterated_product(F(k), -1, n)
    assert falling_factorial(k, n) == _iterated_product(F(k), 1, n)


@pytest.mark.parametrize("fn", [rising_factorial, falling_factorial])
@pytest.mark.parametrize("x, error", [(0.5, TypeError), (2.0, TypeError), ("1.5", ValueError),
                                      ("2e1", ValueError), (Decimal("0.5"), TypeError)])
def test_factorials_refuse_inexact_input(fn, x, error):
    with pytest.raises(error):
        fn(x, 3)


def _named(fn) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_rising_and_falling_factorials_keep_their_own_loops():
    # EQ36 compares the two products, so neither may be built from the other
    others = {"rising_factorial", "falling_factorial", "gen_factorial"}
    for fn in (rising_factorial, falling_factorial):
        assert not _named(fn) & (others - {fn.__name__}), fn.__name__
