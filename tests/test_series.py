from decimal import Decimal
from fractions import Fraction as F
import random
from math import factorial, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly import series
from geopoly.params import HsuShiueParams
from geopoly.series import (
    PowerSeries,
    binom_deform,
    deformed_base,
    divide,
    exp_series,
    gf_bernoulli2_degenerate,
    gf_carlitz_beta,
    gf_degenerate_euler,
    gf_w,
    inverse,
    log_series,
    pow_int,
    pow_series,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def series_strategy(order=10, constant=None):
    def build(coeffs):
        if constant is not None:
            coeffs = [F(constant)] + coeffs[1:]
        return PowerSeries.from_coeffs(coeffs, order)

    return st.lists(small_fractions, min_size=order + 1, max_size=order + 1).map(build)


# ---------------------------------------------------------------------------
# Schoolbook Fraction loops: the test-only reference for the integer kernels
# ---------------------------------------------------------------------------


def ref_mul(a, b):
    n = min(a.order, b.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return tuple(out)


def ref_divide(a, b):
    vb = b.valuation()
    order = min(a.order, b.order) - vb
    an = a.coeffs[vb : vb + order + 1]
    bn = b.coeffs[vb : vb + order + 1]
    out = []
    for n in range(order + 1):
        acc = an[n]
        for i in range(n):
            acc -= out[i] * bn[n - i]
        out.append(acc / bn[0])
    return tuple(out)


def ref_exp(a):
    out = [F(1)] + [F(0)] * a.order
    for n in range(1, a.order + 1):
        acc = F(0)
        for k in range(1, n + 1):
            acc += k * a.coeffs[k] * out[n - k]
        out[n] = acc / n
    return tuple(out)


def ref_log(a):
    out = [F(0)] * (a.order + 1)
    for n in range(1, a.order + 1):
        acc = n * a.coeffs[n]
        for k in range(1, n):
            acc -= k * out[k] * a.coeffs[n - k]
        out[n] = acc / n
    return tuple(out)


# negative values over large, pairwise coprime (prime) denominators, so the
# kernels' common denominators grow to products of them
kernel_fractions = st.builds(
    F,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.sampled_from([1, 2, 3, 7, 1_000_003, 998_244_353, 2**61 - 1]),
)


@st.composite
def kernel_series(draw, max_order=12, constant=None, valuation=0):
    """Series of any order 0..max_order with a run of zero coefficients.

    The first `valuation` coefficients are zero and the next one is not.
    """
    order = draw(st.integers(min_value=valuation, max_value=max_order + valuation))
    cs = draw(st.lists(kernel_fractions, min_size=order + 1, max_size=order + 1))
    lo = draw(st.integers(min_value=0, max_value=order))
    hi = draw(st.integers(min_value=lo, max_value=order + 1))
    cs[lo:hi] = [F(0)] * (hi - lo)
    cs[:valuation] = [F(0)] * valuation
    if constant is not None:
        cs[0] = F(constant)
    elif not cs[valuation]:
        cs[valuation] = draw(kernel_fractions.filter(bool))
    return PowerSeries(tuple(cs))


order0 = PowerSeries((F(-5, 998_244_353),))


@settings(max_examples=60, deadline=None)
@given(a=kernel_series(), b=kernel_series())
@example(a=order0, b=order0)
def test_mul_matches_reference(a, b):
    assert (a * b).coeffs == ref_mul(a, b)
    assert (b * a).coeffs == ref_mul(b, a)


@settings(max_examples=40, deadline=None)
@given(a=kernel_series(), c=kernel_fractions)
@example(a=order0, c=F(3, 7))
def test_scalar_mul_matches_reference(a, c):
    expected = tuple(c * x for x in a.coeffs)
    assert (a * c).coeffs == expected
    assert (c * a).coeffs == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shift=st.integers(min_value=0, max_value=3))
def test_divide_matches_reference(data, shift):
    # b has valuation `shift` and a t^shift coefficient that is mostly != 1;
    # a has at least that valuation, so the quotient is a power series
    b = data.draw(kernel_series(valuation=shift))
    a = data.draw(kernel_series())
    a = PowerSeries((F(0),) * shift + a.coeffs)
    assert divide(a, b).coeffs == ref_divide(a, b)


@settings(max_examples=40, deadline=None)
@given(a=kernel_series(constant=0))
@example(a=PowerSeries((F(0),)))
def test_exp_series_matches_reference(a):
    assert exp_series(a).coeffs == ref_exp(a)


@settings(max_examples=40, deadline=None)
@given(a=kernel_series(constant=1))
@example(a=PowerSeries((F(1),)))
def test_log_series_matches_reference(a):
    assert log_series(a).coeffs == ref_log(a)


# The recurrences settle their oldest fed-back numerators once per
# ceil(sqrt(order)) outputs.  These orders settle never (0, 1), once or twice
# (2..5), on both sides of a block length change (7..10, 15..17) and many
# times (60, 61).
BLOCK_ORDERS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 60, 61]
# primes above every numerator drawn, so no coefficient reduces away its own
PRIMES = [p for p in range(11, 800) if all(p % d for d in range(2, isqrt(p) + 1))]


def block_series(order, dens, seed, lead=None, valuation=0):
    """A series whose j-th coefficient is a nonzero numerator over dens[j].

    With distinct primes the recurrences' common denominator grows at almost
    every step; over 1 (and a unit leading coefficient) it never grows.  The
    first `valuation` coefficients are zero and the next is `lead` if given.
    """
    rng = random.Random(f"{order}:{dens}:{seed}")
    dens = PRIMES if dens == "primes" else [1] * len(PRIMES)
    cs = [F(rng.choice((-1, 1)) * rng.randint(1, 9), d) for d in dens[: order + 1]]
    cs[:valuation] = [F(0)] * valuation
    if lead is not None:
        cs[valuation] = F(lead)
    return PowerSeries(tuple(cs))


@pytest.mark.parametrize("shift", [0, 1, 2])
@pytest.mark.parametrize("dens", ["primes", "integers"])
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_divide_across_settlements(order, dens, shift):
    lead = 1 if dens == "integers" else None
    b = block_series(order + shift, dens, 1, lead, valuation=shift)
    a = block_series(order + shift, dens, 2, valuation=shift)
    assert divide(a, b).coeffs == ref_divide(a, b)


@pytest.mark.parametrize("dens", ["primes", "integers"])
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_exp_series_across_settlements(order, dens):
    a = block_series(order, dens, 3, lead=0)
    assert exp_series(a).coeffs == ref_exp(a)


@pytest.mark.parametrize("dens", ["primes", "integers"])
@pytest.mark.parametrize("order", BLOCK_ORDERS)
def test_log_series_across_settlements(order, dens):
    a = block_series(order, dens, 4, lead=1)
    assert log_series(a).coeffs == ref_log(a)


@pytest.mark.parametrize("dens", ["primes", "integers"])
@pytest.mark.parametrize("order", [0, 1, 2, 7, 8, 60, 61])
def test_square_matches_reference(order, dens):
    # a * a takes the half-convolution; a copy of a takes the general product
    a = block_series(order, dens, 5)
    assert (a * a).coeffs == ref_mul(a, a) == (a * PowerSeries(a.coeffs)).coeffs


# Products of at least _PACKED_TERMS terms with narrow numerators are packed
# into one big integer (series._kronecker); the others take the schoolbook.
PACKED = series._PACKED_TERMS


@st.composite
def packing_pair(draw):
    """(a, b): a of order 0..80, b of an order within 3 of it, so the product
    truncates; numerators of 1..2000 bits over denominators 1..6 (the wide
    ones fall back to the schoolbook), signs mixed and a run of zeros."""
    order = draw(st.integers(min_value=0, max_value=80))
    width = draw(st.sampled_from([1, 4, 15, 31, 90, 2000]))
    nums = st.integers(min_value=-(2**width), max_value=2**width)

    def coeffs(k):
        cs = draw(st.lists(st.builds(F, nums, st.integers(1, 6)), min_size=k + 1, max_size=k + 1))
        lo = draw(st.integers(min_value=0, max_value=k))
        hi = draw(st.integers(min_value=lo, max_value=k + 1))
        cs[lo:hi] = [F(0)] * (hi - lo)
        return PowerSeries(tuple(cs))

    return coeffs(order), coeffs(max(0, order + draw(st.integers(min_value=-3, max_value=3))))


def around_the_switch(terms, width=15):
    """a of `terms` terms and b two terms longer: signed numerators of about
    `width` bits over 1..6."""
    rng = random.Random(terms)
    a = [F(rng.randint(-(2**width), 2**width), rng.randint(1, 6)) for _ in range(terms)]
    b = [F(rng.randint(-(2**width), 2**width), rng.randint(1, 6)) for _ in range(terms + 2)]
    return PowerSeries(tuple(a)), PowerSeries(tuple(b))


@settings(max_examples=80, deadline=None)
@given(pair=packing_pair())
@example(pair=around_the_switch(PACKED - 1))
@example(pair=around_the_switch(PACKED))
@example(pair=around_the_switch(PACKED + 1))
def test_mul_matches_reference_across_the_packing_switch(pair):
    a, b = pair
    assert (a * b).coeffs == ref_mul(a, b)
    assert (a * a).coeffs == ref_mul(a, a) == (a * PowerSeries(a.coeffs)).coeffs


def ref_convolution(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=80),
       width=st.sampled_from([0, 1, 7, 8, 9, 31, 64, 500, 2000]))
def test_kronecker_matches_the_schoolbook(data, n, width):
    # the packed product on its own, at any width the switch may refuse
    ints = st.lists(st.integers(min_value=-(2**width), max_value=2**width), min_size=n, max_size=n)
    a, b = data.draw(ints), data.draw(ints)
    bits = series._bits(a) + series._bits(b)
    assert series._kronecker(a, b, bits) == ref_convolution(a, b)
    assert series._kronecker(a, a, 2 * series._bits(a)) == ref_convolution(a, a)


@pytest.mark.parametrize("terms", [PACKED, PACKED + 1, 64])
@pytest.mark.parametrize("width", range(1, 33))
def test_packed_slots_hold_the_largest_coefficients(terms, width):
    # every numerator at its largest |value|: c_k = +-(k + 1) m^2 fills the
    # slot to within its sign bit at some width, so a slot a byte short fails
    m = 2**width - 1
    plus = PowerSeries((m,) * terms)
    minus = PowerSeries((-m,) * terms)
    up = tuple((k + 1) * m * m for k in range(terms))
    down = tuple(-c for c in up)
    assert (plus * plus).coeffs == (minus * minus).coeffs == up
    assert (plus * minus).coeffs == (minus * plus).coeffs == down
    assert (plus * PowerSeries(plus.coeffs)).coeffs == up


def test_only_long_narrow_products_are_packed(monkeypatch):
    packed = []
    real = series._kronecker

    def spy(a, b, bits):
        packed.append((len(a), a is b))
        return real(a, b, bits)

    monkeypatch.setattr(series, "_kronecker", spy)
    for terms in (1, PACKED - 1, PACKED, PACKED + 1, 64):
        a, b = around_the_switch(terms)
        a * b
        a * a
    assert packed == [(t, sq) for t in (PACKED, PACKED + 1, 64) for sq in (False, True)]
    # about 300-bit numerators: 64 terms are too few to pack them, 256 are
    # enough for a product (at most n/16 bits per term) but not for a square
    packed.clear()
    for terms in (64, 256):
        a, b = around_the_switch(terms, width=300)
        a * b
        a * a
    assert packed == [(256, False)]
    # one wide numerator among 1s would set a wide slot for all of them
    packed.clear()
    wide = PowerSeries((2**3000,) + (1,) * 399)
    wide * PowerSeries((3**1890,) + (1,) * 399)
    wide * wide
    assert packed == []


def test_ring_basics():
    t = PowerSeries.t(4)
    assert ((1 + t) * (1 - t)).coeffs == (1, 0, -1, 0, 0)
    assert (t * 0).valuation() is None
    e = binom_deform(0, 1, 6)
    assert (e + (-e)).valuation() is None


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2", True, None])
def test_constructor_refuses_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        PowerSeries((bad, 1))
    with pytest.raises(TypeError):
        PowerSeries((F(1), 2, bad))


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), True, None])
def test_rational_constructor_refuses_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        PowerSeries.from_coeffs([1, bad])


def test_no_float_reaches_a_result():
    # before the constructor check these gave coeffs (1.0, 2) and 0.1666...
    a = PowerSeries((F(1, 2), 1))
    assert (a + a).coeffs == (1, 2) and all(type(c) in (F, int) for c in (a + a).coeffs)
    assert (a * F(1, 3)).coeffs == (F(1, 6), F(1, 3))
    with pytest.raises(TypeError):
        a * 0.5


def test_mul_truncates_to_min_order():
    a = PowerSeries.from_coeffs([1, 1, 1], 2)
    b = PowerSeries.from_coeffs([1, 2, 3, 4, 5], 4)
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_divide_examples():
    t = PowerSeries.t(6)
    assert divide(t, t).coeffs == (1,) * 0 + (F(1),) + (0,) * 5
    log1p = log_series(1 + t)
    q = divide(log1p, t)
    assert [q.coeff(j) for j in range(3)] == [1, F(-1, 2), F(1, 3)]
    # valuation-1 quotient with alpha = 1/2: constant 1, then -(1-alpha)/2
    d = divide(PowerSeries.t(6), binom_deform(F(1, 2), 1, 6) - 1)
    assert d.coeff(0) == 1 and d.coeff(1) == F(-1, 4)


def test_divide_preconditions():
    t = PowerSeries.t(4)
    with pytest.raises(ZeroDivisionError):
        divide(t, PowerSeries.constant(0, 4))
    with pytest.raises(ValueError):
        divide(1 + t, t * t)  # valuation(b) > valuation(a)


def test_exp_log_defining_series():
    t = PowerSeries.t(8)
    e = exp_series(t)
    assert all(e.coeff(j) == F(1, factorial(j)) for j in range(9))
    lg = log_series(1 + t)
    assert all(lg.coeff(j) == F((-1) ** (j + 1), j) for j in range(1, 9))


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp_series(PowerSeries.one(4))
    with pytest.raises(ValueError):
        log_series(PowerSeries.t(4))


def test_pow_binomial_coefficient():
    t = PowerSeries.t(6)
    assert pow_series(1 + t, F(1, 2)).coeff(2) == F(-1, 8)


def test_binom_deform_branches():
    # alpha = 0: exponential with rate r
    r = F(3, 2)
    e = binom_deform(0, r, 6)
    assert all(e.coeff(j) == r**j / factorial(j) for j in range(7))
    # alpha = 1: (1+t)^r has falling-factorial coefficients
    fall = binom_deform(1, r, 6)
    prod = F(1)
    for j in range(7):
        assert fall.coeff(j) == prod / factorial(j)
        prod *= r - j
    # alpha = 2, c = 1: hand expansion of (1+2t)^(1/2)
    s = binom_deform(2, 1, 4)
    assert s.coeff(1) == 1 and s.coeff(2) == F(-1, 2)


def ref_deformed(alpha, c, order, first):
    """[t^j] = prod_{first<=i<j}(c - i*alpha) / j! for j >= first, 0 below,
    by a running Fraction product: binom_deform at first = 0 and
    deformed_base at first = 1."""
    out, acc = [F(0)] * first, F(1)
    for j in range(first, order + 1):
        out.append(acc / factorial(j))
        acc *= c - j * alpha
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(alpha=sevenths, c=sevenths, order=st.integers(0, 20))
@example(alpha=F(0), c=F(5, 7), order=12)  # alpha = 0: exp(ct) and (exp(ct) - 1)/c
@example(alpha=F(-2, 7), c=F(0), order=12)  # beta = 0: log(1 + alpha t)/alpha
@example(alpha=F(3, 7), c=F(-1), order=0)
@example(alpha=F(1, 7), c=F(9, 7), order=1)
def test_deformed_series_match_the_fraction_products(alpha, c, order):
    assert binom_deform(alpha, c, order).coeffs == ref_deformed(alpha, c, order, 0)
    assert deformed_base(alpha, c, order).coeffs == ref_deformed(alpha, c, order, 1)


def test_binom_deform_against_exp_log_route():
    alpha, c = F(1, 3), F(-5, 4)
    direct = binom_deform(alpha, c, 12)
    via_log = pow_series(1 + alpha * PowerSeries.t(12), c / alpha)
    assert direct == via_log


def test_deformed_base_beta_zero_is_scaled_log():
    alpha = F(2, 3)
    base = deformed_base(alpha, 0, 8)
    lg = log_series(1 + alpha * PowerSeries.t(8))
    assert base == PowerSeries(tuple(c / alpha for c in lg.coeffs))


@settings(max_examples=40)
@given(a=series_strategy(order=16, constant=0))
def test_log_exp_roundtrip(a):
    assert log_series(exp_series(a)) == a


@settings(max_examples=40)
@given(a=series_strategy(order=16, constant=1))
def test_exp_log_roundtrip(a):
    assert exp_series(log_series(a)) == a


def test_binom_deform_small_alpha_limit():
    # coefficientwise, tiny alpha approaches the alpha = 0 exponential branch
    c = F(5, 3)
    eps = F(1, 10**9)
    near = binom_deform(eps, c, 8)
    at_zero = binom_deform(0, c, 8)
    for j in range(9):
        assert abs(near.coeff(j) - at_zero.coeff(j)) < F(1, 10**7)


@settings(max_examples=30)
@given(a=series_strategy(order=8, constant=1), c1=small_fractions, c2=small_fractions)
def test_pow_additivity(a, c1, c2):
    assert pow_series(a, c1) * pow_series(a, c2) == pow_series(a, c1 + c2)


def test_gf_w_low_order_coefficients():
    params = HsuShiueParams(F(1, 2), 3, F(-2))
    s, x = 2, F(1, 3)
    gf = gf_w(params, s, x, 4)
    assert gf.coeff(0) == 1
    assert gf.egf_coeff(1) == params.r + s * params.beta * x
    # x = -1 collapses to (r - beta*s | alpha)_n
    from geopoly.exact import gen_factorial

    gfm = gf_w(params, s, -1, 6)
    for n in range(7):
        assert gfm.egf_coeff(n) == gen_factorial(
            params.r - params.beta * s, params.alpha, n
        )


def test_gf_degenerate_euler_values():
    gf = gf_degenerate_euler(3, F(1, 4), F(2, 3), 3)
    assert gf.coeff(0) == 1
    assert gf.egf_coeff(1) == F(2, 3) - F(3, 2)  # x - s/2
    # classical slice: E_2(0) = 0
    assert gf_degenerate_euler(1, 0, 0, 2).egf_coeff(2) == 0


def test_gf_bernoulli2_values():
    for alpha in (F(0), F(1, 2), F(-3, 4)):
        gf = gf_bernoulli2_degenerate(alpha, F(1, 5), 2)
        assert gf.coeff(0) == 1
        assert gf.egf_coeff(1) == F(1, 5) - F(1, 2)  # x - 1/2, alpha-free
    assert gf_bernoulli2_degenerate(0, 0, 2).egf_coeff(2) == F(1, 6)  # B_2


def test_gf_carlitz_values():
    alpha = F(2, 5)
    gf = gf_carlitz_beta(alpha, 0, 3)
    assert gf.coeff(0) == 1
    assert gf.egf_coeff(1) == (alpha - 1) / 2
    classical = gf_carlitz_beta(0, F(1, 2), 4)
    # B_n(1/2) values: 1, 0, -1/12, 0, 7/240
    assert [classical.egf_coeff(n) for n in range(5)] == [
        1,
        0,
        F(-1, 12),
        0,
        F(7, 240),
    ]


def test_inverse_and_pow_int():
    t = PowerSeries.t(8)
    geo = inverse(1 - t)
    assert all(geo.coeff(j) == 1 for j in range(9))
    sq = pow_int(geo, 2)
    assert [sq.coeff(j) for j in range(5)] == [1, 2, 3, 4, 5]
    assert pow_int(geo, -1) == 1 - t


# a series with distinct small denominators and a unit constant term
POW_BASE = PowerSeries.from_coeffs([1, F(-1, 2), F(2, 3), 0, F(-5, 7), 3, F(1, 11)])


@pytest.mark.parametrize("e", range(-3, 10))
def test_pow_int_is_repeated_multiplication(e):
    base = POW_BASE if e >= 0 else PowerSeries(ref_divide(PowerSeries.one(6), POW_BASE))
    want = PowerSeries.one(6)
    for _ in range(abs(e)):
        want = PowerSeries(ref_mul(want, base))
    assert pow_int(POW_BASE, e) == want


def test_pow_int_multiplies_neither_by_one_nor_past_the_top_bit(monkeypatch):
    calls = []
    real = PowerSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(PowerSeries, "__mul__", counted)
    counts = []
    for e in range(6):
        calls.clear()
        pow_int(POW_BASE, e)
        counts.append(len(calls))
    assert counts == [0, 0, 1, 2, 2, 3]


def ref_binom_deform(alpha, c, order):
    """The reference: (c|alpha)_j / j! as a running Fraction product."""
    coeffs = [F(1)]
    acc = F(1)
    for j in range(1, order + 1):
        acc *= c - (j - 1) * alpha
        coeffs.append(acc / factorial(j))
    return tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(alpha=kernel_fractions, c=kernel_fractions, order=st.integers(0, 16))
@example(alpha=F(0), c=F(3, 7), order=16)  # exp(c t)
@example(alpha=F(1, 3), c=F(0), order=4)
def test_binom_deform_matches_reference(alpha, c, order):
    assert binom_deform(alpha, c, order).coeffs == ref_binom_deform(alpha, c, order)
