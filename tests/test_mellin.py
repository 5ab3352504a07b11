import ast
import inspect
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geopoly import mellin as M
from geopoly.exact import falling_factorial, gen_factorial
from geopoly.families import geometric_poly
from geopoly.identities import SmallRationalSampler
from geopoly.params import HsuShiueParams
from geopoly.polynomials import PolyQ
from geopoly.series import PowerSeries, divide, pow_int
from geopoly.stirling import build_table

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)

PARAMS = HsuShiueParams(F(1, 2), 3, -1)


def test_apply_operator_requires_beta_nonzero():
    with pytest.raises(ValueError, match="beta must be nonzero"):
        M.apply_operator(PowerSeries.one(2).coeffs, HsuShiueParams(1, 0, 0), 1)


def test_apply_zero_times_is_identity():
    coeffs = PowerSeries.from_coeffs([1, 2, 3], 4).coeffs
    assert M.apply_operator(coeffs, PARAMS, 0) == list(coeffs)


def test_apply_accumulates_generalized_factorial():
    for n in range(7):
        assert M.apply_operator([F(1)], PARAMS, n) == [gen_factorial(PARAMS.r, PARAMS.alpha, n)]
    # single-term series x^((k*beta + r)/beta)
    p = HsuShiueParams(1, 2, 3)
    single = PowerSeries.from_coeffs([0, 0, 1], 4).coeffs
    for n in range(6):
        assert M.apply_operator(single, p, n)[2] == gen_factorial(2 * 2 + 3, 1, n)


def ref_apply(coeffs, params, times):
    """The reference: one reduced Fraction multiply per factor and coefficient."""
    a, b, r = params.alpha, params.beta, params.r
    out = []
    for k, c in enumerate(coeffs):
        factor = F(1)
        for j in range(times):
            factor *= k * b + r - j * a
        out.append(c * factor)
    return out


sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(
    alpha=sevenths,
    beta=sevenths.filter(bool),
    r=sevenths,
    coeffs=st.lists(sevenths, min_size=1, max_size=8),
    times=st.integers(0, 6),
)
@example(alpha=F(0), beta=F(1), r=F(0), coeffs=[F(1), F(2, 3)], times=6)
def test_apply_operator_matches_reference(alpha, beta, r, coeffs, times):
    params = HsuShiueParams(alpha, beta, r)
    assert M.apply_operator(coeffs, params, times) == ref_apply(coeffs, params, times)


def _names_in(function: str) -> set[str]:
    """Every name and attribute that the mellin function ``function`` reads."""
    tree = next(
        node
        for node in ast.walk(ast.parse(inspect.getsource(M)))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return named | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_apply_operator_keeps_its_own_loop():
    # EQ4_OPERATOR's operator side stays apart from EQ5's termwise factorials
    assert _names_in("apply_operator").isdisjoint({"gen_factorial", "_binomials", "exact"})


def test_composition_reads_no_route_of_the_other_sides():
    # the closed side of EQ5, EQ21, EQ38 and EQ4_OPERATOR shares no path with
    # their termwise and operator sides
    named = _names_in("_composition")
    assert "geometric_poly" in named
    assert named.isdisjoint({"_binomials", "gen_factorial", "apply_operator"})


def test_apply_once_linear_weights():
    p = HsuShiueParams(1, 2, 3)
    assert M.apply_operator([F(1)] * 4, p, 1) == [3, 5, 7, 9]  # 2k + 3


def test_eq1_monomials_then_linearity():
    for j in range(7):
        mono = PolyQ.from_coeffs([0] * j + [1])
        for n in range(9):
            assert M.verify_eq1_poly(n, mono, PARAMS).status == "pass", (j, n)
    cubic = PolyQ.from_coeffs([2, F(-1, 3), 0, F(5, 2)])
    for n in range(9):
        assert M.verify_eq1_poly(n, cubic, PARAMS).status == "pass"


def test_eq1_n1_by_hand():
    # one application of the operator on x * x^(r/beta): factor beta + r
    f = PolyQ.from_coeffs([0, 1])
    rep = M.verify_eq1_poly(1, f, PARAMS)
    assert rep.status == "pass"
    assert M.apply_operator(f.to_series(1).coeffs, PARAMS, 1)[1] == PARAMS.beta + PARAMS.r


def ref_derivative(cs, times):
    """The reference: f differentiated termwise ``times`` times, on Fractions."""
    for _ in range(times):
        cs = [k * c for k, c in enumerate(cs)][1:]
    return cs


def ref_expansion(n, cs, params):
    """sum_k S(n,k) beta^k x^k f^(k)(x) on Fractions, f's coefficients ``cs``."""
    table = build_table(params, n)
    out = [F(0)] * max(len(cs), 1)
    for k in range(n + 1):
        for j, c in enumerate(ref_derivative(cs, k), start=k):  # times x^k
            out[j] += table.value(n, k) * params.beta**k * c
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6), coeffs=st.lists(small_fractions, max_size=6), seed=st.integers(0, 2**32))
@example(n=6, coeffs=[], seed=1)  # the zero polynomial
@example(n=6, coeffs=[F(1, 2)] * 6, seed=3)
def test_eq1_expansion_matches_termwise_derivatives(n, coeffs, seed):
    params = SmallRationalSampler(seed).params()
    f = PolyQ.from_coeffs(coeffs)
    want = ref_expansion(n, list(f.coeffs), params)
    # with the reference on the operator side, EQ1 passes iff its expansion is the reference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "apply_operator", lambda *args: want)
        rpt = M.verify_eq1_poly(n, f, params)
    assert rpt.status == "pass", rpt.witness
    # and the reference is the operator route: Hsu-Shiue on each x^j
    assert want == M.apply_operator(f.coeffs or [F(0)], params, n)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(0, 6),
    s=st.integers(0, 4),
    alpha=small_fractions,
    beta=small_fractions.filter(lambda v: v != 0),
    r=small_fractions,
)
def test_eq5_property(n, s, alpha, beta, r):
    p = HsuShiueParams(alpha, beta, r)
    assert M.verify_series_identity("eq5", n, s, p, max(n, 12)).status == "pass"


def ref_composition(w, m, sign, order):
    """(1 - y)^(-m) w(y/(1 - y)), y = sign*x, in the series ring: w substituted
    by Horner into divide(y, 1 - y), each step a PowerSeries product."""
    y = PowerSeries.t(order) * sign
    base = 1 - y
    inner = divide(y, base)
    acc = PowerSeries.constant(0, order)
    for c in reversed(w.coeffs):
        acc = acc * inner + c
    return pow_int(base, -m) * acc


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    m=st.integers(-6, 7),
    sign=st.sampled_from((1, -1)),
    alpha=sevenths,
    beta=sevenths,
    r=sevenths,
    order=st.integers(0, 14),
)
@example(n=4, m=0, sign=1, alpha=F(1, 2), beta=F(3), r=F(-1), order=10)  # m = 0
@example(n=3, m=-5, sign=-1, alpha=F(1, 3), beta=F(2), r=F(1), order=12)  # m + n <= 0
@example(n=5, m=-5, sign=-1, alpha=F(-2, 7), beta=F(1, 2), r=F(0), order=9)  # m + n = 0
@example(n=6, m=3, sign=1, alpha=F(1, 2), beta=F(0), r=F(2, 3), order=8)  # beta = 0
@example(n=8, m=2, sign=1, alpha=F(1), beta=F(3, 2), r=F(-1, 3), order=3)  # order < n
@example(n=0, m=7, sign=-1, alpha=F(0), beta=F(1), r=F(0), order=0)
def test_composition_equals_the_series_ring(n, m, sign, alpha, beta, r, order):
    assume(alpha or beta or r)  # (0, 0, 0) is no triple
    params = HsuShiueParams(alpha, beta, r)
    want = ref_composition(geometric_poly(n, m, params), m, sign, order)
    got = M._composition(n, m, sign, params, order)
    assert got == list(want.coeffs)
    assert {type(c) for c in got} == {F}


def test_eq21_and_eq38():
    for n in range(7):
        assert M.verify_series_identity("eq21", n, 0, PARAMS, 16).status == "pass"
        assert M.verify_series_identity("eq38_binomial", n, 3, PARAMS, 16).status == "pass"
        assert M.verify_series_identity("eq38_binomial", n, 5, PARAMS, 16).status == "pass"


def _binomial(x, k: int) -> F:
    """C(x, k) = (x)_k / k!, the falling product the running ratio must match."""
    return falling_factorial(x, k) / factorial(k)


def test_eq38_rewrite_is_the_printed_binomial():
    # EQ38 runs as the EQ5 form at (m, sign) = (-s, -1): sign^k C(m-1+k, k) = C(s, k)
    for s in (*range(7), F(5, 2), F(-7, 3)):
        for k in range(11):
            assert (-1) ** k * _binomial(k - s - 1, k) == _binomial(s, k), (s, k)


def test_running_binomials_are_the_falling_products():
    # the termwise sides carry C(m-1+k, k) by its ratio; m = -s is EQ38's
    for m in range(-7, 8):
        assert M._binomials(m, 12) == [_binomial(m - 1 + k, k) for k in range(13)], m


def test_eq38_polynomial_truncation_is_finite():
    # with integer s the left side is a polynomial of degree s
    s = 3
    assert M._binomials(-s, 8)[4:] == [0] * 5
    assert _binomial(s, 4) == _binomial(s, 5) == 0


def test_eq4_operator_route():
    for n in range(7):
        for s in range(3):
            assert M.verify_eq4_operator(n, s, PARAMS, 14).status == "pass"


def test_eq15_against_convolution():
    for n in range(9):
        assert M.verify_eq15(n, PARAMS, 20).status == "pass"
    assert M.verify_eq15(8, HsuShiueParams(F(1, 2), 2, -1), 24).status == "pass"


def test_order_too_small_rejected():
    with pytest.raises(ValueError):
        M.verify_series_identity("eq5", 5, 1, PARAMS, 3)


def test_unknown_identity_rejected_with_known_names():
    # raised before any report or series is built, even with a bad order too
    known = r"unknown identity 'bogus'.*'eq5', 'eq21', 'eq38_binomial'"
    with pytest.raises(ValueError, match=known):
        M.verify_series_identity("bogus", 5, 1, PARAMS, 3)
