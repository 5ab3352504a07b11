import ast
import inspect
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly import mellin as M
from geopoly.exact import gen_factorial
from geopoly.params import HsuShiueParams
from geopoly.polynomials import PolyQ
from geopoly.series import PowerSeries

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)

PARAMS = HsuShiueParams(F(1, 2), 3, -1)


def test_embed_requires_beta_nonzero():
    with pytest.raises(ValueError):
        M.embed_series(PowerSeries.one(2), HsuShiueParams(1, 0, 0))


def test_apply_zero_times_is_identity():
    gs = M.embed_series(PowerSeries.from_coeffs([1, 2, 3], 4), PARAMS)
    assert M.apply_operator(gs, 0) == gs


def test_apply_accumulates_generalized_factorial():
    fresh = M.embed_series(PowerSeries.one(0), PARAMS)
    for n in range(7):
        assert M.apply_operator(fresh, n).coeff(0) == gen_factorial(
            PARAMS.r, PARAMS.alpha, n
        )
    # single-term series x^((k*beta + r)/beta)
    p = HsuShiueParams(1, 2, 3)
    single = M.embed_series(PowerSeries.from_coeffs([0, 0, 1], 4), p)
    for n in range(6):
        assert M.apply_operator(single, n).coeff(2) == gen_factorial(2 * 2 + 3, 1, n)


def ref_apply(gs, times):
    """The reference: one reduced Fraction multiply per factor and coefficient."""
    a, b, r = gs.params.alpha, gs.params.beta, gs.params.r
    m = gs.applications
    coeffs = []
    for k, c in enumerate(gs.coeffs):
        factor = F(1)
        for j in range(times):
            factor *= k * b + r - (m + j) * a
        coeffs.append(c * factor)
    return M.GradedSeries(gs.params, m + times, tuple(coeffs))


sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(
    alpha=sevenths,
    beta=sevenths.filter(bool),
    r=sevenths,
    coeffs=st.lists(sevenths, min_size=1, max_size=8),
    applied=st.integers(0, 3),
    times=st.integers(0, 6),
)
@example(alpha=F(0), beta=F(1), r=F(0), coeffs=[F(1), F(2, 3)], applied=0, times=6)
def test_apply_operator_matches_reference(alpha, beta, r, coeffs, applied, times):
    params = HsuShiueParams(alpha, beta, r)
    gs = M.GradedSeries(params, applied, tuple(coeffs))
    assert M.apply_operator(gs, times) == ref_apply(gs, times)


def test_apply_operator_keeps_its_own_loop():
    # EQ4_OPERATOR's operator side stays apart from EQ5's termwise factorials
    tree = next(
        node
        for node in ast.walk(ast.parse(inspect.getsource(M)))
        if isinstance(node, ast.FunctionDef) and node.name == "apply_operator"
    )
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert named.isdisjoint({"gen_factorial", "binomial_general", "exact"})


def test_apply_once_linear_weights():
    p = HsuShiueParams(1, 2, 3)
    gs = M.embed_series(PowerSeries.from_coeffs([1, 1, 1, 1], 3), p)
    out = M.apply_operator(gs, 1)
    assert [out.coeff(k) for k in range(4)] == [3, 5, 7, 9]  # 2k + 3


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 6), b=st.integers(0, 6))
def test_operator_power_composition(a, b):
    gs = M.embed_series(PowerSeries.from_coeffs([2, F(-1, 3), 0, F(5, 2)], 5), PARAMS)
    assert M.apply_operator(M.apply_operator(gs, a), b) == M.apply_operator(gs, a + b)


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
    gs = M.apply_operator(M.embed_poly(f, PARAMS, 1), 1)
    assert gs.coeff(1) == PARAMS.beta + PARAMS.r


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


def test_eq21_and_eq38():
    for n in range(7):
        assert M.verify_series_identity("eq21", n, 0, PARAMS, 16).status == "pass"
        assert M.verify_series_identity("eq38_binomial", n, 3, PARAMS, 16).status == "pass"
        assert M.verify_series_identity("eq38_binomial", n, 5, PARAMS, 16).status == "pass"


def test_eq38_polynomial_truncation_is_finite():
    # with integer s the left side is a polynomial of degree s
    from geopoly.exact import binomial_general

    s = 3
    assert binomial_general(s, 4) == 0
    assert binomial_general(s, 5) == 0


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
