import ast
import inspect
import math
import re
from fractions import Fraction as F
from math import factorial
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly import families as fam
from geopoly import identities as I
from geopoly import polynomials
from geopoly.enumeration import (
    barred_preferential_count,
    ordered_set_partitions_count,
    set_partitions_count,
)
from geopoly.exact import falling_factorial, gen_factorial, rising_factorial
from geopoly.memo import CACHE_CAP, Memo
from geopoly.params import HsuShiueParams
from geopoly.polynomials import PolyQ
from geopoly.report import CheckReport
from geopoly.series import PowerSeries, gf_bernoulli2_degenerate, gf_degenerate_euler, gf_w
from geopoly.stirling import cached_table

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)

CLASSICAL = HsuShiueParams(0, 1, 0)
RATIONAL = HsuShiueParams(F(1, 2), 2, -1)


def test_exp_poly_basics():
    assert fam.exp_poly(0, RATIONAL).coeffs == (1,)
    p1 = fam.exp_poly(1, RATIONAL)
    assert p1.coeffs == (RATIONAL.r, 1)
    bell3 = fam.exp_poly(3, CLASSICAL)
    assert bell3.coeffs == (0, 1, 3, 1)
    assert bell3(1) == set_partitions_count(3)


@pytest.mark.parametrize("n", [True, 2.0, F(2), "2"])
def test_polynomial_constructors_refuse_a_non_int_n(n):
    # geometric_poly(True, ...) used to return w_1
    calls = [
        lambda: fam.exp_poly(n, RATIONAL),
        lambda: fam.geometric_poly(n, 1, RATIONAL),
        lambda: fam.spivey_step(n, 1, 1, F(1, 2), RATIONAL),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=re.escape(f"n must be an integer, got {n!r}")):
            call()
    with pytest.raises(TypeError, match=re.escape(f"m must be an integer, got {n!r}")):
        fam.spivey_step(1, n, 1, F(1, 2), RATIONAL)


@pytest.mark.parametrize("n", [True, 2.0, F(2)])
def test_geometric_at_refuses_a_non_int_n(n):
    with pytest.raises(TypeError, match=re.escape(f"n must be an integer, got {n!r}")):
        fam.geometric_at(n, 1, F(1, 2), RATIONAL)


def test_geometric_poly_low_orders():
    assert fam.geometric_poly(0, 5, RATIONAL).coeffs == (1,)
    w1 = fam.geometric_poly(1, 4, RATIONAL)
    assert w1(F(1, 3)) == RATIONAL.r + 4 * RATIONAL.beta * F(1, 3)


def test_fubini_chain():
    # w_n(1; 0,1,0) against exhaustive enumeration for n <= 8
    for n in range(9):
        assert fam.geometric_poly(n, 1, CLASSICAL)(1) == ordered_set_partitions_count(n)


def test_bpa_numbers_vs_enumeration():
    for n in range(9):
        for s in range(4):
            assert fam.bpa_number(n, s, CLASSICAL) == barred_preferential_count(n, s)


def test_negative_order_constant_term():
    # w_n^(-s)(0) is the k = 0 table entry (r|alpha)_2
    p = HsuShiueParams(F(1, 3), F(5, 2), F(-3, 4))
    w = fam.geometric_poly(2, -2, p)
    assert w(0) == gen_factorial(p.r, p.alpha, 2)


def test_eval_minus_one():
    assert fam.eval_minus_one(0, 3, RATIONAL) == 1
    assert fam.eval_minus_one(2, 1, HsuShiueParams(1, 2, 3)) == 0  # (3-2)(3-2-1)
    p = HsuShiueParams(F(1, 4), F(2, 3), F(5, 2))
    for n in range(11):
        for s in (-3, -1, 0, F(1, 2), F(-5, 3), 1, 2, 3, 4):
            assert fam.eval_minus_one(n, s, p) == gen_factorial(
                p.r - p.beta * s, p.alpha, n
            )
    # n=2, symbolic shape (r - beta*s)(r - beta*s - alpha)
    s = 2
    expected = (p.r - p.beta * s) * (p.r - p.beta * s - p.alpha)
    assert fam.eval_minus_one(2, s, p) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 6),
    m=small_fractions,
    alpha=small_fractions,
    beta=small_fractions,
    r=small_fractions,
)
def test_eval_minus_one_every_rational_order(n, m, alpha, beta, r):
    # the collapse holds for every rational m, not only m >= 1
    if alpha == 0 and beta == 0 and r == 0:
        r = F(1)
    p = HsuShiueParams(alpha, beta, r)
    assert fam.eval_minus_one(n, m, p) == gen_factorial(r - beta * m, alpha, n)
    assert fam.check_minus_one(n, m, p).status == "pass"


@settings(max_examples=30, deadline=None)
@given(
    alpha=small_fractions,
    beta=small_fractions,
    r=small_fractions,
    x=small_fractions,
    n=st.integers(0, 10),
    s=st.integers(1, 4),
)
def test_gf_matches_formula_everywhere(alpha, beta, r, x, n, s):
    if alpha == 0 and beta == 0 and r == 0:
        alpha = F(1)
    params = HsuShiueParams(alpha, beta, r)
    assert fam.check_gf_matches(n, s, x, params).status == "pass"


def test_gf_order_range_matches_formula():
    for m in range(-3, 6):
        w = fam.geometric_poly(7, m, RATIONAL)
        if m >= 1:
            assert gf_w(RATIONAL, m, F(2, 3), 7).egf_coeff(7) == w(F(2, 3))


def test_spivey_reduces_at_edges():
    p = HsuShiueParams(F(1, 3), F(-2), F(3, 4))
    for n in range(5):
        assert fam.spivey_step(n, 0, 2, F(1, 2), p) == fam.geometric_poly(n, 2, p)(
            F(1, 2)
        )
    for m in range(7):
        assert fam.spivey_step(0, m, 3, F(-1, 3), p) == fam.geometric_poly(m, 3, p)(
            F(-1, 3)
        )


def test_spivey_fubini_instance():
    assert fam.spivey_step(2, 2, 1, 1, CLASSICAL) == 75


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 6),
    m=st.integers(0, 6),
    s=st.integers(1, 3),
    x=small_fractions,
    alpha=small_fractions,
    beta=small_fractions,
    r=small_fractions,
)
def test_spivey_recurrence_property(n, m, s, x, alpha, beta, r):
    if alpha == 0 and beta == 0 and r == 0:
        beta = F(1)
    assert fam.check_spivey(n, m, s, x, HsuShiueParams(alpha, beta, r)).status == "pass"


# Triples at the corners the registry's sampler never draws (beta = 0) or
# seldom draws (alpha = 0, r = 0).  At beta = 0 the weight vector of
# geometric_rows is (1, 0, 0, ...), so w_k = S(k, 0) = (r|alpha)_k.
SPIVEY_CORNERS = (
    HsuShiueParams(1, 0, 0),
    HsuShiueParams(F(1, 2), 0, F(1, 3)),
    HsuShiueParams(0, F(5, 2), F(-3, 4)),
    HsuShiueParams(F(2, 3), F(-7, 5), 0),
    HsuShiueParams(0, 1, 0),
)


@pytest.mark.parametrize("p", SPIVEY_CORNERS, ids=str)
def test_spivey_at_the_corners(p):
    for s in (-2, 0, 1, 3, F(1, 2), F(-5, 3)):
        for x in (F(0), F(1, 3), F(-1)):
            for n, m in ((0, 0), (0, 4), (4, 0), (3, 2), (5, 5)):
                assert fam.check_spivey(n, m, s, x, p).status == "pass", (s, x, n, m)
    if p.beta == 0:
        for k in range(7):
            assert fam.geometric_at(k, F(-5, 3), F(2, 7), p) == gen_factorial(p.r, p.alpha, k)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 8),
    m=st.one_of(st.integers(-4, 4), small_fractions),
    x=st.one_of(st.just(F(0)), small_fractions),
    alpha=small_fractions,
    beta=st.one_of(st.just(F(0)), small_fractions),
    r=small_fractions,
)
@example(n=5, m=F(-3, 2), x=F(1, 3), alpha=F(1, 2), beta=F(0), r=F(1, 3))
@example(n=5, m=2, x=F(0), alpha=F(-1, 3), beta=F(5, 2), r=F(1, 4))
def test_geometric_rows_equal_the_polynomials(n, m, x, alpha, beta, r):
    if alpha == 0 and beta == 0 and r == 0:
        r = F(1)
    p = HsuShiueParams(alpha, beta, r)
    rows = fam.geometric_rows(n, m, x, p)
    assert [F(num, den) for num, den in rows] == [
        fam.geometric_poly(k, m, p)(x) for k in range(n + 1)
    ]
    assert fam.geometric_at(n, m, x, p) == F(*rows[-1])


def _names_read(source):
    """Every name, attribute, import alias and imported module in a function or module."""
    nodes = list(ast.walk(ast.parse(inspect.getsource(source))))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_the_two_sides_of_spivey_read_different_routes():
    # the recurrence reads integer rows, never the polynomial; the direct side
    # keeps the polynomial, whose module knows nothing of the table or the
    # weights, so the two sides share only those
    for recurrence in (fam.spivey_step, fam.geometric_rows):
        assert {"PolyQ", "geometric_poly", "gen_factorial"} & _names_read(recurrence) == set()
    assert "geometric_rows" in _names_read(fam.spivey_step)
    assert "geometric_poly" in _names_read(fam.check_spivey)
    assert {"stirling", "cached_table", "_weights"} & _names_read(polynomials) == set()


def test_spivey_step_reads_the_table_once(monkeypatch):
    # one cached_table read per call, handed to every geometric_rows call
    reads, read = [], fam.cached_table
    monkeypatch.setattr(fam, "cached_table", lambda p, n: reads.append(n) or read(p, n))
    for n, m in ((5, 3), (2, 6), (0, 0)):
        reads.clear()
        assert fam.check_spivey(n, m, 2, F(-1, 3), RATIONAL).status == "pass"
        assert reads == [max(n, m), n + m]  # the recurrence, then the direct side


def _parent_geometric_coeffs(n, m, p):
    """The coefficients as built before the integer form: one reduced Fraction per cell."""
    table = cached_table(p, n)
    weights, den = fam._weights(m, p.beta, n)
    return [F(cell * weight, table.dens[n] * den) for cell, weight in zip(table.rows[n], weights)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 9),
    m=st.one_of(st.integers(-4, 4), small_fractions),
    alpha=small_fractions,
    beta=small_fractions,
    r=small_fractions,
)
@example(n=6, m=2, alpha=F(0), beta=F(3), r=F(-2))  # alpha = 0
@example(n=6, m=3, alpha=F(1, 2), beta=F(5, 2), r=F(0))  # r = 0
@example(n=7, m=F(-3, 2), alpha=F(-1, 3), beta=F(-5, 2), r=F(1, 4))  # negative beta and m
@example(n=5, m=-2, alpha=F(2, 3), beta=F(-1, 3), r=F(3))  # negative integer m
@example(n=5, m=F(2, 3), alpha=F(1), beta=F(0), r=F(0))  # beta = 0, non-integer m
def test_integer_polynomials_equal_the_fraction_construction(n, m, alpha, beta, r):
    if alpha == 0 and beta == 0 and r == 0:
        r = F(1)
    p = HsuShiueParams(alpha, beta, r)
    assert fam.exp_poly(n, p) == PolyQ.from_coeffs(cached_table(p, n).row(n))
    w = fam.geometric_poly(n, m, p)
    assert w == PolyQ.from_coeffs(_parent_geometric_coeffs(n, m, p))
    assert w.den > 0 and math.gcd(w.den, *w.nums) == 1


def test_bernoulli_and_euler_polys():
    assert fam.bernoulli_poly(0).coeffs == (1,)
    assert fam.degenerate_euler(0, 3, 0, F(5, 7)) == 1
    assert fam.bernoulli_number(2) == F(1, 6)
    assert fam.bernoulli_poly(2).coeffs == (F(1, 6), -1, 1)  # x^2 - x + 1/6
    assert fam.degenerate_euler(2, 1, 0, 0) == 0
    # known classical identity B_n(1) = B_n + [n = 1]
    for n in range(2, 12):
        assert fam.bernoulli_poly(n)(1) == fam.bernoulli_number(n)


def test_eq14_by_hand_and_to_20():
    # n = 2: -1/2 {2 1} + 2/3 {2 2} = 1/6
    assert -F(1, 2) * 1 + F(2, 3) * 1 == F(1, 6)
    assert fam.check_eq14(20).status == "pass"


def test_degenerate_euler_values():
    assert fam.degenerate_euler(0, 2, F(1, 3), F(1, 2)) == 1
    # first-order value r - 1/2 for any alpha
    for a in (F(0), F(1, 3), F(-5, 4)):
        assert fam.degenerate_euler(1, 1, a, F(2)) == F(3, 2)
    for n in range(11):
        assert fam.check_degenerate_euler(n, 1, F(1, 3), 2).status == "pass"
        assert fam.check_degenerate_euler(n, 4, F(-2, 3), F(1, 4)).status == "pass"


def test_degenerate_euler_sweep_reuses_its_series(monkeypatch):
    # n = 0..24 in sequence grows one cached prefix: builds at 0, 1, 2, 4, 8, 16, 32
    builds = []

    def counted(*args):
        builds.append(args[-1])
        return gf_degenerate_euler(*args)

    monkeypatch.setattr(fam, "gf_degenerate_euler", counted)
    fresh = Memo(CACHE_CAP).prefix(fam._degenerate_euler_values.__wrapped__)
    monkeypatch.setattr(fam, "_degenerate_euler_values", fresh)
    alpha, r = F(-1, 3), F(2, 5)
    for n in range(25):
        value = fam.degenerate_euler(n, 2, alpha, r)
        assert value == gf_degenerate_euler(2, alpha, r, n).egf_coeff(n)
        assert fam.check_degenerate_euler(n, 2, alpha, r).status == "pass"
    assert len(builds) <= 7, builds


def test_degenerate_euler_classical_slice_scaling():
    # at alpha = 0 the (0, beta, r) geometric value matches E_n^(s)(r/beta) beta^n
    beta, r, s = F(3, 2), F(5, 4), 3
    p = HsuShiueParams(0, beta, r)
    for n in range(11):
        lhs = fam.geometric_poly(n, s, p)(F(-1, 2))
        assert lhs == fam.degenerate_euler(n, s, 0, r / beta) * beta**n


def test_degenerate_bernoulli2_values():
    assert fam.degenerate_bernoulli2(0, F(1, 2), F(3)) == 1
    for a in (F(0), F(1, 2), F(-1, 3)):
        assert fam.degenerate_bernoulli2(1, a, F(1, 4)) == F(-1, 4)
    for n in range(11):
        assert fam.check_theorem2(n, F(1, 2), 1).status == "pass"


def test_theorem2_alpha0_whitney_reduction():
    # B_n(r/beta) beta^n = sum_k W_{beta,r}(n,k) (-1)^k k!/(beta^(n-k) (k+1)) * beta^n
    from geopoly.stirling import cached_table
    from math import factorial

    beta, r = F(2), F(3, 2)
    table = cached_table(HsuShiueParams(0, beta, r), 8)
    for n in range(9):
        closed = sum(
            table.value(n, k) * (-1) ** k * F(factorial(k), (k + 1)) / beta ** (n - k)
            for k in range(n + 1)
        )
        assert fam.bernoulli_poly(n)(r / beta) == closed


def test_carlitz_beta_values():
    assert fam.carlitz_beta(0, F(1, 3), F(2)) == 1
    assert fam.carlitz_beta(1, F(1, 3), 0) == (F(1, 3) - 1) / 2
    for n in range(9):
        assert fam.carlitz_beta(n, 0, F(1, 2)) == fam.bernoulli_poly(n)(F(1, 2))


def test_theorem3_across_parameters():
    for n in range(9):
        assert fam.check_theorem3(n, 0, F(1, 2), 3).status == "pass"
        assert fam.check_theorem3(n, 1, F(1, 2), 3).status == "pass"
        assert fam.check_theorem3(n, 2, F(1, 2), 3).status == "pass"
        assert fam.check_theorem3(n, 3, F(-1, 3), F(2, 3)).status == "pass"


def test_corollary2_direct_summation():
    for n in range(9):
        for r in (1, 2, 4, 10):
            assert fam.check_corollary2(n, r, F(1, 3)).status == "pass"
    # s = r = 2, alpha = 1/3: closed form equals j-sum of products
    alpha = F(1, 3)
    direct = sum(gen_factorial(j, alpha, 5) for j in range(2))
    table_sum = fam.check_corollary2(5, 2, alpha)
    assert table_sum.status == "pass"
    assert direct == gen_factorial(0, alpha, 5) + gen_factorial(1, alpha, 5)


def test_corollary3_with_subcases():
    # the check names its form at every r; the corners are ids of the registry
    for n in range(9):
        for alpha, r in ((F(1, 2), F(0)), (F(1, 3), F(1, 3)), (F(-2, 3), F(5, 4))):
            rep = fam.check_corollary3(n, alpha, r)
            assert rep.id == "EQ31" and rep.status == "pass"
    for rid, corner in (("EQ32", lambda p: p["r"] == 0), ("EQ33", lambda p: p["r"] == p["alpha"])):
        reports = I.run(rid, seed=1, profile="full")
        assert [r.id for r in reports] == [rid] * 4
        assert all(corner(r.params) and r.status == "pass" for r in reports)


def test_theorem4_witness_and_range():
    # documented witness: LHS -1, corrected RHS -1, printed RHS -1/2
    bp = fam.bernoulli_poly(2)
    assert bp(F(1, 2)) - bp(F(-1, 2)) == -1
    assert fam.check_theorem4(1, 1, 2, 1).status == "pass"
    printed = fam.check_theorem4(1, 1, 2, 1, exponent="printed")
    assert printed.status == "fail"
    assert "-1/2" in printed.witness
    for n in range(8):
        for s in range(4):
            assert fam.check_theorem4(n, s, F(3, 2), F(-1, 3)).status == "pass"
    # beta = 1: both exponents coincide, printed passes too
    for n in range(6):
        for s in range(4):
            assert fam.check_theorem4(n, s, 1, 0, exponent="printed").status == "pass"


def test_theorem4_validation():
    with pytest.raises(ValueError):
        fam.check_theorem4(1, 1, 0, 1)
    refusal = "exponent must be 'corrected' or 'printed', got 'bogus'"
    for check in (fam.check_theorem4, fam.check_corollary5):
        with pytest.raises(ValueError, match=refusal):
            check(1, 1, 2, 1, exponent="bogus")


def test_theorem3_and_theorem4_take_a_rational_s_and_refuse_a_bool():
    # EQ29 and EQ37 hold at rational s; the report echoes s as it was given
    for check, rest in ((fam.check_theorem3, (F(1, 2), 1)), (fam.check_theorem4, (2, 1))):
        with pytest.raises(TypeError, match="not an exact rational"):
            check(2, True, *rest)
        for s in (F(1, 2), F(-5, 3), 2):
            rpt = check(2, s, *rest)
            assert rpt.status == "pass" and type(rpt.params["s"]) is type(s), (check, s)


def test_corollary4_rising_factorial_form():
    for n in range(9):
        for r in range(6):
            assert fam.check_corollary4(n, r).status == "pass"


def test_howard_validates_m_once():
    with pytest.raises(ValueError, match="m must be >= 1"):
        fam.howard_power_sum(1, 0, 2, 1)
    with pytest.raises(ValueError, match="m must be >= 1"):
        fam.check_corollary5(1, 0, 2, 1)
    with pytest.raises(ValueError, match="beta must be nonzero"):
        fam.howard_power_sum(1, 2, 0, 1)


def _bump_top_coefficient(gf_fn):
    def bumped(*args):
        gf = gf_fn(*args)
        return PowerSeries(gf.coeffs[:-1] + (gf.coeffs[-1] + 1,))

    return bumped


def _bump_table_cell(n, k):
    def bumped(params, n_max):
        table = cached_table(params, n_max)
        return table.with_entry(n, k, table.value(n, k) + 1)

    return bumped


# Each merged pair: (attribute to perturb, perturbed replacement, value call, check call).
MERGED_PAIRS = {
    "degenerate_euler": (
        "gf_degenerate_euler",
        _bump_top_coefficient(gf_degenerate_euler),
        lambda: fam.degenerate_euler(3, 2, F(1, 3), F(1, 2)),
        lambda: fam.check_degenerate_euler(3, 2, F(1, 3), F(1, 2)),
    ),
    "degenerate_bernoulli2": (
        "gf_bernoulli2_degenerate",
        _bump_top_coefficient(gf_bernoulli2_degenerate),
        lambda: fam.degenerate_bernoulli2(3, F(1, 2), F(1, 4)),
        lambda: fam.check_theorem2(3, F(1, 2), F(1, 4)),
    ),
    "eval_minus_one": (
        "gen_factorial",
        lambda z, alpha, n: gen_factorial(z, alpha, n) + 1,
        lambda: fam.eval_minus_one(3, 2, RATIONAL),
        lambda: fam.check_minus_one(3, 2, RATIONAL),
    ),
    # the oracle is the inline direct sum, so the closed form's table is perturbed
    "howard_power_sum": (
        "cached_table",
        _bump_table_cell(2, 1),
        lambda: fam.howard_power_sum(2, 3, 2, 1),
        lambda: fam.check_corollary5(2, 3, 2, 1),
    ),
}


@pytest.mark.parametrize("pair", sorted(MERGED_PAIRS))
def test_merged_pair_detects_perturbation(monkeypatch, pair):
    attr, replacement, value, check = MERGED_PAIRS[pair]
    assert check().status == "pass"
    value()
    monkeypatch.setattr(fam, attr, replacement)
    # the degenerate Euler values are cached: a fresh cache rebuilds them from the patch
    fresh = Memo(CACHE_CAP).prefix(fam._degenerate_euler_values.__wrapped__)
    monkeypatch.setattr(fam, "_degenerate_euler_values", fresh)
    with pytest.raises(ArithmeticError, match="closed form .* != oracle"):
        value()
    rpt = check()
    assert rpt.status == "fail"
    assert " != " in rpt.witness


def test_howard_power_sum_witnesses():
    assert fam.howard_power_sum(1, 2, 2, 1) == 4
    assert fam.howard_power_sum(0, 5, F(1, 2), F(7)) == 5  # m terms of 1
    assert fam.howard_power_sum(1, 1, 2, 1) == 1
    printed = fam.check_corollary5(1, 1, 2, 1, exponent="printed")
    assert printed.status == "fail"
    assert "1/2" in printed.witness


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 8),
    m=st.integers(1, 6),
    beta=small_fractions.filter(lambda v: v != 0),
    r=small_fractions,
)
def test_howard_matches_direct_sums(n, m, beta, r):
    assert fam.howard_power_sum(n, m, beta, r) == sum(
        (r + beta * j) ** n for j in range(m)
    )


def test_dobinski_exact():
    assert fam.check_dobinski(0, RATIONAL, 12).status == "pass"
    assert fam.check_dobinski(1, RATIONAL, 12).status == "pass"
    assert fam.check_dobinski(8, HsuShiueParams(F(1, 2), 2, -1), 24).status == "pass"
    with pytest.raises(ValueError):
        fam.check_dobinski(2, HsuShiueParams(1, 0, 0), 8)


def test_gamma_rep_collapse():
    # EQ7_GAMMA: the gamma moments of exp_poly against the EGF, and against
    # the rising-factorial form the moment weight (s-1+k)!/(s-1)! = <s>_k gives
    assert fam.check_gamma_moments(0, 1, F(1, 2), RATIONAL).status == "pass"
    for n in range(11):
        for s in range(1, 6):
            rpt = fam.check_gamma_moments(n, s, F(2, 3), RATIONAL)
            assert (rpt.id, rpt.status) == ("EQ7_GAMMA", "pass")
            assert rpt.params == {"n": n, "s": s, "x": F(2, 3), "params": RATIONAL}
            assert fam.check_gf_matches(n, s, F(2, 3), RATIONAL).status == "pass"
    # s = 1 weight <1>_k = k! recovers the first-order polynomial
    n = 5
    w = fam.geometric_poly(n, 1, RATIONAL)
    from geopoly.stirling import cached_table
    from math import factorial

    table = cached_table(RATIONAL, n)
    x = F(3, 5)
    direct = sum(
        table.value(n, k) * (x * RATIONAL.beta) ** k * rising_factorial(1, k)
        for k in range(n + 1)
    )
    assert direct == w(x)


def test_gamma_moments_fail_on_a_wrong_moment(monkeypatch):
    # (s-1+k)!/(s-1)! taken as (s+k)!/s! moves every k >= 1 term: the check must see it
    assert fam.check_gamma_moments(4, 2, F(2, 3), RATIONAL).status == "pass"
    monkeypatch.setattr(fam, "perm", lambda m, k: math.perm(m + 1, k))
    rpt = fam.check_gamma_moments(4, 2, F(2, 3), RATIONAL)
    assert rpt.status == "fail" and rpt.witness.startswith("gf ")
    assert "!= gamma moments " in rpt.witness


# ---------------------------------------------------------------------------
# Closed sides as w_n^(m) at a point or its integral over [-1, 0]
# ---------------------------------------------------------------------------


def _stirling_sum(params, n, weight):
    """sum_k S(n,k; params) weight(k): the form every closed side had inline."""
    table = cached_table(params, n)
    return sum(table.value(n, k) * weight(k) for k in range(n + 1))


def _eq14_references(n_max):
    classical = HsuShiueParams(0, 1, 0)
    out = []
    for n in range(n_max + 1):
        out.append(_stirling_sum(classical, n, lambda k: (-1) ** k * F(factorial(k), k + 1)))
        out.append(_stirling_sum(classical, n, lambda k: (-1) ** k * F(factorial(k), 2**k)))
    return out


def _theorem4_reference(n, s, beta, r, extra):
    return (n + 1) * _stirling_sum(
        HsuShiueParams(0, beta, r), n,
        lambda k: (-1) ** k * rising_factorial(s, k + 1) / (beta ** (n + extra - k) * (k + 1)),
    )


def _howard_reference(n, m, beta, r, shift):
    return _stirling_sum(
        HsuShiueParams(0, beta, r), n,
        lambda k: beta ** (k - shift) / (k + 1) * falling_factorial(m, k + 1),
    )


# check -> (run it on a draw d, which side of a compared pair is closed, references).
# The references are the inline Stirling sums the closed sides were written
# as before each became w_n^(m) at a point or a multiple of its integral.
CLOSED_SIDES = {
    "EQ10": (
        lambda d: fam.check_degenerate_euler(d.n, d.s, d.alpha, d.r), 0,
        lambda d: [_stirling_sum(HsuShiueParams(d.alpha, 1, d.r), d.n,
                                 lambda k: (-1) ** k * rising_factorial(d.s, k) / 2**k)],
    ),
    "EQ14": (lambda d: fam.check_eq14(d.n), 0, lambda d: _eq14_references(d.n)),
    "EQ34_THM2": (
        lambda d: fam.check_theorem2(d.n, d.alpha, d.r), 0,
        lambda d: [_stirling_sum(HsuShiueParams(d.alpha, 1, d.r), d.n,
                                 lambda k: (-1) ** k * F(factorial(k), k + 1))],
    ),
    "EQ29": (
        lambda d: fam.check_theorem3(d.n, d.s, d.alpha, d.r), 1,
        lambda d: [(d.n + 1) * _stirling_sum(
            HsuShiueParams(d.alpha, 1, d.r), d.n,
            lambda k: (-1) ** k * rising_factorial(d.s, k + 1) / (k + 1))],
    ),
    "COR2": (
        lambda d: fam.check_corollary2(d.n, d.m, d.alpha), 1,
        lambda d: [_stirling_sum(HsuShiueParams(d.alpha, 1, d.m), d.n,
                                 lambda k: (-1) ** k * rising_factorial(d.m, k + 1) / (k + 1))],
    ),
    "EQ31": (
        lambda d: fam.check_corollary3(d.n, d.alpha, d.r), 1,
        lambda d: [_stirling_sum(HsuShiueParams(d.alpha, 1, d.r), d.n,
                                 lambda k: (-1) ** k * rising_factorial(d.alpha + 1, k) / (k + 1))],
    ),
    "EQ37_CORRECTED": (
        lambda d: fam.check_theorem4(d.n, d.s, d.beta, d.r), 1,
        lambda d: [_theorem4_reference(d.n, d.s, d.beta, d.r, 0)],
    ),
    "EQ37_PRINTED": (
        lambda d: fam.check_theorem4(d.n, d.s, d.beta, d.r, exponent="printed"), 1,
        lambda d: [_theorem4_reference(d.n, d.s, d.beta, d.r, 1)],
    ),
    "COR4": (
        lambda d: fam.check_corollary4(d.n, d.m - 1), 1,
        lambda d: [fam.bernoulli_number(d.n + 1) + (d.n + 1) * _stirling_sum(
            HsuShiueParams(0, 1, d.m - 1), d.n,
            lambda k: (-1) ** k * rising_factorial(d.m - 1, k + 1) / (k + 1))],
    ),
    "COR5_CORRECTED": (
        lambda d: fam.check_corollary5(d.n, d.m, d.beta, d.r), 1,
        lambda d: [_howard_reference(d.n, d.m, d.beta, d.r, 0)],
    ),
    "COR5_PRINTED": (
        lambda d: fam.check_corollary5(d.n, d.m, d.beta, d.r, exponent="printed"), 1,
        lambda d: [_howard_reference(d.n, d.m, d.beta, d.r, 1)],
    ),
    "EQ3_VS_GF8": (
        lambda d: fam.check_gf_matches(d.n, d.m, d.x, HsuShiueParams(d.alpha, d.beta, d.r)), 1,
        lambda d: [_stirling_sum(HsuShiueParams(d.alpha, d.beta, d.r), d.n,
                                 lambda k: (d.x * d.beta) ** k * rising_factorial(d.m, k))],
    ),
}


class Draw(NamedTuple):
    n: int
    s: int
    m: int
    alpha: F
    beta: F
    r: F
    x: F


def _compared_pairs(run):
    """(lhs, rhs) of every case the check compares, in order."""
    pairs = []
    original = CheckReport.compare_each

    def recording(self, cases, witness):
        cases = list(cases)
        pairs.extend(case[-2:] for case in cases)
        return original(self, cases, witness)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CheckReport, "compare_each", recording)
        run()
    return pairs


@pytest.mark.parametrize("name", sorted(CLOSED_SIDES))
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 8),
    s=st.integers(0, 5),
    m=st.integers(1, 6),
    alpha=small_fractions,
    beta=small_fractions.filter(lambda v: v != 0),
    r=small_fractions,
    x=small_fractions,
)
def test_closed_side_equals_its_stirling_sum(name, n, s, m, alpha, beta, r, x):
    check, side, references = CLOSED_SIDES[name]
    d = Draw(n, s, m, alpha, beta, r, x)
    refs = references(d)
    pairs = _compared_pairs(lambda: check(d))
    assert [pair[side] for pair in pairs[: len(refs)]] == refs


def test_integral_of_first_order_classical_is_bernoulli():
    nums = fam.bernoulli_numbers(30)
    for n in range(31):
        assert fam.geometric_poly(n, 1, CLASSICAL).integral(-1, 0) == nums[n]
