from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geopoly.enumeration import r_stirling_count, set_partitions_count
from geopoly.exact import gen_factorial
from geopoly.params import HsuShiueParams
from geopoly.series import binom_deform
from geopoly.stirling import build_table, cached_table, specialize, verify_against_gf

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_invalid_triple_rejected():
    with pytest.raises(ValueError):
        HsuShiueParams(0, 0, 0)


def test_table_shape_and_diagonals():
    p = HsuShiueParams(F(1, 2), 3, F(-2))
    table = build_table(p, 8)
    for n in range(9):
        assert table.value(n, n) == 1
        assert table.value(n, 0) == gen_factorial(p.r, p.alpha, n)
    assert table.value(5, 7) == 0  # k > n convention
    assert table.value(2, 1) == 2 * p.r + p.beta - p.alpha


def test_recurrence_holds_at_every_cell():
    p = HsuShiueParams(F(-1, 3), F(5, 2), F(1, 4))
    table = build_table(p, 10)
    for n in range(10):
        for k in range(n + 2):
            expected = table.value(n, k - 1) if k >= 1 else F(0)
            expected += (k * p.beta - n * p.alpha + p.r) * table.value(n, k) if k <= n else 0
            assert table.value(n + 1, k) == expected


def test_classical_stirling2_matches_enumeration():
    table = build_table(specialize("stirling2"), 8)
    for n in range(9):
        for k in range(n + 1):
            assert table.value(n, k) == set_partitions_count(n, k), (n, k)
    assert table.value(3, 2) == 3
    assert table.value(4, 2) == 7


def test_stirling1_signed_values():
    table = build_table(specialize("stirling1_signed"), 5)
    # signed first kind: row 4 is 0, -6, 11, -6, 1
    assert table.row(4) == (0, -6, 11, -6, 1)
    rep = verify_against_gf(table, 5)
    assert rep.status == "pass"


def test_r_stirling_matches_enumeration():
    r = 2
    table = build_table(specialize("r_stirling", r=r), 6)
    for n in range(7):
        for k in range(n + 1):
            assert table.value(n, k) == r_stirling_count(n + r, k + r, r), (n, k)


def test_r_stirling_r1_shifts_classical():
    table = build_table(specialize("r_stirling", r=1), 6)
    classical = build_table(specialize("stirling2"), 7)
    for n in range(7):
        for k in range(n + 1):
            assert table.value(n, k) == classical.value(n + 1, k + 1)


def test_whitney_and_r_whitney():
    p = specialize("r_whitney", beta=2, r=1)
    assert p == HsuShiueParams(0, 2, 1)
    table = build_table(p, 4)
    assert table.value(1, 1) == 1  # [t] of ((e^{2t}-1)/2) e^t
    assert table.value(1, 0) == 1  # r
    assert specialize("whitney", beta=3) == HsuShiueParams(0, 3, 1)


def test_howard_and_carlitz_triples():
    assert specialize("howard_degenerate_weighted", alpha=F(1, 3), r=F(2)) == HsuShiueParams(
        F(1, 3), 1, 2
    )
    assert specialize("carlitz_degenerate", alpha=F(1, 3)) == HsuShiueParams(F(1, 3), 1, 0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        specialize("nope")


def test_gf_oracle_classical_order10():
    table = build_table(specialize("stirling2"), 10)
    assert verify_against_gf(table, 10).status == "pass"


def test_gf_oracle_rational_params():
    table = build_table(HsuShiueParams(F(1, 2), 3, -2), 8)
    assert verify_against_gf(table, 8).status == "pass"


def test_gf_oracle_detects_corruption():
    # every single-cell corruption is caught and named by its own (n, k);
    # (0,1,0) and (1,0,0) take the alpha = 0 and beta = 0 paths of the GF
    triples = (HsuShiueParams(F(1, 2), 3, -2), HsuShiueParams(0, 1, 0), HsuShiueParams(1, 0, 0))
    for params in triples:
        table = build_table(params, 8)
        for n in range(9):
            for k in range(n + 1):
                bad = table.with_entry(n, k, table.value(n, k) + F(1, 7))
                rep = verify_against_gf(bad, 8)
                assert rep.status == "fail", (params, n, k)
                assert rep.witness.startswith(f"(n={n}, k={k}):"), (params, n, k, rep.witness)


@settings(max_examples=25, deadline=None)
@given(alpha=small_fractions, beta=small_fractions, r=small_fractions)
def test_gf_oracle_random_triples(alpha, beta, r):
    if alpha == 0 and beta == 0 and r == 0:
        alpha = F(1)
    table = build_table(HsuShiueParams(alpha, beta, r), 7)
    assert verify_against_gf(table, 7).status == "pass"


def test_column_zero_via_egf_weight():
    # S(n,0) coefficients are exactly those of (1+alpha t)^(r/alpha)
    p = HsuShiueParams(F(2, 3), F(-1, 2), F(5, 4))
    table = build_table(p, 9)
    weight = binom_deform(p.alpha, p.r, 9)
    for n in range(10):
        assert table.value(n, 0) == weight.egf_coeff(n)


def test_cached_table_is_shared():
    # a repeat, for the same or a smaller n, is a hit that views the same rows
    p = HsuShiueParams(0, 1, 0)
    first = cached_table(p, 6)
    for n in (6, 3):
        before = cached_table.cache_info()
        again = cached_table(p, n)
        after = cached_table.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again.n_max == n and len(again.rows) == n + 1
        assert all(a is b for a, b in zip(again.rows, first.rows))
