"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated scale and tolerance; pytest emits one
pass/fail line per criterion (run with -v; add -s for the explicit
CRITERION summaries printed below).
"""

import time
from decimal import Decimal, localcontext
from fractions import Fraction as F

from geopoly import analytic, families, mellin
from geopoly.analytic import EvalConfig
from geopoly.enumeration import (
    barred_preferential_count,
    ordered_set_partitions_count,
)
from geopoly.identities import SmallRationalSampler, run_all
from geopoly.params import HsuShiueParams
from geopoly.series import gf_w
from geopoly.stirling import build_table, verify_against_gf

CFG256 = EvalConfig(256)
TOL = Decimal("1e-30")
CLASSICAL = HsuShiueParams(0, 1, 0)


def _diff(report) -> Decimal:
    return Decimal(report.detail["abs_diff"])


def test_criterion_01_table_vs_gf_20_triples_under_5s():
    sampler = SmallRationalSampler(2025)
    started = time.monotonic()
    for _ in range(20):
        params = sampler.params()
        table = build_table(params, 12)
        report = verify_against_gf(table, 12)
        assert report.status == "pass", report.to_dict()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"CRITERION 1 PASS: 20 tables == gf coefficients, n<=12, {elapsed:.2f}s")


def test_criterion_02_bernoulli_euler_stirling_formulas_n20():
    report = families.check_eq14(20)
    assert report.status == "pass", report.to_dict()
    print("CRITERION 2 PASS: B_n and E_n(0) partition-number formulas exact, n<=20")


def test_criterion_03_gf_vs_explicit_10_samples():
    sampler = SmallRationalSampler(2026)
    for _ in range(10):
        params = sampler.params()
        x = sampler.rational()
        for s in range(1, 5):
            for n in range(11):
                got = gf_w(params, s, x, n).egf_coeff(n)
                want = families.geometric_poly(n, s, params)(x)
                assert got == want, (params, s, x, n)
    print("CRITERION 3 PASS: EGF coefficients == explicit sums, n<=10, s<=4")


def test_criterion_04_degenerate_families_vs_gf_oracles():
    sampler = SmallRationalSampler(2027)
    for _ in range(6):
        alpha, r = sampler.rational(), sampler.rational()
        for n in range(11):
            for s in range(1, 5):
                assert families.check_degenerate_euler(n, s, alpha, r).status == "pass"
            assert families.check_theorem2(n, alpha, r).status == "pass"
            if n <= 10:
                for s in range(5):
                    assert families.check_theorem3(n, s, alpha, r).status == "pass"
            assert families.check_corollary3(n, alpha, r).status == "pass"
            assert families.check_corollary3(n, alpha, F(0)).status == "pass"
            if alpha != 0:
                assert families.check_corollary3(n, alpha, alpha).status == "pass"
    print("CRITERION 4 PASS: degenerate Euler/second-kind/Carlitz formulas exact, n<=10")


def test_criterion_05_falling_factorial_sums():
    sampler = SmallRationalSampler(2028)
    for _ in range(6):
        alpha = sampler.rational()
        for r in range(1, 11):
            for n in range(11):
                assert families.check_corollary2(n, r, alpha).status == "pass"
    print("CRITERION 5 PASS: generalized falling-factorial sums exact, r<=10, n<=10")


def test_criterion_06_theorem4_corrected_passes_printed_fails():
    sampler = SmallRationalSampler(2029)
    for _ in range(6):
        beta = sampler.rational(nonzero=True)
        r = sampler.rational()
        for n in range(11):
            for s in range(6):
                assert families.check_theorem4(n, s, beta, r).status == "pass"
    witness = families.check_theorem4(1, 1, 2, 1, exponent="printed")
    assert witness.status == "fail"
    assert "lhs -1 != rhs -1/2" in witness.witness
    print("CRITERION 6 PASS: corrected exponent exact n<=10; printed fails at (1,1,2,1)")


def test_criterion_07_power_sums_corrected_passes_printed_fails():
    sampler = SmallRationalSampler(2030)
    for _ in range(6):
        beta = sampler.rational(nonzero=True)
        r = sampler.rational()
        for n in range(9):
            for m in range(1, 7):
                assert families.check_corollary5(n, m, beta, r).status == "pass"
    witness = families.check_corollary5(1, 1, 2, 1, exponent="printed")
    assert witness.status == "fail"
    assert "direct 1 != closed 1/2" in witness.witness
    print("CRITERION 7 PASS: power sums exact n<=8, m<=6; printed fails at (1,1,2,1)")


def _params_beta_free(sampler):
    """A triple drawn in the order of `sampler.params()`, but with beta free to be 0."""
    while True:
        triple = (sampler.rational(), sampler.rational(), sampler.rational())
        if any(triple):
            return HsuShiueParams(*triple)


def test_criterion_08_spivey_recurrence_and_fubini():
    sampler = SmallRationalSampler(2031)
    for _ in range(4):
        params = _params_beta_free(sampler)
        x = sampler.rational()
        for n in range(7):
            for m in range(7):
                for s in range(1, 4):
                    assert families.check_spivey(n, m, s, x, params).status == "pass"
    fubini = [families.geometric_poly(n, 1, CLASSICAL)(1) for n in range(5)]
    assert fubini == [1, 1, 3, 13, 75]
    assert fubini == [ordered_set_partitions_count(n) for n in range(5)]
    print("CRITERION 8 PASS: two-index recurrence exact n,m<=6; Fubini 1,1,3,13,75")


def test_criterion_09_barred_preferential_counts():
    for n in range(9):
        for s in range(4):
            assert families.bpa_number(n, s, CLASSICAL) == barred_preferential_count(n, s)
    assert families.bpa_number(2, 1, CLASSICAL) == 8
    print("CRITERION 9 PASS: barred arrangements == enumeration, n<=8, s<=3")


def test_criterion_10_dobinski_exact_and_numeric():
    sampler = SmallRationalSampler(2032)
    for _ in range(5):
        params = sampler.params()
        for n in range(9):
            assert mellin.verify_eq15(n, params, 24).status == "pass"
    for _ in range(4):
        params = sampler.params(beta_positive=True)
        x = sampler.rational()
        report = analytic.eval_dobinski_numeric(sampler.int_between(0, 5), params, x, CFG256)
        assert report.status == "pass"
        assert _diff(report) < TOL
    print("CRITERION 10 PASS: exponential-weighted expansion exact to order 24 + numeric")


def test_criterion_11_series_identities_order_30():
    sampler = SmallRationalSampler(2033)
    for _ in range(4):
        params = sampler.params()
        for n in range(9):
            s = sampler.int_between(0, 4)
            assert mellin.verify_series_identity("eq5", n, s, params, 30).status == "pass"
            assert mellin.verify_series_identity("eq21", n, 0, params, 30).status == "pass"
            sb = sampler.int_between(1, 5)
            assert (
                mellin.verify_series_identity("eq38_binomial", n, sb, params, 30).status
                == "pass"
            )
    print("CRITERION 11 PASS: factorial-series identities exact to order 30, n<=8")


def test_criterion_12_trig_type_series_j0_passes_j1_fails():
    sampler = SmallRationalSampler(2034)
    for _ in range(4):
        params = sampler.params()
        for n in range(7):
            for eq in (17, 18):
                report = analytic.eval_eq17_18(n, params, CFG256, eq=eq)
                assert report.status == "pass", report.to_dict()
                assert _diff(report) < TOL
    p = HsuShiueParams(1, 2, 3)
    bad17 = analytic.eval_eq17_18(1, p, CFG256, eq=17, start_index="paper_j1")
    assert bad17.status == "fail"
    assert Decimal(bad17.detail["rhs"]) == 0
    assert abs(Decimal(bad17.detail["lhs"]) - 3) < TOL  # r
    bad18 = analytic.eval_eq17_18(1, p, CFG256, eq=18, start_index="paper_j1")
    assert bad18.status == "fail"
    assert Decimal(bad18.detail["rhs"]) == 0
    assert abs(Decimal(bad18.detail["lhs"]) - 2) < TOL  # beta
    print("CRITERION 12 PASS: j=0 start < 1e-30 for n<=6; printed j=1 fails at n=1")


def test_criterion_13_zeta_series_and_eq30():
    sampler = SmallRationalSampler(2035)
    for x in (F(1, 3), F(1, 2), F(-1, 2)):
        for n in range(6):
            params = sampler.params()
            report = analytic.eval_theorem5(params, n, x, CFG256)
            assert report.status == "pass", report.to_dict()
            assert _diff(report) < TOL
    for n in range(6):
        report = analytic.eval_eq30_family(n, CFG256)
        assert report.status == "pass"
        assert _diff(report) < TOL
    print("CRITERION 13 PASS: zeta-coefficient series < 1e-30, n<=5, x in {1/3,1/2,-1/2}")


def test_criterion_14_zeta_family_closed_forms():
    with localcontext() as ctx:
        ctx.prec = CFG256.digits
        z2 = analytic.zeta_int(2, CFG256)
        z3 = analytic.zeta_int(3, CFG256)
        lg = analytic.log2(CFG256)
        targets = [
            (0, lg),
            (1, lg + Decimal(3) / 4 * z2),
            (2, lg + Decimal(9) / 4 * z2 + Decimal(14) / 8 * z3),
        ]
        for n, closed in targets:
            lhs = Decimal(analytic.eval_eq30_family(n, CFG256).detail["lhs"])
            assert abs(lhs - closed) < TOL, n
    print("CRITERION 14 PASS: the three listed zeta sums match within 1e-30")


def test_criterion_15_full_suite_under_60s():
    started = time.monotonic()
    summary = run_all(seed=1, profile="full")
    elapsed = time.monotonic() - started
    assert summary["counts"]["fail"] == 0, summary["unexpected"][:3]
    assert summary["unexpected"] == []
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"CRITERION 15 PASS: full suite {summary['counts']} in {elapsed:.2f}s (< 60s)"
    )
