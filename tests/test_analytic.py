import ast
import inspect
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import count, islice
from math import ceil, factorial, log10, sqrt

import pytest

from geopoly import analytic as A
from geopoly.exact import gen_factorial
from geopoly.families import bernoulli_number, bernoulli_numbers
from geopoly.memo import Memo
from geopoly.params import HsuShiueParams

CFG = A.EvalConfig(256)

# 55-digit references, cross-checked against an independent implementation
PI_REF = "3.141592653589793238462643383279502884197169399375105821"
GAMMA_REF = "0.5772156649015328606065120900824024310421593359399235988"
LOG2_REF = "0.6931471805599453094172321214581765680755001343602552541"
ZETA2_REF = "1.644934066848226436472415166646025189218949901206798438"
ZETA3_REF = "1.202056903159594285399738161511449990764986292340498882"
HZ3_HALF_REF = "8.4143983221171599977981671305801499353549040463835"
PSI_THIRD_REF = "-3.1320337800208063229964190742872688541554282967204"


def _close(value: Decimal, ref: str, places: int = 48) -> bool:
    with localcontext() as ctx:
        ctx.prec = 80
        return abs(value - Decimal(ref)) < Decimal(10) ** -places


def test_reference_constants():
    assert _close(A.pi(CFG), PI_REF)
    assert _close(A.gamma_euler(CFG), GAMMA_REF)
    assert _close(A.log2(CFG), LOG2_REF)


def test_reference_zeta_values():
    assert _close(A.zeta_int(2, CFG), ZETA2_REF)
    assert _close(A.zeta_int(3, CFG), ZETA3_REF)
    assert _close(A.hurwitz_zeta(3, F(1, 2), CFG), HZ3_HALF_REF)
    assert _close(A.digamma(F(1, 3), CFG), PSI_THIRD_REF)


def test_zeta_against_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for s in (2, 5, 11, 30):
        ours = A.zeta_int(s, CFG)
        theirs = Decimal(mpmath.nstr(mpmath.zeta(s), 55))
        assert _close(ours, str(theirs), places=50)
    for a in (F(1, 3), F(5, 4)):
        ours = A.hurwitz_zeta(4, a, CFG)
        theirs = mpmath.nstr(mpmath.zeta(4, mpmath.mpf(a.numerator) / a.denominator), 55)
        assert _close(ours, theirs, places=50)


def test_hurwitz_at_one_is_zeta():
    for s in range(2, 13):
        with localcontext() as ctx:
            ctx.prec = CFG.digits
            diff = abs(A.hurwitz_zeta(s, 1, CFG) - A.zeta_int(s, CFG))
        assert diff == 0  # same cache key path and same definition


def test_hurwitz_half_doubling_relation():
    with localcontext() as ctx:
        ctx.prec = CFG.digits
        for s in range(2, 11):
            lhs = A.hurwitz_zeta(s, F(1, 2), CFG)
            rhs = (Decimal(2) ** s - 1) * A.zeta_int(s, CFG)
            assert abs(lhs - rhs) < Decimal(10) ** -60


def test_zeta2_vs_independent_pi():
    with localcontext() as ctx:
        ctx.prec = CFG.digits
        assert abs(A.zeta_int(2, CFG) - A.pi(CFG) ** 2 / 6) < Decimal(10) ** -60


def test_digamma_recurrence():
    with localcontext() as ctx:
        ctx.prec = CFG.digits
        for a in (F(1, 3), F(3, 4), F(5, 4), F(7, 2), F(15, 4)):
            lhs = A.digamma(a + 1, CFG)
            rhs = A.digamma(a, CFG) + A.to_decimal(1 / a, CFG)
            assert abs(lhs - rhs) < Decimal(10) ** -60


def test_digamma_half_closed_form():
    with localcontext() as ctx:
        ctx.prec = CFG.digits
        lhs = A.digamma(F(1, 2), CFG)
        rhs = -A.gamma_euler(CFG) - 2 * A.log2(CFG)
        assert abs(lhs - rhs) < Decimal(10) ** -60


def test_digamma_taylor_series_with_tail_bound():
    # psi(1+x) = -gamma + sum_{k>=1} zeta(k+1) (-1)^(k+1) x^k, |x| < 1;
    # tail beyond K bounded by zeta(2) |x|^(K+1) / (1 - |x|)
    for x in (F(1, 3), F(-1, 3)):
        K = 150
        with localcontext() as ctx:
            ctx.prec = CFG.digits
            total = -A.gamma_euler(CFG)
            for k in range(1, K + 1):
                c = F((-1) ** (k + 1)) * x**k
                total += A.zeta_int(k + 1, CFG) * A.to_decimal(c, CFG)
            tail = 2 * abs(x) ** (K + 1) / (1 - abs(x))
            direct = A.digamma(1 + x, CFG)
            assert abs(total - direct) < A.to_decimal(tail, CFG) + Decimal(10) ** -60


def test_domain_validation():
    with pytest.raises(ValueError):
        A.zeta_int(1, CFG)
    with pytest.raises(ValueError):
        A.hurwitz_zeta(3, F(-1, 2), CFG)
    with pytest.raises(ValueError):
        A.digamma(0, CFG)
    with pytest.raises(ValueError):
        A.EvalConfig(16)


def test_precision_budget():
    assert A.MAX_BITS == 4096
    assert A.EvalConfig(A.MAX_BITS).precision_bits == A.MAX_BITS
    with pytest.raises(ValueError, match="precision_bits must be <= 4096, got 4097"):
        A.EvalConfig(A.MAX_BITS + 1)


@pytest.mark.parametrize("bits", [256.0, "256", True])
def test_non_int_precision_is_refused_at_construction(bits):
    with pytest.raises(TypeError, match="precision_bits must be an int"):
        A.EvalConfig(bits)


def test_precision_is_the_one_setting():
    assert A.EvalConfig.__slots__ == ("precision_bits",)
    assert A.MAX_TERMS == 10000


@pytest.mark.parametrize("s", [3.0, F(3), True])
def test_non_int_s_is_refused_cold_and_warm(monkeypatch, s):
    # a cached zeta(3) must not answer for 3.0 or Fraction(3), which hash alike
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    with pytest.raises(TypeError, match="s must be an integer"):
        A.hurwitz_zeta(s, 1, CFG)
    A.hurwitz_zeta(3, 1, CFG)
    with pytest.raises(TypeError, match="s must be an integer"):
        A.hurwitz_zeta(s, 1, CFG)
    with pytest.raises(ValueError, match="s must be >= 2, got 1"):
        A.hurwitz_zeta(1, 1, CFG)


EVALS_OF_N = {
    "eval_theorem5": lambda n: A.eval_theorem5(HsuShiueParams(0, 1, 0), n, 0, CFG),
    "eval_eq30_family": lambda n: A.eval_eq30_family(n, CFG),
    "eval_eq17_18": lambda n: A.eval_eq17_18(n, HsuShiueParams(0, 1, 0), CFG),
    "eval_dobinski_numeric": lambda n: A.eval_dobinski_numeric(n, HsuShiueParams(0, 1, 0), 1, CFG),
}


@pytest.mark.parametrize("n", [True, 2.0, F(2), "2"])
@pytest.mark.parametrize("name", sorted(EVALS_OF_N))
def test_every_eval_refuses_a_non_int_n(name, n):
    # a bool n used to pass and be reported as "n": True; 2.0 failed obscurely
    with pytest.raises(TypeError, match=re.escape(f"n must be an integer, got {n!r}")):
        EVALS_OF_N[name](n)
    assert EVALS_OF_N[name](1).status == "pass"


@pytest.mark.parametrize("name", sorted(EVALS_OF_N))
def test_every_eval_refuses_a_negative_n(name):
    # three of the four used to die inside Fraction on n = -1
    with pytest.raises(ValueError, match=re.escape("n must be >= 0, got -1")):
        EVALS_OF_N[name](-1)


def test_theorem5_reduces_to_digamma_series_at_n0():
    rep = A.eval_theorem5(HsuShiueParams(0, 1, 0), 0, F(-1, 2), CFG)
    assert rep.status == "pass"


def test_theorem5_n1_classical():
    rep = A.eval_theorem5(HsuShiueParams(0, 1, 0), 1, F(1, 3), CFG)
    assert rep.status == "pass"


def test_theorem5_rational_parameters():
    rep = A.eval_theorem5(HsuShiueParams(F(1, 2), 2, 1), 3, F(1, 2), CFG)
    assert rep.status == "pass"
    assert Decimal(rep.detail["abs_diff"]) < Decimal("1e-30")


def test_theorem5_domain():
    with pytest.raises(ValueError):
        A.eval_theorem5(HsuShiueParams(0, 1, 0), 1, F(3, 2), CFG)


def test_eq30_family_first_three():
    for n in range(3):
        rep = A.eval_eq30_family(n, CFG)
        assert rep.status == "pass"
        assert Decimal(rep.detail["abs_diff"]) < Decimal("1e-30")


def test_eq30_closed_forms_match_listed_values():
    # n = 0: log 2; n = 1: log2 + (3/4) zeta(2); n = 2: adds (14/8) zeta(3)
    with localcontext() as ctx:
        ctx.prec = CFG.digits
        lhs0 = Decimal(A.eval_eq30_family(0, CFG).detail["lhs"])
        assert abs(lhs0 - A.log2(CFG)) < Decimal("1e-60")
        lhs1 = Decimal(A.eval_eq30_family(1, CFG).detail["lhs"])
        want1 = A.log2(CFG) + Decimal(3) / 4 * A.zeta_int(2, CFG)
        assert abs(lhs1 - want1) < Decimal("1e-60")
        lhs2 = Decimal(A.eval_eq30_family(2, CFG).detail["lhs"])
        want2 = (
            A.log2(CFG)
            + Decimal(9) / 4 * A.zeta_int(2, CFG)
            + Decimal(14) / 8 * A.zeta_int(3, CFG)
        )
        assert abs(lhs2 - want2) < Decimal("1e-60")


def test_eq17_18_hand_witnesses():
    p = HsuShiueParams(1, 2, 3)
    ok = A.eval_eq17_18(1, p, CFG, eq=17)
    assert ok.status == "pass"
    # LHS collapses to r = 3 through the cosine/sine evaluation
    assert abs(Decimal(ok.detail["lhs"]) - 3) < Decimal("1e-60")
    bad = A.eval_eq17_18(1, p, CFG, eq=17, start_index="paper_j1")
    assert bad.status == "fail"
    assert Decimal(bad.detail["rhs"]) == 0
    ok18 = A.eval_eq17_18(1, p, CFG, eq=18)
    assert ok18.status == "pass"
    assert abs(Decimal(ok18.detail["lhs"]) - 2) < Decimal("1e-60")  # beta
    bad18 = A.eval_eq17_18(1, p, CFG, eq=18, start_index="paper_j1")
    assert bad18.status == "fail"


def test_eq17_18_larger_orders():
    assert A.eval_eq17_18(4, HsuShiueParams(0, 1, 0), CFG, eq=17).status == "pass"
    assert A.eval_eq17_18(6, HsuShiueParams(F(1, 3), F(-3, 2), F(5, 4)), CFG, eq=17).status == "pass"
    assert A.eval_eq17_18(5, HsuShiueParams(F(1, 3), F(-3, 2), F(5, 4)), CFG, eq=18).status == "pass"


def test_dobinski_numeric():
    rep = A.eval_dobinski_numeric(3, HsuShiueParams(0, 1, 0), 1, CFG)
    assert rep.status == "pass"
    # e * B_3 with the Bell number from exhaustive enumeration
    from geopoly.enumeration import set_partitions_count

    with localcontext() as ctx:
        ctx.prec = CFG.digits
        want = Decimal(1).exp() * set_partitions_count(3)
        assert abs(Decimal(rep.detail["rhs"]) - want) < Decimal("1e-60")
    assert A.eval_dobinski_numeric(4, HsuShiueParams(F(1, 2), 2, 1), F(3, 2), CFG).status == "pass"
    with pytest.raises(ValueError):
        A.eval_dobinski_numeric(2, HsuShiueParams(1, -1, 0), 1, CFG)


def test_doubling_precision_shrinks_diff():
    p = HsuShiueParams(F(1, 2), 2, 1)
    d256 = Decimal(A.eval_theorem5(p, 2, F(1, 3), A.EvalConfig(256)).detail["abs_diff"])
    d512 = Decimal(A.eval_theorem5(p, 2, F(1, 3), A.EvalConfig(512)).detail["abs_diff"])
    assert d512 < d256
    e256 = Decimal(A.eval_eq30_family(1, A.EvalConfig(256)).detail["abs_diff"])
    e512 = Decimal(A.eval_eq30_family(1, A.EvalConfig(512)).detail["abs_diff"])
    assert e512 < e256


def test_tolerance_configuration():
    assert A.EvalConfig(256).tolerance == F(1, 2**224)


ROUTE_S = (2, 40, 60, 89, 90, 91, 150, 600)
ROUTE_A = (F(1), F(1, 2), F(3, 2), F(1, 3), F(5, 4))


def test_hurwitz_against_mpmath_512_bits():
    mpmath = pytest.importorskip("mpmath")
    cfg = A.EvalConfig(512)
    target = mpmath.mpf(10) ** -(cfg.digits - 5)
    with mpmath.workdps(cfg.digits + 40):
        for a in ROUTE_A + (F(7, 3), F(2, 7)):
            for s in ROUTE_S + (345, 1200):
                ours = mpmath.mpf(str(A.hurwitz_zeta(s, a, cfg)))
                theirs = mpmath.zeta(s, mpmath.mpf(a.numerator) / a.denominator)
                err = abs(ours - theirs)
                if a < 1:  # the value grows like a^-s: compare relatively
                    err /= theirs
                assert err < target, (s, a, mpmath.nstr(err, 5))


def test_digamma_against_mpmath_512_bits():
    mpmath = pytest.importorskip("mpmath")
    cfg = A.EvalConfig(512)
    target = mpmath.mpf(10) ** -(cfg.digits - 5)
    with mpmath.workdps(cfg.digits + 40):
        for a in ROUTE_A + (F(1, 9), F(40, 3)):
            ours = mpmath.mpf(str(A.digamma(a, cfg)))
            theirs = mpmath.psi(0, mpmath.mpf(a.numerator) / a.denominator)
            assert abs(ours - theirs) < target, a


@pytest.mark.parametrize("bits", [256, 512])
def test_digamma_beyond_the_cut_against_mpmath(bits):
    # a >= _asymptotic_cut(digits) leaves N = 0: no head, the expansion at a
    mpmath = pytest.importorskip("mpmath")
    cfg = A.EvalConfig(bits)
    target = mpmath.mpf(10) ** -(cfg.digits - 5)
    with mpmath.workdps(cfg.digits + 40):
        for a in (F(50), F(200), F(1000, 3)):
            ours = mpmath.mpf(str(A.digamma(a, cfg)))
            theirs = mpmath.psi(0, mpmath.mpf(a.numerator) / a.denominator)
            assert abs(ours - theirs) < target, a


@pytest.mark.parametrize("bits", [64, 256])
def test_digamma_recurrence_across_the_cut(bits):
    # a + 1 reaches the cut, where N = 0, from a with N = 1 and a with N = 0
    cfg = A.EvalConfig(bits)
    cut = A._asymptotic_cut(cfg.digits)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        for a in (F(cut - 1), F(3 * cut - 2, 3), F(cut), F(cut + 1)):
            diff = A.digamma(a + 1, cfg) - A.digamma(a, cfg) - A.to_decimal(1 / a, cfg)
            assert abs(diff) < 3 * Decimal(10) ** -(cfg.digits - 5), a


def test_digamma_doubles_n_when_the_expansion_diverges(monkeypatch):
    # a cut of 2 leaves a + N <= 3, where the expansion bottoms out far
    # above the target: N must double (from 0 for a = 3) until it closes
    cfg = A.EvalConfig(128)
    points = (F(1, 3), F(5, 4), F(3))
    want = [A.digamma(a, cfg) for a in points]
    monkeypatch.setattr(A, "_asymptotic_cut", lambda digits: 2)
    calls = []
    head_sum = A._head_sum
    monkeypatch.setattr(A, "_head_sum", lambda *args: calls.append(args[-1]) or head_sum(*args))
    for a, psi in zip(points, want):
        calls.clear()
        # both values are within the target 10^-(digits-5) of psi(a)
        assert abs(A.digamma(a, cfg) - psi) < 2 * Decimal(10) ** -(cfg.digits - 5), a
        assert len(calls) >= 3, a
        assert calls[1:] == [max(1, 2 * n) for n in calls[:-1]], a


def _tail_fraction(s, a, cut):
    edge = a + cut
    return edge**-s * (1 + edge / (s - 1))


# 1/thr for the unit-fraction thresholds 10^-60 and 10^-200/4, and for the
# zeta table's quarter ulp of 1 at 64..1024 bits
TAIL_THR_DEN = (10**60, 4 * 10**200) + tuple(
    4 * 10 ** (A.EvalConfig(bits).digits + 9) for bits in (64, 256, 512, 1024)
)


@pytest.mark.parametrize("s", [3, 20, 91, 150, 600])
@pytest.mark.parametrize("a", [F(1), F(1, 2), F(5, 4), F(2, 7)])
def test_tail_bound_integer_test_matches_fraction(s, a):
    # _tail_below is the bound at a = 1.  The bound falls as a + J grows
    # (so the table's J only walks down): at a >= 1 the a = 1 test proves
    # the bound at a, and at a <= 1 the bound at a proves the a = 1 test.
    # 1/thr = ceil(X) - 1 and ceil(X), X the inverse bound at J = 1, 7 and
    # 40, put the threshold just either side of it.
    edges = [-(-(s - 1) * (1 + j) ** s // (s + j)) for j in (1, 7, 40)]
    for thr_den in TAIL_THR_DEN + tuple(x + d for x in edges for d in (-1, 0)):
        thr = F(1, thr_den)
        for cut in range(1, 41):
            below = A._tail_below(s, cut, (1 + cut) ** s, thr_den)
            assert below == (_tail_fraction(s, F(1), cut) < thr), (thr_den, cut)
            at_a = _tail_fraction(s, a, cut) < thr
            assert below <= at_a if a >= 1 else at_a <= below, (thr_den, cut)


def test_numeric_caches_evict_oldest_beyond_cap(monkeypatch):
    assert A.CACHE_CAP >= 4096
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    monkeypatch.setattr(A, "_CONST_CACHE", Memo(A.CACHE_CAP))
    cfg = A.EvalConfig(64)
    values = {s: A.zeta_int(s, cfg) for s in range(2, A.CACHE_CAP + 12)}
    assert len(A._ZETA_CACHE) == A.CACHE_CAP
    assert (2, F(1), cfg.digits) not in A._ZETA_CACHE  # oldest went first
    assert (A.CACHE_CAP + 11, F(1), cfg.digits) in A._ZETA_CACHE
    assert A.zeta_int(2, cfg) == values[2]  # recomputed after eviction
    monkeypatch.setattr(A, "_CONST_CACHE", Memo(2))
    pis = [A.pi(A.EvalConfig(bits)) for bits in (64, 96, 128)]
    assert list(A._CONST_CACHE) == [("pi", A.EvalConfig(b).digits) for b in (96, 128)]
    assert A.pi(A.EvalConfig(64)) == pis[0]
    assert len(A._CONST_CACHE) == 2


def _fraction_em_reference(s, a, cfg):
    # the Euler-Maclaurin loop with Fraction envelope tests, kept as the
    # reference for the integer comparisons of A._zeta_em
    target = F(1, 10 ** (cfg.digits - 5))
    n_cut = A._asymptotic_cut(cfg.digits)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        while True:
            head = Decimal(0)
            for j in range(n_cut):
                q = a + j
                head += Decimal(q.denominator) ** s / Decimal(q.numerator) ** s
            edge = a + n_cut
            edge_dec = Decimal(edge.numerator) / Decimal(edge.denominator)
            inv = 1 / edge_dec
            total = head + edge_dec * inv**s / (s - 1) + inv**s / 2
            power, rising, m, prev = inv**s * inv, F(s), 1, None
            while True:
                coeff = bernoulli_number(2 * m) / factorial(2 * m) * rising
                total += Decimal(coeff.numerator) / Decimal(coeff.denominator) * power
                rising_next = rising * (s + 2 * m - 1) * (s + 2 * m)
                bound = abs(bernoulli_number(2 * m + 2)) / factorial(2 * m + 2) * rising_next
                bound /= edge ** (s + 2 * m + 1)
                if bound < target or (prev is not None and bound >= prev):
                    break
                prev, rising, power, m = bound, rising_next, power * inv * inv, m + 1
            if bound < target:
                ctx.prec = cfg.digits
                return +total
            n_cut *= 2


def _fraction_digamma_reference(a, cfg):
    target = F(1, 10 ** (cfg.digits - 5))
    shift = max(0, ceil(A._asymptotic_cut(cfg.digits) - a))
    x = a + shift
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        rec = Decimal(0)
        for j in range(shift):
            rec += Decimal((a + j).denominator) / Decimal((a + j).numerator)
        x_dec = Decimal(x.numerator) / Decimal(x.denominator)
        inv = 1 / x_dec
        total, power, m = x_dec.ln() - inv / 2, inv * inv, 1
        while True:
            c = bernoulli_number(2 * m) / (2 * m)
            total -= Decimal(c.numerator) / Decimal(c.denominator) * power
            if abs(bernoulli_number(2 * m + 2)) / (2 * m + 2) / x ** (2 * m + 2) < target:
                break
            power, m = power * inv * inv, m + 1
        total -= rec
        ctx.prec = cfg.digits
        return +total


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_integer_envelopes_match_fraction_reference(bits):
    cfg = A.EvalConfig(bits)
    for a in ROUTE_A + (F(2, 7), F(40, 3)):
        for s in (2, 3, 7, 20, 60, 150):
            assert (A._zeta_em(s, a, cfg.digits).as_tuple()
                    == _fraction_em_reference(s, a, cfg).as_tuple())
        assert A.digamma(a, cfg).as_tuple() == _fraction_digamma_reference(a, cfg).as_tuple()


def test_integer_envelope_divergence_matches_fraction_reference(monkeypatch):
    # a cut of 2 makes the expansion diverge before the target, so the
    # bound >= prev test fires and N doubles several times
    monkeypatch.setattr(A, "_asymptotic_cut", lambda digits: 2)
    cfg = A.EvalConfig(128)
    calls = []
    head_sum = A._head_sum
    monkeypatch.setattr(A, "_head_sum", lambda *args: calls.append(args[-1]) or head_sum(*args))
    for a in (F(1), F(1, 3), F(5, 4)):
        for s in (2, 5, 30):
            calls.clear()
            assert (A._zeta_em(s, a, cfg.digits).as_tuple()
                    == _fraction_em_reference(s, a, cfg).as_tuple())
            assert len(calls) >= 3  # N = 2, 4, 8, ... until the envelope closes


# ---------------------------------------------------------------------------
# The tangent-number Bernoulli table and the Euler-Maclaurin coefficient table
# ---------------------------------------------------------------------------


def _tangent_bernoulli(m):
    """B_0, B_2, ..., B_2m from A._tangent_numbers, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    t = A._tangent_numbers(m)
    return (F(1),) + tuple(F((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                           for k in range(1, m + 1))


def test_tangent_table_equals_series_route():
    # families.bernoulli_numbers, the t/(e^t - 1) series, is the oracle
    assert _tangent_bernoulli(256) == bernoulli_numbers(512)[::2]


def test_tangent_table_equals_mpmath_bernfrac():
    mpmath = pytest.importorskip("mpmath")
    for k, b in enumerate(_tangent_bernoulli(512)):
        p, q = mpmath.bernfrac(2 * k)
        assert b == F(int(p), int(q)), 2 * k


def test_em_coefficient_table_entries():
    # every entry of the table Euler-Maclaurin reads is B_2j/(2j)! rounded once
    for bits in (256, 512, 640, 1024):
        digits = A.EvalConfig(bits).digits
        m = A._table_length(A._asymptotic_cut(digits))
        table = A._em_coeffs(digits, m)
        tangents = A._tangent_numbers(m)
        assert len(table) == m + 1
        with localcontext() as ctx:
            ctx.prec = digits + 10
            for j, (tangent, dec) in enumerate(table):
                want = bernoulli_number(2 * j) / factorial(2 * j)
                rounded = Decimal(want.numerator) / Decimal(want.denominator)
                assert dec.as_tuple() == rounded.as_tuple(), (bits, j)
                assert tangent == tangents[j], (bits, j)


def _fresh_table(monkeypatch):
    """The series sides' zeta table over an empty store."""
    monkeypatch.setattr(A, "_zeta_table", Memo(A.CACHE_CAP)(A._zeta_table.__wrapped__))


def _spy_tangent_lengths(monkeypatch):
    """A fresh coefficient table whose tangent tables record their lengths."""
    lengths = []
    tangent_numbers = A._tangent_numbers
    monkeypatch.setattr(A, "_tangent_numbers", lambda m: lengths.append(m) or tangent_numbers(m))
    monkeypatch.setattr(A, "_em_coeffs", Memo(A.CACHE_CAP).prefix(A._em_coeffs.__wrapped__))
    return lengths


def test_tables_grow_when_a_loop_outruns_them(monkeypatch):
    # fresh tables fetched one entry long: every loop must grow them on the
    # way and still give the same Decimal as with the tables it normally gets
    cfg = A.EvalConfig(256)
    cases = [(s, a) for s in (2, 7, 30) for a in (F(1), F(1, 3), F(40, 3))]
    want = [A._zeta_em(s, a, cfg.digits).as_tuple() for s, a in cases]
    want_psi = [A.digamma(a, cfg).as_tuple() for a in (F(1), F(2, 7))]
    monkeypatch.setattr(A, "_table_length", lambda cut: 1)
    lengths = _spy_tangent_lengths(monkeypatch)
    assert [A._zeta_em(s, a, cfg.digits).as_tuple() for s, a in cases] == want
    assert [A.digamma(a, cfg).as_tuple() for a in (F(1), F(2, 7))] == want_psi
    assert A._em_coeffs.cache_info().misses >= 5
    # one tangent table per miss, each as long as the table asked for: 1, 4, 10, 22, ...
    assert len(lengths) == A._em_coeffs.cache_info().misses
    assert lengths[:4] == [1, 4, 10, 22]


def test_a_precision_step_builds_each_table_once(monkeypatch):
    # the numeric_hp sequence, 512 then 640 bits: one tangent table per
    # precision, as long as its Euler-Maclaurin loop asks for and no longer
    lengths = _spy_tangent_lengths(monkeypatch)
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    monkeypatch.setattr(A, "_CONST_CACHE", Memo(A.CACHE_CAP))
    _fresh_table(monkeypatch)
    params = HsuShiueParams(F(1, 2), F(5, 2), F(-3, 4))
    for bits in (512, 640):
        cfg = A.EvalConfig(bits)
        assert A.eval_theorem5(params, 3, F(1, 2), cfg).status == "pass"
        assert A.eval_eq30_family(3, cfg).status == "pass"
    assert lengths == [115, 141]


def test_perturbed_bernoulli_entry_is_detected(monkeypatch):
    # negative control: one tangent number off by one must move zeta(2)
    # beyond the tolerance, so the mpmath comparisons above can fail
    mpmath = pytest.importorskip("mpmath")
    cfg = A.EvalConfig(256)
    tangent_numbers = A._tangent_numbers

    def perturbed(m):
        t = tangent_numbers(m)
        t[10] += 1  # T_10, so B_20
        return t

    def error():
        with mpmath.workdps(cfg.digits + 20):
            return abs(mpmath.mpf(str(A.hurwitz_zeta(2, 1, cfg))) - mpmath.zeta(2))

    tolerance = mpmath.mpf(cfg.tolerance.numerator) / cfg.tolerance.denominator
    assert error() < tolerance
    monkeypatch.setattr(A, "_tangent_numbers", perturbed)
    monkeypatch.setattr(A, "_em_coeffs", Memo(A.CACHE_CAP).prefix(A._em_coeffs.__wrapped__))
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    assert error() > tolerance


# ---------------------------------------------------------------------------
# Borwein's zeta: an oracle that shares no code with analytic
# ---------------------------------------------------------------------------


def _borwein_d(n):
    """d_0..d_n, d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), all integers."""
    term, total, out = F(1), F(0), []
    for i in range(n + 1):
        total += term
        assert total.denominator == 1
        out.append(total.numerator)
        term *= F(2 * (n + i) * (n - i), (2 * i + 1) * (i + 1))
    return out


def _borwein_zeta(s, d, digits):
    """zeta(s), s >= 2 (Borwein 1991, algorithm 2) rounded to digits; with n
    = len(d) - 1 its error is below 3 / (3 + sqrt 8)^n / (1 - 2^(1-s))."""
    n = len(d) - 1
    with localcontext() as ctx:
        ctx.prec = digits + 20
        acc = Decimal(0)
        for k in range(n):
            term = Decimal(d[k] - d[n]) / Decimal(k + 1) ** s
            acc += term if k % 2 == 0 else -term
        out = -acc / (Decimal(d[n]) * (1 - Decimal(2) ** (1 - s)))
        ctx.prec = digits
        return +out


@pytest.mark.parametrize("bits", [256, 1024])
def test_zeta_against_borwein_oracle(bits):
    cfg = A.EvalConfig(bits)
    # 3 / (3 + sqrt 8)^n * 2 (s >= 2) below 10^-(digits + 1)
    n = ceil((cfg.digits + 1 + log10(6)) / log10(3 + sqrt(8)))
    d = _borwein_d(n)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        bound = 2 * Decimal(10) ** -(cfg.digits - 5)  # analytic's target plus Borwein's
        for s in range(2, 61):
            diff = abs(A.zeta_int(s, cfg) - _borwein_zeta(s, d, cfg.digits + 10))
            assert diff < bound, (s, diff)


# ---------------------------------------------------------------------------
# The series sides' table zeta(2..S)
# ---------------------------------------------------------------------------

# S, the first s whose direct cut is 1, where the table ends
TABLE_END = {64: 149, 128: 212, 256: 341, 512: 597, 640: 723, 1024: 1109}


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 640, 1024])
def test_zeta_batch_equals_hurwitz_zeta(bits):
    # the odd s of the Euler-Maclaurin range, every s of the direct cut down
    # to J = 1 and, past its end S, the last entry the series sides repeat:
    # zeta_int gives that same Decimal for every s > S.  The even s below
    # the direct switch take the tangent route, which rounds differently
    cfg = A.EvalConfig(bits)
    table = A._zeta_table(cfg.digits)
    assert table[:2] == (None, None) and len(table) == TABLE_END[bits] + 1
    switch = _em_range(cfg.digits).stop
    zetas = A._series_zetas(cfg.digits)
    for s in range(2, TABLE_END[bits] + 4):
        zeta = next(zetas)
        if s % 2 or s >= switch:
            assert zeta.as_tuple() == A.zeta_int(s, cfg).as_tuple(), s


@pytest.mark.parametrize("bits", [64, 128, 192, 256, 512, 640, 1024])
def test_even_entries_within_half_an_ulp_of_mpmath(bits):
    # the bound of _zeta_table: half an ulp of the entry plus 2 s 10^-(digits+4)
    mpmath = pytest.importorskip("mpmath")
    digits = A.EvalConfig(bits).digits
    table = A._zeta_table(digits)
    with mpmath.workdps(digits + 30):
        for s in range(2, len(table), 2):
            ulp = mpmath.mpf(10) ** table[s].as_tuple().exponent
            bound = ulp / 2 + 2 * s * mpmath.mpf(10) ** -(digits + 4)
            err = abs(mpmath.mpf(str(table[s])) - mpmath.zeta(s))
            assert err <= bound, (s, mpmath.nstr(err / ulp, 5))


def _spy_em_sources(monkeypatch, spoil=False):
    """Record the Euler-Maclaurin rows and cuts, in the order they run.

    ("row", s) for each row `_em_terms` starts, ("cut", source, ok) for each
    `_em_cut`, source "row" or "column" (the table's carried terms).  With
    ``spoil`` the third carried term is scaled by 10^6, so every carried
    column fails the growth test.
    """
    events, last_row = [], [None]
    em_terms, em_cut = A._em_terms, A._em_cut

    def row(s, *args):
        events.append(("row", s))
        last_row[0] = em_terms(s, *args)
        return last_row[0]

    def cut(terms, digits):
        source = "row" if terms is last_row[0] else "column"
        if spoil and source == "column":
            terms = (term * 10**6 if m == 3 else term for m, term in enumerate(terms, 1))
        read = em_cut(terms, digits)
        events.append(("cut", source, read is not None))
        return read

    monkeypatch.setattr(A, "_em_terms", row)
    monkeypatch.setattr(A, "_em_cut", cut)
    return events


def _em_range(digits):
    """The s of the table's Euler-Maclaurin range, 2 up to the direct switch."""
    n_cut, thr_den = A._asymptotic_cut(digits), 4 * 10 ** (digits + 9)
    return range(2, next(s for s in count(2) if A._tail_below(s, n_cut, (1 + n_cut) ** s, thr_den)))


def _assert_odd_entries_are_zeta_int(table, cfg):
    for s in range(3, len(table), 2):
        assert table[s].as_tuple() == A.zeta_int(s, cfg).as_tuple(), s


def test_zeta_batch_doubles_n_through_zeta_em(monkeypatch):
    # a cut of 2 makes the corrections bottom out at small odd s: those
    # values come from _zeta_em, which doubles N, and still match
    # hurwitz_zeta; the first odd s whose row converges at N = 2 seeds the
    # carried column
    monkeypatch.setattr(A, "_asymptotic_cut", lambda digits: 2)
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    _fresh_table(monkeypatch)
    calls = []
    zeta_em = A._zeta_em
    monkeypatch.setattr(A, "_zeta_em",
                        lambda s, a, digits: calls.append(s) or zeta_em(s, a, digits))
    cfg = A.EvalConfig(128)
    events = _spy_em_sources(monkeypatch)
    table = A._zeta_table(cfg.digits)
    assert calls and all(s % 2 for s in calls)  # the fallback ran, at odd s alone
    assert ("cut", "column", True) in events  # and the column after it
    for s in range(3, len(table), 2):
        assert table[s].as_tuple() == A.hurwitz_zeta(s, 1, cfg).as_tuple(), s


def test_zeta_table_builds_the_row_only_to_seed_the_column(monkeypatch):
    # at 512 bits every odd s of the Euler-Maclaurin range after s = 3
    # reads the column carried from s - 2: one row in all, no restart, and
    # one cut per odd s, so none at an even s
    digits = A.EvalConfig(512).digits
    odd = [s for s in _em_range(digits) if s % 2]
    assert len(odd) > 40
    events = _spy_em_sources(monkeypatch)
    A._zeta_table.__wrapped__(digits)
    assert events == ([("row", 3), ("cut", "row", True)]
                      + [("cut", "column", True)] * (len(odd) - 1))


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_even_entries_read_no_euler_maclaurin(monkeypatch, bits):
    # rows start at odd s alone, and the odd s take one successful cut
    # each, so no even s builds a row or cuts a carried column; with every
    # cut spoiled and the fallback refused, the even entries below the
    # direct switch are still the same Decimals
    digits = A.EvalConfig(bits).digits
    want = A._zeta_table.__wrapped__(digits)
    odd = [s for s in _em_range(digits) if s % 2]
    events = _spy_em_sources(monkeypatch)
    A._zeta_table.__wrapped__(digits)
    assert {event[1] for event in events if event[0] == "row"} <= set(odd)
    assert sum(event[0] == "cut" and event[2] for event in events) == len(odd)
    monkeypatch.setattr(A, "_em_cut", lambda terms, digits: [Decimal(1)] * 3)
    monkeypatch.setattr(A, "_zeta_em", lambda *args: pytest.fail("fallback ran"))
    spoiled = A._zeta_table.__wrapped__(digits)
    for s in _em_range(digits):
        assert (spoiled[s] == want[s]) == (s % 2 == 0), s


@pytest.mark.parametrize("bits", [140, 183])
def test_zeta_table_restarts_when_the_column_runs_out(monkeypatch, bits):
    # at a cut N below _asymptotic_cut's (27 and 32 at these precisions)
    # zeta(5) needs more terms than zeta(3) read, so its carried column
    # runs out and the row is built again at s = 5; at the usual cut no
    # precision from 64 to 4096 bits restarts
    n_cut = {140: 20, 183: 24}[bits]
    monkeypatch.setattr(A, "_asymptotic_cut", lambda digits: n_cut)
    monkeypatch.setattr(A, "_ZETA_CACHE", Memo(A.CACHE_CAP))
    cfg = A.EvalConfig(bits)
    events = _spy_em_sources(monkeypatch)
    table = A._zeta_table.__wrapped__(cfg.digits)
    rows = [i for i, event in enumerate(events) if event[0] == "row"]
    assert [events[i][1] for i in rows] == [3, 5]
    assert events[rows[1] - 1] == ("cut", "column", False)
    assert events[rows[1] + 1] == ("cut", "row", True)
    _assert_odd_entries_are_zeta_int(table, cfg)


def test_zeta_table_restarts_when_the_column_grows(monkeypatch):
    # every carried column spoiled: each odd s builds its row again, as
    # long as the rows read three terms or more (the growth test starts at
    # m = 3)
    cfg = A.EvalConfig(128)
    events = _spy_em_sources(monkeypatch, spoil=True)
    table = A._zeta_table.__wrapped__(cfg.digits)
    rows = [i for i, event in enumerate(events) if event[0] == "row"]
    assert [events[i][1] for i in rows[:15]] == list(range(3, 33, 2))
    assert all(events[i - 1] == ("cut", "column", False) for i in rows[1:])
    _assert_odd_entries_are_zeta_int(table, cfg)


def test_table_and_pi_share_one_arctangent_run(monkeypatch):
    # the table's pi at digits + 10 is the one pi(cfg) rounds: one pair of
    # arctangent series per precision for both
    calls = []
    arctan_inv = A._arctan_inv
    monkeypatch.setattr(A, "_arctan_inv", lambda m, digits: calls.append(m) or arctan_inv(m, digits))
    monkeypatch.setattr(A, "_machin", Memo(A.CACHE_CAP)(A._machin.__wrapped__))
    monkeypatch.setattr(A, "_CONST_CACHE", Memo(A.CACHE_CAP))
    _fresh_table(monkeypatch)
    cfg = A.EvalConfig(512)
    A._zeta_table(cfg.digits)
    assert A.eval_eq17_18(3, HsuShiueParams(F(1, 2), 2, 1), cfg).status == "pass"
    assert calls == [5, 239]


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_direct_summation_starts_where_it_is_proven(monkeypatch, bits):
    # Euler-Maclaurin ends at the first s0 whose tail bound at the cut N is
    # below a quarter ulp, the direct walk starts from J = N there, and the
    # table ends at the first s whose bound at J = 1 holds
    digits = A.EvalConfig(bits).digits
    n_cut, thr_den = A._asymptotic_cut(digits), 4 * 10 ** (digits + 9)
    calls = []
    tail_below = A._tail_below
    def spy(s, cut, power, den):
        assert power == (1 + cut) ** s  # the carried power
        calls.append((s, cut))
        return tail_below(s, cut, power, den)

    monkeypatch.setattr(A, "_tail_below", spy)
    table = A._zeta_table.__wrapped__(digits)

    def below(s, cut):
        return tail_below(s, cut, (1 + cut) ** s, thr_den)

    s0 = next(s for s, cut in calls if below(s, n_cut))
    assert calls[: s0 - 1] == [(s, n_cut) for s in range(2, s0 + 1)]
    assert calls[s0 - 1] == (s0, n_cut - 1)
    end = len(table) - 1
    assert below(end, 1) and not below(end - 1, 1)
    assert calls[-1][0] == end


@pytest.mark.parametrize("bits", [512, 640])
def test_series_sides_build_one_batch_per_precision(monkeypatch, bits):
    # one table per precision, whatever stop index each series reaches
    _fresh_table(monkeypatch)
    cfg = A.EvalConfig(bits)
    params = HsuShiueParams(F(1, 2), F(5, 2), F(-3, 4))
    for x in (F(1, 2), F(-1, 2)):
        assert A.eval_theorem5(params, 3, x, cfg).status == "pass"
    for n in (3, 4):
        assert A.eval_eq30_family(n, cfg).status == "pass"
    assert A._zeta_table.cache_info().misses == 1
    assert A._zeta_table.cache_info().hits == 3


def test_a_stop_index_past_the_table_reads_its_last_entry(monkeypatch):
    # negative control of the repeat: at 64 bits theorem 5 at x = 9/10
    # stops past S, and moving only the table's last entry fails it
    cfg = A.EvalConfig(64)
    params = HsuShiueParams(F(1, 2), 2, 1)
    end = TABLE_END[64]
    a, b, d = A._poly_bound_base(params, 3)
    last = A._stop_index(lambda j: (2 * (a + b * j) ** 3 * 9**j, d**3 * 10**j), 1, cfg)
    assert last + 1 > end  # the last term reads zeta(last + 1)
    assert A.eval_theorem5(params, 3, F(9, 10), cfg).status == "pass"
    table = A._zeta_table(cfg.digits)
    assert len(table) == end + 1
    bumped = table[:-1] + (table[-1] + A._dec(F(1, 2**24)),)  # 2^(40 - bits)
    monkeypatch.setattr(A, "_zeta_table", lambda digits: bumped)
    assert A.eval_theorem5(params, 3, F(9, 10), cfg).status == "fail"


def _holds_config(key):
    if isinstance(key, A.EvalConfig):
        return True
    return isinstance(key, tuple) and any(_holds_config(part) for part in key)


def test_every_numeric_cache_keys_on_digits(monkeypatch):
    # 256 and 257 bits both run at 93 digits, so they share one table, and
    # no cache reachable from analytic keeps a whole EvalConfig in its keys
    _fresh_table(monkeypatch)
    for bits in (256, 257):
        cfg = A.EvalConfig(bits)
        assert cfg.digits == 93
        A.eval_theorem5(HsuShiueParams(F(1, 2), 2, 1), 3, F(1, 2), cfg)
        A.eval_eq30_family(2, cfg)
    assert list(A._zeta_table.cache_info.__self__) == [(93,)]
    memos = [value for value in vars(A).values() if isinstance(value, Memo)]
    memos += [value.cache_info.__self__ for value in vars(A).values()
              if isinstance(getattr(getattr(value, "cache_info", None), "__self__", None), Memo)]
    assert len(memos) >= 5  # the two caches, the coefficients, the zeta table, cached_table
    for memo in memos:
        assert not any(_holds_config(key) for key in memo)


@pytest.mark.parametrize("bits", [256, 1024])
def test_zeta_batch_against_borwein_oracle(bits):
    cfg = A.EvalConfig(bits)
    n = ceil((cfg.digits + 1 + log10(6)) / log10(3 + sqrt(8)))  # as above
    d = _borwein_d(n)
    table = A._zeta_table(cfg.digits)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        bound = 2 * Decimal(10) ** -(cfg.digits - 5)
        for s in range(2, 201):
            diff = abs(table[s] - _borwein_zeta(s, d, cfg.digits + 10))
            assert diff < bound, (s, diff)


# Term streams k = start..40 at 256 bits: alpha = 0, r = 0, negative x and
# zero coefficients (r = 0 at k = 0) all occur.
STREAM_TRIPLES = [
    HsuShiueParams(F(1, 2), 2, 1),
    HsuShiueParams(0, F(3, 2), F(-1, 3)),
    HsuShiueParams(F(1, 3), F(1, 2), 0),
    HsuShiueParams(F(-2, 5), F(7, 3), F(5, 4)),
]
STREAM_X = [F(1, 2), F(-2, 5), F(-3, 7), F(1, 9)]


def _stream(monkeypatch, call):
    """The terms the series side hands to _sum_to_tolerance, up to index 40."""
    seen = []

    def spy(terms, majorant, start, cfg):
        seen.append([None if t is None else str(t) for t in islice(terms, 41 - start)])
        return Decimal(0)

    monkeypatch.setattr(A, "_sum_to_tolerance", spy)
    call()
    (terms,) = seen
    return terms


def _ratio(coeff, zeta=None):
    # the parent's expressions: (zeta * num) / den, or num / den rounded once
    if not coeff:
        return None
    num = Decimal(coeff.numerator) if zeta is None else zeta * Decimal(coeff.numerator)
    return num / Decimal(coeff.denominator)


def _theorem5_reference(p, n, x, cfg):
    zetas = A._zeta_table(cfg.digits)
    coeffs = (gen_factorial(p.r + k * p.beta, p.alpha, n) * x**k for k in range(1, 41))
    return [_ratio(c, zetas[k]) for k, c in enumerate(coeffs, 2)]


def _eq30_reference(n, cfg):
    zetas = A._zeta_table(cfg.digits)
    return [_ratio(F(k**n, 2**k), zetas[k]) for k in range(2, 41)]


def _eq17_18_reference(p, n, odd, cfg):
    two_pi_sq, pi_pow, out = 4 * A.pi(cfg) ** 2, Decimal(1), []
    for k in range(41):
        idx = 2 * k + odd
        coeff = gen_factorial(idx * p.beta + p.r, p.alpha, n) * F((-1) ** k, factorial(idx))
        out.append(_ratio(coeff) * pi_pow if coeff else None)
        pi_pow *= two_pi_sq
    return out


def _dobinski_reference(p, n, x, cfg):
    return [_ratio(gen_factorial(k * p.beta + p.r, p.alpha, n) * x**k / (p.beta**k * factorial(k)))
            for k in range(41)]


@pytest.mark.parametrize("case", range(len(STREAM_TRIPLES)))
def test_term_streams_equal_the_fraction_expressions(monkeypatch, case):
    cfg = A.EvalConfig(256)
    p, x, n = STREAM_TRIPLES[case], STREAM_X[case], 3 + case
    # EQ30 at n = 0 and n >= 3, where k = 8 = 2^3 has its shift min(3n, k)
    # capped at k; from n = 8 on an unreduced k^n / 2^k rounds some term
    # below k = 40 differently
    assert 3 * n >= 8
    runs = [
        (lambda: A.eval_theorem5(p, n, x, cfg), lambda: _theorem5_reference(p, n, x, cfg)),
        (lambda: A.eval_eq30_family(0, cfg), lambda: _eq30_reference(0, cfg)),
        (lambda: A.eval_eq30_family(n, cfg), lambda: _eq30_reference(n, cfg)),
        (lambda: A.eval_eq30_family(n + 6, cfg), lambda: _eq30_reference(n + 6, cfg)),
        (lambda: A.eval_eq17_18(n, p, cfg, eq=17), lambda: _eq17_18_reference(p, n, 0, cfg)),
        (lambda: A.eval_eq17_18(n, p, cfg, eq=18), lambda: _eq17_18_reference(p, n, 1, cfg)),
        (lambda: A.eval_dobinski_numeric(n, p, x, cfg), lambda: _dobinski_reference(p, n, x, cfg)),
    ]
    for call, reference in runs:
        terms = _stream(monkeypatch, call)
        with localcontext() as ctx:
            ctx.prec = cfg.digits + 10  # the context the series sides sum in
            expected = [None if t is None else str(t) for t in reference()]
        assert len(terms) in (39, 40, 41) and terms == expected
    assert None in _stream(monkeypatch, lambda: A.eval_eq17_18(n, STREAM_TRIPLES[2], cfg))


def test_term_streams_do_not_read_the_table():
    # the series sides stay independent of the Stirling table the closed sides read
    tree = ast.parse(inspect.getsource(A))
    streams = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name in ("terms", "_scaled_factorials")]
    assert len(streams) == 5  # four eval_* series and the shared factorial stream
    for node in streams:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not names & {"cached_table", "build_table", "table"}, node.lineno
