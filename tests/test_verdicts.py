"""The two verdict rules, and negative controls that show each check can fail.

`CheckReport.compare_each` reaches every exact scan's verdict and
`analytic._sum_to_tolerance` sums every numeric series; the witness gate
pins the bytes of the failure witnesses those paths write.

Each record's ``closed`` name, moved by 1/7, must fail every report in both
profiles, or keep an expected-fail id confirmed (+1 would add exactly the
printed COR5 form's error of 1/2 at its witness).  EQ18 at n = 0 has an empty
closed sum and is asserted, not skipped.  Three tables stay: NEGATIVE_CONTROLS
feeds the witness gate, NUMERIC_CONTROLS shifts by 2^8 tolerances at 64 and
256 bits, and TABLE_CONTROLS moves the series side.
"""

import hashlib
import importlib
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import count, zip_longest
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly import analytic, families, mellin, stirling
from geopoly import identities as I
from geopoly.analytic import EvalConfig
from geopoly.memo import CACHE_CAP, Memo
from geopoly.params import HsuShiueParams
from geopoly.polynomials import PolyQ
from geopoly.report import CheckReport


# ---------------------------------------------------------------------------
# compare_each
# ---------------------------------------------------------------------------


def test_compare_each_all_equal_passes():
    rpt = CheckReport(id="T").compare_each(((k, F(k, 3), F(2 * k, 6)) for k in range(5)), "{}")
    assert rpt.status == "pass"
    assert rpt.witness is None


def test_compare_each_first_mismatch_wins():
    cases = [(0, 1, 1), (1, 2, 3), (2, 5, 7)]
    rpt = CheckReport(id="T").compare_each(cases, "[x^{}]: {} != {}")
    assert rpt.status == "fail"
    assert rpt.witness == "[x^1]: 2 != 3"


def test_compare_each_is_lazy():
    def cases():
        yield 0, F(1), F(1)
        yield 1, F(1, 2), F(1, 3)
        raise AssertionError("a case past the first mismatch was built")

    rpt = CheckReport(id="T").compare_each(cases(), "{}: {} != {}")
    assert rpt.witness == "1: 1/2 != 1/3"


def test_compare_each_label_fields_in_witness():
    cases = [("B", 4, 2, 0, F(-1, 30), F(1, 30))]
    rpt = CheckReport(id="T").compare_each(cases, "{}_{} at ({}, {}): {} != {}")
    assert rpt.witness == "B_4 at (2, 0): -1/30 != 1/30"


def test_compare_each_shorter_side_ends_scan():
    lhs = (F(1), F(2))
    rhs = (F(1), F(2), F(9))
    rpt = CheckReport(id="T").compare_each(zip(range(9), lhs, rhs), "{}: {} != {}")
    assert rpt.status == "pass"


def test_compare_is_one_case_of_compare_each():
    a = CheckReport(id="T").compare(F(1, 2), F(1, 3), "lhs {} != rhs {}")
    b = CheckReport(id="T").compare_each([(F(1, 2), F(1, 3))], "lhs {} != rhs {}")
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# _sum_to_tolerance
# ---------------------------------------------------------------------------

# Majorants are integer pairs (num, den), den > 0, in no particular terms.


def _counted(terms, log):
    """``terms``, logging every term `_sum_to_tolerance` builds."""
    for term in terms:
        log.append(term)
        yield term


@pytest.mark.parametrize("bits", [64, 128])
def test_sum_to_tolerance_consumes_the_derived_cut(bits):
    # M(j) = 2^-j has ratio 1/2, so the tail after term k is at most 2^-k;
    # tolerance/4 = 2^-(bits-30), and the first k with 2^-k below it is bits-29
    cfg = EvalConfig(bits)
    cut = bits - 29
    log = []
    terms = (Decimal(1) / Decimal(2) ** k for k in range(10**6))
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        total = analytic._sum_to_tolerance(_counted(terms, log), lambda j: (1, 2**j), 0, cfg)
        assert total == sum(Decimal(1) / Decimal(2) ** k for k in range(cut + 1))
    assert len(log) == cut + 1


def test_sum_to_tolerance_zero_majorant_stops():
    cfg = EvalConfig(64)
    log = []
    terms = (Decimal(k + 1) for k in range(100))
    total = analytic._sum_to_tolerance(
        _counted(terms, log), lambda j: (0, 1) if j >= 3 else (1, 1), 0, cfg
    )
    assert (total, len(log)) == (Decimal(6), 3)  # terms 0, 1, 2; M(3) = 0
    log.clear()
    terms = (Decimal(k + 1) for k in range(100))
    total = analytic._sum_to_tolerance(_counted(terms, log), lambda j: (0, 7), 5, cfg)
    assert (total, len(log)) == (Decimal(1), 1)


def test_sum_to_tolerance_past_max_terms_raises():
    cfg = EvalConfig(64)
    log = []
    terms = (Decimal(1) for _ in range(100))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "MAX_TERMS", 10)
        with pytest.raises(ArithmeticError, match="tail bound not reached within max_terms"):
            analytic._sum_to_tolerance(_counted(terms, log), lambda j: (3, 3), 2, cfg)
    assert len(log) == 9  # term indices 2..10; index 11 is never built


def test_sum_to_tolerance_none_terms_keep_the_exponent():
    cfg = EvalConfig(64)
    half = [Decimal("0.5")]
    stop = lambda j: (0, 1) if j >= 3 else (1, 1)  # noqa: E731
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        plain = analytic._sum_to_tolerance(half + [Decimal(0)] * 5, stop, 0, cfg)
        skipped = analytic._sum_to_tolerance(half + [None] * 5, stop, 0, cfg)
        padded = analytic._sum_to_tolerance(half + [Decimal("0E-40")] * 5, stop, 0, cfg)
    assert skipped.as_tuple() == plain.as_tuple() == Decimal("0.5").as_tuple()
    assert padded.as_tuple() != skipped.as_tuple()  # an added zero can move it


def _linear_stop(majorant, start, cfg, max_terms):
    # the stopping rule tested at every index in turn, in Fractions, as a reference
    quarter_tol = cfg.tolerance / 4
    for k in range(start, max_terms + 1):
        bound = F(*majorant(k + 1))
        if not bound:
            return k
        ratio = F(*majorant(k + 2)) / bound
        if ratio < 1 and bound / (1 - ratio) < quarter_tol:
            return k
    return None


def _majorant(kind, a, b, n, x):
    """(a + b j)^n x^j, as eval_theorem5 and eval_eq30_family, or that over
    j!, as eval_dobinski_numeric: a pair over (den(a) den(b))^n den(x)^j,
    which need not be in lowest terms."""
    base_a, base_b = a.numerator * b.denominator, b.numerator * a.denominator
    base_den = (a.denominator * b.denominator) ** n

    def pair(j):
        num = (base_a + base_b * j) ** n * x.numerator**j
        den = base_den * x.denominator**j
        return num, den * factorial(j) if kind == "factorial" else den

    return pair


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["geometric", "factorial"]),
    a=st.fractions(0, 4, max_denominator=4),
    b=st.fractions(0, 3, max_denominator=4),
    n=st.integers(0, 5),
    x=st.fractions(F(1, 16), F(15, 16), max_denominator=16),
    start=st.integers(0, 3),
    bits=st.sampled_from([64, 128]),
    max_terms=st.integers(0, 300),
    factors=st.lists(st.integers(1, 2**80), min_size=1, max_size=7),
)
@example(kind="geometric", a=F(2), b=F(1), n=3, x=F(1, 2), start=1, bits=128, max_terms=40,
         factors=[1])
@example(kind="geometric", a=F(2), b=F(1), n=3, x=F(1, 2), start=1, bits=128, max_terms=300,
         factors=[3, 2**70])
@example(kind="factorial", a=F(1), b=F(3), n=4, x=F(15, 16), start=0, bits=64, max_terms=10,
         factors=[1])
@example(kind="factorial", a=F(1), b=F(3), n=4, x=F(15, 16), start=0, bits=64, max_terms=300,
         factors=[1, 6, 5])
def test_stop_index_is_the_first_stop_of_a_linear_scan(kind, a, b, n, x, start, bits, max_terms,
                                                      factors):
    majorant = _majorant(kind, a, b, n, x)

    def scaled(j):
        # the rule is homogeneous in each pair, so scaling the pair of index
        # j by any positive integer, here factors[j % len(factors)], keeps the index
        c = factors[j % len(factors)]
        num, den = majorant(j)
        return c * num, c * den

    cfg = EvalConfig(bits)
    with pytest.MonkeyPatch.context() as mp:  # not a fixture: each example restores it
        mp.setattr(analytic, "MAX_TERMS", max_terms)
        last = analytic._stop_index(majorant, start, cfg)
        assert last == _linear_stop(majorant, start, cfg, max_terms)
        assert analytic._stop_index(scaled, start, cfg) == last
        log = []
        terms = (Decimal(k) for k in count(start))
        if last is None:  # every term through max_terms is built, then the error
            with pytest.raises(ArithmeticError, match="tail bound not reached"):
                analytic._sum_to_tolerance(_counted(terms, log), majorant, start, cfg)
            assert log == [Decimal(k) for k in range(start, max_terms + 1)]
        else:
            total = analytic._sum_to_tolerance(_counted(terms, log), majorant, start, cfg)
            assert log == [Decimal(k) for k in range(start, last + 1)]
            assert total == sum(log, Decimal(0))
    assert analytic.MAX_TERMS == 10000


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_stop_index_evaluates_each_majorant_index_once(bits):
    evaluated = []
    for kind, a, b, n, x in (("geometric", F(2), F(1), 3, F(1, 2)), ("factorial", F(1), F(3), 4, F(15, 16))):
        majorant = _majorant(kind, a, b, n, x)
        evaluated.clear()
        last = analytic._stop_index(lambda j: evaluated.append(j) or majorant(j), 0, EvalConfig(bits))
        assert last == _linear_stop(majorant, 0, EvalConfig(bits), analytic.MAX_TERMS)
        assert sorted(evaluated) == sorted(set(evaluated))


# ---------------------------------------------------------------------------
# Negative controls: perturb one side, the check must fail with its witness
# ---------------------------------------------------------------------------


def _add(value, delta):
    """``value + delta``; PolyQ has no ``+``, so two of them add coefficientwise."""
    if isinstance(value, PolyQ):
        return PolyQ.from_coeffs(map(sum, zip_longest(value.coeffs, delta.coeffs, fillvalue=0)))
    return value + delta


def _plus(old, delta):
    return lambda *args: _add(old(*args), delta)


def _bump_cell(old, n0, k0):
    def table(params, n_max):
        t = old(params, n_max)
        return t.with_entry(n0, k0, t.value(n0, k0) + 1) if n0 <= n_max else t

    return table


def _bump_bernoulli(old, n0):
    return lambda n: old(n) + (n == n0)


def _bump_euler(old, n0):
    def values(s, alpha, r, n_max):
        vals = old(s, alpha, r, n_max)
        return vals[:-1] + (vals[-1] + F(1, 2),) if n_max == n0 else vals

    return values


ONE = PolyQ.from_coeffs([1])
CUBIC = PolyQ.from_coeffs([0, 0, 0, F(2, 5)])
TRIPLE = HsuShiueParams(F(1, 2), 3, -2)

# id -> (module, attribute, wrapper of the original, check, witness prefix)
NEGATIVE_CONTROLS = {
    "EQ1": (mellin, "cached_table", lambda old: _bump_cell(old, 2, 0),
            lambda: mellin.verify_eq1_poly(2, PolyQ.from_coeffs([1, F(-2, 3), 0, 5]), TRIPLE),
            "x^0: operator "),
    "EQ4_OPERATOR": (mellin, "geometric_poly", lambda old: _plus(old, ONE),
                     lambda: I.run("EQ4_OPERATOR", seed=1, samples=2, profile="quick"),
                     "[x^0]: operator "),
    "EQ5": (mellin, "geometric_poly", lambda old: _plus(old, CUBIC),
            lambda: mellin.verify_series_identity("eq5", 3, 2, TRIPLE, 10),
            "[x^3]: termwise "),
    "EQ21": (mellin, "geometric_poly", lambda old: _plus(old, ONE),
             lambda: I.run("EQ21", seed=1, samples=2, profile="quick"),
             "[x^0]: termwise "),
    "EQ38": (mellin, "geometric_poly", lambda old: _plus(old, ONE),
             lambda: I.run("EQ38", seed=1, samples=2, profile="quick"),
             "[x^0]: termwise "),
    "EQ15": (mellin, "exp_poly", lambda old: _plus(old, CUBIC),
             lambda: mellin.verify_eq15(2, TRIPLE, 8),
             "[x^3]: operator "),
    "EQ16_EXACT": (families, "exp_poly", lambda old: _plus(old, ONE),
                   lambda: I.run("EQ16_EXACT", seed=1, samples=2, profile="quick"),
                   "[x^0]: "),
    "EQ14_B": (families, "bernoulli_number", lambda old: _bump_bernoulli(old, 7),
               lambda: I.run("EQ14", seed=1, samples=1, profile="quick"),
               "B_7: sum "),
    "EQ14_E": (families, "_degenerate_euler_values", lambda old: _bump_euler(old, 5),
               lambda: families.check_eq14(20),
               "E_5(0): sum "),
}


def _perturbed_reports(monkeypatch, name):
    module, attr, wrap, check, _ = NEGATIVE_CONTROLS[name]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    out = check()
    return out if isinstance(out, list) else [out]


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_fails_with_witness(monkeypatch, name):
    check, prefix = NEGATIVE_CONTROLS[name][3:]
    before = check()
    assert all(r.status == "pass" for r in (before if isinstance(before, list) else [before]))
    for rpt in _perturbed_reports(monkeypatch, name):
        assert rpt.status == "fail"
        assert rpt.witness.startswith(prefix)


def _plus_a_seventh(value):
    """``value`` + 1/7 in its own type; a table moves every cell of its last row."""
    if isinstance(value, stirling.StirlingTable):
        for k in range(value.n_max + 1):
            value = value.with_entry(value.n_max, k, value.value(value.n_max, k) + F(1, 7))
        return value
    if isinstance(value, list):  # families.geometric_rows: (numerator, denominator) pairs
        return [(7 * num + den, 7 * den) for num, den in value]
    seventh = {Decimal: analytic._dec(F(1, 7)), PolyQ: PolyQ.from_coeffs([F(1, 7)])}
    return _add(value, seventh.get(type(value), F(1, 7)))


@pytest.mark.parametrize("profile", sorted(I.PROFILES))
@pytest.mark.parametrize("record", I.REGISTRY, ids=lambda record: record.id)
def test_moving_the_closed_side_fails_every_report(monkeypatch, record, profile):
    module_name, attr = record.closed.split(".")
    module = importlib.import_module(f"geopoly.{module_name}")
    closed = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: _plus_a_seventh(closed(*a, **k)))
    reports = I.run(record.id, seed=1, samples=4, profile=profile)
    assert reports
    for rpt in reports:
        if record.expected_fail:  # moving a superseded form must not make it pass
            assert rpt.status == "expected_fail_confirmed", rpt.to_dict()
        elif record.id == "EQ18" and rpt.params["n"] == 0:  # an empty closed sum: no S(0, 1)
            assert rpt.status == "pass" and Decimal(rpt.detail["rhs"]) == 0
        else:
            assert rpt.status == "fail", rpt.to_dict()


# Numeric ids: a name only the closed side reads, moved by 2^(40 - bits),
# 2^8 times the tolerance.  Kept apart from NEGATIVE_CONTROLS, whose
# witnesses the gate below hashes and counts.  EQ26 needs (r|alpha)_n != 0,
# and gamma_euler, not digamma: a shift of digamma cancels in
# psi(1 - x) + gamma while gamma = -psi(1) is computed afresh.
NUMERIC_CONTROLS = {
    "EQ26": ("gamma_euler", analytic._dec,
             lambda cfg: analytic.eval_theorem5(HsuShiueParams(F(1, 2), 2, 3), 2, F(1, 2), cfg)),
    "EQ30_FAMILY": ("log2", analytic._dec,
                    lambda cfg: analytic.eval_eq30_family(2, cfg)),
    "EQ16_NUMERIC": ("exp_poly", lambda c: PolyQ.from_coeffs([c]),
                     lambda cfg: analytic.eval_dobinski_numeric(3, HsuShiueParams(0, 1, 0), 1, cfg)),
}


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("rid", sorted(NUMERIC_CONTROLS))
def test_numeric_closed_side_perturbation_fails(monkeypatch, rid, bits):
    attr, shift, check = NUMERIC_CONTROLS[rid]
    cfg = EvalConfig(bits)
    assert check(cfg).status == "pass"
    delta = shift(F(1, 2 ** (bits - 40)))
    monkeypatch.setattr(analytic, attr, _plus(getattr(analytic, attr), delta))
    rpt = check(cfg)
    assert rpt.id == rid
    assert rpt.status == "fail", rpt.to_dict()


# The series sides of EQ26 and EQ30 read zeta(k) from analytic._zeta_table
# alone: one entry moved by 2^(40 - bits) must fail both checks.  Kept out
# of NEGATIVE_CONTROLS as NUMERIC_CONTROLS are.
TABLE_CONTROLS = {
    "EQ26": lambda cfg: analytic.eval_theorem5(HsuShiueParams(F(1, 2), 2, 3), 2, F(1, 2), cfg),
    "EQ30_FAMILY": lambda cfg: analytic.eval_eq30_family(2, cfg),
}


def _bump_table(old, s0, delta):
    def table(digits):
        zetas = old(digits)
        return zetas[:s0] + (zetas[s0] + delta,) + zetas[s0 + 1:]

    return table


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("rid", sorted(TABLE_CONTROLS))
def test_series_batch_perturbation_fails(monkeypatch, rid, bits):
    check = TABLE_CONTROLS[rid]
    cfg = EvalConfig(bits)
    assert check(cfg).status == "pass"
    delta = analytic._dec(F(1, 2 ** (bits - 40)))
    monkeypatch.setattr(analytic, "_zeta_table", _bump_table(analytic._zeta_table, 2, delta))
    rpt = check(cfg)
    assert rpt.id == rid
    assert rpt.status == "fail", rpt.to_dict()


def _hurwitz_calls(monkeypatch):
    calls = []
    hurwitz_zeta = analytic.hurwitz_zeta
    monkeypatch.setattr(analytic, "hurwitz_zeta",
                        lambda s, a, cfg: calls.append((s, a)) or hurwitz_zeta(s, a, cfg))
    return calls


def test_closed_sides_share_no_tail_test_with_the_batch(monkeypatch):
    # the closed sides' zeta and psi run Euler-Maclaurin alone; direct
    # summation, proven by _tail_below, belongs to the series sides' table
    calls = []
    tail_below = analytic._tail_below
    monkeypatch.setattr(analytic, "_tail_below",
                        lambda *args: calls.append(args) or tail_below(*args))
    monkeypatch.setattr(analytic, "_ZETA_CACHE", Memo(CACHE_CAP))
    cfg = EvalConfig(256)
    for a in (F(1), F(1, 2), F(3, 2), F(1, 3), F(5, 4)):
        for s in (2, 150, 600, 1200):
            analytic.hurwitz_zeta(s, a, cfg)
        analytic.digamma(a, cfg)
    assert calls == []
    monkeypatch.setattr(analytic, "_zeta_table", Memo(CACHE_CAP)(analytic._zeta_table.__wrapped__))
    analytic._zeta_table(cfg.digits)
    assert calls


@pytest.mark.parametrize("n", [0, 2, 4])
def test_eq30_series_side_calls_no_hurwitz_zeta(monkeypatch, n):
    calls = _hurwitz_calls(monkeypatch)
    assert analytic.eval_eq30_family(n, EvalConfig(128)).status == "pass"
    assert {a for _, a in calls} <= {1}
    assert {s for s, _ in calls} == set(range(2, n + 2))  # the closed side's zeta(k + 1)


@pytest.mark.parametrize("x", [F(1, 2), F(-1, 3)])
def test_theorem5_series_side_calls_no_hurwitz_zeta(monkeypatch, x):
    calls = _hurwitz_calls(monkeypatch)
    params = HsuShiueParams(F(1, 2), 2, 3)
    assert analytic.eval_theorem5(params, 3, x, EvalConfig(128)).status == "pass"
    assert calls and {a for _, a in calls} == {1 - x}


# ---------------------------------------------------------------------------
# Failure-witness gate
# ---------------------------------------------------------------------------

# sha256 of the witnesses below, taken from the code before compare_each
# existed: the first-mismatch scans must keep their witnesses byte for byte.
FAILURE_WITNESS_SHA256 = "d442562f6a906c4af04ae99f4e2ea5009efc702938c501284ae080859c86bcba"


def _gf_corruption_witnesses():
    out = []
    for triple in (TRIPLE, HsuShiueParams(0, 1, 0), HsuShiueParams(1, 0, 0)):
        table = stirling.build_table(triple, 8)
        for n in range(9):
            for k in range(n + 1):
                bad = table.with_entry(n, k, table.value(n, k) + 1)
                out.append(stirling.verify_against_gf(bad, 8).witness)
    return out


def test_failure_witness_gate():
    witnesses = []
    for name in sorted(NEGATIVE_CONTROLS):
        with pytest.MonkeyPatch.context() as mp:
            witnesses += [r.witness for r in _perturbed_reports(mp, name)]
    witnesses += _gf_corruption_witnesses()
    assert len(witnesses) == 5 + 2 * 4 + 3 * 45
    digest = hashlib.sha256("\n".join(witnesses).encode()).hexdigest()
    assert digest == FAILURE_WITNESS_SHA256
