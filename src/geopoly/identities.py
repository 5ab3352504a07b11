"""Registry of every checkable identity, keyed by stable ids.

Each identity is one `Identity` record in `REGISTRY`: its id, a one-line
description, the name its closed side reads (its control), the function
that yields its reports, and whether it is an expected-fail regression.
`run(id, seed, samples)` draws parameters from a deterministic sampler over
small rationals (|numerator| <= 6, denominator <= 4; degenerate draws are
rejected and redrawn) and hands it to the record; identical (id, seed,
samples) yield byte-identical reports.  Without a sample count an id draws
its profile's ``default_samples``.  A report's id is its record's id: a
check names the form it computes (EQ19 runs `check_gf_matches`, which says
EQ3_VS_GF8) and `run` alone gives each report its record's id, so an id
reports under its own name at any parameters, corners included.  The
sampler of an id is seeded from the record's position, so record order is
seed order: new ids go at the end.  The two *_PRINTED ids are first-class
expected-fail regressions: they run superseded closed forms on fixed
witnesses, and their reports read ``expected_fail_confirmed`` when the
forms fail as they should.  Changing the seed may change witnesses and
parameters but never the pass/fail partition, because every registered
identity is universally quantified over its sampled domain.

Records look up what they call by name at call time, as a module attribute
(``mellin.verify_eq15``) or a global of this module, and never hold the
function object, so a wrapper that rebinds those names (a tracer, a test
double, a negative control that corrupts one side) sees every call.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import analytic, families, mellin
from .analytic import EvalConfig
from .enumeration import barred_preferential_count, ordered_set_partitions_count
from .exact import as_size, falling_factorial, rising_factorial
from .params import HsuShiueParams
from .polynomials import PolyQ
from .report import EXPECTED_FAIL_CONFIRMED, FAIL, PASS, CheckReport
from .stirling import build_table, verify_against_gf


class SmallRationalSampler:
    """64-bit LCG over small rationals; stable across platforms and versions."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = (seed ^ 0x9E3779B97F4A7C15) & self._MASK
        for _ in range(4):  # scramble low-entropy seeds
            self._next()

    def _next(self) -> int:
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return self._state >> 33

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self._next() % (hi - lo + 1)

    def rational(self, nonzero: bool = False) -> Fraction:
        while True:
            value = Fraction(self.int_between(-6, 6), self.int_between(1, 4))
            if value != 0 or not nonzero:
                return value

    def params(self, beta_positive: bool = False) -> HsuShiueParams:
        while True:
            alpha = self.rational()
            beta = self.rational(nonzero=True)
            if beta_positive and beta <= 0:
                continue
            r = self.rational()
            if alpha == 0 and beta == 0 and r == 0:
                continue
            return HsuShiueParams(alpha, beta, r)


# Records here are NamedTuples, not frozen dataclasses: their classes are built
# about seven times faster, and every CLI call builds them at import.
class Profile(NamedTuple):
    bits: int
    table_n: int
    exact_n: int
    series_order: int
    enum_n: int
    numeric_n: int
    spivey_n: int
    default_samples: int


PROFILES = {
    "quick": Profile(192, 8, 6, 16, 6, 3, 4, 2),
    "full": Profile(256, 12, 8, 30, 8, 5, 6, 4),
}


Cases = Callable[[SmallRationalSampler, int, Profile], list[CheckReport]]


class Identity(NamedTuple):
    """One registered identity, immutable.

    ``closed`` is its control, the ``module.name`` only the closed side reads:
    moved by 1/7, it must fail every report.  ``cases(sampler, samples,
    profile)`` yields the reports.  With ``expected_fail`` they come from a
    superseded form; `run` makes a fail ``expected_fail_confirmed``, a pass a fail.
    """

    id: str
    description: str
    closed: str
    cases: Cases
    expected_fail: bool = False


def _each(draw_and_check: Callable[[SmallRationalSampler, Profile], CheckReport]) -> Cases:
    """Cases that draw one sample and check it, ``samples`` times over.

    ``draw_and_check(rng, prof)`` draws in argument order, the order the
    byte-identical reports depend on.
    """
    return lambda rng, samples, prof: [draw_and_check(rng, prof) for _ in range(samples)]


def _printed(check: Callable[..., CheckReport], witnesses: tuple) -> Cases:
    """Cases of a superseded form: its first ``samples`` fixed witnesses.

    The form must fail, so nothing is drawn from the region (beta = 1,
    s = 0, ...) where it degenerates.
    """
    return lambda rng, samples, prof: [check(*w) for w in witnesses[:samples]]


def _poly(rng: SmallRationalSampler, degree: int) -> PolyQ:
    return PolyQ.from_coeffs([rng.rational() for _ in range(degree + 1)])


def _series_identity(which: str, s_min: int) -> Cases:
    return _each(lambda rng, prof: mellin.verify_series_identity(
        which, rng.int_between(0, prof.exact_n), rng.int_between(s_min, 5), rng.params(),
        prof.series_order))


def _eq17_18(eq: int) -> Cases:
    return _each(lambda rng, prof: analytic.eval_eq17_18(
        rng.int_between(0, prof.numeric_n + 1), rng.params(), EvalConfig(prof.bits), eq=eq,
        start_index="derived_j0"))


def _carlitz_shift(draw_alpha_r: Callable[[SmallRationalSampler], tuple]) -> Cases:
    """EQ31-EQ33: alpha and r from ``draw_alpha_r``, then n."""

    def check(rng: SmallRationalSampler, prof: Profile) -> CheckReport:
        alpha, r = draw_alpha_r(rng)
        return families.check_corollary3(rng.int_between(0, prof.exact_n), alpha, r)

    return _each(check)


def _generic_alpha_r(rng: SmallRationalSampler) -> tuple[Fraction, Fraction]:
    """EQ31's alpha and r, with r redrawn while it is 0 or alpha.

    The redraw only keeps EQ31's drawn parameters, and so its bytes, as they
    are: its reports say EQ31 at any r.  Whether EQ31 draws the corners
    r = 0 and r = alpha, which EQ32 and EQ33 check, is left to a re-pin.
    """
    alpha = rng.rational()
    while True:
        r = rng.rational()
        if r != 0 and r != alpha:
            return alpha, r


def _eq36(rng: SmallRationalSampler, prof: Profile) -> CheckReport:
    x = rng.rational()
    n = rng.int_between(0, 20)
    rpt = CheckReport(id="EQ36", params={"x": x, "n": n})
    return rpt.compare(rising_factorial(-x, n), (-1) ** n * falling_factorial(x, n), "{} != {}")


def _eq26(rng: SmallRationalSampler, samples: int, prof: Profile) -> list[CheckReport]:
    anchors = (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2))
    return [
        analytic.eval_theorem5(
            rng.params(), rng.int_between(0, prof.numeric_n), anchors[i % 3], EvalConfig(prof.bits)
        )
        for i in range(samples)
    ]


def _gf_vs_table(rng: SmallRationalSampler, samples: int, prof: Profile) -> list[CheckReport]:
    return [
        verify_against_gf(build_table(rng.params(), prof.table_n), prof.table_n)
        for _ in range(samples)
    ]


_CLASSICAL = HsuShiueParams(0, 1, 0)
_ENUMERATED = "polynomial {} != enumeration {}"


def _bpa_numbers(rng: SmallRationalSampler, samples: int, prof: Profile) -> list[CheckReport]:
    return [
        CheckReport(id="BPA_NUMBERS", params={"n": n, "s": s}).compare(
            families.bpa_number(n, s, _CLASSICAL), barred_preferential_count(n, s), _ENUMERATED
        )
        for n in range(prof.enum_n + 1)
        for s in range(4)
    ]


def _fubini(rng: SmallRationalSampler, samples: int, prof: Profile) -> list[CheckReport]:
    return [
        CheckReport(id="FUBINI", params={"n": n}).compare(
            families.geometric_at(n, 1, 1, _CLASSICAL),
            ordered_set_partitions_count(n),
            _ENUMERATED,
        )
        for n in range(prof.enum_n + 1)
    ]


# One record per id.  The position of a record seeds its sampler: append only.
REGISTRY: tuple[Identity, ...] = (
    Identity("EQ1", "weighted-derivative operator vs Stirling derivative expansion on polynomials",
             "mellin.cached_table", _each(lambda rng, prof: mellin.verify_eq1_poly(
                 rng.int_between(0, prof.exact_n), _poly(rng, rng.int_between(0, 3)),
                 rng.params()))),
    Identity("EQ3_VS_GF8", "explicit rising-factorial sum vs EGF coefficients, order s",
             "families.geometric_at", _each(lambda rng, prof: families.check_gf_matches(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(2, 4), rng.rational(),
                 rng.params()))),
    Identity("EQ4_OPERATOR",
             "operator route on the binomial tail vs EGF composition (runs EQ5's check)",
             "mellin.geometric_poly", _each(lambda rng, prof: mellin.verify_eq4_operator(
                 rng.int_between(0, prof.exact_n), rng.int_between(0, 3), rng.params(),
                 prof.series_order // 2))),
    Identity("EQ5", "binomial-weighted factorial series vs (1-x)^-(s+1)-composed polynomial",
             "mellin.geometric_poly", _series_identity("eq5", 0)),
    Identity("EQ7_GAMMA", "gamma-moment form (discharged to rising factorials) vs EGF",
             "families.exp_poly", _each(lambda rng, prof: families.check_gamma_moments(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(1, 5), rng.rational(),
                 rng.params()))),
    Identity("EQ10", "degenerate Euler closed form vs its generating function, order s",
             "families.geometric_at", _each(lambda rng, prof: families.check_degenerate_euler(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(2, 5), rng.rational(),
                 rng.rational()))),
    Identity("EQ14", "Bernoulli numbers / Euler values as signed partition-number sums",
             "families.geometric_poly", lambda rng, samples, prof: [families.check_eq14(20)]),
    Identity("EQ15", "operator action on the scaled exponential vs convolution closed form",
             "mellin.exp_poly", _each(lambda rng, prof: mellin.verify_eq15(
                 rng.int_between(0, prof.exact_n), rng.params(), prof.series_order))),
    Identity("EQ16_EXACT",
             "exponential-weighted expansion, exact coefficientwise (runs EQ15's check)",
             "mellin.exp_poly", _each(lambda rng, prof: mellin.verify_eq15(
                 rng.int_between(0, prof.exact_n), rng.params(), prof.series_order - 6))),
    Identity("EQ16_NUMERIC", "exponential-weighted expansion, numeric partial sums (beta > 0)",
             "analytic.exp_poly", _each(lambda rng, prof: analytic.eval_dobinski_numeric(
                 rng.int_between(0, prof.numeric_n), rng.params(beta_positive=True),
                 rng.rational(), EvalConfig(prof.bits)))),
    Identity("EQ17", "even-index cosine-type factorial series vs finite Stirling sum",
             "analytic.cached_table", _eq17_18(17)),
    Identity("EQ18", "odd-index sine-type factorial series vs finite Stirling sum",
             "analytic.cached_table", _eq17_18(18)),
    Identity("EQ19", "first-order geometric polynomials: explicit formula vs EGF",
             "families.geometric_at", _each(lambda rng, prof: families.check_gf_matches(
                 rng.int_between(0, prof.exact_n + 2), 1, rng.rational(), rng.params()))),
    Identity("EQ21", "unweighted factorial series vs 1/(1-x)-composed polynomial",
             "mellin.geometric_poly", _series_identity("eq21", 0)),
    Identity("EQ26", "zeta-coefficient series vs digamma/Hurwitz closed form",
             "analytic.gen_factorial", _eq26),
    Identity("EQ27", "degenerate Euler closed form vs generating function, first order",
             "families.geometric_at", _each(lambda rng, prof: families.check_degenerate_euler(
                 rng.int_between(0, prof.exact_n + 2), 1, rng.rational(), rng.rational()))),
    Identity("EQ29", "Carlitz-polynomial difference vs weighted Stirling sum",
             "families.geometric_poly", _each(lambda rng, prof: families.check_theorem3(
                 rng.int_between(0, prof.exact_n), rng.int_between(0, 4), rng.rational(),
                 rng.rational()))),
    Identity("EQ30_FAMILY", "zeta(k) k^n / 2^k family vs log2 + weighted zeta closed form",
             "analytic.log2", lambda rng, samples, prof: [
                 analytic.eval_eq30_family(n, EvalConfig(prof.bits))
                 for n in range(prof.numeric_n + 1)]),
    Identity("EQ31", "shifted Carlitz value vs rising-factorial weighted Stirling sum",
             "families.geometric_poly", _carlitz_shift(lambda rng: _generic_alpha_r(rng))),
    Identity("EQ32", "EQ31 specialized to r = 0", "families.geometric_poly",
             _carlitz_shift(lambda rng: (rng.rational(nonzero=True), Fraction(0)))),
    Identity("EQ33", "EQ31 specialized to r = alpha (degenerate Bernoulli numbers)",
             "families.geometric_poly",
             _carlitz_shift(lambda rng: (alpha := rng.rational(nonzero=True), alpha))),
    Identity("EQ34_THM2", "second-kind degenerate Bernoulli closed form vs EGF",
             "families.geometric_poly", _each(lambda rng, prof: families.check_theorem2(
                 rng.int_between(0, prof.exact_n + 2), rng.rational(), rng.rational()))),
    Identity("EQ36", "rising factorial reflection <-x>_n = (-1)^n (x)_n",
             "identities.rising_factorial", _each(_eq36)),
    Identity("EQ37_CORRECTED", "Bernoulli values at rationals, corrected beta^(n-k) weight",
             "families.geometric_poly", _each(lambda rng, prof: families.check_theorem4(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(0, 5),
                 rng.rational(nonzero=True), rng.rational(), exponent="corrected"))),
    Identity("EQ37_PRINTED", "superseded beta^(n+1-k) variant (expected fail)",
             "families.geometric_poly",
             _printed(lambda *w: families.check_theorem4(*w, exponent="printed"),
                      ((1, 1, Fraction(2), Fraction(1)), (2, 2, Fraction(3), Fraction(-1)))),
             expected_fail=True),
    Identity("EQ38", "finite binomial factorial sum vs (1+x)^s-composed negative order",
             "mellin.geometric_poly", _series_identity("eq38_binomial", 1)),
    Identity("COR2", "sums of generalized falling factorials vs weighted Stirling sum",
             "families.geometric_poly", _each(lambda rng, prof: families.check_corollary2(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(1, 10), rng.rational()))),
    Identity("COR4", "Bernoulli polynomials at integers via r-separated partition numbers",
             "families.geometric_poly", _each(lambda rng, prof: families.check_corollary4(
                 rng.int_between(0, prof.exact_n), rng.int_between(0, 5)))),
    Identity("COR5_CORRECTED", "power sums via r-Whitney closed form, beta^k weight",
             "families.geometric_poly", _each(lambda rng, prof: families.check_corollary5(
                 rng.int_between(0, prof.exact_n), rng.int_between(1, 6),
                 rng.rational(nonzero=True), rng.rational(), exponent="corrected"))),
    Identity("COR5_PRINTED", "superseded beta^(k-1) variant (expected fail)",
             "families.geometric_poly",
             _printed(lambda *w: families.check_corollary5(*w, exponent="printed"),
                      ((1, 1, Fraction(2), Fraction(1)), (1, 2, Fraction(2), Fraction(1)))),
             expected_fail=True),
    Identity("SPIVEY", "two-index recurrence vs direct polynomial construction",
             "families.geometric_rows", _each(lambda rng, prof: families.check_spivey(
                 rng.int_between(0, prof.spivey_n), rng.int_between(0, prof.spivey_n),
                 rng.int_between(1, 3), rng.rational(), rng.params()))),
    Identity("MINUS_ONE", "evaluation at -1 vs generalized-factorial collapse",
             "families.geometric_at", _each(lambda rng, prof: families.check_minus_one(
                 rng.int_between(0, prof.exact_n + 2), rng.int_between(1, 5), rng.params()))),
    Identity("BPA_NUMBERS", "barred-arrangement counts vs exhaustive enumeration",
             "families.geometric_at", _bpa_numbers),
    Identity("FUBINI", "ordered-set-partition counts vs exhaustive enumeration",
             "families.geometric_at", _fubini),
    Identity("GF_VS_TABLE", "recurrence tables vs generating-function coefficients",
             "identities.build_table", _gf_vs_table),
)

IDENTITY_IDS: tuple[str, ...] = tuple(r.id for r in REGISTRY)


def _profile(name: str) -> Profile:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; known profiles: {', '.join(PROFILES)}")
    return PROFILES[name]


def run(
    rid: str, seed: int = 1, samples: int | None = None, profile: str = "quick"
) -> list[CheckReport]:
    """Verify one registered identity on deterministically sampled inputs.

    ``samples`` defaults to the profile's ``default_samples``.  Every report
    takes the record's id.
    """
    if rid not in IDENTITY_IDS:
        raise ValueError(f"unknown identity id {rid!r}; known ids: {', '.join(IDENTITY_IDS)}")
    prof = _profile(profile)
    samples = prof.default_samples if samples is None else as_size(samples, "samples", 1)
    index = IDENTITY_IDS.index(rid)
    record = REGISTRY[index]
    reports = record.cases(SmallRationalSampler(seed * 1_000_003 + index), samples, prof)
    for rpt in reports:
        rpt.id = record.id
        if not record.expected_fail:
            continue
        if rpt.status == FAIL:
            rpt.status = EXPECTED_FAIL_CONFIRMED
        elif rpt.status == PASS:
            rpt.status = FAIL
            rpt.witness = "superseded form unexpectedly passed"
    return reports


def run_all(seed: int = 1, profile: str = "quick") -> dict:
    """Run the whole registry: its reports, their counts by status and the
    indices into ``reports`` of the unexpected ones."""
    reports: list[CheckReport] = []
    for rid in IDENTITY_IDS:
        reports.extend(run(rid, seed=seed, profile=profile))
    counts = {PASS: 0, FAIL: 0, EXPECTED_FAIL_CONFIRMED: 0}
    for rpt in reports:
        counts[rpt.status] += 1
    return {
        "profile": profile,
        "seed": seed,
        "counts": counts,
        "unexpected": [i for i, r in enumerate(reports) if not r.ok()],
        "reports": reports,
    }
