import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geopoly import analytic, cli, enumeration, families, mellin, stirling
from geopoly import identities as I
from geopoly.report import EXPECTED_FAIL_CONFIRMED, FAIL, PASS, CheckReport


def _dump(reports):
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


# The sampler of an id is seeded from its position: this order must never change.
PINNED_IDS = (
    "EQ1", "EQ3_VS_GF8", "EQ4_OPERATOR", "EQ5", "EQ7_GAMMA", "EQ10", "EQ14", "EQ15",
    "EQ16_EXACT", "EQ16_NUMERIC", "EQ17", "EQ18", "EQ19", "EQ21", "EQ26", "EQ27", "EQ29",
    "EQ30_FAMILY", "EQ31", "EQ32", "EQ33", "EQ34_THM2", "EQ36", "EQ37_CORRECTED",
    "EQ37_PRINTED", "EQ38", "COR2", "COR4", "COR5_CORRECTED", "COR5_PRINTED", "SPIVEY",
    "MINUS_ONE", "BPA_NUMBERS", "FUBINI", "GF_VS_TABLE",
)


def test_registry_order_is_pinned():
    assert I.IDENTITY_IDS == PINNED_IDS
    assert tuple(r.id for r in I.REGISTRY) == PINNED_IDS


def test_every_id_has_description():
    assert len(I.REGISTRY) == 35
    assert len({r.id for r in I.REGISTRY}) == 35
    for record in I.REGISTRY:
        assert record.description.strip(), record.id


def test_expected_fail_set():
    assert {r.id for r in I.REGISTRY if r.expected_fail} == {"EQ37_PRINTED", "COR5_PRINTED"}


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="known ids: EQ1, EQ3_VS_GF8"):
        I.run("NOPE")
    with pytest.raises(ValueError):
        I.run("EQ14", samples=0)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="known profiles: quick, full"):
        I.run("EQ14", profile="bogus")
    with pytest.raises(ValueError, match="known profiles: quick, full"):
        I.run_all(profile="bogus")


def test_determinism_byte_identical():
    a = I.run("EQ29", seed=5, samples=6, profile="full")
    b = I.run("EQ29", seed=5, samples=6, profile="full")
    assert _dump(a) == _dump(b)


def test_seed_changes_witnesses_not_verdicts():
    a = I.run("EQ5", seed=1, samples=4, profile="full")
    b = I.run("EQ5", seed=2, samples=4, profile="full")
    assert _dump(a) != _dump(b)  # different sampled parameters
    assert [r.status for r in a] == [r.status for r in b] == [PASS] * 4


def test_expected_fail_ids_confirm():
    for record in I.REGISTRY:
        if record.expected_fail:
            reports = I.run(record.id, seed=1, samples=5, profile="full")
            assert reports, record.id
            assert all(r.status == EXPECTED_FAIL_CONFIRMED for r in reports), record.id


def test_expected_fail_that_passes_is_a_failure(monkeypatch):
    # a superseded form that stops failing is a regression, not a confirmation
    monkeypatch.setattr(families, "check_theorem4", lambda *a, **k: CheckReport(id="EQ37_PRINTED"))
    reports = I.run("EQ37_PRINTED", seed=1, samples=2, profile="full")
    assert [r.status for r in reports] == [FAIL, FAIL]
    assert all(r.witness == "superseded form unexpectedly passed" for r in reports)


def test_eq37_printed_documented_witness():
    rpt = I.run("EQ37_PRINTED", seed=1, samples=1, profile="full")[0]
    assert rpt.params == {"n": 1, "s": 1, "beta": 1 * 2, "r": 1}
    assert "-1" in rpt.witness and "-1/2" in rpt.witness


def _corrupt_tables(monkeypatch, n, k):
    """Add 1 to cell (n, k) of every table the registry builds."""
    original = I.build_table

    def corrupted(params, n_max):
        table = original(params, n_max)
        return table.with_entry(n, k, table.value(n, k) + 1)

    monkeypatch.setattr(I, "build_table", corrupted)


def test_gf_vs_table_corruption_hook(monkeypatch):
    good = I.run("GF_VS_TABLE", seed=7, samples=3, profile="full")
    assert all(r.status == PASS for r in good)
    _corrupt_tables(monkeypatch, 4, 2)
    bad = I.run("GF_VS_TABLE", seed=7, samples=3, profile="full")
    assert all(r.status == "fail" for r in bad)
    assert all("(n=4, k=2)" in r.witness for r in bad)


def test_every_id_runs_quick():
    for rid in I.IDENTITY_IDS:
        reports = I.run(rid, seed=3, samples=2, profile="quick")
        assert reports, rid
        for r in reports:
            assert r.ok(), (rid, r.to_dict())


def test_run_all_quick_no_unexpected():
    summary = I.run_all(seed=1, profile="quick")
    assert summary["counts"]["fail"] == 0
    assert summary["counts"]["expected_fail_confirmed"] >= 2
    assert summary["unexpected"] == []


def test_run_all_pass_set_stable_across_seeds():
    s1 = I.run_all(seed=1, profile="quick")
    s2 = I.run_all(seed=2, profile="quick")
    verdicts1 = [(r.id, r.status) for r in s1["reports"]]
    verdicts2 = [(r.id, r.status) for r in s2["reports"]]
    assert [v[1] for v in verdicts1] == [v[1] for v in verdicts2]


@pytest.fixture(scope="module")
def seed_1_statuses():
    return [r.status for r in I.run_all(seed=1, profile="quick")["reports"]]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(3, 10**9))
def test_run_all_statuses_stable_over_seeds(seed_1_statuses, seed):
    statuses = [r.status for r in I.run_all(seed=seed, profile="quick")["reports"]]
    assert statuses == seed_1_statuses


def test_records_reach_checks_by_name(monkeypatch):
    # Rebind every check at each module binding, as a tracer does: a record
    # that held a function object would bypass the rebinding and count 0.
    modules = [m for k, m in sys.modules.items() if k.startswith("geopoly")]
    calls = {}
    targets = [
        (module, name)
        for module in (families, mellin, analytic, enumeration, stirling)
        for name in vars(module)
        if name.startswith(("check_", "verify_", "eval_")) and name != "eval_minus_one"
    ]
    targets += [(families, "bpa_number"), (enumeration, "barred_preferential_count"),
                (enumeration, "ordered_set_partitions_count"), (stirling, "build_table")]
    for owner, name in targets:
        original = getattr(owner, name)
        label = f"{owner.__name__}.{name}"
        calls[label] = 0

        def counted(*args, _original=original, _label=label, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert I.run_all(seed=1, profile="quick")["unexpected"] == []
    assert len(calls) == 26
    assert [label for label, n in calls.items() if n == 0] == []


def test_run_all_with_corruption_reports_unexpected(monkeypatch):
    _corrupt_tables(monkeypatch, 3, 1)
    summary = I.run_all(seed=1, profile="quick")
    assert summary["counts"]["fail"] > 0
    reports = summary["reports"]
    assert summary["unexpected"] == [i for i, r in enumerate(reports) if not r.ok()]
    assert any(reports[i].id == "GF_VS_TABLE" for i in summary["unexpected"])


def test_samples_default_to_the_profile():
    for name, prof in I.PROFILES.items():
        assert len(I.run("EQ36", seed=2, profile=name)) == prof.default_samples
        assert _dump(I.run("EQ36", seed=2, profile=name)) == _dump(
            I.run("EQ36", seed=2, samples=prof.default_samples, profile=name)
        )


def test_run_defaults_to_the_profile_of_run_all_and_the_cli(capsys):
    # run("EQ1") draws what `geopoly verify --id EQ1` draws
    assert cli.main(["verify", "--id", "EQ1", "--seed", "3", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["profile"] == "quick"
    assert doc["result"]["reports"] == [r.to_dict() for r in I.run("EQ1", seed=3)]
    assert I.run_all(seed=3)["profile"] == "quick"


@pytest.mark.parametrize("rid", ["EQ19", "EQ27", "EQ32", "EQ33", "EQ7_GAMMA"])
def test_a_specialized_record_reports_under_its_own_id(rid):
    # EQ19 runs check_gf_matches, EQ27 check_degenerate_euler and EQ32, EQ33
    # check_corollary3, each of which names the general form; EQ7_GAMMA's
    # check names its own
    for seed in range(1, 6):
        reports = I.run(rid, seed=seed, profile="full")
        assert reports and all(r.id == rid and r.status == PASS for r in reports), seed


@pytest.mark.parametrize("corner", ["r = 0", "r = alpha"])
def test_eq31_at_its_corners_reports_only_eq31(monkeypatch, corner):
    def cornered(rng):
        alpha = rng.rational(nonzero=True)
        return alpha, F(0) if corner == "r = 0" else alpha

    monkeypatch.setattr(I, "_generic_alpha_r", cornered)
    reports = I.run("EQ31", seed=1, profile="full")
    at = [r.params["r"] == (0 if corner == "r = 0" else r.params["alpha"]) for r in reports]
    assert at == [True] * 4
    assert [(r.id, r.status) for r in reports] == [("EQ31", PASS)] * 4


def test_sampler_is_stable_lcg():
    s = I.SmallRationalSampler(1)
    first = [s.int_between(0, 100) for _ in range(5)]
    s2 = I.SmallRationalSampler(1)
    assert first == [s2.int_between(0, 100) for _ in range(5)]
    vals = {I.SmallRationalSampler(k).rational() for k in range(50)}
    assert len(vals) > 5  # spread over the small-rational grid


def test_sampler_respects_constraints():
    s = I.SmallRationalSampler(9)
    for _ in range(100):
        p = s.params()
        assert p.beta != 0
        q = s.params(beta_positive=True)
        assert q.beta > 0
        assert s.rational(nonzero=True) != 0
