"""The curve script's case table covers every committed curve."""

import hashlib
import importlib.util
import json
import math
import py_compile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_curves", ROOT / "scripts" / "bench_curves.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_curves = _load_script()
TIMESTAMP = py_compile.PycInvalidationMode.TIMESTAMP


@pytest.mark.parametrize("suite", ["exact", "numeric", "import"])
def test_case_table_covers_the_latest_committed_run(suite):
    runs = json.loads((ROOT / f"BENCH_{suite}.json").read_text())["runs"]
    latest = list(runs.values())[-1]["curves"]
    cases = bench_curves.CASES[suite]
    for curve, points in latest.items():
        assert curve in cases, curve
        sizes = {str(n) for n in cases[curve][0]}
        assert set(points["seconds"]) <= sizes, (curve, set(points["seconds"]) - sizes)


def test_every_child_compiles():
    for suite, cases in bench_curves.CASES.items():
        for curve, (sizes, *_) in cases.items():
            for n in sizes:
                compile(bench_curves.child_code(suite, curve, n), f"<{suite}: {curve} n={n}>", "exec")


def test_slope_of_a_power_law():
    points = {n: 3e-6 * n**2.5 for n in (50, 100, 200, 400)}
    assert math.isclose(bench_curves.slope(points), 2.5)


def test_one_size_has_no_slope():
    assert bench_curves.slope({1: 0.02}) is None
    assert bench_curves.exponent_interval({1: [0.02, 0.03]}) is None


def test_repeats_that_agree_give_an_interval_of_one_slope():
    repeats = {n: [3e-6 * n**2.5] * 3 for n in (50, 100, 200, 400)}
    lo, hi = bench_curves.exponent_interval(repeats)
    assert math.isclose(lo, 2.5) and math.isclose(hi, 2.5)


def test_the_interval_is_seeded_and_holds_the_fit():
    # each size's repeats spread by up to 12% around a power law of slope 2
    repeats = {n: [n**2 * (1 + e) for e in (0.0, 0.12, -0.05, 0.07, -0.1)] for n in (8, 16, 32, 64)}
    lo, hi = bench_curves.exponent_interval(repeats)
    assert bench_curves.exponent_interval(repeats) == (lo, hi)
    medians = {n: sorted(ts)[2] for n, ts in repeats.items()}
    assert lo < bench_curves.slope(medians) < hi
    assert 1.8 < lo < 2 < hi < 2.2


def test_an_aa_run_overlaps_on_every_curve():
    # the committed A/A run: one src under two labels, so every interval
    # of one label meets that of the other
    runs = json.loads((ROOT / "BENCH_numeric.json").read_text())["runs"]
    first, second = runs["aa-1"]["curves"], runs["aa-2"]["curves"]
    assert list(first) == list(second) == list(bench_curves.CASES["numeric"])
    for curve, row in first.items():
        (lo1, hi1), (lo2, hi2) = row["exponent_interval"], second[curve]["exponent_interval"]
        assert lo1 <= hi2 and lo2 <= hi1, curve
        assert row["sha256"] == second[curve]["sha256"], curve


def test_verdicts_warm_passes_on_this_checkout():
    # the child asserts that each of the five reports passes
    elapsed, _ = bench_curves.time_once(ROOT / "src", "numeric", "verdicts_warm", 256)
    assert 0 < elapsed < 5


def test_the_uneven_width_series_curve_runs_on_this_checkout():
    from fractions import Fraction

    from geopoly.series import binom_deform

    u = binom_deform(Fraction(1, 3), Fraction(-5, 4), 25)
    product = (u * binom_deform(0, 1, 25)).coeffs
    elapsed, digest = bench_curves.time_once(ROOT / "src", "exact", "series mul binom_deform", 25)
    assert 0 < elapsed < 5
    assert digest == hashlib.sha256(str(product).encode()).hexdigest()[:16]


def test_import_suite_runs_on_this_checkout():
    # each row's result names the same objects on any checkout
    expected = {
        "import geopoly": str(sorted(__import__("geopoly").__all__)),
        "geopoly.build_table": "geopoly.stirling.build_table",
        "geopoly.eval_theorem5": "geopoly.analytic.eval_theorem5",
        "geopoly.run_all": "geopoly.identities.run_all",
        "import geopoly.cli": "geopoly.cli",
    }
    assert list(bench_curves.CASES["import"]) == list(expected)
    for curve, result in expected.items():
        elapsed, digest = bench_curves.time_once(ROOT / "src", "import", curve, 1)
        assert 0 < elapsed < 5
        assert digest == hashlib.sha256(result.encode()).hexdigest()[:16], curve


def test_bytecode_cache_is_seen_only_when_it_matches_every_source(tmp_path):
    package = tmp_path / "geopoly"
    package.mkdir()
    sources = [package / "__init__.py", package / "exact.py"]
    for source in sources:
        source.write_text("x = 1\n")
    assert not bench_curves.bytecode_cached(tmp_path)
    py_compile.compile(str(sources[0]), doraise=True, invalidation_mode=TIMESTAMP)
    assert not bench_curves.bytecode_cached(tmp_path)
    py_compile.compile(str(sources[1]), doraise=True, invalidation_mode=TIMESTAMP)
    assert bench_curves.bytecode_cached(tmp_path)
    sources[1].write_text("x = 22\n")  # a new size makes the cache stale
    assert not bench_curves.bytecode_cached(tmp_path)


def _run_suite(monkeypatch, tmp_path, curves, *labels, extra=()):
    """Run a toy suite of ``curves`` in tmp_path against this checkout's src."""
    monkeypatch.setitem(bench_curves.CASES, "toy", curves)
    monkeypatch.setitem(bench_curves.IMPORTS, "toy", "")
    monkeypatch.chdir(tmp_path)
    argv = ["bench_curves.py", "toy", "--repeats", "2", *extra]
    for label in labels:
        argv += ["--src", str(ROOT / "src"), "--label", label]
    monkeypatch.setattr("sys.argv", argv)
    return bench_curves.main()


def test_a_failing_child_is_recorded_and_the_run_goes_on(monkeypatch, tmp_path):
    # n = 2 divides by zero in the child: that point is an error, the
    # other points and the next curve are still timed and written
    curves = {
        "fails at 2": ((1, 2, 3), "", "1 // (n - 2)", "out"),
        "after": ((1,), "", "n + 1", "out"),
    }
    assert _run_suite(monkeypatch, tmp_path, curves, "a", "b") == 0
    runs = json.loads((tmp_path / "BENCH_toy.json").read_text())["runs"]
    assert set(runs) == {"a", "b"}
    for run in runs.values():
        row = run["curves"]["fails at 2"]
        assert row["seconds"]["2"] == {"error": "ZeroDivisionError: integer division or modulo by zero"}
        assert set(row["sha256"]) == {"1", "3"}
        assert row["sha256"]["1"] == hashlib.sha256(b"-1").hexdigest()[:16]
        assert all(isinstance(row["seconds"][n], float) for n in ("1", "3"))
        assert {n: len(ts) for n, ts in row["repeat_seconds"].items()} == {"1": 2, "3": 2}
        assert row["exponent"] is not None  # fitted on n = 1 and 3
        lo, hi = row["exponent_interval"]
        assert lo <= hi
        assert run["curves"]["after"]["sha256"] == {"1": hashlib.sha256(b"2").hexdigest()[:16]}


def test_each_curve_is_written_when_it_finishes(monkeypatch, tmp_path):
    # a run that dies in its second curve leaves the first in the file,
    # next to the labels of earlier runs
    (tmp_path / "BENCH_toy.json").write_text(json.dumps({"runs": {"old": {"curves": {}}}}))
    time_once = bench_curves.time_once

    def dies_in_second(src, suite, curve, n):
        if curve == "second":
            raise KeyboardInterrupt
        return time_once(src, suite, curve, n)

    monkeypatch.setattr(bench_curves, "time_once", dies_in_second)
    curves = {"first": ((1, 2), "", "n * n", "out"), "second": ((1,), "", "n", "out")}
    with pytest.raises(KeyboardInterrupt):
        _run_suite(monkeypatch, tmp_path, curves, "new")
    runs = json.loads((tmp_path / "BENCH_toy.json").read_text())["runs"]
    assert set(runs) == {"old", "new"}
    assert list(runs["new"]["curves"]) == ["first"]
    assert runs["new"]["curves"]["first"]["sha256"] == {
        str(n): hashlib.sha256(str(n * n).encode()).hexdigest()[:16] for n in (1, 2)
    }


def test_repeats_that_disagree_are_an_error(monkeypatch):
    answers = iter([(0.1, "aaaa"), (0.1, "bbbb")])
    monkeypatch.setattr(bench_curves, "time_once", lambda *args: next(answers))
    points = bench_curves.measure_point({"a": ROOT / "src"}, "numeric", "zeta_table", 256, 2)
    assert points == {"a": {"error": "the repeats gave 2 different results"}}


def test_curve_filter_runs_only_the_matching_curves(monkeypatch, tmp_path):
    # a curve runs when its name starts with one of the --curve prefixes
    curves = {name: ((1,), "", "n", "out") for name in ("eq5 (a)", "eq38 (a)", "mul", "eq5 (b)")}
    assert _run_suite(monkeypatch, tmp_path, curves, "a", extra=("--curve", "eq5")) == 0
    assert _run_suite(monkeypatch, tmp_path, curves, "b", extra=("--curve", "mul", "--curve", "eq3")) == 0
    runs = json.loads((tmp_path / "BENCH_toy.json").read_text())["runs"]
    assert list(runs["a"]["curves"]) == ["eq5 (a)", "eq5 (b)"]
    assert list(runs["b"]["curves"]) == ["eq38 (a)", "mul"]
    for prefix in ("nothing", "(a)"):  # a filter that matches nothing is a usage error
        with pytest.raises(SystemExit) as exc:
            _run_suite(monkeypatch, tmp_path, curves, "c", extra=("--curve", prefix))
        assert exc.value.code == 2


def test_the_mellin_filter_picks_the_three_mellin_rows():
    # `--curve eq` on the exact suite, as the docstring runs it
    picked = [curve for curve in bench_curves.CASES["exact"] if curve.startswith("eq")]
    assert sorted({curve.split()[0] for curve in picked}) == ["eq38_series", "eq4_operator", "eq5_series"]
    assert len(picked) == 3 * len(bench_curves.TRIPLES)


def test_the_series_filter_picks_the_series_kernel_rows():
    # `--curve "series "` picks the kernel rows alone, none of the Mellin
    # or Bernoulli rows whose names hold "series"
    picked = [curve for curve in bench_curves.CASES["exact"] if curve.startswith("series ")]
    assert picked == [f"series {curve}" for curve in bench_curves.SERIES] + [
        "series mul binom_deform", "series deformed_base"
    ]
    assert len([curve for curve in bench_curves.CASES["exact"] if "series" in curve]) > len(picked)


def test_the_deformed_base_curve_runs_on_this_checkout():
    from fractions import Fraction

    from geopoly.series import deformed_base

    coeffs = deformed_base(Fraction(1, 3), Fraction(-5, 4), 25).coeffs
    elapsed, digest = bench_curves.time_once(ROOT / "src", "exact", "series deformed_base", 25)
    assert 0 < elapsed < 5
    assert digest == hashlib.sha256(str(coeffs).encode()).hexdigest()[:16]
