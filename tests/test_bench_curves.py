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
