"""The curve script's case table covers every committed curve."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_curves", ROOT / "scripts" / "bench_curves.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_curves = _load_script()


@pytest.mark.parametrize("suite", ["exact", "numeric"])
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
