"""geopoly benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` and nothing is installed.  Load is one client in a
closed loop: repetitions run one after another, each in a fresh interpreter,
because the library's caches are process-global and a user pays them cold on
every CLI call.  Repetition ``i`` gets inputs generated from (seed, i).

The machine this runs on is shared, and its speed swings by up to a
factor of two within seconds and drifts over minutes.  So a fixed piece of
Fraction arithmetic (``workloads.reference_work``, independent of geopoly)
is timed just before and after every measured interval: inside the worker
around its batch, and in this runner around each CLI or import process.
Every time is reported in reference seconds, the measured time scaled by
``workloads.REFERENCE_S`` over the reference work's time at that moment.  All
processes are pinned to one CPU so that the reference work and the
workload run on the same one.  The raw times are printed and logged too.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced repetitions of the same inputs and reports the
per-layer metrics from the spans, plus the tracing overhead.  Every output is
checked; the last line of stdout is one JSON object and the exit code is 1 if
any check failed.  Per-repetition inputs and measurements go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 15
HARD_LIMIT_S = 170.0
ENV = dict(os.environ, PYTHONPATH=str(SRC))
IMPORT_PROBE = "import time; t = time.perf_counter(); import geopoly; print(time.perf_counter() - t)"
CLI_CMD = [sys.executable, "-m", "geopoly.cli", "verify", "--id", "all", "--profile", "full", "--seed"]

# Identities above about 2% of a traced `verify --id all --profile full`.
HEAVY_IDS = (
    "EQ26", "EQ5", "EQ21", "GF_VS_TABLE", "EQ30_FAMILY", "EQ38",
    "EQ4_OPERATOR", "BPA_NUMBERS", "EQ17", "EQ18", "EQ16_NUMERIC", "EQ14",
)
# Layers reported as <name>.calls, .total_s and .self_s.
LAYER_FUNCTIONS = (
    "exact.gen_factorial",
    "series.mul", "series.divide", "series.exp_series", "series.pow_int",
    "stirling.build_table", "stirling.cached_table", "stirling.verify_against_gf",
    "polynomials.PolyQ.__call__",
    "families.exp_poly", "families.geometric_poly", "families.spivey_step",
    "families.degenerate_euler", "families.howard_power_sum", "families.bernoulli_numbers",
    "analytic.hurwitz_zeta", "analytic.digamma", "analytic.eval_theorem5",
    "analytic.eval_eq30_family", "analytic.eval_eq17_18", "analytic.eval_dobinski_numeric",
    "mellin.apply_operator", "mellin.verify_series_identity", "mellin.verify_eq4_operator",
    "enumeration.barred_preferential_count",
    "identities.run",
)
# Scaling curves: (span name, metric prefix, sizes, which spans count).
CURVES = (
    ("stirling.verify_against_gf", "n", wl.LADDER, "direct"),
    ("series.mul", "o", wl.SERIES_ORDERS, "direct"),
    ("series.divide", "o", wl.SERIES_ORDERS, "direct"),
    ("series.exp_series", "o", wl.SERIES_ORDERS, "direct"),
    ("series.pow_int", "o", wl.SERIES_ORDERS, "direct"),
    ("families.bernoulli_numbers", "n", (64, 128, 256), "miss"),
)
SELF_SUM_TOLERANCE = 0.02


class Run:
    """Checks and measurements of one benchmark run."""

    def __init__(self, args) -> None:
        self.args = args
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed: list[str] = []
        self.log: dict = {"args": vars(args), "reps": [], "gates": []}

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, cmd: list[str], stdin_text: str = "", calibrate: bool = False) -> dict:
        """Run a child to completion; wall time and peak RSS come from wait4.

        With ``calibrate``, ``scale`` converts the child's wall time to
        reference seconds.
        """
        before = wl.machine_time() if calibrate else None
        with tempfile.TemporaryFile(dir=OUT) as fin, tempfile.TemporaryFile(dir=OUT) as fout, \
                tempfile.TemporaryFile(dir=OUT) as ferr:
            fin.write(stdin_text.encode())
            fin.seek(0)
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, env=ENV, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            out = {
                "rc": proc.returncode,
                "stdout": fout.read().decode(),
                "stderr": ferr.read().decode()[-2000:],
                "spawned_at": t0,
                "wall_s": wall,
                "maxrss_kb": usage.ru_maxrss,
            }
        if calibrate:
            out["scale"] = 2 * wl.REFERENCE_S / (before + wl.machine_time())
        return out

    def worker(self, mode: str, inputs: dict, trace_file: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), self.args.workload, mode]
        if trace_file is not None:
            cmd.append(str(trace_file))
        child = self.spawn(cmd, json.dumps(inputs))
        label = f"worker_{mode}"
        try:
            res = json.loads(child["stdout"].strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            self.check(label, False)
            self.log["reps"].append({"mode": mode, "inputs": inputs, "error": child["stderr"]})
            return None
        self.check(label, child["rc"] == 0)
        self.check(f"{label}_cold_start", res["cold_start"])
        self.attempted += res["checks"]
        self.failed += res["failed"]
        res["process_maxrss_kb"] = child["maxrss_kb"]
        if "started_at" in res:
            # Interpreter start and import, then the batch; the reference work
            # and the checks after the batch are the benchmark's own time.
            startup = res["started_at"] - child["spawned_at"] - res["ref_before_s"]
            res["invocation_ref_s"] = startup * wl.REFERENCE_S / res["first_ref_s"] + res["wall_ref_s"]
        self.log["reps"].append({"mode": mode, "inputs": inputs, "result": res})
        return res

    def cli(self, seed: int) -> dict:
        child = self.spawn(CLI_CMD + [str(seed)], calibrate=True)
        for label, ok in wl.check_verify_output(child["rc"], child["stdout"]):
            self.check(f"cli_seed{seed}_{label}", ok)
        return child

    def keep_going(self, done: int, t_end: float) -> bool:
        if self.failed or self.remaining() < 30:
            return False
        return done < MIN_REPS or time.perf_counter() < t_end


def measure_setup(run: Run) -> tuple[float, float]:
    """Median fresh-interpreter `import geopoly` time, raw and in reference seconds."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        child = run.spawn([sys.executable, "-c", IMPORT_PROBE], calibrate=True)
        run.check("import_geopoly", child["rc"] == 0)
        if child["rc"] != 0:
            break
        if i:  # the first import writes the bytecode cache
            raw.append(float(child["stdout"]))
            scaled.append(raw[-1] * child["scale"])
    run.log["setup_samples_s"] = raw
    if not raw:
        return float("nan"), float("nan")
    return statistics.median(raw), statistics.median(scaled)


def timed(run: Run) -> dict:
    """End-to-end metrics with tracing off."""
    w = run.args.workload
    setup_raw, setup_s = measure_setup(run)
    walls, raw_walls, rates, rss, invocations = [], [], [], [], []
    t_end = time.perf_counter() + run.args.seconds
    i = 0
    while run.keep_going(i, t_end):
        inputs = wl.make_inputs(w, run.args.seed, i)
        if w == "verify_cli":
            calls = [run.cli(s) for s in inputs["seeds"]]
            run.log["reps"].append({"inputs": inputs, "calls": [
                {k: c[k] for k in ("rc", "wall_s", "scale", "maxrss_kb")} for c in calls]})
            raw = sum(c["wall_s"] for c in calls)
            wall = sum(c["wall_s"] * c["scale"] for c in calls)
            units = wl.REPORTS_PER_CALL * len(calls)
            invocations += [c["wall_s"] * c["scale"] for c in calls]
            rss.append(max(c["maxrss_kb"] for c in calls))
        else:
            res = run.worker("run", inputs)
            if res is None:
                break
            raw, units = res["wall_s"], res["units"]
            wall = res["wall_ref_s"]
            invocations.append(res["invocation_ref_s"])
            rss.append(res["process_maxrss_kb"])
        walls.append(wall)
        raw_walls.append(raw)
        rates.append(units / wall)
        i += 1
    if w in ("exact_scale", "numeric_hp"):
        inputs = wl.make_inputs(w, run.args.seed, 0)
        gate = run.worker("gate", inputs)
        run.log["gates"].append(gate)
    if not walls:
        return {}
    run.log["raw"] = {"setup_s": setup_raw, "wall_s": statistics.median(raw_walls)}
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(rss) / 1024, "MiB"),
        "invocation_p50_s": (statistics.median(invocations), "s"),
    }


def traced(run: Run) -> dict:
    """Per-layer metrics from traced repetitions, each paired with an untraced one."""
    w = run.args.workload
    untraced_walls, traced_walls, overheads = [], [], []
    per_unit: list[dict] = []
    all_spans: list[list] = []
    t_end = time.perf_counter() + run.args.seconds
    i = 0
    units = []
    while run.keep_going(len(per_unit), t_end):
        if not units:
            inputs = wl.make_inputs(w, run.args.seed, i)
            i += 1
            # One CLI call per fresh interpreter, as a user runs it.
            units = [{"seeds": [s]} for s in inputs["seeds"]] if w == "verify_cli" else [inputs]
        inputs = units.pop(0)
        plain = run.worker("run", inputs)
        trace_file = OUT / f"spans-{w}-seed{run.args.seed}-{len(per_unit)}.json"
        with_spans = run.worker("trace", inputs, trace_file)
        if plain is None or with_spans is None:
            break
        untraced_walls.append(plain["wall_ref_s"])
        traced_walls.append(with_spans["wall_ref_s"])
        if w == "verify_cli":
            child = run.cli(inputs["seeds"][0])
            overheads.append(child["wall_s"] * child["scale"] - untraced_walls[-1])
        spans = json.loads(trace_file.read_text())["spans"]
        scale = with_spans["wall_ref_s"] / with_spans["wall_s"]
        for s in spans:  # to reference seconds
            s[1] *= scale
            s[2] *= scale
        per_unit.append(layer_metrics(run, spans, with_spans))
        all_spans += _offset(spans, len(all_spans))
    if not per_unit:
        return {}
    metrics = {name: (statistics.fmean(u[name][0] for u in per_unit), unit)
               for name, unit in ((k, v[1]) for k, v in per_unit[0].items())}
    for name, prefix, sizes, which in CURVES:
        pts = tr.curve(all_spans, name, _keep(all_spans, which))
        for size in sizes:
            metrics[f"{name}.{prefix}{size}_s"] = (pts.get(size, 0.0), "s")
        exponent = tr.loglog_exponent(pts)
        metrics[f"{name}.exponent"] = (exponent if exponent is not None else 0.0, "1")
    metrics["cli.process_overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced_walls), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced_walls, untraced_walls)), "s")
    return metrics


def _offset(spans, base: int) -> list[list]:
    return [s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in spans]


def _keep(spans, which: str):
    if which == "miss":
        return lambda s: s[6]
    return lambda s: s[3] >= 0 and spans[s[3]][0].startswith("bench.")


def layer_metrics(run: Run, spans, res: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    agg = tr.aggregate(spans)
    out = {}
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name in LAYER_FUNCTIONS:
        row = agg.get(name, empty)
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.total_s"] = (row["total_s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    main = agg.get("cli.main", empty)
    out["cli.main.total_s"] = (main["total_s"], "s")
    out["cli.main.self_s"] = (main["self_s"], "s")
    per_id = {rid: 0.0 for rid in HEAVY_IDS}
    zeta_calls, zeta_keys = 0, set()
    for s in spans:
        if s[0] == "identities.run" and s[4] in per_id and s[5]:
            per_id[s[4]] += s[2] - s[1]
        elif s[0] == "analytic.hurwitz_zeta":
            zeta_calls += 1
            zeta_keys.add(s[4])
    for rid, total in per_id.items():
        out[f"identities.run.{rid}.total_s"] = (total, "s")
    out["analytic.hurwitz_zeta.hit_ratio"] = (1 - len(zeta_keys) / zeta_calls if zeta_calls else 0.0, "ratio")
    caches = res["end_caches"]
    for name, module in (("cached_table", "stirling"), ("bernoulli_numbers", "families")):
        out[f"{module}.{name}.hits"] = (caches[name]["hits"], "count")
        out[f"{module}.{name}.misses"] = (caches[name]["misses"], "count")
    # The layer spans must account for the whole traced batch, which is the
    # root span minus the reference work measured inside it.
    selfs = tr.self_times(spans)
    root = sum(s[2] - s[1] for s in spans if s[0] == "bench." + run.args.workload)
    root -= sum(s[2] - s[1] for s in spans if s[0] == "bench.reference" and s[3] >= 0)
    covered = sum(own for s, own in zip(spans, selfs) if not s[0].startswith("bench."))
    ratio = covered / root if root else 0.0
    out["trace.self_sum_ratio"] = (ratio, "ratio")
    if run.args.workload == "verify_cli":
        run.check("self_times_add_up", abs(1 - ratio) <= SELF_SUM_TOLERANCE)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geopoly" / "__init__.py").is_file():
        print(f"error: no geopoly sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    run = Run(args)
    metrics = traced(run) if args.trace else timed(run)
    if not metrics:
        run.check("measured", False)
    correct = not run.failed
    fail_ratio = len(run.failed) / max(run.attempted, 1)
    run.log.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   attempted=run.attempted, failed=run.failed)
    log_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log_file.write_text(json.dumps(run.log, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in run.log.get("raw", {}).items():
        print(f"raw {name} = {value:.6g} s (not scaled to reference speed)")
    print(f"fail_ratio = {fail_ratio:.6g} ({len(run.failed)} of {run.attempted} checks)")
    if run.failed:
        print(f"failed checks: {', '.join(run.failed[:20])}", file=sys.stderr)
    print(f"inputs and per-repetition results: {log_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
