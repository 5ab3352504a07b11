"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <run|trace|gate> [trace_file] < inputs.json

Reads the generated inputs as JSON on stdin, imports geopoly from the
checkout's ``src``, checks that its process-global caches start cold, runs
the workload's batch and prints one JSON object: the batch time (library
calls only; checks run after the clock stops), the unit count of work, the
output checks and the cache accounting.  ``trace`` installs the span tracer
first and writes the spans to ``trace_file``; ``gate`` runs the workload's
negative control instead of the batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import geopoly  # noqa: E402
from geopoly import analytic, cli, enumeration, exact, families, identities, mellin  # noqa: E402
from geopoly import polynomials, series, stirling  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Shortest stretch of batch between two measurements of the machine's speed.
SEGMENT_S = 0.15
# The lru_cache objects themselves; the tracer replaces the module bindings.
CACHES = {"cached_table": stirling.cached_table, "bernoulli_numbers": families.bernoulli_numbers}


def cache_state() -> dict:
    out = {name: fn.cache_info()._asdict() for name, fn in CACHES.items()}
    out["zeta_cache"] = len(analytic._ZETA_CACHE)
    out["const_cache"] = len(analytic._CONST_CACHE)
    return out


def is_cold(state: dict) -> bool:
    return all(
        v == 0 if isinstance(v, int) else v["hits"] == v["misses"] == v["currsize"] == 0
        for v in state.values()
    )


def _ps(coeffs) -> series.PowerSeries:
    return series.PowerSeries(tuple(Fraction(c) for c in coeffs))


def _params(triple) -> geopoly.HsuShiueParams:
    return geopoly.HsuShiueParams(*(Fraction(v) for v in triple))


# ---------------------------------------------------------------------------
# Batches: each returns (units of work, outputs to check)
# ---------------------------------------------------------------------------


def batch_verify_cli(inp, step):
    outputs = []
    for seed in inp["seeds"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--id", "all", "--profile", "full", "--seed", str(seed)])
        outputs.append((rc, buf.getvalue()))
        step()
    return wl.REPORTS_PER_CALL * len(outputs), outputs


def check_verify_cli(inp, outputs):
    return [c for rc, text in outputs for c in wl.check_verify_output(rc, text)]


def batch_exact_scale(inp, step):
    params = _params(inp["triple"])
    tables = []
    for n in inp["ladder"]:
        table = stirling.build_table(params, n)
        tables.append((table, stirling.verify_against_gf(table, n)))
        step()
    ops = []
    for spec in inp["series"]:
        a, b, z = _ps(spec["a"]), _ps(spec["b"]), _ps(spec["z"])
        ops.append((a * b, series.divide(a, b), series.exp_series(z), series.pow_int(b, inp["pow"])))
        step()
    cells = sum((n + 1) * (n + 2) // 2 for n in inp["ladder"])
    return cells, (tables, ops)


def check_exact_scale(inp, outputs):
    tables, ops = outputs
    params = _params(inp["triple"])
    checks = []
    for n, (table, rpt) in zip(inp["ladder"], tables):
        checks.append((f"gf_pass_n{n}", rpt.status == "pass"))
        first_col = wl.rising_general(params.r, params.alpha, n)
        checks.append((f"table_edges_n{n}", table.value(n, 0) == first_col and table.value(n, n) == 1))
    for spec, (prod, quot, ex, pw) in zip(inp["series"], ops):
        o = spec["order"]
        a, b, z = ([Fraction(c) for c in spec[k]] for k in "abz")
        checks.append((f"mul_o{o}", list(prod.coeffs) == wl.convolve(a, b, o)))
        checks.append((f"divide_o{o}", wl.convolve(list(quot.coeffs), b, o) == a))
        checks.append((f"exp_o{o}", wl.exp_satisfies_ode(z, list(ex.coeffs))))
        want = [Fraction(1)] + [Fraction(0)] * o
        for _ in range(inp["pow"]):
            want = wl.convolve(want, b, o)
        checks.append((f"pow_o{o}", list(pw.coeffs) == want))
    return checks


def gate_exact_scale(inp):
    """One corrupted cell per ladder size must come back `fail` with its (n,k)."""
    params = _params(inp["triple"])
    checks = []
    for n, (n_c, k_c) in zip(inp["ladder"], inp["corrupt"]):
        table = stirling.build_table(params, n)
        bad = table.with_entry(n_c, k_c, table.value(n_c, k_c) + 1)
        rpt = stirling.verify_against_gf(bad, n)
        ok = rpt.status == "fail" and (rpt.witness or "").startswith(f"(n={n_c}, k={k_c})")
        checks.append((f"corrupt_n{n}_caught", ok))
    return checks


def batch_numeric_hp(inp, step):
    params = _params(inp["triple"])
    reports = []
    for bits, x in zip(inp["bits"], inp["t5"]["x"]):
        cfg = analytic.EvalConfig(bits)
        reports.append(analytic.eval_theorem5(params, inp["t5"]["n"], Fraction(x), cfg))
        step()
        reports.append(analytic.eval_eq30_family(inp["eq30_n"], cfg))
        reports.append(analytic.eval_eq17_18(inp["eq17_n"], params, cfg, eq=17))
        reports.append(analytic.eval_eq17_18(inp["eq17_n"], params, cfg, eq=18))
        dob = inp["dobinski"]
        reports.append(analytic.eval_dobinski_numeric(dob["n"], params, Fraction(dob["x"]), cfg))
        step()
    return len(reports), reports


def check_numeric_hp(inp, reports):
    return [(f"{r.id}_{r.params.get('bits')}_pass", r.status == "pass") for r in reports]


def gate_numeric_hp(inp):
    """The superseded j = 1 start of the finite sum must fail."""
    cfg = analytic.EvalConfig(inp["bits"][0])
    rpt = analytic.eval_eq17_18(inp["eq17_n"], _params(inp["triple"]), cfg, eq=17, start_index="paper_j1")
    return [("eq17_paper_j1_fails", rpt.status == "fail")]


def batch_family_sweep(inp, step):
    xs = [Fraction(x) for x in inp["xs"]]
    n_max = inp["n_max"]
    evals = {}
    for t, triple in enumerate(inp["triples"]):
        params = _params(triple)
        for n in range(n_max + 1):
            polys = {
                "exp": families.exp_poly(n, params),
                "geo1": families.geometric_poly(n, 1, params),
                "geo2": families.geometric_poly(n, 2, params),
            }
            for kind, poly in polys.items():
                evals[(t, kind, n)] = [poly(x) for x in xs]
            step()
        sp = inp["spivey"]
        for n in range(n_max - sp["m"] + 1):
            evals[(t, "spivey", n)] = families.spivey_step(n, sp["m"], sp["s"], xs[1], params)
            step()
    eu, hw = inp["euler"], inp["howard"]
    for n in range(n_max + 1):
        evals[("euler", n)] = families.degenerate_euler(n, eu["s"], Fraction(eu["alpha"]), Fraction(eu["r"]))
        evals[("howard", n)] = families.howard_power_sum(n, hw["m"], Fraction(hw["beta"]), Fraction(hw["r"]))
        step()
    count = sum(len(v) if isinstance(v, list) else 1 for v in evals.values())
    return count, evals


def check_family_sweep(inp, evals):
    n_max = inp["n_max"]
    fubini, bell = wl.fubini_numbers(n_max), wl.bell_numbers(n_max)
    checks = []
    # triples[0] is (0, 1, 0) and xs[0] is 1: Fubini and Bell numbers.
    # spivey_step ran with s = 1 at xs[1], so it must equal w_{n+m}^(1)(xs[1]).
    for n in range(n_max + 1):
        checks.append((f"fubini_{n}", evals[(0, "geo1", n)][0] == fubini[n]))
        checks.append((f"bell_{n}", evals[(0, "exp", n)][0] == bell[n]))
    sp = inp["spivey"]
    for t in range(len(inp["triples"])):
        for n in range(n_max - sp["m"] + 1):
            checks.append((f"spivey_{t}_{n}", evals[(t, "spivey", n)] == evals[(t, "geo1", n + sp["m"])][1]))
    hw = inp["howard"]
    beta, r = Fraction(hw["beta"]), Fraction(hw["r"])
    for n in range(n_max + 1):
        direct = sum((r + beta * j) ** n for j in range(hw["m"]))
        checks.append((f"howard_{n}", evals[("howard", n)] == direct))
    return checks


BATCHES = {
    "verify_cli": (batch_verify_cli, check_verify_cli),
    "exact_scale": (batch_exact_scale, check_exact_scale),
    "numeric_hp": (batch_numeric_hp, check_numeric_hp),
    "family_sweep": (batch_family_sweep, check_family_sweep),
}
GATES = {"exact_scale": gate_exact_scale, "numeric_hp": gate_numeric_hp}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _order(*args, **kwargs):
    return args[0].order


def _min_order(a, b, *rest, **kwargs):
    return min(a.order, b.order) if isinstance(b, series.PowerSeries) else a.order


def _zeta_key(s, a, cfg, *rest, **kwargs):
    return (s, str(a), cfg.digits)


def _first(*args, **kwargs):
    return args[0]


def _second(*args, **kwargs):
    return args[1]


# (span name, owner, attribute, tag function).  The tag is the size used by
# the scaling curves, the cache key of hurwitz_zeta, or the identity id.
TARGETS = [
    ("exact.gen_factorial", exact, "gen_factorial", None),
    ("series.mul", series.PowerSeries, "__mul__", _min_order),
    ("series.divide", series, "divide", _min_order),
    ("series.exp_series", series, "exp_series", _order),
    ("series.pow_int", series, "pow_int", _order),
    ("stirling.build_table", stirling, "build_table", None),
    ("stirling.cached_table", stirling, "cached_table", None),
    ("stirling.verify_against_gf", stirling, "verify_against_gf", _second),
    ("polynomials.PolyQ.__call__", polynomials.PolyQ, "__call__", None),
    ("families.exp_poly", families, "exp_poly", None),
    ("families.geometric_poly", families, "geometric_poly", None),
    ("families.spivey_step", families, "spivey_step", None),
    ("families.degenerate_euler", families, "degenerate_euler", None),
    ("families.howard_power_sum", families, "howard_power_sum", None),
    ("families.bernoulli_numbers", families, "bernoulli_numbers", _first),
    ("analytic.hurwitz_zeta", analytic, "hurwitz_zeta", _zeta_key),
    ("analytic.digamma", analytic, "digamma", None),
    ("analytic.eval_theorem5", analytic, "eval_theorem5", None),
    ("analytic.eval_eq30_family", analytic, "eval_eq30_family", None),
    ("analytic.eval_eq17_18", analytic, "eval_eq17_18", None),
    ("analytic.eval_dobinski_numeric", analytic, "eval_dobinski_numeric", None),
    ("mellin.verify_series_identity", mellin, "verify_series_identity", None),
    ("mellin.verify_eq4_operator", mellin, "verify_eq4_operator", None),
    ("mellin.apply_operator", mellin, "apply_operator", None),
    ("enumeration.barred_preferential_count", enumeration, "barred_preferential_count", None),
    ("identities.run", identities, "run", _first),
    ("cli.main", cli, "main", None),
]


def main() -> int:
    workload, mode = sys.argv[1], sys.argv[2]
    inp = json.load(sys.stdin)
    start_state = cache_state()
    result = {"cold_start": is_cold(start_state), "start_caches": start_state}
    if mode == "gate":
        checks = GATES[workload](inp)
    else:
        batch, check = BATCHES[workload]
        tracer = None
        if mode == "trace":
            tracer = tr.Tracer()
            tracer.install(TARGETS)
        t_ref = time.perf_counter()
        clock = wl.Clock(SEGMENT_S, tracer.run if tracer else None)
        if tracer is None:
            units, outputs = batch(inp, clock.step)
        else:
            units, outputs = tracer.run("bench." + workload, batch, inp, clock.step)
        clock.step(final=True)
        # perf_counter is CLOCK_MONOTONIC, shared with the parent process.
        result["started_at"] = clock.started_at
        result["first_ref_s"] = clock.first_ref
        result["ref_before_s"] = clock.started_at - t_ref
        result["wall_s"] = clock.raw_s
        result["wall_ref_s"] = clock.ref_s
        result["units"] = units
        result["end_caches"] = cache_state()
        checks = check(inp, outputs)
        if tracer is not None:
            tracer.write(sys.argv[3])
    result["checks"] = len(checks)
    result["failed"] = [label for label, ok in checks if not ok]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
