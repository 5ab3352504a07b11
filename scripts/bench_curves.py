"""Scaling curves of the closed forms and oracles, written to BENCH_<suite>.json.

    python3 scripts/bench_curves.py exact --src src --label change
    python3 scripts/bench_curves.py numeric --src ../parent/src --label parent \
        --src src --label change
    python3 scripts/bench_curves.py exact --curve eq --src src --label change-mellin

Each point is one cold interpreter that imports geopoly from ``--src`` and
times one call (import excluded, except in the ``import`` suite), pinned to
one CPU; the median of ``--repeats`` such processes is kept.  Given several
``--src``/``--label`` pairs, the checkouts take turns on every point, in an
order that flips each repeat, so that a drift in the machine's speed falls
on all of them alike.  The children write no bytecode, so a run reads a
cache only if one is there before it starts (``python3 -m compileall -q
<src>`` writes one); each run records whether every module under its
``--src`` had a cache that matches its source.  The suites and their
curves, each a row of ``CASES``:

- ``exact``, on each of the triples (1/2, 3, -2) and (-1/3, 5/2, 1/4):
  ``build_table``, the Stirling triangle by its recurrence, n = 50..800;
  ``geometric_poly``, ``geometric_poly(n, 2, p)(1/3)`` from a cold cache,
  so the table build, the weighted row and the evaluation, n = 50..800;
  ``verify_against_gf``, the GF oracle against a table built before the
  clock starts, n = 50..200;
  ``spivey_step``, ``spivey_step(n, n, 1, 1/3, p)`` from a cold cache, so
  the table build and the two-index recurrence, n = 12..48;
  ``exp_poly_eval``, ``exp_poly(n, p)`` evaluated at x = 1, 1/3, -1/2 and
  -5/3, and ``geometric_integral``, ``geometric_poly(n, 2, p).integral(-1,
  0)``, both from a table built before the clock starts, n = 50..800;
  ``warm_sweep``, ``exp_poly(k, p)`` and ``geometric_poly(k, 2, p)(1/3)``
  for k = 0..n on a table cached before the clock starts, so 2(n + 1)
  warm table reads and the rows they weight, n = 24..96;
  ``eq5_series``, ``eq38_series`` and ``eq4_operator``, the operator
  checks ``verify_series_identity("eq5", 4, 2, p, n)``,
  ``verify_series_identity("eq38_binomial", 4, 3, p, n)`` and
  ``verify_eq4_operator(4, 2, p, n)``, which runs the ``eq5`` call, so
  its row times the delegation, at series order n = 64..1024, each
  from a cold cache (smaller orders take under 3 ms); and, on no
  triple, the series kernels ``series mul``, ``divide``, ``exp_series`` and
  ``pow_int_3`` (``a * b``, ``divide(a, b)``, ``exp_series(z)``,
  ``pow_int(b, 3)``) on fixed rational series of order n = 25..800, whose
  numerators over one denominator take 15-31 bits, and ``series mul
  binom_deform``, one product of two ``binom_deform`` series whose
  numerators vary in width, up to thousands of bits, n = 25..800, and
  ``series deformed_base``, ``deformed_base(1/3, -5/4, n)``, the
  beta-normalized base series, one Fraction per falling product (the GF
  oracle reads those products as integers), n = 25..800; and
  the two routes to the Bernoulli numbers B_0..B_n: ``bernoulli series``,
  ``bernoulli_numbers(n)`` from a cold cache, so one ``divide`` at order
  n + 1 (the exact oracle's route), n = 128..1024 (n = 2048 would take
  about 80 s a point), and ``bernoulli tangent``,
  ``analytic._tangent_numbers(n // 2)``, the integer tangent numbers that
  the numeric layer's B_2..B_n come from, n = 128..2048.
- ``numeric``, at n = 256..4096 bits: ``eq30_family_n3``,
  ``eval_eq30_family(3, cfg)``, whose cost is its series side: the zeta
  table zeta(2..S) of that precision (S = 341 at 256 bits, 4181 at 4096)
  and about n terms that read it; ``theorem5``,
  ``eval_theorem5((1/2, 2, 1), 3, 1/2, cfg)``, the series side plus the
  Hurwitz/digamma closed side; ``theorem5_step``, the same call timed
  after it has run once at n * 4 // 5 bits in the same process, so the
  step up in precision that a cold curve never shows (the tables of the
  lower precision are cached, those of n are not); and at 256 bits over
  the order n = 3..24,
  ``theorem5_n``, ``eval_theorem5((1/2, 1/8, 1), n, 1/2, cfg)`` timed on
  its second call, after the first has cached the zeta table, the
  constants and the table, so the time is the series terms, each an
  n-factor product, and the closed-side sums (beta = 1/8 keeps the value
  small enough for the absolute tolerance at n = 24; at beta = 2 the
  verdict fails from n = 20 on); and, at n bits again, ``zeta_table``,
  ``analytic._zeta_table(analytic.EvalConfig(n).digits)`` from a cold
  cache, the table alone with the coefficient table it builds on its way;
  and ``hurwitz_zeta``, ``analytic.hurwitz_zeta(s, 1/2, cfg)`` for s = 2,
  3, 4 from a cold cache, the Hurwitz values the closed side of
  ``theorem5`` reads, with the coefficient table they build; and
  ``verdicts_warm``, the five verdicts of a ``numeric_hp`` batch
  (``eval_theorem5``, ``eval_eq30_family``, ``eval_eq17_18`` with eq 17
  and 18, ``eval_dobinski_numeric``) on (1/2, 3/2, -3/4), timed on their
  second call, so with the zeta table, the constants and the Stirling
  table cached: what remains is the stop index, the series terms, their
  sums and the closed sides' arithmetic.
- ``import``, one point each: ``import geopoly`` in a fresh interpreter;
  then the first reads of ``geopoly.build_table``, ``geopoly.eval_theorem5``
  and ``geopoly.run_all``, each timed after an untimed import and the
  reads before it, so each row is what that read adds; and ``import
  geopoly.cli``, the CLI's own import, in a fresh interpreter.

Each curve of two or more sizes gets the least-squares slope of log(time)
on log(n) of the medians (``null`` for one size) and a 95% interval for
it, the central 95% of the slopes of 2000 bootstrap resamples of the
repeats at each size, drawn from a fixed seed; each point keeps the
seconds of every repeat and the first 16 hex digits of the sha256 of its
result, so two runs can be checked to agree.  The interval covers only
the spread of the repeats within one run, not the machine's drift from
one run to the next, so only the curves of one interleaved run compare:
an A/A run, one ``--src`` under two labels, shows how far the interval
reaches on code that did not change, yet two runs of one ``--src`` minutes
apart can give disjoint intervals.  A point
whose child fails is stored as ``{"error": <the last line of its
stderr>}``, with no digest, and left out of the fit.  ``--curve PREFIX``
(repeatable) runs only the suite's curves whose name starts with one of
the prefixes: ``--curve eq`` picks the three Mellin rows and ``--curve
"series "`` the series kernel rows, which a substring could not single
out from ``eq5_series (...)``, ``eq38_series (...)`` and ``bernoulli
series``.  Each
run is stored under its ``--label`` in ``BENCH_<suite>.json`` in the
working directory, rewritten as each curve finishes, so a run that stops
keeps the curves it finished; other labels are kept, so one run on two
checkouts leaves a before/after pair in one file.  A label's run replaces
its earlier run whole, so a filtered run takes labels of its own.  A new
curve is a new row.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import struct
import subprocess
import sys
from pathlib import Path

TRIPLES = ("1/2, 3, -2", "-1/3, 5/2, 1/4")
TABLE_N = (50, 100, 200, 400, 800)
BITS = (256, 512, 1024, 2048, 4096)
MELLIN_ORDERS = (64, 128, 256, 512, 1024)
BOOTSTRAP, BOOTSTRAP_SEED = 2000, 1  # resamples behind each exponent's interval, and their seed
# exact curve on a triple p: (sizes, untimed setup, timed call, the result that is hashed)
EXACT = {
    "build_table": (TABLE_N, "", "build_table(p, n)", "out.row(n)"),
    "geometric_poly": (TABLE_N, "", "geometric_poly(n, 2, p)(Fraction(1, 3))", "out"),
    "verify_against_gf": (TABLE_N[:3], "table = build_table(p, n)", "verify_against_gf(table, n)",
                          "out.to_dict()"),
    "spivey_step": ((12, 24, 48), "", "spivey_step(n, n, 1, Fraction(1, 3), p)", "out"),
    "exp_poly_eval": (TABLE_N, "cached_table(p, n)",
                      "[exp_poly(n, p)(x) for x in (1, Fraction(1, 3), Fraction(-1, 2), Fraction(-5, 3))]",
                      "out"),
    "geometric_integral": (TABLE_N, "cached_table(p, n)", "geometric_poly(n, 2, p).integral(-1, 0)",
                           "out"),
    "warm_sweep": ((24, 48, 96), "cached_table(p, n)",
                   "[(exp_poly(k, p), geometric_poly(k, 2, p)(Fraction(1, 3))) for k in range(n + 1)]",
                   "out"),
    "eq5_series": (MELLIN_ORDERS, "", 'mellin.verify_series_identity("eq5", 4, 2, p, n)',
                   "out.to_dict()"),
    "eq38_series": (MELLIN_ORDERS, "",
                    'mellin.verify_series_identity("eq38_binomial", 4, 3, p, n)', "out.to_dict()"),
    "eq4_operator": (MELLIN_ORDERS, "", "mellin.verify_eq4_operator(4, 2, p, n)", "out.to_dict()"),
}
SERIES_ORDERS = (25, 50, 100, 200, 400, 800)
# the Bernoulli routes on no triple: (sizes, timed call, the result that is hashed); the
# tangent numbers are hashed in hex, since T_1024 has more digits than str(int) may print
BERNOULLI = {
    "bernoulli series": ((128, 256, 512, 1024), "bernoulli_numbers(n)", "out"),
    "bernoulli tangent": ((128, 256, 512, 1024, 2048), "analytic._tangent_numbers(n // 2)",
                          "list(map(hex, out))"),
}
# fixed series of order n, numerators -9..9 over denominators up to 9; b_0 = 1, z = a - a_0
SERIES_SETUP = (
    "a = PowerSeries.from_coeffs([Fraction(7 * j % 19 - 9, j % 9 + 1) for j in range(n + 1)])\n"
    "b = PowerSeries.from_coeffs([1] + [Fraction(5 * j % 19 - 9, j % 8 + 1)\n"
    "                                   for j in range(1, n + 1)])\n"
    "z = a - a.coeffs[0]"
)
# series kernel curve: the timed call on the series above
SERIES = {
    "mul": "a * b",
    "divide": "divide(a, b)",
    "exp_series": "exp_series(z)",
    "pow_int_3": "pow_int(b, 3)",
}
# two binom_deform series of order n, whose numerators over their common denominator vary in
# width: about 0.66..1 of 4.5n bits for u, and 0..bits(n!) for v = exp(t)
BINOM_SETUP = ("u = binom_deform(Fraction(1, 3), Fraction(-5, 4), n)\n"
               "v = binom_deform(0, 1, n)")
THEOREM5 = "analytic.eval_theorem5(HsuShiueParams(Fraction(1, 2), 2, 1), 3, Fraction(1, 2), cfg)"
# called once untimed first, so that the zeta table, the constants and the Stirling table are cached
THEOREM5_N = ("analytic.eval_theorem5(HsuShiueParams(Fraction(1, 2), Fraction(1, 8), 1), n,"
              " Fraction(1, 2), cfg)")
# the five verdicts of a numeric_hp batch, on a triple of its class; called once untimed first
VERDICTS = (
    "[analytic.eval_theorem5(p, 3, Fraction(1, 2), cfg), analytic.eval_eq30_family(3, cfg),"
    " analytic.eval_eq17_18(5, p, cfg, eq=17), analytic.eval_eq17_18(5, p, cfg, eq=18),"
    " analytic.eval_dobinski_numeric(3, p, Fraction(3, 2), cfg)]"
)
# the import suite's first reads, in the order they are timed
FIRST_READS = ("build_table", "eval_theorem5", "run_all")
# CASES[suite][curve] = (sizes, untimed setup, timed call, the result that is hashed)
CASES = {
    "exact": {
        f"{case} ({triple})": (
            sizes, f'p = HsuShiueParams(*map(Fraction, "{triple}".split(",")))\n{setup}', call, result
        )
        for triple in TRIPLES
        for case, (sizes, setup, call, result) in EXACT.items()
    } | {
        f"series {curve}": (SERIES_ORDERS, SERIES_SETUP, call, "out.coeffs")
        for curve, call in SERIES.items()
    } | {
        "series mul binom_deform": (SERIES_ORDERS, BINOM_SETUP, "u * v", "out.coeffs"),
        "series deformed_base": (SERIES_ORDERS, "", "deformed_base(Fraction(1, 3), Fraction(-5, 4), n)",
                                 "out.coeffs"),
    } | {
        curve: (sizes, "", call, result) for curve, (sizes, call, result) in BERNOULLI.items()
    },
    "numeric": {
        "eq30_family_n3": (
            BITS, "cfg = analytic.EvalConfig(n)", "analytic.eval_eq30_family(3, cfg)", "out.to_dict()"
        ),
        "theorem5": (BITS, "cfg = analytic.EvalConfig(n)", THEOREM5, "out.to_dict()"),
        "theorem5_step": (
            BITS, f"cfg = analytic.EvalConfig(n * 4 // 5)\n{THEOREM5}\ncfg = analytic.EvalConfig(n)",
            THEOREM5, "out.to_dict()",
        ),
        "theorem5_n": (
            (3, 6, 12, 24), f"cfg = analytic.EvalConfig(256)\n{THEOREM5_N}",
            THEOREM5_N, "out.to_dict()",
        ),
        "zeta_table": (BITS, "", "analytic._zeta_table(analytic.EvalConfig(n).digits)", "out"),
        "hurwitz_zeta": (
            BITS, "cfg = analytic.EvalConfig(n)",
            "[analytic.hurwitz_zeta(s, Fraction(1, 2), cfg) for s in (2, 3, 4)]", "out",
        ),
        "verdicts_warm": (
            BITS, "p = HsuShiueParams(Fraction(1, 2), Fraction(3, 2), Fraction(-3, 4))\n"
            f"cfg = analytic.EvalConfig(n)\n{VERDICTS}", VERDICTS, "[r.to_dict() for r in out]",
        ),
    },
    "import": {
        "import geopoly": ((1,), "", '__import__("geopoly")', "sorted(out.__all__)"),
        **{
            f"geopoly.{name}": (
                (1,), "\n".join(["import geopoly"] + [f"geopoly.{b}" for b in FIRST_READS[:i]]),
                f"geopoly.{name}", 'f"{out.__module__}.{out.__qualname__}"',
            )
            for i, name in enumerate(FIRST_READS)
        },
        "import geopoly.cli": ((1,), "", '__import__("geopoly.cli").cli', "out.__name__"),
    },
}
CHILD = """
import time
{imports}
n = {n}
{setup}
t0 = time.perf_counter()
out = {call}
elapsed = time.perf_counter() - t0
import hashlib
for report in out if isinstance(out, list) else [out]:
    assert getattr(report, "status", "pass") == "pass", report
print(elapsed, hashlib.sha256(str({result}).encode()).hexdigest()[:16])
"""
LIBRARY = """from fractions import Fraction
from geopoly import analytic, mellin
from geopoly.families import bernoulli_numbers, exp_poly, geometric_poly, spivey_step
from geopoly.params import HsuShiueParams
from geopoly.series import PowerSeries, binom_deform, deformed_base, divide, exp_series, pow_int
from geopoly.stirling import build_table, cached_table, verify_against_gf"""
# what a suite's child imports before its setup; the import suite times its own
IMPORTS = {"exact": LIBRARY, "numeric": LIBRARY, "import": ""}


def child_code(suite: str, curve: str, n: int) -> str:
    _, setup, call, result = CASES[suite][curve]
    return CHILD.format(imports=IMPORTS[suite], n=n, setup=setup, call=call, result=result)


def bytecode_cached(src: Path) -> bool:
    """Whether every module of geopoly under ``src`` has a timestamp bytecode
    cache that matches its source's mtime and size, so an import reads it."""
    for py in (src / "geopoly").glob("*.py"):
        try:
            head = Path(importlib.util.cache_from_source(str(py))).read_bytes()[:16]
        except FileNotFoundError:
            return False
        stat = py.stat()
        stamp = struct.pack("<4sIII", importlib.util.MAGIC_NUMBER, 0,
                            int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
        if head != stamp:
            return False
    return True


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_once(src: Path, suite: str, curve: str, n: int) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", child_code(suite, curve, n)], env=env, check=True,
                         capture_output=True, text=True, preexec_fn=pin_to_one_cpu)
    elapsed, digest = out.stdout.split()
    return float(elapsed), digest


def measure_point(srcs: dict[str, Path], suite: str, curve: str, n: int,
                  repeats: int) -> dict[str, tuple[list[float], str] | dict[str, str]]:
    """Each label's (seconds of each repeat, digest) at size n, or {"error": ...}.

    The labels take turns, in an order that flips each repeat.  A label
    whose child fails gets the last line of the child's stderr and runs no
    further repeat; one whose repeats disagree on the result gets an error
    too.
    """
    runs: dict[str, list[tuple[float, str]]] = {label: [] for label in srcs}
    errors: dict[str, dict[str, str]] = {}
    for i in range(repeats):
        for label in list(srcs)[:: -1 if i % 2 else 1]:
            if label in errors:
                continue
            try:
                runs[label].append(time_once(srcs[label], suite, curve, n))
            except subprocess.CalledProcessError as exc:
                lines = exc.stderr.strip().splitlines() or [f"exit status {exc.returncode}"]
                errors[label] = {"error": lines[-1]}
    points: dict[str, tuple[list[float], str] | dict[str, str]] = {}
    for label, label_runs in runs.items():
        digests = {d for _, d in label_runs}
        if label in errors:
            points[label] = errors[label]
        elif len(digests) > 1:
            points[label] = {"error": f"the repeats gave {len(digests)} different results"}
        else:
            points[label] = ([t for t, _ in label_runs], digests.pop())
    return points


def slope(points: dict[int, float]) -> float | None:
    if len(points) < 2:
        return None
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def exponent_interval(repeats: dict[int, list[float]]) -> tuple[float, float] | None:
    """The central 95% of the exponents of BOOTSTRAP seeded resamples.

    Each resample draws, at every size, as many seconds as were measured
    there, with replacement, and fits the slope of their medians.  The
    seed is fixed, so the same seconds give the same interval.
    """
    if len(repeats) < 2:
        return None
    rng = random.Random(BOOTSTRAP_SEED)
    fits = sorted(
        slope({n: statistics.median(rng.choices(ts, k=len(ts))) for n, ts in repeats.items()})
        for _ in range(BOOTSTRAP)
    )
    return fits[round(0.025 * (BOOTSTRAP - 1))], fits[round(0.975 * (BOOTSTRAP - 1))]


def curve_row(points: dict[int, tuple[list[float], str] | dict[str, str]]) -> dict:
    """One label's row of a curve; the exponent and its interval are fitted
    on the points that ran."""
    timed = {n: point for n, point in points.items() if isinstance(point, tuple)}
    medians = {n: statistics.median(ts) for n, (ts, _) in timed.items()}
    exponent = slope(medians)
    interval = exponent_interval({n: ts for n, (ts, _) in timed.items()})
    return {
        "seconds": {str(n): round(medians[n], 6) if n in timed else point
                    for n, point in points.items()},
        "repeat_seconds": {str(n): [round(t, 6) for t in ts] for n, (ts, _) in timed.items()},
        "exponent": None if exponent is None else round(exponent, 3),
        "exponent_interval": None if interval is None else [round(e, 3) for e in interval],
        "sha256": {str(n): d for n, (_, d) in timed.items()},
    }


def write_runs(out: Path, runs: dict[str, dict]) -> None:
    """Merge ``runs`` into ``out`` under their labels, keeping the other labels."""
    data = json.loads(out.read_text()) if out.exists() else {}
    data["unit"] = ("s, raw wall time of one call in a cold process pinned to one CPU: the median"
                    " of repeats, and each repeat in repeat_seconds")
    data.setdefault("runs", {}).update(runs)
    out.write_text(json.dumps(data, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=CASES, help="the curves to run, written to BENCH_<suite>.json")
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="the src directory holding geopoly; repeat to interleave checkouts")
    parser.add_argument("--label", action="append", required=True,
                        help="key of the run in the output file, one per --src")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--curve", action="append", metavar="PREFIX",
                        help="run only the curves whose name starts with PREFIX; repeat for several")
    args = parser.parse_args()
    if len(args.src) != len(args.label):
        parser.error("give one --label per --src")
    curves = {curve: case for curve, case in CASES[args.suite].items()
              if not args.curve or curve.startswith(tuple(args.curve))}
    if not curves:
        parser.error(f"no {args.suite} curve starts with any of {args.curve}")
    for src in args.src:
        if not (src / "geopoly" / "__init__.py").is_file():
            parser.error(f"no geopoly package under {src}")
    srcs = dict(zip(args.label, (src.resolve() for src in args.src)))
    out = Path(f"BENCH_{args.suite}.json")
    runs = {
        label: {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "repeats": args.repeats,
            "bytecode_cache": bytecode_cached(src),
            "curves": {},
        }
        for label, src in srcs.items()
    }
    for curve, (sizes, *_) in curves.items():
        points: dict[str, dict] = {label: {} for label in srcs}
        for n in sizes:
            for label, point in measure_point(srcs, args.suite, curve, n, args.repeats).items():
                points[label][n] = point
                if isinstance(point, dict):
                    shown = point["error"]
                else:
                    shown = f"{statistics.median(point[0]):.4f} s"
                print(f"{label} {curve} n={n}: {shown}", file=sys.stderr, flush=True)
        for label in srcs:
            runs[label]["curves"][curve] = curve_row(points[label])
        write_runs(out, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
