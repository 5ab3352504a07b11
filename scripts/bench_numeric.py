"""Scaling curves of the numeric series sides, written to BENCH_numeric.json.

    python3 scripts/bench_numeric.py --src src --label change
    python3 scripts/bench_numeric.py --src ../parent/src --label parent

Each point is one cold interpreter that imports geopoly from ``--src`` and
times one call (import excluded), pinned to one CPU; the median of
``--repeats`` such processes is kept.  The cases, at 256, 512, 1024 and
2048 bits:

- ``eq30_family_n3``: ``eval_eq30_family(3, cfg)``, whose cost is its
  series side, zeta(2..K) with K about bits + 10 (the closed side is three
  zeta values and log 2);
- ``theorem5``: ``eval_theorem5((1/2, 2, 1), 3, 1/2, cfg)``, the series
  side plus the Hurwitz/digamma closed side.

Each curve gets the least-squares slope of log(time) on log(bits).  The
run is stored under ``--label`` in ``--out``; other labels are kept, so
running it on two checkouts leaves a before/after pair in one file.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BITS = (256, 512, 1024, 2048)
CASES = {
    "eq30_family_n3": "analytic.eval_eq30_family(3, cfg)",
    "theorem5": "analytic.eval_theorem5(HsuShiueParams(Fraction(1, 2), 2, 1), 3, Fraction(1, 2), cfg)",
}
CHILD = """
import time
from fractions import Fraction
from geopoly import analytic
from geopoly.params import HsuShiueParams
cfg = analytic.EvalConfig({bits})
t0 = time.perf_counter()
report = {call}
elapsed = time.perf_counter() - t0
assert report.status == "pass", report.to_dict()
print(elapsed)
"""


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_once(src: Path, case: str, bits: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    code = CHILD.format(bits=bits, call=CASES[case])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, preexec_fn=pin_to_one_cpu)
    return float(out.stdout.strip())


def slope(points: dict[int, float]) -> float:
    xs = [math.log(b) for b in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the src directory holding geopoly")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_numeric.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if not (args.src / "geopoly" / "__init__.py").is_file():
        parser.error(f"no geopoly package under {args.src}")
    curves = {}
    for case in CASES:
        points = {}
        for bits in BITS:
            times = [time_once(args.src.resolve(), case, bits) for _ in range(args.repeats)]
            points[bits] = statistics.median(times)
            print(f"{case} {bits} bits: {points[bits]:.4f} s", file=sys.stderr, flush=True)
        curves[case] = {
            "seconds": {str(b): round(t, 4) for b, t in points.items()},
            "exponent": round(slope(points), 3),
        }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["unit"] = "s, raw wall time of one call in a cold process pinned to one CPU, median of repeats"
    data.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "curves": curves,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
