"""Scaling curves of the exact layer, written to BENCH_exact.json.

    python3 scripts/bench_exact.py --src src --label change
    python3 scripts/bench_exact.py --src ../parent/src --label parent

Each point is one cold interpreter that imports geopoly from ``--src`` and
times one call (import excluded), pinned to one CPU; the median of
``--repeats`` such processes is kept.  On each of the triples
(1/2, 3, -2) and (-1/3, 5/2, 1/4), the cases are:

- ``build_table``: the Stirling triangle by its recurrence, n = 50..800;
- ``geometric_poly``: ``geometric_poly(n, 2, p)(1/3)`` from a cold cache,
  so the table build, the weighted row and the evaluation, n = 50..800;
- ``verify_against_gf``: the GF oracle against a table built before the
  clock starts, n = 50..200.

Each curve gets the least-squares slope of log(time) on log(n), and each
point the first 16 hex digits of the sha256 of its result, so two runs can
be checked to agree.  The run is stored under ``--label`` in ``--out``;
other labels are kept, so running it on two checkouts leaves a
before/after pair in one file.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_numeric import pin_to_one_cpu, slope

TRIPLES = ("1/2, 3, -2", "-1/3, 5/2, 1/4")
# case: (sizes, untimed setup, timed call, the result that is hashed)
CASES = {
    "build_table": ((50, 100, 200, 400, 800), "", "build_table(p, n)", "out.row(n)"),
    "geometric_poly": (
        (50, 100, 200, 400, 800), "", "geometric_poly(n, 2, p)(Fraction(1, 3))", "out"
    ),
    "verify_against_gf": (
        (50, 100, 200), "table = build_table(p, n)", "verify_against_gf(table, n)", "out.to_dict()"
    ),
}
CHILD = """
import hashlib
import time
from fractions import Fraction
from geopoly.families import geometric_poly
from geopoly.params import HsuShiueParams
from geopoly.stirling import build_table, verify_against_gf
p = HsuShiueParams(*(Fraction(v) for v in "{triple}".split(",")))
n = {n}
{setup}
t0 = time.perf_counter()
out = {call}
elapsed = time.perf_counter() - t0
assert getattr(out, "status", "pass") == "pass", out
print(elapsed, hashlib.sha256(str({result}).encode()).hexdigest()[:16])
"""


def time_once(src: Path, case: str, triple: str, n: int) -> tuple[float, str]:
    _, setup, call, result = CASES[case]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = CHILD.format(triple=triple, n=n, setup=setup, call=call, result=result)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, preexec_fn=pin_to_one_cpu)
    elapsed, digest = out.stdout.split()
    return float(elapsed), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the src directory holding geopoly")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_exact.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if not (args.src / "geopoly" / "__init__.py").is_file():
        parser.error(f"no geopoly package under {args.src}")
    curves = {}
    for triple in TRIPLES:
        for case, (sizes, *_) in CASES.items():
            points, digests = {}, {}
            for n in sizes:
                runs = [time_once(args.src.resolve(), case, triple, n) for _ in range(args.repeats)]
                points[n] = statistics.median(t for t, _ in runs)
                (digests[n],) = {d for _, d in runs}  # every repeat gave the same result
                print(f"{case} ({triple}) n={n}: {points[n]:.4f} s", file=sys.stderr, flush=True)
            curves[f"{case} ({triple})"] = {
                "seconds": {str(n): round(t, 4) for n, t in points.items()},
                "exponent": round(slope(points), 3),
                "sha256": {str(n): d for n, d in digests.items()},
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
