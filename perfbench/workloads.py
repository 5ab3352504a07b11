"""Seeded inputs, reference work, independent oracles and output checks.

Nothing here imports geopoly: run.py generates every input from the
benchmark seed and the repetition index, the worker hands only these values
to the library, and the checks below compare its outputs with the
benchmark's own integer recurrences and convolutions.  README.md says why
each of the four workloads is there.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction
from math import lcm

WORKLOADS = ("verify_cli", "exact_scale", "numeric_hp", "family_sweep")

# The cost of the exact layer depends strongly on the triple's denominators
# and on |alpha|, so each workload draws from a class of triples with fixed
# denominators and a narrow numerator band: seeds change the values, not the
# amount of work, and runs with different seeds stay comparable.
LADDER = (16, 24, 32, 40)
SERIES_ORDERS = (64, 128, 192)
POW_EXPONENT = 3
BITS = (512, 640)
CLI_BATCH = 3
SWEEP_N = 24
# Time of reference_work on the machine the baseline was recorded on (a 2-vCPU
# KVM guest, Python 3.11.7) in its slower, more common state.
REFERENCE_S = 0.0075
# Full-profile report counts of `geopoly verify --id all`; the pass/fail
# partition of the registry does not depend on the seed.
FULL_PROFILE_COUNTS = {"pass": 168, "fail": 0, "expected_fail_confirmed": 4}
REPORTS_PER_CALL = sum(FULL_PROFILE_COUNTS.values())
EXPECTED_FAIL_IDS = ("EQ37_PRINTED", "COR5_PRINTED")


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"geopoly-bench:{workload}:{seed}:{rep}")


def _q(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _signed(rng: random.Random, choices) -> int:
    return rng.choice(choices) * rng.choice((-1, 1))


def _series(rng: random.Random, order: int, head: int | None) -> list[str]:
    coeffs = [_q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if head is not None:
        coeffs[0] = str(head)
    return coeffs


def make_inputs(workload: str, seed: int, rep: int) -> dict:
    """The inputs of repetition ``rep``; the same (seed, rep) gives the same inputs."""
    rng = _rng(workload, seed, rep)
    if workload == "verify_cli":
        return {"seeds": [rng.randrange(1, 2**31) for _ in range(CLI_BATCH)]}
    if workload == "exact_scale":
        triple = [_q(_signed(rng, (1,)), 2), _q(_signed(rng, (1, 2, 4, 5)), 3), _q(_signed(rng, (1, 3, 5)), 4)]
        corrupt = []
        for n in LADDER:
            n_c = rng.randint(1, n)
            corrupt.append([n_c, rng.randint(0, n_c)])
        series = [
            {"order": o, "a": _series(rng, o, None), "b": _series(rng, o, 1), "z": _series(rng, o, 0)}
            for o in SERIES_ORDERS
        ]
        return {"triple": triple, "ladder": list(LADDER), "corrupt": corrupt, "series": series, "pow": POW_EXPONENT}
    if workload == "numeric_hp":
        triple = [_q(_signed(rng, (1,)), 2), _q(rng.choice((2, 3, 4, 5)), 2), _q(_signed(rng, (1, 3)), 4)]
        return {
            "triple": triple,
            "bits": list(BITS),
            "t5": {"n": 3, "x": ["1/2", "-1/2"]},  # one x per precision
            "eq30_n": rng.choice((3, 4)),
            "eq17_n": rng.choice((4, 5, 6)),
            "dobinski": {"n": rng.choice((3, 4)), "x": rng.choice(("1/2", "3/2", "2"))},
        }
    if workload == "family_sweep":
        triples = [["0", "1", "0"]]
        for alpha_den in (2, 3):
            triples.append([_q(_signed(rng, (1,)), alpha_den), _q(_signed(rng, (1, 2)), 1), _q(_signed(rng, (1, 3)), 2)])
        xs = ["1"] + [_q(_signed(rng, (1, 3)), den) for den in (2, 3, 2)]
        return {
            "triples": triples,
            "n_max": SWEEP_N,
            "xs": xs,
            "spivey": {"m": 2, "s": 1},
            "euler": {"s": 2, "alpha": _q(_signed(rng, (1,)), 3), "r": _q(_signed(rng, (1, 3)), 2)},
            "howard": {"m": rng.randint(3, 6), "beta": _q(_signed(rng, (1, 2, 3)), 2), "r": _q(_signed(rng, (1, 3)), 4)},
        }
    raise ValueError(f"unknown workload {workload!r}")


def reference_work() -> Fraction:
    """Fixed Fraction arithmetic, independent of geopoly, that gauges machine speed.

    Like the library it is dominated by big-integer gcds, so it slows down
    with the machine in the same proportion (a plain integer loop does not).
    """
    h = Fraction(0)
    for k in range(1, 700):
        h += Fraction(1, k) * Fraction(k + 1, 3)
    x = Fraction(1)
    for k in range(1, 250):
        x = x * Fraction(2 * k - 1, 2 * k) + Fraction(1, k)
    return h + x


def machine_time(samples: int = 5) -> float:
    """Median time of the reference work: how fast the machine runs right now."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times a batch in raw seconds and in reference seconds.

    The batch calls ``step()`` at natural boundaries.  Once the current
    segment has run for ``every`` seconds, the clock stops, times the
    reference work and starts the next segment, so each segment is scaled by
    the machine speed measured right before and right after it.  The
    reference work itself is never part of the batch time.  Under tracing,
    ``run`` is ``Tracer.run``, which puts each measurement in a
    ``bench.reference`` span so that it can be left out of the batch.
    """

    def __init__(self, every: float, run=None) -> None:
        self.every = every
        self._run = run
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.first_ref = self._measure(5)
        self._ref = self.first_ref
        self.started_at = self._start = time.perf_counter()

    def step(self, final: bool = False) -> None:
        segment = time.perf_counter() - self._start
        if not final and segment < self.every:
            return
        ref = self._measure(5 if final else 3)
        self.raw_s += segment
        self.ref_s += segment * 2 * REFERENCE_S / (self._ref + ref)
        self._ref = ref
        self._start = time.perf_counter()

    def _measure(self, samples: int) -> float:
        if self._run is None:
            return machine_time(samples)
        return self._run("bench.reference", machine_time, samples)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def fubini_numbers(n_max: int) -> list[int]:
    """Ordered set partitions, a(n) = sum_{k>=1} C(n,k) a(n-k)."""
    out = [1]
    for n in range(1, n_max + 1):
        binom, acc = 1, 0
        for k in range(1, n + 1):
            binom = binom * (n - k + 1) // k
            acc += binom * out[n - k]
        out.append(acc)
    return out


def bell_numbers(n_max: int) -> list[int]:
    """Set partitions, by the Bell triangle."""
    out, row = [1], [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def convolve(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Truncated Cauchy product on integer numerators over one common denominator."""
    da = _lcm_den(a[: order + 1])
    db = _lcm_den(b[: order + 1])
    ia = [int(c * da) for c in a[: order + 1]]
    ib = [int(c * db) for c in b[: order + 1]]
    out = []
    for n in range(order + 1):
        out.append(Fraction(sum(ia[i] * ib[n - i] for i in range(n + 1)), da * db))
    return out


def _lcm_den(cs: list[Fraction]) -> int:
    d = 1
    for c in cs:
        d = lcm(d, c.denominator)
    return d


def exp_satisfies_ode(z: list[Fraction], e: list[Fraction]) -> bool:
    """e = exp(z) iff e_0 = 1 and n e_n = sum_k k z_k e_{n-k} (e' = z' e)."""
    if e[0] != 1:
        return False
    dz = [k * z[k] for k in range(len(z))]
    rhs = convolve(dz, e, len(e) - 1)
    return all(n * e[n] == rhs[n] for n in range(1, len(e)))


def rising_general(z: Fraction, alpha: Fraction, n: int) -> Fraction:
    """(z|alpha)_n = prod_{i<n} (z - i alpha)."""
    out = Fraction(1)
    for i in range(n):
        out *= z - i * alpha
    return out


def check_verify_output(rc: int, text: str) -> list[tuple[str, bool]]:
    """Checks of one `geopoly verify --id all --profile full` output."""
    checks = [("exit_0", rc == 0)]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return checks + [("json", False)]
    summary = doc["result"]["summary"]
    checks.append(("no_unexpected", summary["unexpected"] == [] and doc["status"] == "ok"))
    checks.append(("full_profile_counts", summary["counts"] == FULL_PROFILE_COUNTS))
    for rid in EXPECTED_FAIL_IDS:
        statuses = [r["status"] for r in doc["result"]["reports"] if r["id"] == rid]
        checks.append((f"{rid}_fails", bool(statuses) and all(s == "expected_fail_confirmed" for s in statuses)))
    return checks

