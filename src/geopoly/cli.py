"""Command-line surface: tables, polynomial evaluation, series, verification.

Output is a single JSON document per invocation (CSV available for tables).
Rationals are parsed and emitted exactly as "p/q" or integer strings --
decimal input is rejected to keep the exact commands exact.  Exit codes:
0 success, 1 a check failed its tolerance or an unexpected identity status,
2 parse/validation error (a `stirling --nmax` past MAX_NMAX among them),
an exhausted term budget (ArithmeticError), or an --out file that cannot
be opened (tried before any computation).  Each command returns its
echoed params, result and status (or raw CSV text); `main` alone frames,
times and writes them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .analytic import (
    EvalConfig,
    eval_dobinski_numeric,
    eval_eq17_18,
    eval_eq30_family,
    eval_theorem5,
)
from .exact import as_rational, as_size
from .families import exp_poly, geometric_poly
from .identities import IDENTITY_IDS, PROFILES, REGISTRY, run, run_all
from .params import HsuShiueParams
from .report import fmt_rational
from .stirling import build_table


# The largest table `geopoly stirling --nmax` prints; `build_table` itself
# takes any n_max.  The table is the cheap part: `build_table` took 0.47 s at
# n = 800 on (-1/3, 5/2, 1/4) in BENCH_exact.json.  Printing it is not: the
# command took 0.39 s, 40 MiB of peak RSS and 6 MB of JSON at 200, 2.9 s,
# 215 MiB and 50 MB at 400, and 28 s, 1.6 GiB and 425 MB at 800.
MAX_NMAX = 400


def _params_from(ns: argparse.Namespace) -> HsuShiueParams:
    return HsuShiueParams(as_rational(ns.alpha), as_rational(ns.beta), as_rational(ns.r))


def _cmd_stirling(ns: argparse.Namespace) -> tuple[dict, dict, str] | str:
    table = build_table(_params_from(ns), as_size(ns.nmax, "n_max", 0, MAX_NMAX))
    rows = [[fmt_rational(v) for v in table.row(n)] for n in range(ns.nmax + 1)]
    if ns.format == "csv":
        return "\n".join(",".join(row) for row in rows)
    params = {"alpha": ns.alpha, "beta": ns.beta, "r": ns.r, "nmax": ns.nmax}
    return params, {"rows": rows}, "ok"


def _cmd_poly(ns: argparse.Namespace) -> tuple[dict, dict, str]:
    triple = _params_from(ns)
    if ns.family == "exp":
        poly = exp_poly(ns.n, triple)
    else:
        poly = geometric_poly(ns.n, as_rational(ns.order_m), triple)
    result: dict = {"coeffs": [fmt_rational(c) for c in poly.coeffs] or ["0"]}
    if ns.at is not None:
        result["at"] = ns.at
        result["value"] = fmt_rational(poly(as_rational(ns.at)))
    params = {
        "family": ns.family,
        "n": ns.n,
        "order_m": ns.order_m,
        "alpha": ns.alpha,
        "beta": ns.beta,
        "r": ns.r,
    }
    return params, result, "ok"


def _cmd_series(ns: argparse.Namespace) -> tuple[dict, dict, str]:
    cfg = EvalConfig(ns.bits)
    if ns.id in ("theorem5", "dobinski") and ns.x is None:
        raise ValueError(f"--x is required for {ns.id}")
    if ns.id == "zeta2k":
        rpt = eval_eq30_family(ns.n, cfg)
    elif ns.id == "theorem5":
        rpt = eval_theorem5(_params_from(ns), ns.n, as_rational(ns.x), cfg)
    elif ns.id == "dobinski":
        rpt = eval_dobinski_numeric(ns.n, _params_from(ns), as_rational(ns.x), cfg)
    else:
        rpt = eval_eq17_18(ns.n, _params_from(ns), cfg, eq=int(ns.id[2:]))
    params = {
        "id": ns.id,
        "n": ns.n,
        "x": ns.x,
        "alpha": ns.alpha,
        "beta": ns.beta,
        "r": ns.r,
        "bits": cfg.precision_bits,
    }
    return params, rpt.to_dict(), rpt.status


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, dict, str]:
    default_samples = PROFILES[ns.profile].default_samples
    if ns.id == "all":
        if ns.samples is not None:
            raise ValueError(
                "--samples does not apply to --id all: the profile's default_samples "
                f"({default_samples} for {ns.profile}) applies"
            )
        summary = run_all(seed=ns.seed, profile=ns.profile)
        reports = summary.pop("reports")
        params = {"id": "all", "seed": ns.seed, "profile": ns.profile}
        result = {"summary": summary}
        failed = summary["unexpected"]
    else:
        samples = default_samples if ns.samples is None else ns.samples
        reports = run(ns.id, seed=ns.seed, samples=samples, profile=ns.profile)
        params = {
            "id": ns.id,
            "seed": ns.seed,
            "samples": samples,
            "profile": ns.profile,
        }
        result = {"description": REGISTRY[IDENTITY_IDS.index(ns.id)].description}
        failed = [r for r in reports if not r.ok()]
    result["reports"] = [r.to_dict() for r in reports]
    return params, result, "unexpected_failures" if failed else "ok"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopoly",
        description="Exact generalized Stirling / geometric polynomial toolkit",
    )
    parser.add_argument("--version", action="version", version=f"geopoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", required=True, help="rational p/q or integer")
        p.add_argument("--beta", required=True, help="rational p/q or integer")
        p.add_argument("--r", required=True, help="rational p/q or integer")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-timing", action="store_true", help="omit the timing field")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("stirling", help="emit a triangular table")
    add_params(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(fn=_cmd_stirling)

    p = sub.add_parser("poly", help="polynomial coefficients / evaluation")
    add_params(p)
    p.add_argument("--family", choices=("exp", "geom"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-m", dest="order_m", default="1", help="order m (geom family)")
    p.add_argument("--at", default=None, help="evaluate at rational x")
    add_common(p)
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("series", help="numeric series identity evaluation")
    p.add_argument(
        "--id", choices=("theorem5", "zeta2k", "eq17", "eq18", "dobinski"), required=True
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default=None, help="rational series argument")
    p.add_argument("--alpha", default="0")
    p.add_argument("--beta", default="1")
    p.add_argument("--r", default="0")
    p.add_argument("--bits", type=int, default=256, help="precision bits (default %(default)s)")
    add_common(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--id", required=True, help="identity id or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=None,
                   help="samples of one id (default: the profile's default_samples); "
                   "not with --id all")
    p.add_argument("--profile", choices=tuple(PROFILES), default="quick")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    # let "-2/3" style values through to --alpha/--beta/--r/--at/--x
    matcher = re.compile(r"^-\d+(/\d+)?$")
    parser._negative_number_matcher = matcher
    for action in sub._name_parser_map.values():
        action._negative_number_matcher = matcher

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:  # an unwritable --out fails here, before the computation
        sink = open(ns.out, "w") if ns.out else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        out = ns.fn(ns)
        if isinstance(out, str):  # a CSV table
            text, status = out, "ok"
        else:
            params, result, status = out
            payload = {
                "command": ns.command,
                "params": params,
                "result": result,
                "status": status,
            }
            if not ns.no_timing:
                payload["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
            text = json.dumps(payload, indent=2, sort_keys=True)
        print(text, file=sink)  # stdout when sink is None
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    return 0 if status in ("ok", "pass") else 1


if __name__ == "__main__":
    sys.exit(main())
