"""Exact-arithmetic toolkit for generalized Stirling numbers, geometric
polynomial families, degenerate Bernoulli/Euler polynomials, and the
oracle-backed verification of the identities connecting them.

Importing the package loads none of its modules: the first read of a
public name, or of a module as ``geopoly.<module>``, imports the module
that defines it (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# every module of the package -> the public names it provides
_EXPORTS = {
    "analytic": (
        "EvalConfig", "digamma", "eval_dobinski_numeric", "eval_eq17_18", "eval_eq30_family",
        "eval_theorem5", "gamma_euler", "hurwitz_zeta", "log2", "pi", "zeta_int",
    ),
    "cli": (),
    "enumeration": (
        "barred_preferential_count", "ordered_set_partitions_count", "r_stirling_count",
        "set_partitions_count",
    ),
    "exact": (
        "Rational", "as_rational", "falling_factorial", "gen_factorial", "rising_factorial",
    ),
    "families": (
        "bernoulli_number", "bernoulli_numbers", "bernoulli_poly", "bpa_number", "carlitz_beta",
        "degenerate_bernoulli2", "degenerate_euler", "eval_minus_one", "exp_poly", "geometric_at",
        "geometric_poly", "howard_power_sum", "spivey_step",
    ),
    "identities": ("IDENTITY_IDS", "run", "run_all"),
    "mellin": ("apply_operator",),
    "memo": (),
    "params": ("HsuShiueParams",),
    "polynomials": ("PolyQ",),
    "record": (),
    "report": ("CheckReport",),
    "series": (
        "PowerSeries", "binom_deform", "divide", "exp_series",
        "gf_bernoulli2_degenerate", "gf_carlitz_beta", "gf_degenerate_euler", "gf_w", "inverse",
        "log_series", "pow_int", "pow_series",
    ),
    "stirling": ("StirlingTable", "build_table", "cached_table", "specialize", "verify_against_gf"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
