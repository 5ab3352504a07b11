"""One boundary table over the size arguments of the library.

Every size (n, k, s, m, r, a series order, a number of samples or of
operator applications, the precision) goes through `exact.as_size`, so each
row expects the same two refusals: a TypeError naming the argument for a
bool or a float, and one ValueError message just below its least value.
A size with a most value (a budget, or another argument) refuses the
value just above it with one ValueError message too.
The calls marked "True" returned a value for a bool size before they
shared the check.  Three sizes keep tests of their own that check more
than the message: the ``n`` of the four `analytic.eval_*` routines
(``EVALS_OF_N`` in test_analytic.py), the ``s`` of `hurwitz_zeta` against
a warm zeta cache (test_analytic.py), and the ``n`` of every prefix memo
against a cold and a warm store (test_memo.py).  The CLI rows show that
the library's message is the one a user sees, with exit code 2.
"""

import re
from fractions import Fraction as F

import pytest

from geopoly import cli
from geopoly.analytic import EvalConfig, eval_eq17_18
from geopoly.enumeration import (
    barred_preferential_count,
    ordered_set_partitions_count,
    r_stirling_count,
    set_partition_labels,
    set_partitions_count,
)
from geopoly.exact import falling_factorial, gen_factorial, rising_factorial
from geopoly.families import (
    check_corollary2,
    check_corollary4,
    check_corollary5,
    check_gf_matches,
    exp_poly,
    howard_power_sum,
    spivey_step,
)
from geopoly.identities import run
from geopoly.mellin import apply_operator, verify_eq4_operator, verify_series_identity
from geopoly.params import HsuShiueParams
from geopoly.series import PowerSeries, binom_deform, deformed_base, gf_degenerate_euler, gf_w
from geopoly.stirling import build_table, verify_against_gf

P = HsuShiueParams(F(1, 2), 3, -2)

# (id, call of the one size, its name, its least value)
ROWS = [
    ("gen_factorial", lambda v: gen_factorial(1, 1, v), "n", 0),
    ("rising_factorial True", lambda v: rising_factorial(3, v), "n", 0),
    ("falling_factorial", lambda v: falling_factorial(3, v), "n", 0),
    ("build_table", lambda v: build_table(P, v), "n_max", 0),
    ("verify_against_gf", lambda v: verify_against_gf(build_table(P, 3), v), "order", 0),
    ("set_partitions_count True", lambda v: set_partitions_count(v), "n", 0),
    ("set_partitions_count k True", lambda v: set_partitions_count(3, v), "k", 0),
    ("ordered_set_partitions_count k True", lambda v: ordered_set_partitions_count(3, v), "k", 0),
    ("r_stirling_count k True", lambda v: r_stirling_count(3, v, 1), "k", 0),
    ("r_stirling_count r True", lambda v: r_stirling_count(3, 1, v), "r", 0),
    ("barred_preferential_count", lambda v: barred_preferential_count(2, v), "s", 0),
    ("apply_operator True", lambda v: apply_operator(PowerSeries.one(2).coeffs, P, v), "times", 0),
    ("verify_series_identity True",
     lambda v: verify_series_identity("eq5", 0, 1, P, v), "order", 0),
    ("verify_series_identity order >= n",
     lambda v: verify_series_identity("eq5", 3, 1, P, v), "order", 3),
    ("verify_series_identity eq5 s True",
     lambda v: verify_series_identity("eq5", 1, v, P, 4), "s", 0),
    ("verify_series_identity eq21 s True",
     lambda v: verify_series_identity("eq21", 1, v, P, 4), "s", 0),
    ("verify_series_identity eq38_binomial s",
     lambda v: verify_series_identity("eq38_binomial", 1, v, P, 4), "s", 0),
    ("verify_eq4_operator True", lambda v: verify_eq4_operator(0, 1, P, v), "order", 0),
    ("verify_eq4_operator s True", lambda v: verify_eq4_operator(1, v, P, 4), "s", 0),
    ("gf_w True", lambda v: gf_w(P, v, F(1, 2), 4), "s", 1),
    ("gf_degenerate_euler", lambda v: gf_degenerate_euler(v, 0, 0, 4), "s", 0),
    ("binom_deform True", lambda v: binom_deform(0, 1, v), "order", 0),
    ("deformed_base", lambda v: deformed_base(0, 1, v), "order", 0),
    ("spivey_step n", lambda v: spivey_step(v, 1, 1, F(1, 2), P), "n", 0),
    ("spivey_step m", lambda v: spivey_step(1, v, 1, F(1, 2), P), "m", 0),
    ("check_corollary2", lambda v: check_corollary2(2, v, F(1, 2)), "r", 1),
    ("check_corollary4", lambda v: check_corollary4(2, v), "r", 0),
    ("howard_power_sum", lambda v: howard_power_sum(1, v, 2, 1), "m", 1),
    ("check_corollary5", lambda v: check_corollary5(1, v, 2, 1), "m", 1),
    ("check_gf_matches", lambda v: check_gf_matches(2, v, F(1, 2), P), "s", 1),
    ("run True", lambda v: run("EQ36", samples=v), "samples", 1),
    ("EvalConfig", lambda v: EvalConfig(v), "precision_bits", 64),
]


@pytest.mark.parametrize("call, name, least", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_every_size_has_one_boundary(call, name, least):
    for value in (True, 2.0):
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(value)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {least}, got {least - 1}")):
        call(least - 1)
    call(least)  # the least value itself is a size


# (id, call of the one size, its name, its most value)
CEILINGS = [
    ("EvalConfig", lambda v: EvalConfig(v), "precision_bits", 4096),
    ("set_partitions_count", lambda v: set_partitions_count(v), "n", 10),
    ("set_partition_labels", lambda v: next(set_partition_labels(v)), "n", 10),
    ("ordered_set_partitions_count", lambda v: ordered_set_partitions_count(v), "n", 10),
    ("barred_preferential_count", lambda v: barred_preferential_count(v, 1), "n", 10),
    ("barred_preferential_count s", lambda v: barred_preferential_count(1, v), "s", 12),
    ("r_stirling_count n", lambda v: r_stirling_count(v, 1, 1), "n", 10),
    ("r_stirling_count r <= n", lambda v: r_stirling_count(3, 1, v), "r", 3),
    ("verify_against_gf order <= n_max",
     lambda v: verify_against_gf(build_table(P, 3), v), "order", 3),
]


@pytest.mark.parametrize(
    "call, name, most", [r[1:] for r in CEILINGS], ids=[r[0] for r in CEILINGS]
)
def test_every_bounded_size_has_one_ceiling(call, name, most):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be <= {most}, got {most + 1}")):
        call(most + 1)
    call(most)  # the most value itself is a size


PARAMS = ["--alpha", "1/2", "--beta", "3", "--r", "-2"]
CLI_ROWS = [
    (["stirling", *PARAMS, "--nmax", "-1"], "n_max must be >= 0, got -1"),
    (["stirling", *PARAMS, "--nmax", str(cli.MAX_NMAX + 1)],
     f"n_max must be <= {cli.MAX_NMAX}, got {cli.MAX_NMAX + 1}"),
    (["poly", *PARAMS, "--family", "exp", "--n", "-1"], "n must be >= 0, got -1"),
    (["poly", *PARAMS, "--family", "geom", "--n", "-1"], "n must be >= 0, got -1"),
    *(
        (["series", "--id", sid, "--n", "-1", "--x", "1/2"], "n must be >= 0, got -1")
        for sid in ("theorem5", "zeta2k", "eq17", "eq18", "dobinski")
    ),
    *(
        (["poly", *PARAMS, "--family", family, "--n", str(cli.MAX_POLY_N + 1)],
         f"n must be <= {cli.MAX_POLY_N}, got {cli.MAX_POLY_N + 1}")
        for family in ("exp", "geom")
    ),
    *(
        (["series", "--id", sid, "--n", str(cli.MAX_SERIES_N + 1), "--x", "1/2"],
         f"n must be <= {cli.MAX_SERIES_N}, got {cli.MAX_SERIES_N + 1}")
        for sid in ("theorem5", "zeta2k", "eq17", "eq18", "dobinski")
    ),
    (["verify", "--id", "EQ36", "--samples", "0"], "samples must be >= 1, got 0"),
]
CLI_IDS = [" ".join(a for a in argv if a not in PARAMS) for argv, _ in CLI_ROWS]


@pytest.mark.parametrize("argv, message", CLI_ROWS, ids=CLI_IDS)
def test_cli_exits_2_with_the_library_message(argv, message, capsys):
    assert cli.main([*argv, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_the_cli_table_budget_leaves_build_table_unbounded():
    assert build_table(P, cli.MAX_NMAX + 1).n_max == cli.MAX_NMAX + 1


def test_the_cli_n_budgets_leave_the_library_unbounded(monkeypatch, capsys):
    # at budgets of 3, n = 4 exits 2 in each command before any computation
    # and still computes in the library
    monkeypatch.setattr(cli, "MAX_POLY_N", 3)
    monkeypatch.setattr(cli, "MAX_SERIES_N", 3)
    assert cli.main(["poly", *PARAMS, "--family", "geom", "--n", "4"]) == 2
    assert cli.main(["series", "--id", "eq17", "--n", "4", *PARAMS]) == 2
    assert capsys.readouterr().err == "error: n must be <= 3, got 4\n" * 2
    assert exp_poly(4, P).coeffs[-1] == 1
    assert eval_eq17_18(4, P, EvalConfig(64), eq=17).status == "pass"
