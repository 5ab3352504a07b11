import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from geopoly import cli

CMD = [sys.executable, "-m", "geopoly.cli"]
# The CLI child imports the same geopoly as these tests, installed or not.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_stirling_classical_row4():
    out = run_cli(
        "stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "4",
        "--no-timing",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["rows"][4] == ["0", "1", "7", "6", "1"]


def test_stirling_csv_rows():
    out = run_cli(
        "stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "4",
        "--format", "csv",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[4] == "0,1,7,6,1"


def test_stirling_rational_entry():
    out = run_cli(
        "stirling", "--alpha", "1/2", "--beta", "3", "--r", "-2", "--nmax", "2",
        "--no-timing",
    )
    doc = json.loads(out.stdout)
    # (2,1) entry: 2r + beta - alpha = -3/2
    assert doc["result"]["rows"][2][1] == "-3/2"


def test_stirling_forbidden_triple_exits_2():
    out = run_cli("stirling", "--alpha", "0", "--beta", "0", "--r", "0", "--nmax", "3")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_decimal_input_rejected():
    out = run_cli("stirling", "--alpha", "0.5", "--beta", "1", "--r", "0", "--nmax", "2")
    assert out.returncode == 2
    assert "rational" in out.stderr


def test_poly_fubini_value():
    out = run_cli(
        "poly", "--family", "geom", "--n", "3", "--order-m", "1",
        "--alpha", "0", "--beta", "1", "--r", "0", "--at", "1", "--no-timing",
    )
    doc = json.loads(out.stdout)
    assert doc["result"]["value"] == "13"


def test_poly_n0_and_negative_order():
    out = run_cli(
        "poly", "--family", "geom", "--n", "0", "--order-m", "1",
        "--alpha", "1/2", "--beta", "2", "--r", "-1", "--no-timing",
    )
    assert json.loads(out.stdout)["result"]["coeffs"] == ["1"]
    out = run_cli(
        "poly", "--family", "geom", "--n", "2", "--order-m", "-2",
        "--alpha", "1/2", "--beta", "2", "--r", "-1", "--at", "0", "--no-timing",
    )
    # constant term is (r|alpha)_2 = (-1)(-1 - 1/2)
    assert json.loads(out.stdout)["result"]["value"] == str(F(-1) * F(-3, 2))


def test_rational_round_trip():
    out = run_cli(
        "poly", "--family", "exp", "--n", "4", "--alpha", "1/2", "--beta", "3",
        "--r", "-2/3", "--no-timing",
    )
    doc = json.loads(out.stdout)
    for c in doc["result"]["coeffs"]:
        F(c)  # every emitted rational parses back exactly


def test_series_zeta2k_passes():
    out = run_cli("series", "--id", "zeta2k", "--n", "0", "--bits", "256", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["status"] == "pass"
    assert float(doc["result"]["detail"]["abs_diff"]) < 1e-30


def test_series_eq17_hand_witness():
    out = run_cli(
        "series", "--id", "eq17", "--n", "1", "--alpha", "1", "--beta", "2",
        "--r", "3", "--no-timing",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["status"] == "pass"
    assert abs(float(doc["result"]["detail"]["lhs"]) - 3) < 1e-40


def test_series_theorem5():
    out = run_cli(
        "series", "--id", "theorem5", "--n", "0", "--x", "1/3",
        "--alpha", "0", "--beta", "1", "--r", "0", "--no-timing",
    )
    assert out.returncode == 0


def test_series_requires_x_when_needed():
    out = run_cli("series", "--id", "theorem5", "--n", "0")
    assert out.returncode == 2


def test_series_env_var_bits():
    import os

    env = dict(os.environ, GEOPOLY_BITS="128")
    out = run_cli("series", "--id", "zeta2k", "--n", "0", "--no-timing", env=env)
    doc = json.loads(out.stdout)
    assert doc["params"]["bits"] == 128


@pytest.mark.parametrize("how", ["flag", "env"])
def test_series_bits_above_budget_exit_2(how):
    argv = ["series", "--id", "zeta2k", "--n", "0"]
    if how == "flag":
        out = run_cli(*argv, "--bits", "4097")
    else:
        out = run_cli(*argv, env=dict(os.environ, GEOPOLY_BITS="4097"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: precision_bits must be <= 4096, got 4097\n"


def test_verify_quick_all_exit_zero():
    out = run_cli("verify", "--id", "all", "--profile", "quick", "--seed", "1", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["summary"]["counts"]["fail"] == 0


def test_verify_printed_regression_exit_zero():
    out = run_cli("verify", "--id", "EQ37_PRINTED", "--seed", "1", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    statuses = {r["status"] for r in doc["result"]["reports"]}
    assert statuses == {"expected_fail_confirmed"}


def test_verify_unknown_id_exit_2():
    out = run_cli("verify", "--id", "NOPE")
    assert out.returncode == 2


def test_verify_unknown_id_names_known_ids(capsys):
    assert cli.main(["verify", "--id", "NOPE"]) == 2
    assert "known ids: EQ1, EQ3_VS_GF8" in capsys.readouterr().err


def test_verify_profile_choices_come_from_profiles(capsys):
    assert cli.main(["verify", "--id", "EQ36", "--profile", "bogus"]) == 2
    assert "choose from 'quick', 'full'" in capsys.readouterr().err


def test_verify_single_id_description_from_record(capsys):
    assert cli.main(["verify", "--id", "EQ36", "--samples", "1", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["description"] == "rising factorial reflection <-x>_n = (-1)^n (x)_n"


def test_verify_all_rejects_samples(capsys):
    assert cli.main(["verify", "--id", "all", "--samples", "1", "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert "--samples does not apply to --id all" in err
    assert "default_samples (2 for quick) applies" in err


def test_verify_single_id_samples_default(capsys):
    assert cli.main(["verify", "--id", "EQ36", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["samples"] == 4
    assert len(doc["result"]["reports"]) == 4


def test_byte_identical_without_timing():
    args = ("verify", "--id", "EQ36", "--seed", "4", "--samples", "3", "--no-timing")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# sha256 of `verify --id all --profile <p> --seed 1 --no-timing`: the byte gate
# that a refactor must leave unchanged unless it says why the output moves.
VERIFY_ALL_SHA256 = {
    "quick": "5359a45858876fd5c63d8e6f0c9cb62812172356e238add9e0590fd326220793",
    "full": "7bb6a109debaaff1381e0ca9de96b4470270848fd089703083b36c7f5879a930",
}


@pytest.mark.parametrize("profile", sorted(VERIFY_ALL_SHA256))
def test_verify_all_byte_gate(profile):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(
            ["verify", "--id", "all", "--profile", profile, "--seed", "1", "--no-timing"]
        )
    assert rc == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256[profile]


def test_out_file(tmp_path):
    target = tmp_path / "table.json"
    out = run_cli(
        "stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "3",
        "--no-timing", "--out", str(target),
    )
    assert out.returncode == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["rows"][3] == ["0", "1", "3", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["stirling", "--alpha", "1e3", "--beta", "1", "--r", "0", "--nmax", "2"],
        ["poly", "--family", "exp", "--n", "2", "--alpha", "0", "--beta", "1",
         "--r", "0", "--at", "1.5"],
        ["poly", "--family", "geom", "--n", "2", "--order-m", "0.5", "--alpha", "0",
         "--beta", "1", "--r", "0"],
        ["series", "--id", "theorem5", "--n", "1", "--x", "0.5"],
        ["series", "--id", "dobinski", "--n", "1", "--x", "1/0"],
    ],
)
def test_inexact_rationals_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "not an exact rational" in capsys.readouterr().err
