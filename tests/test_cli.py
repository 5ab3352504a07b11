import contextlib
import hashlib
import importlib
import io
import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

from geopoly import analytic, cli
from geopoly import identities as I


@pytest.fixture
def run_cli(fresh_python):
    """The CLI in a fresh interpreter: ``run_cli(*args, module=...)``."""
    return lambda *args, module="geopoly.cli": fresh_python("-m", module, *args)


def test_stirling_classical_row4(run_cli):
    out = run_cli(
        "stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "4",
        "--no-timing",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["rows"][4] == ["0", "1", "7", "6", "1"]


def test_stirling_csv_rows(run_cli):
    out = run_cli(
        "stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "4",
        "--format", "csv",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[4] == "0,1,7,6,1"


def test_stirling_rational_entry(run_cli):
    out = run_cli(
        "stirling", "--alpha", "1/2", "--beta", "3", "--r", "-2", "--nmax", "2",
        "--no-timing",
    )
    doc = json.loads(out.stdout)
    # (2,1) entry: 2r + beta - alpha = -3/2
    assert doc["result"]["rows"][2][1] == "-3/2"


def test_stirling_forbidden_triple_exits_2(run_cli):
    out = run_cli("stirling", "--alpha", "0", "--beta", "0", "--r", "0", "--nmax", "3")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_decimal_input_rejected(run_cli):
    out = run_cli("stirling", "--alpha", "0.5", "--beta", "1", "--r", "0", "--nmax", "2")
    assert out.returncode == 2
    assert "rational" in out.stderr


def test_poly_fubini_value(run_cli):
    out = run_cli(
        "poly", "--family", "geom", "--n", "3", "--order-m", "1",
        "--alpha", "0", "--beta", "1", "--r", "0", "--at", "1", "--no-timing",
    )
    doc = json.loads(out.stdout)
    assert doc["result"]["value"] == "13"


def test_poly_n0_and_negative_order(run_cli):
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


def test_rational_round_trip(run_cli):
    out = run_cli(
        "poly", "--family", "exp", "--n", "4", "--alpha", "1/2", "--beta", "3",
        "--r", "-2/3", "--no-timing",
    )
    doc = json.loads(out.stdout)
    for c in doc["result"]["coeffs"]:
        F(c)  # every emitted rational parses back exactly


def test_series_zeta2k_passes(run_cli):
    out = run_cli("series", "--id", "zeta2k", "--n", "0", "--bits", "256", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["status"] == "pass"
    assert float(doc["result"]["detail"]["abs_diff"]) < 1e-30


def test_series_eq17_hand_witness(run_cli):
    out = run_cli(
        "series", "--id", "eq17", "--n", "1", "--alpha", "1", "--beta", "2",
        "--r", "3", "--no-timing",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["status"] == "pass"
    assert abs(float(doc["result"]["detail"]["lhs"]) - 3) < 1e-40


def test_series_theorem5(run_cli):
    out = run_cli(
        "series", "--id", "theorem5", "--n", "0", "--x", "1/3",
        "--alpha", "0", "--beta", "1", "--r", "0", "--no-timing",
    )
    assert out.returncode == 0


def test_series_requires_x_when_needed(run_cli):
    out = run_cli("series", "--id", "theorem5", "--n", "0")
    assert out.returncode == 2


@pytest.mark.parametrize("how", ["flag"])  # --bits is the one way to set precision
def test_series_bits_above_budget_exit_2(how, run_cli):
    out = run_cli("series", "--id", "zeta2k", "--n", "0", "--bits", "4097")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: precision_bits must be <= 4096, got 4097\n"


def test_an_exhausted_term_budget_exits_2(monkeypatch, capsys):
    # a series that needs more terms than the budget is a limit, not a failed check
    monkeypatch.setattr(analytic, "MAX_TERMS", 50)
    argv = ["series", "--id", "theorem5", "--n", "1", "--x", "99/100", "--bits", "64"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tail bound not reached within max_terms\n"


def test_bits_defaults_to_256(monkeypatch, capsys):
    assert cli.main(["series", "--id", "zeta2k", "--n", "0", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["bits"] == 256
    monkeypatch.setenv("COLUMNS", "100")  # one help line per option
    assert cli.main(["series", "--help"]) == 0
    assert "precision bits (default 256)" in capsys.readouterr().out


def test_python_dash_m_geopoly_is_the_cli(run_cli):
    args = ("verify", "--id", "EQ36", "--samples", "1", "--no-timing")
    package, module = run_cli(*args, module="geopoly"), run_cli(*args)
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout
    assert package.stderr == module.stderr == ""


def test_verify_quick_all_exit_zero(run_cli):
    out = run_cli("verify", "--id", "all", "--profile", "quick", "--seed", "1", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["summary"]["counts"]["fail"] == 0


def test_verify_printed_regression_exit_zero(run_cli):
    out = run_cli("verify", "--id", "EQ37_PRINTED", "--seed", "1", "--no-timing")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    statuses = {r["status"] for r in doc["result"]["reports"]}
    assert statuses == {"expected_fail_confirmed"}


def test_verify_unknown_id_exit_2(run_cli):
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
    # without --samples an id draws its profile's default_samples
    for profile, samples in (("quick", 2), ("full", 4)):
        assert cli.main(["verify", "--id", "EQ36", "--profile", profile, "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["samples"] == samples
        assert len(doc["result"]["reports"]) == samples


def test_byte_identical_without_timing(run_cli):
    args = ("verify", "--id", "EQ36", "--seed", "4", "--samples", "3", "--no-timing")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def _stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


# sha256 of `verify --id all --profile <p> --seed 1 --no-timing`: the byte gate
# that a refactor must leave unchanged unless it says why the output moves.
VERIFY_ALL_SHA256 = {
    "quick": "5359a45858876fd5c63d8e6f0c9cb62812172356e238add9e0590fd326220793",
    "full": "7bb6a109debaaff1381e0ca9de96b4470270848fd089703083b36c7f5879a930",
}


@pytest.mark.parametrize("profile", sorted(VERIFY_ALL_SHA256))
def test_verify_all_byte_gate(profile):
    rc, out = _stdout_of(
        ["verify", "--id", "all", "--profile", profile, "--seed", "1", "--no-timing"]
    )
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[profile]


TRIPLE = ("--alpha", "1/2", "--beta", "2", "--r", "1")

# sha256 of stdout for `--no-timing` invocations of the other commands, each
# exiting 0: the output frame must leave these bytes as they are.  The series
# rows hash printed digits, so a change of those digits re-pins them too.
COMMAND_SHA256 = [
    (("stirling", "--alpha", "1/2", "--beta", "3", "--r", "-2", "--nmax", "5"),
     "984e21da20525ea2624f960ddb4513a669e4ad3ba213cfd5635f588dbb419b57"),
    (("stirling", "--alpha", "1/2", "--beta", "3", "--r", "-2", "--nmax", "5",
      "--format", "csv"),
     "3a6c7c0b1cde1314c75decfb603d2e44683e8c191b87d4306b3e06fd6935af38"),
    (("poly", "--family", "exp", "--n", "4", "--alpha", "1/2", "--beta", "3",
      "--r", "-2/3"),
     "b42f0b14db77dbdb3adcc130ef0168cd33c41c281d9dbf4f5f781a44a01c057d"),
    (("poly", "--family", "geom", "--n", "3", "--order-m", "-2", "--alpha", "1/2",
      "--beta", "2", "--r", "-1", "--at", "1/3"),
     "3ba65e46bb5b4c06a9b4229ab3fc5c94398ae4ecbcef68eb6f9c282811d480ab"),
    (("series", "--id", "zeta2k", "--n", "2", "--bits", "128"),
     "340d51cc9a46f1d8b924f4ca74cb863a3da874551c9f077a5228524d48c37a71"),
    (("series", "--id", "theorem5", "--n", "2", "--x", "1/3", *TRIPLE, "--bits", "128"),
     "15a11ef5aa8d5afc3f7b9b1579b160145a119c066bb60703abefa3903ad02298"),
    (("series", "--id", "eq17", "--n", "2", *TRIPLE, "--bits", "128"),
     "f560a233699b3f5b465013d921c99f3dfad1e104c9acd12ca735506562e27f2c"),
    (("series", "--id", "eq18", "--n", "2", *TRIPLE, "--bits", "128"),
     "ed1ac01d981deddc092f60b11ec14f2e8a07cc031752c81d2a8a153b3fd9a51a"),
    (("series", "--id", "dobinski", "--n", "3", "--x", "1/2", *TRIPLE, "--bits", "128"),
     "946fd14b4537d4b61e6870b5498749cf845ee428404a147bee1ed1a711629a88"),
    (("series", "--id", "zeta2k", "--n", "2", "--bits", "256"),
     "ab73258f8f042bcfb533aa153f15898cbc71b6b77ca79648f256312a8e4c174b"),
    (("series", "--id", "theorem5", "--n", "2", "--x", "1/3", *TRIPLE, "--bits", "256"),
     "17c2532c7899458a238a770e35ce8a7d49088bc96c9a76ff2b7e25f9bcb365c0"),
    (("series", "--id", "eq17", "--n", "2", *TRIPLE, "--bits", "256"),
     "82228ff8922b9fa1b196b2b53cfefd9ca07a5850b15de4a992ded9274025a5b9"),
    (("series", "--id", "eq18", "--n", "2", *TRIPLE, "--bits", "256"),
     "adf7483bb99a5261f24027f119b4fe33a5c0469588df9bb7d68a24b28ccaf576"),
    (("series", "--id", "dobinski", "--n", "3", "--x", "1/2", *TRIPLE, "--bits", "256"),
     "01645b1282d97f83f3c919940a5587d082531bebca55c4e316bd0146f5ce901f"),
    (("verify", "--id", "EQ36", "--samples", "3"),
     "1aa8dcb75214093966e9beb40b282a960f1b964c4039e0ae3333bb5e77576ab6"),
]


COMMAND_IDS = [" ".join(argv[:3] + argv[-1:]) for argv, _ in COMMAND_SHA256]


@pytest.mark.parametrize("argv,digest", COMMAND_SHA256, ids=COMMAND_IDS)
def test_command_bytes_pinned(argv, digest):
    rc, out = _stdout_of((*argv, "--no-timing"))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_SHA256], ids=COMMAND_IDS)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    rc, out = _stdout_of((*argv, "--no-timing"))
    target = tmp_path / "out.txt"
    assert cli.main([*argv, "--no-timing", "--out", str(target)]) == rc
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


def test_an_unwritable_out_file_exits_2_before_the_computation(monkeypatch, capsys, tmp_path, run_cli):
    argv = ("stirling", "--alpha", "0", "--beta", "1", "--r", "0", "--nmax", "2")
    missing = tmp_path / "no-such-dir" / "x.json"
    out = run_cli(*argv, "--out", str(missing))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert str(missing) in out.stderr
    monkeypatch.setattr(cli, "build_table", lambda *a: pytest.fail("computed before --out"))
    for target in (missing, tmp_path):  # a missing directory, a directory
        assert cli.main([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def _move_closed_side(monkeypatch, rid):
    """Add 1/7 to what the record's own closed name returns: its reports must fail."""
    module_name, attr = I.REGISTRY[I.IDENTITY_IDS.index(rid)].closed.split(".")
    module = importlib.import_module(f"geopoly.{module_name}")
    closed = getattr(module, attr)

    def moved(*args, **kwargs):
        value = closed(*args, **kwargs)
        return value + (analytic._dec(F(1, 7)) if isinstance(value, Decimal) else F(1, 7))

    monkeypatch.setattr(module, attr, moved)


@pytest.mark.parametrize(
    "rid,argv,status",
    [
        ("EQ30_FAMILY", ("series", "--id", "zeta2k", "--n", "2"), "fail"),
        ("EQ19", ("verify", "--id", "EQ19"), "unexpected_failures"),
        ("EQ19", ("verify", "--id", "all"), "unexpected_failures"),
    ],
    ids=["series", "verify-one", "verify-all"],
)
def test_a_failed_check_exits_1(monkeypatch, tmp_path, rid, argv, status):
    _move_closed_side(monkeypatch, rid)
    rc, out = _stdout_of((*argv, "--no-timing"))
    assert rc == 1
    assert json.loads(out)["status"] == status
    target = tmp_path / "out.json"
    assert cli.main([*argv, "--no-timing", "--out", str(target)]) == 1
    assert target.read_text() == out


def test_verify_all_lists_each_failure_once_by_index(monkeypatch):
    _move_closed_side(monkeypatch, "EQ19")
    rc, out = _stdout_of(("verify", "--id", "all", "--no-timing"))
    result = json.loads(out)["result"]
    failed = [i for i, r in enumerate(result["reports"]) if r["status"] == "fail"]
    assert rc == 1 and failed and result["summary"]["unexpected"] == failed
    assert "EQ19" in {result["reports"][i]["id"] for i in failed}


def test_out_file(tmp_path, run_cli):
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
