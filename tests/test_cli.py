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
    "quick": "d95cd46d0e8a44908494c5ebde39ac863300b30991973fd538a4d0560ed60be9",
    "full": "4c4f65d904bc76b1f47b16897956319965d6d47d4964ff8cf40d791f4c8687d0",
}


@pytest.mark.parametrize("profile", sorted(VERIFY_ALL_SHA256))
def test_verify_all_byte_gate(profile):
    rc, out = _stdout_of(
        ["verify", "--id", "all", "--profile", profile, "--seed", "1", "--no-timing"]
    )
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[profile]


# sha256 of each id's reports in the same document, the list of that id's
# report objects serialized as the document is (sorted keys, indent 2): a
# re-pin shows as the rows that moved, and an appended id adds rows.
VERIFY_ID_SHA256 = {
    "quick": {
        "EQ1": "2a7eaac0409b62e7a683335d14f091b4374c603a1997d5b211d1acd39458dfd1",
        "EQ3_VS_GF8": "a266868c73bc78435119262b519b68eec5b65163cab5c29e669b62f267607658",
        "EQ4_OPERATOR": "7b6dec7a80b047896ace60b7491a96cb6ee73cc2ede55e830b663dcf08ddbac9",
        "EQ5": "4157b3defc3a93308a457393a72fd1de8cb1988b1a22b7a9111da7e698f81093",
        "EQ7_GAMMA": "49c2f3116181f8da340256bb1414cdc12a81dc32b5a3bfad857ba7e2ce235ccf",
        "EQ10": "c8cd0c465018a95d36a726114bb3022d16821ceebe0ed4440528a3770a173551",
        "EQ14": "0caa253b9abad6216bbd5621174d63b0517f8cbdbbd3b24ebf4765f4767fa73b",
        "EQ15": "d5404b427b6a7a5bbb5eb2c4b7abd8f1382c42d74678bb31cc05b03fade112fa",
        "EQ16_EXACT": "becfeb3270f6b45d79fee6324fb30e3aa04af2ba8fa0c31575ee723ff29cc2b5",
        "EQ16_NUMERIC": "bd1a9680a2728651d2dc4f27990b29f254d661f602d92b66bdff175306ea8b32",
        "EQ17": "b62a7cb04ff388acf06a7980a0e5c76e9f3679da9b1843342c4d302aa9162a91",
        "EQ18": "20657f897188efeea1dc88d215e1a6ef461f9e9f445c932cb8dc5009b158b0f6",
        "EQ19": "351d8d49955eef78ba6a1275c8fa76ac624d22597c8c2781cbfb37debe2af888",
        "EQ21": "386cde60403c6d6929ebd5ac1f43ba871af203680b8aaaf2531aaa47eb95c5e9",
        "EQ26": "29b17cff15ceed31535184aa983b472575d6d40cd6c852f4ffe2831fef340397",
        "EQ27": "2882b94438110222560724be0c34d5f8a730c3d484134c37c76920b8a8407b74",
        "EQ29": "2207c7faae6262645d3cdfdc6791d25147b5119afa07975b13b7effcd2d42d20",
        "EQ30_FAMILY": "78d9c04c1931986d8800d3718b4826ab2aa11a729beb771e1f133090028d8114",
        "EQ31": "ffe77e61af7308bd6d10abad1e03a20f8be726bcbbd12d30845faa682688ac5a",
        "EQ32": "000017e700eacf327c7e7d15d88ddffb09fa9adde03b37a3776aeb6cca8fff49",
        "EQ33": "62982458a78ae9d0c0b9522d84d586ffeddf9ebd4eecedc410db5d562e6381e5",
        "EQ34_THM2": "6db4084df313a0e2dd5d1c10e595ec5df15c44c49251452be754df29e2a39b30",
        "EQ36": "c6ef2d0f037d4af0a3d2219a78a10562da01718eae3bb9c129a24d58b7738dd6",
        "EQ37_CORRECTED": "de87c84d4452d98076697a6a3607fc22e9792e11a7ca747ba1ed792de2ec8deb",
        "EQ37_PRINTED": "a52a50a502a59a71c33ae24f93932a6f40c619ba702bd406c187ad7b0b2546b9",
        "EQ38": "71aeaed768dcb64d0ba28f2eea863fbc510d6a0b32264a89a7e897f5f132f8bc",
        "COR2": "2be82aba0388834436e1a83a12ed46a62838f659e932c00872f3680b1e84aa80",
        "COR4": "3eded917c5a276462984886441e375c60a0a279bcac563630572a047deb6a01a",
        "COR5_CORRECTED": "ef9c84d1290b9a8fd00d9e1c7d1e2cd69ffa6087a0444c7a7743c9d933a1cba8",
        "COR5_PRINTED": "36d27ab9e6040d16c5518c703e432af8d841ea003e89f6d9a02800161b36f408",
        "SPIVEY": "c8ebd6dc32c63b697b94d7f3d0348c731dba4c78b353dc980980ee7e65cec3cb",
        "MINUS_ONE": "678ec5b15d180e175e3bba4043283be24ba89c19443a90a378407d939e39cc14",
        "BPA_NUMBERS": "e587b34286da9ca569c9962504c9ac27c71581b4063d32fee3db47b5206b0c27",
        "FUBINI": "fc3be4f32c2035df3f5da6e65eae9b08b7c5a676148a630a159a66b9c1c00edb",
        "GF_VS_TABLE": "a1d7216ae0bd8fe367c57898dd42be1cef5fd23bf7caaddbf72700fb984c62f1",
    },
    "full": {
        "EQ1": "50578da4ab1fbeaea491a25d201b6dd7b8a4373120e0723345ff3d8f17a6ef81",
        "EQ3_VS_GF8": "5c1ef12232c31244166ec00031feae062d27b48be93313829a38651ff0d2269b",
        "EQ4_OPERATOR": "df901e824573c04e70b0bcf0ec76d0efd8b56a33076ddd981e2d83460c2dc0e9",
        "EQ5": "8ac5c4400cdb0165212df0ecb41cc851ca576ebd8395bd1339e3f64ab78665d3",
        "EQ7_GAMMA": "f06c663147feb2c79881c586b08250ec38c8d27f89df70fd23c69356bf9696af",
        "EQ10": "6952144d46009459f8d43d1eca9343770e45c384b5b153e252f0aa0979f276da",
        "EQ14": "0caa253b9abad6216bbd5621174d63b0517f8cbdbbd3b24ebf4765f4767fa73b",
        "EQ15": "b3fb4457e949034462066d35a4a1e96b71d99b5c22626fb5f09ce0254cfc9fd8",
        "EQ16_EXACT": "07aba180ac5b2412acaff191d9e30350e85122e0f68ec6bc4d4d1d8a9fdb3fb5",
        "EQ16_NUMERIC": "415d90c301afc07e40e82fa79e2e75d3d0014b655fb3f1800942b12d1ed5cc3d",
        "EQ17": "de3235ec93bba88013ed6eb8ac3b4b8a0855d9e700bf87095e1f434fdb412e82",
        "EQ18": "d8a762de123779efe213a67c51317a1c47c686934952f4aa1a17448597f945c2",
        "EQ19": "9fb93a0897fcef3b51400b7823f6870bef05c798c4eb004b63b68404ccee0266",
        "EQ21": "963749e7c1f4e20c2f274f738411d8cc1d70702c6aeeaba3a966ee30de4cfd80",
        "EQ26": "eaa9e3fbfd3882dec0ac0b3ce0083806fb2495cc59213f5c098312b56af5ab5f",
        "EQ27": "a18347d0e31544cb511684d955198dcc3fc920af8bb9cb0fb02f7f2cf78700c3",
        "EQ29": "c050ec3f1b87c1bcadf67681f18612d4e152c96975300ad6d6a240c53db04962",
        "EQ30_FAMILY": "6c2323716e5d2504273b0e1e7d9c20e83d3050d5856222827a4d155e7be4ac61",
        "EQ31": "5e087af19173d524289adc51dc0a86f8bbbb068b8a8832b8020f2b3f6f664787",
        "EQ32": "772989766349a12fe1fd6ef61f80b29f67cd5df41d6c8a3effa24ccc23e903cb",
        "EQ33": "ab29b521cea1ea6cce5851da3aa0c111c14d2dc6e45f36320bf63c9f59bca2fb",
        "EQ34_THM2": "fa5753c26ce47fe88f2270dfd2e984503f0f129674f8d8aa65b3935dc8a51f4b",
        "EQ36": "e979df1dc48a0b3a322cf7808ade3f13197b331143728eebe92a54db72051658",
        "EQ37_CORRECTED": "6b53f2fcf9fe710e3d7bde1efcde6728cab642ee1482a694cab861acb2f09443",
        "EQ37_PRINTED": "a52a50a502a59a71c33ae24f93932a6f40c619ba702bd406c187ad7b0b2546b9",
        "EQ38": "0a6e4a1205f1de7072a7367275d3218e09f8161d86b081416adb3d03548ad4ac",
        "COR2": "4e4e9abb2fd6a6096b075b5f2e439e7ba1b7178b915025f7dafb2611f0914b42",
        "COR4": "fe0b5cb7886c4e60ff8d0e2859eeca5bfccd646de9ef72b7041c7e4f4429e61b",
        "COR5_CORRECTED": "641149b6b4fc2fb7c399c13c9fd440921f68c7c47f62f32d3e4b0f8d743a519f",
        "COR5_PRINTED": "36d27ab9e6040d16c5518c703e432af8d841ea003e89f6d9a02800161b36f408",
        "SPIVEY": "aa43d80e569cbfffcb8f9ba1746867ed0ef7c6f7ec6682435b02609ac16f670f",
        "MINUS_ONE": "b5047038a280de81bb84dbda0288cd9bddda606138ef1e5fd7fd75325b619820",
        "BPA_NUMBERS": "177c875a42c383121ce419d796174e74621dd0ab8d2947c7dd2009a639717e15",
        "FUBINI": "fe3975b353f75e72a02be799a996d5893653c3b7ea2c0e801591ab6515b5612f",
        "GF_VS_TABLE": "5852df68806d2847ec7ce7e0f1d7cd1a01ee245817c4c4d67c9e238967ea501c",
    },
}


def _id_digests(out):
    reports = json.loads(out)["result"]["reports"]
    return {
        rid: hashlib.sha256(json.dumps([r for r in reports if r["id"] == rid],
                                       indent=2, sort_keys=True).encode()).hexdigest()
        for rid in I.IDENTITY_IDS
    }


@pytest.mark.parametrize("profile", sorted(VERIFY_ID_SHA256))
def test_verify_all_per_id_bytes(profile):
    rc, out = _stdout_of(
        ["verify", "--id", "all", "--profile", profile, "--seed", "1", "--no-timing"]
    )
    assert rc == 0
    digests, pinned = _id_digests(out), VERIFY_ID_SHA256[profile]
    assert [rid for rid in I.IDENTITY_IDS if digests[rid] != pinned.get(rid)] == []
    assert list(pinned) == list(I.IDENTITY_IDS)


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
     "588da62f42c501be2274ebcde0ac738b62ab98f844de4405a2145bd6ab39d0eb"),
    (("series", "--id", "theorem5", "--n", "2", "--x", "1/3", *TRIPLE, "--bits", "128"),
     "d35245d60ef56ec5faa002de11a4361c7b6b04ab24b889262452608d078dc4cc"),
    (("series", "--id", "eq17", "--n", "2", *TRIPLE, "--bits", "128"),
     "f560a233699b3f5b465013d921c99f3dfad1e104c9acd12ca735506562e27f2c"),
    (("series", "--id", "eq18", "--n", "2", *TRIPLE, "--bits", "128"),
     "ed1ac01d981deddc092f60b11ec14f2e8a07cc031752c81d2a8a153b3fd9a51a"),
    (("series", "--id", "dobinski", "--n", "3", "--x", "1/2", *TRIPLE, "--bits", "128"),
     "946fd14b4537d4b61e6870b5498749cf845ee428404a147bee1ed1a711629a88"),
    (("series", "--id", "zeta2k", "--n", "2", "--bits", "256"),
     "819c831a8d7eb08cde07a68db074975334a1193232bf5df45abc7a47094de6f5"),
    (("series", "--id", "theorem5", "--n", "2", "--x", "1/3", *TRIPLE, "--bits", "256"),
     "66dd428c6d4b6287862784eb2ff5ba2a1eb388f411fe5540abf18b6aaaba2107"),
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
