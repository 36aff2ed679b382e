import json
import math

import pytest

import qracah as qr
from qracah import cli


TRIG_CONFIG = """\
# two-variable reference parameters
kind = trig
n = 2
N = 4
alpha = auto
g = 0.3
g_a = 0.5
g_b = 0.4
g_c = 0.2
g_d = 0.1
roles = 0,1,2,3
"""

RACAH_CONFIG = """\
kind = racah
n = 2
N = 3
g = 0.4
g_a = 0.75
g_b = auto
g_c = 0.55
g_d = 0.35
"""


@pytest.fixture()
def trig_config(tmp_path):
    path = tmp_path / "trig.cfg"
    path.write_text(TRIG_CONFIG)
    return str(path)


@pytest.fixture()
def racah_config(tmp_path):
    path = tmp_path / "racah.cfg"
    path.write_text(RACAH_CONFIG)
    return str(path)


def test_parse_config_text():
    parsed = cli.parse_config_text("a = 1  # comment\n\n# full comment\nb = x,y\n")
    assert parsed == {"a": "1", "b": "x,y"}
    with pytest.raises(ValueError):
        cli.parse_config_text("not an assignment\n")


def test_load_params_trig_auto_alpha(trig_config):
    p = cli.load_params(trig_config)
    assert isinstance(p, qr.ParamSet)
    assert abs(p.trig.alpha - math.pi / 5.2) < 1e-15
    assert p.truncation_residual < 1e-13


def test_load_params_racah_auto_gb(racah_config):
    rp = cli.load_params(racah_config)
    assert isinstance(rp, qr.RacahParams)
    assert abs(rp.g_b - (-0.75 - 0.4 - 3)) < 1e-15
    assert rp.is_truncated


def test_weights_command(trig_config, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["weights", "--config", trig_config, "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "weights.json").read_text())
    assert payload["entries"]["0,0"]["delta"] == {"re": 1.0, "im": 0.0}
    assert len(payload["entries"]) == 15
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(grid_lines) == 15


def test_verify_command_subset(trig_config, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "verify",
            "--config",
            trig_config,
            "--out",
            str(out),
            "--suite",
            "orthogonality",
            "--suite",
            "flip",
        ]
    )
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert [entry["suite"] for entry in report] == ["orthogonality", "flip"]
    assert all(entry["pass"] for entry in report)


def test_verify_reports_are_deterministic(trig_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = cli.main(
            [
                "verify",
                "--config",
                trig_config,
                "--out",
                str(out),
                "--seed",
                "7",
                "--suite",
                "symmetry",
                "--suite",
                "transform",
            ]
        )
        assert code == 0
    assert (out1 / "verify_report.json").read_bytes() == (out2 / "verify_report.json").read_bytes()


def test_verify_unknown_suite(trig_config, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(
            ["verify", "--config", trig_config, "--out", str(tmp_path), "--suite", "nonsense"]
        )


def test_gram_and_norms_commands(trig_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["gram", "--config", trig_config, "--out", str(out)]) == 0
    rows = (out / "gram.csv").read_text().strip().splitlines()
    assert len(rows) == 15
    rep = json.loads((out / "gram_report.json").read_text())
    assert rep["max_offdiagonal_over_diagonal"] < 1e-9
    assert cli.main(["norms", "--config", trig_config, "--out", str(out)]) == 0
    norms = json.loads((out / "norms.json").read_text())
    assert all(v["relative_residual"] < 1e-9 for v in norms.values())


def test_poly_command_single_weight(trig_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["poly", "--config", trig_config, "--out", str(out), "--weight", "2,1"]) == 0
    payload = json.loads((out / "poly_2_1.json").read_text())
    assert payload["2,1"] == {"re": 1.0, "im": 0.0}  # monic leading coefficient


def test_transform_command_roundtrip(trig_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", trig_config, "--out", str(out)]) == 0
    rep = json.loads((out / "transform_report.json").read_text())
    assert rep["round_trip_error"] < 1e-9
    assert rep["orthogonality_residual"] < 1e-8
    k_rows = (out / "k_matrix.csv").read_text().strip().splitlines()
    cell = k_rows[0].split('","')[0].strip('"')
    re, im = map(float, cell.split(","))
    K = qr.build_k_matrix(qr.transform_context(cli.load_params(trig_config)))
    assert abs(complex(re, im) - K[0, 0]) < 1e-12


def test_racah_and_limit_commands(racah_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["racah", "--config", racah_config, "--out", str(out)]) == 0
    assert (out / "k_matrix.csv").exists()
    assert cli.main(["limit", "--config", racah_config, "--out", str(out)]) == 0
    rep = json.loads((out / "limit_report.json").read_text())
    assert rep and all(entry["monotone"] for entry in rep.values())


def test_verify_racah_kind(racah_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", racah_config, "--out", str(out)]) == 0


def test_extended_precision_flag(trig_config, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "verify",
            "--config",
            trig_config,
            "--out",
            str(out),
            "--precision",
            "extended",
            "--suite",
            "orthogonality",
        ]
    )
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report[0]["max_residual"] < 1e-12


def test_verify_survives_raising_suite(trig_config, tmp_path, monkeypatch):
    """A suite that raises one of the package's errors becomes a failing
    report entry; the other suites still run and the report is written."""

    def raising(s):
        raise qr.DegenerateParameterError("forced")

    monkeypatch.setitem(cli._Q_SUITES, "cross", raising)
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", trig_config, "--out", str(out)])
    assert code == 1
    report = json.loads((out / "verify_report.json").read_text())
    assert len(report) == 14
    by_suite = {entry["suite"]: entry for entry in report}
    failed = by_suite.pop("cross")
    assert failed["pass"] is False
    assert failed["max_residual"] == math.inf
    assert failed["error"] == "DegenerateParameterError"
    assert all(entry["pass"] and "error" not in entry for entry in by_suite.values())


@pytest.mark.parametrize(
    "command, kind, builds",
    [
        ("verify", "trig", 2),
        ("transform", "trig", 2),
        ("gram", "trig", 1),
        ("poly", "trig", 1),
        ("norms", "trig", 1),
        ("weights", "trig", 0),
        ("racah", "racah", 1),
    ],
)
def test_commands_build_each_family_once(
    command, kind, builds, trig_config, racah_config, tmp_path, family_builds
):
    """The CLI builds only the stages a command reads, each once: the dual
    family only for the duality-based commands."""
    config = trig_config if kind == "trig" else racah_config
    cli.main([command, "--config", config, "--out", str(tmp_path / "out")])
    assert len(family_builds) == builds
    assert len(set(family_builds)) == builds
