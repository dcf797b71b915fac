"""End-to-end tests for the finsler-lab command line interface."""

import json

import pytest

from finslerlab.cli import main, parse_range

FLAT = "1/r^5 * sqrt(r^2-s^2) * exp(2*s/sqrt(r^2-s^2))"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("0:1:3") == [0.0, 0.5, 1.0]
    assert parse_range("2:2:1") == [2.0]
    with pytest.raises(ValueError):
        parse_range("1:2")
    with pytest.raises(ValueError):
        parse_range("1:2:0")


def test_check_regular_metric_passes(capsys):
    code, out, _ = run_cli(
        ["check", "--phi", "sqrt(1+s^2)", "--dim", "3", "--r", "0.5:1.5:3"],
        capsys,
    )
    assert code == 0
    assert "FAIL" not in out
    assert "metric_inverse" in out


def test_check_dim2_includes_frame_checks(capsys):
    code, out, _ = run_cli(["check", "--phi", "1 + 0.3*s", "--dim", "2"], capsys)
    assert code == 0
    assert "frame_orthonormality" in out
    assert "main_scalar_two_routes" in out


def test_classify_flat_family(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(
        [
            "classify",
            "--phi",
            FLAT,
            "--dim",
            "2",
            "--r",
            "0.8:1.4:3",
            "--s-frac=-0.5:0.5:4",
            "--json",
            str(path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdicts"]["is_scalar"] is True
    assert doc["verdicts"]["degeneracy"] == "nondegenerate"
    for rec in doc["points"]:
        assert abs(rec["K"]) < 1e-8


def test_classify_riemannian_surface(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["classify", "--phi", "sqrt(1+s^2)", "--dim", "2", "--json", str(path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdicts"]["riemannian"] is True
    assert doc["verdicts"]["is_scalar"] is True


def test_classify_non_riemannian_surface(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["classify", "--phi", "1 + 0.3*s", "--dim", "2", "--json", str(path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdicts"]["riemannian"] is False


def test_metrize_accepts_matching_spray(capsys):
    code, out, _ = run_cli(
        [
            "metrize",
            "--phi",
            "1 + s",
            "--dim",
            "2",
            "--s-frac=-0.5:0.5:4",
            "--p",
            "1/(2*(1+s))",
            "--q",
            "0",
        ],
        capsys,
    )
    assert code == 0
    assert "metrizable: True" in out


def test_metrize_rejects_wrong_spray(capsys):
    code, out, _ = run_cli(
        ["metrize", "--phi", "1 + s", "--dim", "2", "--p", "0", "--q", "0"],
        capsys,
    )
    assert code == 1
    assert "metrizable: False" in out


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(["check", "--phi", "r +"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_range_exits_2(capsys):
    code, _, err = run_cli(["check", "--phi", "1", "--r", "1:2"], capsys)
    assert code == 2
    assert "error:" in err


def test_bad_s_fraction_exits_2(capsys):
    code, _, _ = run_cli(["check", "--phi", "1", "--s-frac=-2:2:3"], capsys)
    assert code == 2


def test_all_points_skipped_exits_3(capsys):
    code, _, _ = run_cli(["report", "--phi", "ln(s - 10)"], capsys)
    assert code == 3


def test_reciprocal_underflow_skips_every_point(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(["report", "--phi", "1/(1e-70+0*s)", "--json", str(path)], capsys)
    assert code == 3
    doc = json.loads(path.read_text())
    assert doc["points"] == [] and len(doc["skipped"]) == 30


def test_json_output_is_deterministic(capsys, tmp_path):
    args = [
        "report",
        "--phi",
        "sqrt(1+s^2)",
        "--dim",
        "3",
        "--rotate",
        "--seed",
        "7",
    ]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(args + ["--json", str(path_a)]) == 0
    assert main(args + ["--json", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()


def test_report_records_expected_fields(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["report", "--phi", "1 + 0.3*s", "--dim", "2", "--json", str(path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["points"]
    rec = doc["points"][0]
    for key in ("F", "P", "Q", "R1", "R5", "K", "C1", "C2", "C3", "I", "I_direct"):
        assert key in rec
    assert doc["config"]["phi"] == "1 + 0.3*s"
