"""Known answers from the literature, through the command line.

The Funk, Klein and Berwald metrics on the unit ball are spherically
symmetric with constant flag curvature K = -1/4, -1 and 0 (Shen, Trans. AMS
355 (2003)).  Of the three, only Klein's is Riemannian.
"""

import json

import pytest

from finslerlab.cli import main

ROOT = "sqrt(1-r^2+s^2)"
METRICS = {
    "funk": (f"({ROOT}+s)/(1-r^2)", -0.25),
    "klein": (f"{ROOT}/(1-r^2)", -1.0),
    "berwald": (f"({ROOT}+s)^2/((1-r^2)^2*{ROOT})", 0.0),
}
GRID = ["--r", "0.1:0.8:5", "--s-frac=-0.7:0.7:5", "--u", "1:2:2"]


def run_json(args, capsys, tmp_path):
    path = tmp_path / "out.json"
    code = main([*args, *GRID, "--json", str(path)])
    capsys.readouterr()
    return code, json.loads(path.read_text())


@pytest.mark.parametrize("rotate", [[], ["--rotate", "--seed", "11"]])
@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("name", sorted(METRICS))
def test_constant_curvature_metrics_of_the_ball(name, dim, rotate, capsys, tmp_path):
    phi, K = METRICS[name]
    args = ["--phi", phi, "--dim", dim, *rotate]
    code, check = run_json(["check", *args], capsys, tmp_path)
    assert code == 0 and check["skipped"] == [] and len(check["points"]) == 50
    assert all(c["pass"] for c in check["checks"])
    code, report = run_json(["report", *args], capsys, tmp_path)
    assert code == 0 and len(report["points"]) == 50
    code, classify = run_json(["classify", *args], capsys, tmp_path)
    assert code == 0 and len(classify["points"]) == 50
    for rec in report["points"] + classify["points"]:
        assert abs(rec["K"] - K) <= 1e-12, rec
    verdicts = classify["verdicts"]
    assert verdicts["is_scalar"] is True and verdicts["degeneracy"] == "nondegenerate"
    if dim == "2":
        assert verdicts["riemannian"] is (name == "klein")
    else:
        assert "riemannian" not in verdicts
