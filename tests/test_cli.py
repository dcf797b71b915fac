"""End-to-end tests for the finsler-lab command line interface."""

import json
import warnings

import numpy as np
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


def run_json(args, capsys, tmp_path):
    path = tmp_path / "out.json"
    code = main([*args, "--json", str(path)])
    capsys.readouterr()
    return code, json.loads(path.read_text()) if path.exists() else None


def test_jet_overflow_and_pack_underflow_are_skips(capsys, tmp_path):
    # s > 0 overflows exp in the jet, s < 0 underflows phi^3 in metric_pack
    code, doc = run_json(["report", "--phi", "exp(1000*s)"], capsys, tmp_path)
    assert code == 0
    assert len(doc["points"]) == 6 and len(doc["skipped"]) == 24


@pytest.mark.parametrize(
    "args", [["--phi", "1e-120*(2+s)"], ["--phi", "1e90*(2+s)", "--dim", "3"]]
)
def test_check_skips_every_point_whose_packs_fail(args, capsys, tmp_path):
    code, doc = run_json(["check", *args], capsys, tmp_path)
    assert code == 3
    assert doc["points"] == [] and len(doc["skipped"]) == 30


def test_classify_numeric_failures_become_null_verdicts(capsys, tmp_path):
    code, doc = run_json(["classify", "--phi", "1e200*(2+s)"], capsys, tmp_path)
    assert code == 0
    verdicts = doc["verdicts"]
    for verdict, error in (
        ("is_scalar", "scalar_error"),
        ("degeneracy", "degeneracy_error"),
        ("riemannian", "riemannian_error"),
    ):
        assert verdicts[verdict] is None and verdicts[error]


def test_classify_grid_too_small_exits_2(capsys):
    args = ["classify", "--phi", "1+s", "--r", "1:1:1", "--s-frac", "0:0.5:3", "--u", "1:1:1"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "grid of >= 8 points" in err


@pytest.mark.parametrize("phi, dim", [("1+s^2-0.9*r", "3"), ("ln(s+0.5)+2", "2")])
def test_check_reports_the_points_report_evaluates(phi, dim, capsys, tmp_path):
    # phi <= 0 (pack) skips; for ln also jet-domain and frame-radicand skips
    args = ["--phi", phi, "--dim", dim]
    _, report = run_json(["report", *args], capsys, tmp_path)
    code, check = run_json(["check", *args], capsys, tmp_path)
    assert code == 0
    assert check["points"] == report["points"]
    assert check["skipped"] == report["skipped"] and check["skipped"]


def wrap_everywhere(monkeypatch, module, name, record) -> None:
    """Wrap module.name in every finslerlab namespace that binds it; each
    call passes its arguments to record first."""
    import sys

    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "finslerlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def record_eval_jet_points(monkeypatch) -> list:
    """Wrap eval_jet in every finslerlab namespace that binds it; each call
    records (expression text, the (r, s) pairs it evaluated)."""
    from finslerlab import jet, to_string

    calls = []

    def record(e, r, s, **kwargs):
        calls.append((to_string(e), list(zip(np.ravel(r).tolist(), np.ravel(s).tolist()))))

    wrap_everywhere(monkeypatch, jet, "eval_jet", record)
    return calls


@pytest.mark.parametrize(
    "args, expressions",
    [
        (["report"], 1),
        (["check"], 1),
        (["metrize", "--p", "0.3/(2*(1+0.3*s))", "--q", "0"], 3),
    ],
)
def test_one_evaluation_pass_per_point(args, expressions, monkeypatch, capsys, tmp_path):
    # each unique (r, s) is evaluated once per expression, whatever the u values
    calls = record_eval_jet_points(monkeypatch)
    code, doc = run_json([*args, "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0
    assert len(doc["points"]) == 30
    evaluated = [(text, rs) for text, pairs in calls for rs in pairs]
    assert len(evaluated) == 15 * expressions
    assert len(set(evaluated)) == len(evaluated)
    assert len({text for text, _ in evaluated}) == expressions
    assert {rs for _, rs in evaluated} == {(p["r"], p["s"]) for p in doc["points"]}


def test_classify_evaluates_each_classifier_in_one_batch(monkeypatch, capsys, tmp_path):
    calls = record_eval_jet_points(monkeypatch)
    code, doc = run_json(["classify", "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and doc["verdicts"]["riemannian"] is False
    # the domain screen, then at most one batch per classifier (three at n = 2)
    assert len(calls) <= 4
    for _, pairs in calls:
        assert len(pairs) == len(set(pairs)) == 15


@pytest.mark.parametrize(
    "sub, phi, exit_code, points, skipped",
    [
        ("check", "1e308*(2+s)", 3, 0, 30),
        ("classify", "1e308*(2+s)", 0, 0, 20),
        ("check", "exp(s)^800", 0, 6, 24),
        ("classify", "exp(s)^800", 0, 0, 2),
    ],
)
def test_jet_overflow_prints_no_runtime_warning(
    sub, phi, exit_code, points, skipped, capsys, tmp_path
):
    # the jet overflows at some points; those become skips without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json([sub, "--phi", phi], capsys, tmp_path)
    assert code == exit_code
    assert len(doc["points"]) == points and len(doc["skipped"]) == skipped


@pytest.mark.parametrize(
    "args, metric_packs",
    [
        (["report"], 1),
        (["check"], 1),
        (["report", "--dim", "3"], 1),
        (["check", "--dim", "3"], 1),
        # metrize reads no metric
        (["metrize", "--p", "0.3/(2*(1+0.3*s))", "--q", "0"], 0),
    ],
)
def test_each_pack_runs_once_per_run(args, metric_packs, monkeypatch, capsys, tmp_path):
    # the packs are evaluated as columns: one call over all 30 points of the run
    from finslerlab import curvature, geometry

    calls = {"metric_pack": [], "riemann_pack": []}

    def recorder(name):
        return lambda *args, **kwargs: calls[name].append(args[-1])  # the points

    wrap_everywhere(monkeypatch, geometry, "metric_pack", recorder("metric_pack"))
    wrap_everywhere(monkeypatch, curvature, "riemann_pack", recorder("riemann_pack"))
    code, doc = run_json([*args, "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert len(calls["metric_pack"]) == metric_packs
    assert len(calls["riemann_pack"]) == 1
    for p in calls["metric_pack"] + calls["riemann_pack"]:
        assert p.r.shape == (30,)


def test_pack_overflow_prints_no_runtime_warning(capsys, tmp_path):
    # at s < 0 phi underflows and its metric overflows: those points are skips
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(["report", "--phi", "exp(1000*s)"], capsys, tmp_path)
    assert code == 0
    assert len(doc["points"]) == 6 and len(doc["skipped"]) == 24


def test_nan_power_exponent_is_a_per_point_skip(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, err = run_cli(["report", "--phi", "2^(1e309-1e309)", "--json", str(path)], capsys)
    assert code == 3 and "Traceback" not in err and "error:" not in err
    doc = json.loads(path.read_text())
    assert doc["points"] == [] and len(doc["skipped"]) == 30
    assert all("non-finite jet coefficient" in p["reason"] for p in doc["skipped"])


def test_infinite_number_keeps_the_domain_error_reason(capsys, tmp_path):
    code, doc = run_json(["report", "--phi", "sqrt(s - 1e309)+1"], capsys, tmp_path)
    assert code == 3 and len(doc["skipped"]) == 30
    for point in doc["skipped"]:
        assert point["reason"].startswith("sqrt of")
        assert point["reason"].endswith("in sqrt((s - 1e309))")


def test_main_parses_different_subcommands_in_one_process(capsys, tmp_path):
    # the parser is built once per process; each call parses its own argv
    metrize = ["metrize", "--phi", "1+s", "--p", "1/(2*(1+s))", "--q", "0", "--s-frac=-0.5:0.5:4"]
    code, doc = run_json(metrize, capsys, tmp_path)
    assert code == 0 and doc["config"]["p_expr"] == "1/(2*(1+s))"
    assert doc["verdicts"] == {"metrizable": True}
    report = ["report", "--phi", "1+0.3*s", "--dim", "3", "--u", "1:1:1"]
    code, doc = run_json(report, capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 15
    assert doc["config"]["p_expr"] is None and doc["config"]["dim"] == 3
    assert len(doc["config"]["s_fraction_grid"]) == 5  # the default, not metrize's 4


@pytest.mark.parametrize("sub", ["report", "check"])
def test_pack_float_failures_are_non_finite_skips(sub, capsys, tmp_path):
    # at s = 0 the guards pass, but phi_s^2 overflows in the metric and P^2 in R1
    code, doc = run_json([sub, "--phi", "1+2e154*s", "--s-frac=0:0:1"], capsys, tmp_path)
    assert code == 3 and len(doc["skipped"]) == 6
    for point in doc["skipped"]:
        assert point["reason"].startswith("non-finite ")


def test_each_point_keeps_the_first_guard_it_fails(capsys, tmp_path):
    # phi = s fails every guard from phi > 0 on: where phi <= 0 that guard is
    # the reason, elsewhere the TYPE_B denominator, not the frame radicand
    code, doc = run_json(["report", "--phi", "s"], capsys, tmp_path)
    assert code == 3 and len(doc["skipped"]) == 30
    for point in doc["skipped"]:
        if point["s"] <= 0:
            assert point["reason"].startswith(f"phi = {point['s']} is not positive")
        else:
            assert "TYPE_B" in point["reason"]


def test_undefined_inverse_scalars_are_non_finite_skips(capsys, tmp_path):
    # phi = 1 + s^2 at r = 2, s = 1: phi - s phi_s = 0, so the rho scalars of
    # g^-1 are undefined (NaN) while every guard passes.  At n = 2 the main
    # scalar reads them; at n = 3 only check's residuals do.
    args = ["--phi", "1+s^2", "--r", "2:2:1", "--s-frac", "0.5:0.5:1"]
    for sub in ("report", "check"):
        code, doc = run_json([sub, *args], capsys, tmp_path)
        assert code == 3 and doc["points"] == []
        assert [p["reason"] for p in doc["skipped"]] == ["non-finite I = nan"] * 2
    code, report = run_json(["report", *args, "--dim", "3"], capsys, tmp_path)
    assert code == 0 and len(report["points"]) == 2 and report["skipped"] == []
    assert [p["det_direct"] for p in report["points"]] == [0.0, 0.0]
    code, check = run_json(["check", *args, "--dim", "3"], capsys, tmp_path)
    assert code == 3 and check["points"] == []
    assert [p["reason"] for p in check["skipped"]] == ["non-finite metric_inverse = nan"] * 2


def test_report_file_is_the_indented_json_of_the_report(capsys, tmp_path):
    # 120 points make several blocks of encoder chunks; the file is still
    # exactly json.dumps(doc, sort_keys=True, indent=1) plus a newline
    from finslerlab.cli import RunConfig, run

    path = tmp_path / "out.json"
    args = ["check", "--phi", "1+s", "--r", "0.5:1.2:8", "--s-frac=-0.7:0.7:15", "--u", "1:1:1"]
    assert main([*args, "--json", str(path)]) == 0
    capsys.readouterr()
    grids = parse_range("0.5:1.2:8"), parse_range("-0.7:0.7:15"), [1.0]
    doc, _ = run(RunConfig("check", "1+s", 2, *grids))
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
