"""End-to-end tests for the finsler-lab command line interface."""

import io
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    for text in ("nan:1:3", "0:inf:3", "-inf:1:2"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_range(text)


def test_parse_range_gives_linspace_floats_bit_for_bit():
    for text, args in (("0.5:1.5:3", (0.5, 1.5, 3)), ("-0.7:0.7:5", (-0.7, 0.7, 5)),
                       ("0.1:2.9:37", (0.1, 2.9, 37)), ("1e-300:3:4", (1e-300, 3.0, 4))):
        values = parse_range(text)
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == np.linspace(*args).tobytes()


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


@pytest.mark.parametrize(
    "text, message",
    [pytest.param(text, "range must be A:B:K", id=text)
     for text in ("1:2", "1:2:3.0", "a:1:2", "1:2:x")]
    + [pytest.param("1:2:0", "range count must be >= 1", id="1:2:0")],
)
def test_bad_range_exits_2(text, message, capsys):
    code, _, err = run_cli(["check", "--phi", "1", "--r", text], capsys)
    assert code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: {message}, got {text!r}"
    ]


@pytest.mark.parametrize("dim", ["1", "0"])
def test_dim_below_2_exits_2(dim, capsys):
    code, _, err = run_cli(["check", "--phi", "1+s", "--dim", dim], capsys)
    assert code == 2
    assert err == f"error: dim must be >= 2, got {dim}\n"


def test_run_rejects_a_config_argparse_never_builds():
    from finslerlab.cli import RunConfig, run

    grids = [1.0], [0.3], [1.0]
    with pytest.raises(ValueError, match="^metrize requires --p and --q$"):
        run(RunConfig("metrize", "1+s", 2, *grids))
    with pytest.raises(ValueError, match="unknown subcommand 'plot'"):
        run(RunConfig("plot", "1+s", 2, *grids))


def test_bad_s_fraction_exits_2(capsys):
    code, _, _ = run_cli(["check", "--phi", "1", "--s-frac=-2:2:3"], capsys)
    assert code == 2


# after a space, argparse reads "-1" as a value but "-1e-300" as a flag
@pytest.mark.parametrize("value", [" nan", " -1", "=-1e-300"])
@pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
@pytest.mark.parametrize("command", [
    ["check", "--phi", "1e-63+s^2"],
    ["metrize", "--phi", "1+s", "--p", "1/(2*(1+s))", "--q", "0"],
])
def test_nan_or_negative_tolerance_exits_2(command, flag, value, capsys):
    # max(nan, tol) is NaN and `residual > nan` is never true, so a NaN passed every row
    code, out, err = run_cli([*command, *(flag + value).split()], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tol_abs and tol_rel must be >= 0") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("rotate", [[], ["--rotate"]])
@pytest.mark.parametrize("command", [
    ["report", "--phi", "1+s"],
    ["check", "--phi", "1+s"],
    ["classify", "--phi", "1+s"],
    ["metrize", "--phi", "1+s", "--p", "1/(2*(1+s))", "--q", "0"],
])
def test_a_negative_seed_exits_2_and_names_the_flag(command, rotate, capsys):
    # numpy's own error ("expected non-negative integer") named no flag, and a run that
    # drew no rotation ignored the seed
    code, out, err = run_cli([*command, *rotate, "--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_a_finite_tolerance_is_honoured(capsys):
    args = ["check", "--phi", "sqrt(1+s^2)"]
    assert run_cli(args, capsys)[0] == 0
    assert run_cli([*args, "--tol-abs", "1e-300", "--tol-rel", "1e-300"], capsys)[0] == 1
    assert run_cli([*args, "--tol-abs", "inf", "--tol-rel", "0"], capsys)[0] == 0


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


def test_a_minus_before_a_power_negates_the_power(capsys, tmp_path):
    # exp(-r^2) is exp(-(r^2)), as Python reads it, not exp((-r)^2) = exp(r^2)
    code, doc = run_json(["report", "--phi", "1+0.3*s+exp(-r^2)"], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    for p in doc["points"]:
        assert p["F"] == p["u"] * (1 + 0.3 * p["s"] + math.exp(-p["r"] ** 2))


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


def test_classify_on_too_few_surviving_points_gives_null_verdicts(capsys, tmp_path):
    # 6 of the default grid's 30 points have s > 0.45: the configured grid is
    # large enough, so the run exits 0 and each verdict carries the grid error
    code, doc = run_json(["classify", "--phi", "sqrt(s-0.45)+1"], capsys, tmp_path)
    assert code == 0
    assert len(doc["skipped"]) == 24 and doc["points"] == []
    error = "grid of >= 8 points required, got 6"
    assert doc["verdicts"] == {
        "is_scalar": None,
        "scalar_error": error,
        "degeneracy": None,
        "degeneracy_error": error,
        "riemannian": None,
        "riemannian_error": error,
    }


INCONSISTENT = "mu vanishes on the grid but nu = 6.0 does not; inconsistent evaluation"


def test_classify_names_an_inconsistent_riemannian_evaluation(capsys, tmp_path):
    # every point at s = 0, where mu = 0 for any phi but nu = 6 for 1 + s^3: d(mu)/ds =
    # -s nu cannot hold, so the Riemannian verdict is null with its reason, and exit 0
    args = ["classify", "--phi", "1+s^3", "--r", "0.5:1.5:4", "--s-frac", "0:0:1", "--u", "1:2:2"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert f"  riemannian: None\n  riemannian_error: {INCONSISTENT}\n" in out
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 8 and doc["skipped"] == []
    assert doc["verdicts"]["riemannian"] is None
    assert doc["verdicts"]["riemannian_error"] == INCONSISTENT
    assert doc["verdicts"]["degeneracy"] == "nondegenerate" and doc["verdicts"]["is_scalar"]


@pytest.mark.parametrize("r_range, decided", [("0.5:1.5:3", True), ("1.5:0.5:3", False)])
def test_degeneracy_and_riemannian_scans_stop_at_their_deciding_point(
    r_range, decided, capsys, tmp_path
):
    # phi^2 overflows at r = 1.5 alone: scanned last, both verdicts are decided at r = 0.5
    # before they reach it; scanned first, it is the first point, and both are null
    args = ["classify", "--phi", "1+0.5*s+exp(800*(r-1))", "--dim", "2", f"--r={r_range}",
            "--s-frac=-0.3:0.3:3", "--u=1:1:1"]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 0
    verdicts = doc["verdicts"]
    if decided:
        assert verdicts["degeneracy"] == "nondegenerate" and verdicts["riemannian"] is False
        assert "degeneracy_error" not in verdicts and "riemannian_error" not in verdicts
    else:
        for key in ("degeneracy", "riemannian"):
            assert verdicts[key] is None
            assert verdicts[f"{key}_error"] == "non-finite phi^2 = inf"


@pytest.mark.parametrize("phi", [FLAT, "sqrt(1+s^2)"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_classify_K_samples_are_the_report_K_column(phi, dim, capsys, tmp_path):
    args = ["--phi", phi, "--dim", dim, "--rotate", "--seed", "3", "--u", "0.7:1.9:2"]
    _, report = run_json(["report", *args], capsys, tmp_path)
    _, classify = run_json(["classify", *args], capsys, tmp_path)
    report_K = {(p["r"], p["s"], p["u"]): p["K"].hex() for p in report["points"]}
    classify_K = {(p["r"], p["s"], p["u"]): p["K"].hex() for p in classify["points"]}
    shared = report_K.keys() & classify_K.keys()
    assert len(shared) == len(classify_K) > 0
    assert all(report_K[key] == classify_K[key] for key in shared)


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
        (["classify"], 1),
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
    from finslerlab import spray

    calls = record_eval_jet_points(monkeypatch)
    pq_calls = []
    wrap_everywhere(monkeypatch, spray, "pq_jets", lambda *args, **kwargs: pq_calls.append(args))
    code, doc = run_json(["classify", "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and doc["verdicts"]["riemannian"] is False
    # the three classifiers share one batch of phi jets and one of P/Q jets
    assert len(calls) == 1 and len(pq_calls) == 1
    pairs = calls[0][1]
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
        # metrize reads no metric, and of the curvature only the compatibility step
        (["metrize", "--p", "0.3/(2*(1+0.3*s))", "--q", "0"], 0),
        # classify reads no metric either: its one front half runs at the cells
        (["classify", "--dim", "3"], 0),
    ],
)
def test_each_pack_runs_once_per_run(args, metric_packs, monkeypatch, capsys, tmp_path):
    # the packs are evaluated as columns: the (r, s) stages in one call over the 15
    # cells of the run, the metric pack in one call over its 30 points
    from finslerlab import curvature, geometry

    calls = {"metric_pack": [], "riemann_pack": [], "compatibility": []}

    def recorder(name):
        return lambda *args, **kwargs: calls[name].append(args[-1])  # the points

    wrap_everywhere(monkeypatch, geometry, "metric_pack", recorder("metric_pack"))
    for name in ("riemann_pack", "compatibility"):
        wrap_everywhere(monkeypatch, curvature, name, recorder(name))
    code, doc = run_json([*args, "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert len(calls["metric_pack"]) == metric_packs
    # metrize runs the compatibility step alone; the others through riemann_pack
    assert len(calls["riemann_pack"]) == (0 if args[0] == "metrize" else 1)
    assert len(calls["compatibility"]) == 1
    for p in calls["metric_pack"]:
        assert p.r.shape == (30,)
    for p in calls["riemann_pack"] + calls["compatibility"]:
        assert p.r.shape == (15,) and p.u.tolist() == [1.0] * 15


@pytest.mark.parametrize(
    "args, cartan_packs",
    [
        (["report"], 1),
        (["check"], 1),
        (["report", "--dim", "3"], 0),
        (["check", "--dim", "3"], 1),
        (["classify"], 0),
    ],
)
def test_cartan_pack_runs_at_most_once_per_run(args, cartan_packs, monkeypatch, capsys, tmp_path):
    # at n = 2, check reuses the Cartan pack the main scalar was built from, and
    # the Riemannian test reads mu and nu without one
    from finslerlab import geometry

    calls = []
    wrap_everywhere(monkeypatch, geometry, "cartan_pack", lambda *args, **kwargs: calls.append(1))
    code, doc = run_json([*args, "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert len(calls) == cartan_packs


@pytest.mark.parametrize(
    "args, reads",
    [
        (["report"], 1),
        (["check"], 1),
        (["report", "--dim", "3"], 1),
        (["check", "--dim", "3"], 1),
        (["classify"], 1),
        (["classify", "--dim", "3"], 1),
        (["metrize", "--p", "0", "--q", "0"], 0),
    ],
)
def test_phi_scalars_are_read_off_a_jet_once_per_run(args, reads, monkeypatch, capsys, tmp_path):
    # report, check and classify read phi's scalars once and pass them to the
    # packs and the verdicts; metrize reads phi's degree-1 jet through its partials
    from finslerlab import geometry
    from finslerlab.jet import Jet

    calls = []
    wrap_everywhere(
        monkeypatch, geometry, "phi_scalars", lambda jet, *a, **k: calls.append(type(jet))
    )
    code, doc = run_json([*args, "--phi", "1+0.3*s"], capsys, tmp_path)
    assert len(doc["points"]) == 30 and code in (0, 1)
    assert calls.count(Jet) == reads


@pytest.mark.parametrize(
    "args, guards",
    [
        (["report"], 1),
        (["check"], 1),
        (["report", "--dim", "3"], 1),
        (["check", "--dim", "3"], 1),
        (["classify", "--dim", "3"], 1),
        # the Riemannian test runs the guard again, on its own errors
        (["classify"], 2),
        (["metrize", "--p", "0", "--q", "0"], 0),
    ],
)
def test_the_phi_guard_runs_once_per_front_half(args, guards, monkeypatch, capsys, tmp_path):
    # the front half guards phi's scalars; the packs take them guarded and do not guard again
    from finslerlab import geometry

    calls = []
    wrap_everywhere(monkeypatch, geometry, "_fail_nonpositive", lambda *a: calls.append(1))
    code, doc = run_json([*args, "--phi", "1+0.3*s"], capsys, tmp_path)
    assert len(doc["points"]) == 30 and code in (0, 1)
    assert len(calls) == guards


@pytest.mark.parametrize(
    "args", [["report"], ["check"], ["classify"], ["check", "--dim", "3"], ["classify", "--dim", "3"]]
)
def test_the_curvature_residual_scale_is_formed_once_per_run(args, monkeypatch, capsys, tmp_path):
    # riemann_pack forms max(1, |R1|, ..., |R5|) once; check and classify read it off the
    # pack, and form their other scales from one or two values each
    from finslerlab import geometry

    calls = []
    wrap_everywhere(monkeypatch, geometry, "residual_scale", lambda *a: calls.append(len(a)))
    code, doc = run_json([*args, "--phi", "1+0.3*s"], capsys, tmp_path)
    assert len(doc["points"]) == 30 and code in (0, 1)
    assert [n for n in calls if n > 2] == [5]


@pytest.mark.parametrize(
    "args, shapes",
    [
        (["check"], [(30,)]),
        (["check", "--dim", "3"], [(30,)]),
        # metrize tests C1/C2 at the 15 cells and spreads the pass column
        (["metrize", "--p", "0.3/(2*(1+0.3*s))", "--q", "0"], [(15,)]),
        (["report"], []),
        (["classify"], []),
    ],
)
def test_the_c1_c2_test_is_formed_once_per_run(args, shapes, monkeypatch, capsys, tmp_path):
    # check's metrizability_C1_C2 row and metrize's pass column read the one C1/C2 test
    from finslerlab import spray

    calls = []
    wrap_everywhere(monkeypatch, spray, "c1_c2_test", lambda mr, phi: calls.append(np.shape(phi)))
    code, doc = run_json([*args, "--phi", "1+0.3*s", "--u", "1:2:2"], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert calls == shapes


def run_check_table(phi, dim, monkeypatch, capsys, tmp_path) -> tuple:
    """Run check on phi; returns its exit code, its report, the check table
    {name: (residual, scale)} that ``_evaluate`` built, and the mask of the kept points."""
    from finslerlab import cli

    tables, evaluate = [], cli._evaluate

    def capture(ps, sp, cv, mr, p, *args):
        columns, table = evaluate(ps, sp, cv, mr, p, *args)
        tables.append((p, table))
        return columns, table

    monkeypatch.setattr(cli, "_evaluate", capture)
    code, doc = run_json(["check", "--phi", phi, "--dim", dim], capsys, tmp_path)
    [(p, table)] = tables
    kept_rsu = {(q["r"], q["s"], q["u"]) for q in doc["points"]}
    kept = np.array([rsu in kept_rsu for rsu in zip(p.r.tolist(), p.s.tolist(), p.u.tolist())])
    return code, doc, table, kept


@pytest.mark.parametrize(
    "phi, dim, skips",
    [("1+0.3*s", "2", False), ("ln(s+0.5)+2", "2", True), ("sqrt(1+s^2)", "3", False),
     ("1+s^2-0.9*r", "3", True)],
)
def test_check_reads_each_row_from_one_table(phi, dim, skips, monkeypatch, capsys, tmp_path):
    # the checks are the table's rows, in its order, and each max_residual is the largest
    # |residual / scale| over the kept points
    code, doc, table, kept = run_check_table(phi, dim, monkeypatch, capsys, tmp_path)
    assert code == 0 and bool(doc["skipped"]) == skips
    assert [c["name"] for c in doc["checks"]] == list(table)
    assert len(table) == (17 if dim == "2" else 14)
    unscaled = {name for name, (_, scale) in table.items() if isinstance(scale, float)}
    assert unscaled == {"metric_inverse", "rho_contractions", "frame_orthonormality"} - (
        set() if dim == "2" else {"frame_orthonormality"}
    )
    assert kept.sum() == len(doc["points"]) > 0
    for c in doc["checks"]:
        residual, scale = table[c["name"]]
        assert c["max_residual"] == float(np.abs(residual / scale)[kept].max())


@pytest.mark.parametrize("sub", ["report", "check", "classify", "metrize"])
@pytest.mark.parametrize("phi", ["1+0.3*s", "ln(s+0.5)+2"])
def test_one_u_value_gives_each_point_its_own_jets(sub, phi, monkeypatch, capsys, tmp_path):
    # with one u value each point is its own cell, and its packs hold the cells'
    # values; the report is that of the same u twice, at every other point
    from finslerlab import geometry

    guarded, packed = [], []
    wrap_everywhere(monkeypatch, geometry, "_fail_nonpositive", lambda ps, *a: guarded.append(ps))
    wrap_everywhere(monkeypatch, geometry, "metric_pack", lambda ps, *a, **k: packed.append(ps))
    args = [sub, "--phi", phi, "--dim", "3", "--rotate", "--r=0.5:1.5:3", "--s-frac=-0.7:0.7:5"]
    args += ["--p", "0.3/(2*(1+0.3*s))", "--q", "0"] if sub == "metrize" else []
    code, one = run_json([*args, "--u=1.5:1.5:1"], capsys, tmp_path)
    if sub in ("report", "check"):
        assert len(packed) == 1
        assert np.array_equal(packed[0].phi, guarded[0].phi, equal_nan=True)
    two_code, two = run_json([*args, "--u=1.5:1.5:2"], capsys, tmp_path)
    assert (code, one["verdicts"], one["checks"]) == (two_code, two["verdicts"], two["checks"])
    assert one["points"] == two["points"][::2] and one["skipped"] == two["skipped"][::2]
    assert len(two["points"]) == 2 * len(one["points"])
    assert bool(one["skipped"]) == phi.startswith("ln")


def count_pack_matrices(monkeypatch) -> dict:
    """Count the builds of CurvaturePack.Rmat, SprayPack.G and SprayPack.N, each
    formed on read."""
    from finslerlab import CurvaturePack, SprayPack

    counts = {"Rmat": 0, "G": 0, "N": 0}
    for cls, name in ((CurvaturePack, "Rmat"), (SprayPack, "G"), (SprayPack, "N")):
        def counted(pack, build=getattr(cls, name).fget, name=name):
            counts[name] += 1
            return build(pack)

        monkeypatch.setattr(cls, name, property(counted))
    return counts


@pytest.mark.parametrize(
    "sub, builds",
    [
        ("report", {"Rmat": 0, "G": 0, "N": 0}),
        ("classify", {"Rmat": 1, "G": 0, "N": 0}),
        ("check", {"Rmat": 1, "G": 1, "N": 1}),
    ],
)
@pytest.mark.parametrize("dim", ["2", "3"])
def test_the_pack_matrices_are_built_only_where_read(sub, builds, dim, monkeypatch, capsys,
                                                     tmp_path):
    # report prints none of them; classify reads Rmat, check all three, each
    # reader binding a matrix it uses twice
    counts = count_pack_matrices(monkeypatch)
    code, doc = run_json([sub, "--phi", "1+0.3*s", "--dim", dim], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert counts == builds


def record_front_half_calls(monkeypatch) -> dict:
    """Count the calls of front_half, pq_jets and riemann_pack in every finslerlab
    namespace; a pq_jets or riemann_pack call records whether a front_half call
    is on the stack."""
    import sys

    from finslerlab import curvature, spray

    front_half_code = curvature.front_half.__code__

    def in_front_half() -> bool:
        frame = sys._getframe()
        while frame is not None and frame.f_code is not front_half_code:
            frame = frame.f_back
        return frame is not None

    calls = {"front_half": [], "pq_jets": [], "riemann_pack": []}
    wrap_everywhere(monkeypatch, curvature, "front_half", lambda *a: calls["front_half"].append(1))
    for module, name in ((spray, "pq_jets"), (curvature, "riemann_pack")):
        add = calls[name].append
        wrap_everywhere(monkeypatch, module, name, lambda *_, add=add, **k: add(in_front_half()))
    return calls


@pytest.mark.parametrize("sub", ["report", "check", "classify"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_each_subcommand_runs_the_one_front_half(sub, dim, monkeypatch, capsys, tmp_path):
    # report, check and classify reach P/Q and the curvature through the library's front half
    calls = record_front_half_calls(monkeypatch)
    code, doc = run_json([sub, "--phi", "1+0.3*s", "--dim", dim], capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert calls == {"front_half": [1], "pq_jets": [True], "riemann_pack": [True]}


@pytest.mark.parametrize("dim", [2, 3])
def test_library_classify_runs_one_eval_jet_and_one_front_half(dim, monkeypatch):
    from conftest import make_batch
    from finslerlab import classify, parse

    calls = record_front_half_calls(monkeypatch)
    evaluated = record_eval_jet_points(monkeypatch)
    batch = make_batch(dim, (0.5, 1.0, 1.5), (-0.5, 0.0, 0.5))
    verdicts, samples = classify(parse("1+0.3*s"), batch)
    assert verdicts["is_scalar"] is True and len(samples["K"]) == 9
    assert ("riemannian" in verdicts) is (dim == 2)
    assert calls == {"front_half": [1], "pq_jets": [True], "riemann_pack": [True]}
    assert [rs for _, rs in evaluated] == [list(zip(batch.r.tolist(), batch.s.tolist()))]


def test_pq_from_phi_takes_the_p_q_jets_once(monkeypatch):
    from conftest import make_batch
    from finslerlab import eval_jet, parse, pq_from_phi

    calls = record_front_half_calls(monkeypatch)
    batch = make_batch(2, (0.5, 1.0), (-0.5, 0.0, 0.5))
    pq_from_phi(eval_jet(parse("1+0.3*s"), batch.r, batch.s), batch)
    assert calls == {"front_half": [], "pq_jets": [False], "riemann_pack": []}


def cli_grid(dim: int) -> "EvalPoint":
    """The points of the CLI's default grid, unrotated, in grid order, as one batch."""
    from finslerlab import canonical_point

    axes = (parse_range(text) for text in ("0.5:1.5:3", "-0.7:0.7:5", "1:2:2"))
    r, frac, u = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    return canonical_point(dim, r, frac * r, u)


def hexes(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


@pytest.mark.parametrize("phi, dim", [(FLAT, 3), ("sqrt(1+s^2)", 2)])
def test_library_and_cli_agree_bit_for_bit(phi, dim, capsys, tmp_path):
    # the library's front half at the points gives the bits of the CLI's at the cells
    from finslerlab import classify, eval_jet, parse, pq_from_phi

    batch = cli_grid(dim)
    code, doc = run_json(["classify", "--phi", phi, "--dim", str(dim)], capsys, tmp_path)
    verdicts, samples = classify(parse(phi), batch)
    assert code == 0 and doc["verdicts"]["is_scalar"] is verdicts["is_scalar"]
    assert len(samples["K"]) and hexes(samples["K"]) == hexes(p["K"] for p in doc["points"])

    code, report = run_json(["report", "--phi", phi, "--dim", str(dim)], capsys, tmp_path)
    assert code == 0 and len(report["points"]) == 30
    sp = pq_from_phi(eval_jet(parse(phi), batch.r, batch.s), batch)
    for name in ("P", "Q"):
        assert hexes(getattr(sp, name)) == hexes(p[name] for p in report["points"])


@pytest.mark.parametrize(
    "sub, flags",
    [
        ("report", [("--phi", "-s+3")]),
        ("report", [("--phi", "-0.5*s+3")]),
        ("report", [("--phi", "-(s)+3"), ("--dim", "3")]),
        ("check", [("--phi", "1+0.3*s"), ("--s-frac", "-0.7:0.7:5")]),
        ("report", [("--phi", "2+s"), ("--r", "-0.5:1.5:3"), ("--u", "-1:2:4")]),
        ("metrize", [("--phi", "1+s"), ("--p", "-0.5*s/(1+s)"), ("--q", "-0")]),
    ],
)
def test_a_flag_value_may_begin_with_a_minus(sub, flags, capsys, tmp_path):
    # argparse alone reads the value of "--phi -s+3" as a flag and exits 2
    spaced = [sub, *itertools.chain.from_iterable(flags)]
    joined = [sub, *(f"{flag}={value}" for flag, value in flags)]
    code, doc = run_json(spaced, capsys, tmp_path)
    assert code != 2 and doc is not None
    assert (code, doc) == run_json(joined, capsys, tmp_path)


@pytest.mark.parametrize(
    "spaced, joined",
    [
        ("check --phi 1+s --s-fr -0.7:0.7:5", "check --phi=1+s --s-frac=-0.7:0.7:5"),
        ("report --phi 2+s --s- -0.5:0.5:4", "report --phi=2+s --s-frac=-0.5:0.5:4"),
        ("report --ph -s+3 --dim 3", "report --phi=-s+3 --dim 3"),
        ("report --p -s+3", "report --phi=-s+3"),  # --p is --phi's prefix here
    ],
)
def test_a_flag_prefix_value_may_begin_with_a_minus(spaced, joined, capsys, tmp_path):
    # argparse takes a unique prefix of a flag for the flag; its value is joined as the flag's
    code, doc = run_json(spaced.split(), capsys, tmp_path)
    assert code == 0 and doc is not None
    assert (code, doc) == run_json(joined.split(), capsys, tmp_path)


def test_an_ambiguous_flag_prefix_exits_2(capsys):
    # --s is a prefix of --s-frac and --seed
    with pytest.raises(SystemExit) as exc:
        main(["report", "--phi", "1+s", "--s", "-0.5:0.5:4"])
    assert exc.value.code == 2
    assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--phi", "--r", "--s-frac", "--u"])
def test_a_flag_without_its_value_exits_2(flag, capsys):
    args = ["report", "--phi", "1+s", flag] if flag != "--phi" else ["report", flag]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


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
    # 120 points make long columns for the column-wise writer; the file is
    # still exactly json.dumps(doc, sort_keys=True, indent=1) plus a newline
    from finslerlab.cli import RunConfig, run

    path = tmp_path / "out.json"
    args = ["check", "--phi", "1+s", "--r", "0.5:1.2:8", "--s-frac=-0.7:0.7:15", "--u", "1:1:1"]
    assert main([*args, "--json", str(path)]) == 0
    capsys.readouterr()
    grids = parse_range("0.5:1.2:8"), parse_range("-0.7:0.7:15"), [1.0]
    doc, _ = run(RunConfig("check", "1+s", 2, *grids))
    doc["points"] = doc["points"].tolist()
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize(
    "args",
    [
        # jet-domain skips on a rotated grid, and a grid whose cells the embedding rejects
        ["report", "--phi", "ln(s+0.5)+2", "--rotate"],
        ["report", "--phi", "1+s", "--u=-1:0:2"],
        ["check", "--phi", "ln(s+0.5)+2", "--rotate"],
        ["check", "--phi", "1+s", "--u=-1:0:2"],
        ["classify", "--phi", "ln(s+0.5)+2", "--rotate"],
        ["classify", "--phi", "1+s", "--u=-1:0:2"],
        # null verdicts with their *_error strings, and no K samples
        ["classify", "--phi", "1e200*(2+s)"],
        ["metrize", "--phi", "ln(s+0.5)+2", "--p", "0", "--q", "0", "--rotate"],
        ["metrize", "--phi", "1+s", "--p", "0", "--q", "0", "--u=-1:0:2"],
    ],
)
def test_report_file_is_byte_for_byte_the_indented_json(args, dim, monkeypatch, capsys, tmp_path):
    # main writes the columns run returns; the file is the indented
    # JSON of the document built from them, one dict per point
    from finslerlab import cli

    docs, run = [], cli.run

    def recording_run(cfg):
        doc, code = run(cfg)
        docs.append(doc)
        return doc, code

    monkeypatch.setattr(cli, "run", recording_run)
    path = tmp_path / "out.json"
    code = main([*args, "--dim", dim, "--json", str(path)])
    capsys.readouterr()
    (doc,) = [{**doc, "points": doc["points"].tolist()} for doc in docs]
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert (code == 3) == (doc["points"] == [] and doc["verdicts"] == {})
    if "1e200*(2+s)" in args:
        assert doc["verdicts"]["is_scalar"] is None and doc["verdicts"]["scalar_error"]
    else:
        assert doc["skipped"]


def test_write_report_matches_json_dumps_on_any_document(tmp_path):
    from finslerlab.cli import write_report

    nan, inf = float("nan"), float("inf")
    doc = {
        "floats": [1.5, -0.0, 0.0, 1e-300, 1e300, nan, inf, -inf],
        "records": [
            {"a": 1.0, "b": [True, False], "c": None, "%s": "100%"},
            {"a": nan, "b": [False, True], "c": 3, "%s": "\u00e9\n\t\"\\"},
        ],
        "differing_keys": [{"a": 1}, {"b": [1, 2]}, {}, {"a": 1, "b": {}}],
        "lists": [[], [[]], [1, [2, [3]]], (4, 5), [1.0, "x", None, False]],
        "empty": {"dict": {}, "list": [], "str": ""},
        "text": ["\u2603 snow", "tab\tquote\"", "\x00\x1f", "\ud83d\ude00", "\ud800"],
        "ints": [0, -1, 2**70, True],
        "float64": np.float64(2.5),
        "non_str_keys": [{1: "one", 2.5: "two and a half", False: "no"}, {None: "null"}],
        "int_keys": {10: "ten", 9: "nine"},
        "scalar": -inf,
    }
    path = tmp_path / "out.json"
    write_report(doc, path)
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    for value in (1.0, None, "x", [], {}, nan):
        write_report(value, path)
        assert path.read_text() == json.dumps(value, sort_keys=True, indent=1) + "\n"
    # a type json.dumps rejects raises json's own TypeError, nested or not
    for bad in (np.int64(3), np.bool_(True), np.float32(1.5), {1, 2}, b"x"):
        for wrapped in (bad, {"points": [{"a": 1.0}, {"a": bad}]}, [[1, bad]]):
            with pytest.raises(TypeError) as ours:
                write_report(wrapped, path)
            with pytest.raises(TypeError) as theirs:
                json.dumps(wrapped, sort_keys=True, indent=1)
            assert str(ours.value) == str(theirs.value)


_NAN = float("nan")
_REPEATED_COLUMNS = [
    [-0.0, 0.0, -0.0],
    [0.0, -0.0],
    [-0.0, 0.0, 0.0, 0.0],
    [0.0, 1.5, -0.0, 1.5, 0.0, -0.0],
    [-0.0, -0.0, 2.5, 2.5],
    [0.0, -0.0, -_NAN, -_NAN],  # a NaN with its sign bit set beside both zeros
    [_NAN, _NAN],
    [float("nan"), float("nan")],
    [_NAN, float("nan"), _NAN, float("nan")],
    [float("inf"), float("-inf"), float("inf"), float("-inf"), float("inf")],
    [1e308, 1.5e308, 1e308, 1.5e308],  # finite values whose sum overflows
    # more than 64 values whose first 32 are distinct: formatted one by one, although
    # fewer than half are distinct; with -0.0 and 0.0, and with NaN and infinities
    [i / 8 for i in range(40)] * 3,
    [-0.0, *(i / 8 for i in range(1, 40))] * 2 + [0.0, -0.0] * 10,
    [_NAN, float("inf"), *(i / 8 for i in range(40)), float("-inf")] * 2,
    [2.5],
    [1, 1.0, True],
    [1.0, 1, True, 1.0],
    [True, 1.0, 1, 1.0],
]


@pytest.mark.parametrize("column", _REPEATED_COLUMNS)
def test_write_report_formats_repeated_values_like_json_dumps(column, monkeypatch, tmp_path):
    # repeated floats are formatted once per distinct value; the texts must
    # still tell 0.0 from -0.0 and keep hash-equal values of other types apart
    from finslerlab import cli, jsontext

    path = tmp_path / "out.json"
    records = [{"v": v, "w": [v, 0.5], "x": 0.5} for v in column]
    for doc in ({"points": records}, {"column": column}, [column, column]):
        cli.write_report(doc, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    # as columns, in blocks of two records: a float column's memo spans its blocks
    monkeypatch.setattr(jsontext, "_BLOCK", 2)
    v = np.array(column, dtype=float)
    table = jsontext.Records({"v": v, "w": np.stack([v, np.full_like(v, 0.5)], -1), "x": v == v})
    cli.write_report({"points": table}, path)
    doc = {"points": table.tolist()}
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _writer_columns(n):
    # float columns that take the memo (one with -0.0 beside 0.0, one whose first
    # 32 values are distinct but which repeats later) or not (every value distinct,
    # non-finite values), and bool columns of one and two axes
    k = np.arange(n)
    return {
        "memo": np.array([-0.0, 0.0, 2.5, 0.1 + 0.2])[k % 4],
        "repeats": (k % 40) / 8 + 0.1,
        "distinct": k / 3 - 7.0,
        "nonfinite": np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300])[k % 5],
        "flag": k % 3 == 0,
        "pair": np.stack([k % 2 == 0, k % 5 == 0], -1),
    }


def test_the_writer_formats_each_needed_float_once(monkeypatch):
    # a column where at most half the values are distinct formats each distinct
    # value once (-0.0 and 0.0 each), any other float column each value once, and
    # a bool column no float
    from collections import Counter

    from finslerlab import jsontext

    formatted = []

    def counted(v):
        formatted.append(float.__repr__(v))
        return float.__repr__(v)

    monkeypatch.setattr(jsontext, "repr", counted, raising=False)
    for n in (1, 32, 33, 120):
        columns = _writer_columns(n)
        needed = []
        for name in ("memo", "repeats", "distinct", "nonfinite"):
            values = list(map(float.__repr__, columns[name].tolist()))
            distinct = list(dict.fromkeys(values))
            needed += distinct if 2 * len(distinct) <= n and name != "nonfinite" else values
        formatted.clear()
        records = jsontext.Records(columns)
        text = "".join(jsontext.json_pieces({"points": records}))
        assert Counter(formatted) == Counter(needed)
        assert text == json.dumps({"points": records.tolist()}, sort_keys=True, indent=1)
    assert len(formatted) == 4 + 40 + 120 + 120  # n = 120: memo, repeats, distinct, nonfinite


@pytest.mark.parametrize("n", [0, 1, 32, 33, 64, 65, 120])
def test_records_at_the_block_edges_match_json_dumps(n, tmp_path):
    from finslerlab import jsontext
    from finslerlab.cli import write_report

    # a column of two axes of floats beside them; no columns at all for n = 0
    vector = np.stack([np.arange(n) / 7, -np.arange(n) * 0.0], -1)
    records = jsontext.Records({**_writer_columns(n), "vector": vector} if n else {})
    doc = {"points": records, "nested": {"rows": records, "n": n}, "scalar": -0.0}
    path = tmp_path / "out.json"
    write_report(doc, path)
    rows = records.tolist()
    expected = {"points": rows, "nested": {"rows": rows, "n": n}, "scalar": -0.0}
    assert path.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"
    assert len(records) == n


_POOL = [0.0, -0.0, 1.5, -2.25, 0.1 + 0.2, 1e300, 5e-324, _NAN, float("inf"), float("-inf"),
         1, 0, 2**70, True, False, None, "s"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    records=st.lists(
        st.fixed_dictionaries({k: st.sampled_from(_POOL) for k in "abc"}),
        min_size=1,
        max_size=12,
    )
)
def test_write_report_matches_json_dumps_on_records_from_a_small_pool(records, tmp_path_factory):
    from finslerlab.cli import write_report

    path = tmp_path_factory.getbasetemp() / "pool.json"
    doc = {"points": records, "column": [r["a"] for r in records]}
    write_report(doc, path)
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 31, 32, 33, 64, 65, 70]))
def test_records_from_a_small_pool_match_json_dumps(data, n, tmp_path_factory):
    # each column the numpy array of n values drawn from a few of the pool's: a
    # float, bool, int, str or object column, which may repeat after its first block
    from finslerlab import jsontext
    from finslerlab.cli import write_report

    columns = {}
    for name in "abc":
        pool = data.draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=4))
        columns[name] = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    table = jsontext.Records(columns)
    path = tmp_path_factory.getbasetemp() / "pool_records.json"
    write_report({"points": table}, path)
    expected = json.dumps({"points": table.tolist()}, sort_keys=True, indent=1)
    assert path.read_text() == expected + "\n"


# phis whose runs give the writer clean columns, skipped points, no points at
# all (exit 3), and, at s = r/2 for 3*s-s^2-1, a det_formula column of -0.0
# beside positive values; metrize's candidate spray is 1+s's, so its pass
# column holds both values on the other phis
_WRITER_PHIS = ["1+s", "1+0.3*s", "ln(s+0.5)+2", "ln(s-10)", "3*s-s^2-1"]
_GRID = st.tuples(
    st.floats(0.2, 2.0), st.floats(0.0, 1.5), st.integers(1, 4),
    st.floats(-0.95, 0.95), st.floats(-0.95, 0.95), st.integers(1, 5),
    st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.integers(1, 2),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sub=st.sampled_from(["report", "check", "classify", "metrize"]),
    phi=st.sampled_from(_WRITER_PHIS),
    dim=st.sampled_from([2, 3]),
    grid=_GRID,
    rotate=st.booleans(),
    block=st.sampled_from([1, 7, 32]),
)
@example(sub="report", phi="3*s-s^2-1", dim=3, grid=(1.5, 0.5, 2, 0.25, 0.5, 2, 1.0, 1.0, 2),
         rotate=False, block=3)
@example(sub="check", phi="ln(s+0.5)+2", dim=2, grid=(0.5, 1.0, 3, -0.7, 0.7, 5, 1.0, 1.0, 2),
         rotate=True, block=7)
@example(sub="classify", phi="1+0.3*s", dim=2, grid=(0.5, 1.0, 3, -0.7, 0.7, 5, 1.0, 1.0, 2),
         rotate=True, block=7)
@example(sub="metrize", phi="ln(s+0.5)+2", dim=3, grid=(0.5, 1.0, 3, -0.7, 0.7, 5, 1.0, 1.0, 2),
         rotate=False, block=32)
@example(sub="report", phi="ln(s-10)", dim=2, grid=(0.5, 1.0, 3, -0.7, 0.7, 5, 1.0, 1.0, 2),
         rotate=False, block=32)
def test_main_writes_the_indented_json_of_run(sub, phi, dim, grid, rotate, block, tmp_path_factory):
    # main writes the report from its columns, block by block; the file is the
    # indented JSON of the document run builds, one dict per point
    import contextlib
    import io

    from finslerlab import cli, jsontext

    r0, dr, nr, f0, f1, nf, u0, du, nu = grid
    ranges = [f"{r0!r}:{r0 + dr!r}:{nr}", f"{f0!r}:{f1!r}:{nf}", f"{u0!r}:{u0 + du!r}:{nu}"]
    spray = ("1/(2*(1+s))", "0") if sub == "metrize" else (None, None)
    path = tmp_path_factory.getbasetemp() / "columns.json"
    path.unlink(missing_ok=True)
    argv = [sub, "--phi", phi, "--dim", str(dim), "--seed", "3", "--json", str(path)]
    argv += [f"--{flag}={text}" for flag, text in zip(("r", "s-frac", "u"), ranges)]
    argv += ["--rotate"] * rotate + (["--p", spray[0], "--q", spray[1]] if sub == "metrize" else [])
    saved, jsontext._BLOCK = jsontext._BLOCK, block
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        jsontext._BLOCK = saved
    if code == 2:  # classify's grid has fewer than 8 points
        assert sub == "classify" and nr * nf * nu < 8 and not path.exists()
        return
    cfg = cli.RunConfig(sub, phi, dim, *map(parse_range, ranges), 3, rotate, p_expr=spray[0],
                        q_expr=spray[1])
    doc, run_code = cli.run(cfg)
    doc["points"] = doc["points"].tolist()
    assert code == run_code
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_main_writes_the_report_from_its_columns(monkeypatch, capsys, tmp_path):
    # main never builds the per-point document: the points stay numpy columns
    # from run to the file
    from finslerlab import cli

    args = ["check", "--phi", "1+s", "--r", "0.5:1.2:8", "--s-frac=-0.7:0.7:15", "--u", "1:1:1"]
    grids = parse_range("0.5:1.2:8"), parse_range("-0.7:0.7:15"), [1.0]
    expected, _ = cli.run(cli.RunConfig("check", "1+s", 2, *grids))
    expected["points"] = expected["points"].tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("main built one dict per point")

    docs, run = [], cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: docs.append(run(cfg)) or docs[-1])
    monkeypatch.setattr(cli.Records, "tolist", refuse)
    path = tmp_path / "out.json"
    assert main([*args, "--json", str(path)]) == 0
    capsys.readouterr()
    ((doc, _),) = docs
    assert type(doc["points"]) is cli.Records and len(doc["points"]) == 120
    assert all(type(v) is np.ndarray for v in doc["points"].columns.values())
    assert path.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"


def test_the_writer_holds_one_block_of_the_report_at_a_time(tmp_path):
    # the 120-point Randers report is about 60 kB of text; formatting it
    # whole, with its dicts or its columns of texts, peaks at 200 kB or more
    import tracemalloc

    from finslerlab.cli import RunConfig, run, write_report

    grids = parse_range("0.5:1.2:8"), parse_range("-0.7:0.7:15"), [1.0]
    doc, code = run(RunConfig("report", "1+s", 2, *grids))
    assert code == 0 and len(doc["points"]) == 120
    path = tmp_path / "out.json"
    write_report(doc, path)
    tracemalloc.start()
    try:
        write_report(doc, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 60_000
    assert peak <= 128 * 1024


@pytest.mark.parametrize(
    "phi, q, exit_code, points",
    [("1e200*(2+s)", "1e300*s", 3, 0), ("1+s", "1e305*s^2", 1, 6)],
)
def test_metrize_skips_points_whose_residuals_are_not_finite(
    phi, q, exit_code, points, capsys, tmp_path
):
    # C1/C2/C3 overflow: those points are skips, as in report, not failed records;
    # for 1+s only C3 overflows, and only where s != 0
    args = ["metrize", "--phi", phi, "--p", "1/(s-0.1)", "--q", q]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == exit_code
    assert len(doc["points"]) == points and len(doc["skipped"]) == 30 - points
    assert all(p["reason"].startswith("non-finite ") for p in doc["skipped"])
    for rec in doc["points"]:
        assert all(np.isfinite(rec[name]) for name in ("C1", "C2", "C3"))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "phi",
    [
        FLAT,
        "1+s",
        "sqrt(1+s^2)",
        "1+s^2-0.9*r",
        "3*s",
        "2*s + 0.5*sqrt(r^2 - s^2)",
        "1e200*(2+s)",
        "exp(s)^800",
    ],
)
def test_classify_matches_the_public_classifiers(phi, dim, capsys, tmp_path):
    # the CLI runs the front half at the cells and spreads it to the points; the
    # library's classify runs it at each point; both then run the same verdict code,
    # and agree bit for bit on the points whose phi jets evaluate: the verdicts, their
    # errors and the K samples
    from finslerlab import canonical_point, classify, parse

    code, doc = run_json(["classify", "--phi", phi, "--dim", str(dim)], capsys, tmp_path)
    assert code == 0
    skipped = {(p["r"], p["s"], p["u"]) for p in doc["skipped"]}
    kept = [
        (r, frac * r, u)
        for r in parse_range("0.5:1.5:3")
        for frac in parse_range("-0.7:0.7:5")
        for u in parse_range("1:2:2")
        if (r, frac * r, u) not in skipped
    ]
    r, s, u = (np.array(v) for v in zip(*kept))
    verdicts, samples = classify(parse(phi), canonical_point(dim, r, s, u))
    assert doc["verdicts"] == verdicts
    assert ("riemannian" in verdicts) is (dim == 2)
    rows = zip(*(column.tolist() for column in samples.values()))
    assert doc["points"] == [dict(zip(samples, row)) for row in rows]
    if verdicts["is_scalar"] is None:
        assert doc["points"] == []


def test_classify_keeps_the_stage_order_of_errors(capsys, tmp_path):
    # phi = 3s at s < 0 fails both phi > 0 and the TYPE_B denominator of P/Q;
    # the scalar classifier reports the phi > 0 failure, as report would
    code, doc = run_json(["classify", "--phi", "3*s"], capsys, tmp_path)
    assert code == 0
    for error in ("scalar_error", "riemannian_error"):
        assert doc["verdicts"][error].startswith("phi = ")
        assert doc["verdicts"][error].endswith("is not positive at (r, s) = (0.5, -0.35)")


@pytest.mark.parametrize(
    "phi",
    [
        "(" * 200 + "2+s" + ")" * 200,
        "s+" * 1199 + "3",
        "-(" * 200 + "s" + ")" * 200,
        "^".join(["s"] * 1000),
    ],
    ids=["parentheses", "sum", "minus", "power"],
)
def test_deeply_nested_phi_exits_2(phi, capsys):
    code, out, err = run_cli(["report", f"--phi={phi}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: expression nested deeper than 100 levels (at offset ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("grid", ["--u=1:inf:2", "--r=nan:1:3", "--s-frac=-inf:0.5:3"])
def test_non_finite_range_end_points_exit_2(grid, capsys):
    code, out, err = run_cli(["report", "--phi", "1+s", grid], capsys)
    assert code == 2 and out == ""
    assert err == f"error: range end points must be finite, got '{grid.split('=')[1]}'\n"
    with pytest.raises(ValueError, match="range end points must be finite"):
        parse_range(grid.split("=")[1])


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_unwritable_json_path_exits_2(where, capsys, tmp_path):
    # a directory that does not exist, and a path that is a directory: the
    # summary is printed, then the write fails with an error line, not a traceback
    path = tmp_path / where
    code, out, err = run_cli(["report", "--phi", "1+s", "--json", str(path)], capsys)
    assert code == 2
    assert out.startswith("finsler-lab ") and "28 points evaluated, 2 skipped" in out
    assert err.startswith("error: [Errno ") and err.endswith(f"'{path}'\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


# numpy's MemoryError names the allocation; Python's own (a list too long) has no message
@pytest.mark.parametrize(
    "message", ["Unable to allocate 14.3 GiB for an array", ""], ids=["numpy", "bare"]
)
@pytest.mark.parametrize("where, args", [
    ("linspace", ["report", "--phi", "1+s", "--r", "0.5:1.5:200000000"]),
    ("cartan_pack", ["check", "--phi", "1+s", "--dim", "2"]),
    ("cartan_pack", ["check", "--phi", "1+s", "--dim", "3"]),
    ("write_report", ["report", "--phi", "1+s", "--json"]),
], ids=["range", "cartan_n2", "cartan_n3", "write"])
def test_running_out_of_memory_exits_2(where, args, message, monkeypatch, capsys, tmp_path):
    # a range count, a --dim or a report too large for memory: a MemoryError, raised
    # without allocating where each would first fail, ends in one error line, not a
    # traceback; the report's write comes after the summary
    from finslerlab import cli, geometry

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    if where == "linspace":
        monkeypatch.setattr(np, "linspace", no_memory)
    elif where == "cartan_pack":
        wrap_everywhere(monkeypatch, geometry, "cartan_pack", no_memory)
    else:
        monkeypatch.setattr(cli, "write_report", no_memory)
        args = [*args, str(tmp_path / "out.json")]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and err == f"error: {message or 'out of memory'}\n"
    assert out.startswith("finsler-lab ") == (where == "write_report")


def test_overflowing_phi_squared_is_named_in_every_guard(capsys, tmp_path):
    # phi = 1e200 (2 + s): phi^2 overflows, so the TYPE_B guard cannot scale its
    # test; the points are skipped with the reason the classifiers give
    code, doc = run_json(["check", "--phi", "1e200*(2+s)"], capsys, tmp_path)
    assert code == 3 and len(doc["skipped"]) == 30
    assert {point["reason"] for point in doc["skipped"]} == {"non-finite phi^2 = inf"}
    code, doc = run_json(["classify", "--phi", "1e200*(2+s)"], capsys, tmp_path)
    assert code == 0
    assert doc["verdicts"]["scalar_error"] == "non-finite phi^2 = inf"
    assert doc["verdicts"]["degeneracy_error"] == "non-finite phi^2 = inf"


@pytest.mark.parametrize("sub", ["report", "classify"])
def test_cells_the_embedding_rejects_are_skips_in_grid_order(sub, capsys, tmp_path):
    # r = 0, u <= 0 and |s| = 0.9999999 r are rejected before any jet is taken;
    # the 12 cells left are evaluated, and every cell keeps its grid position
    ranges = {"--r": "0:1.5:4", "--s-frac": "-0.9999999:0.9999999:3", "--u": "-0.5:2:6"}
    skipped, kept = [], []
    for r, frac, u in itertools.product(*(parse_range(text) for text in ranges.values())):
        s = frac * r
        if r <= 0 or u <= 0:
            reason = f"r and u must be positive, got r={r}, u={u}"
        elif frac != 0.0:
            reason = f"|s| = {abs(s)} too close to r = {r} (|s| < r required)"
        else:
            kept.append((r, s, u))
            continue
        skipped.append({"r": r, "s": s, "u": u, "reason": reason})
    args = [sub, "--phi", "1+0.3*s", "--dim", "3", *(f"{k}={v}" for k, v in ranges.items())]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 0
    assert len(skipped) == 60 and len(kept) == 12
    assert doc["skipped"] == skipped
    assert [(p["r"], p["s"], p["u"]) for p in doc["points"]] == kept
    if sub == "classify":
        assert doc["verdicts"]["degeneracy"] == "nondegenerate"
        assert all(math.isfinite(p["K"]) for p in doc["points"])


@pytest.mark.parametrize("sub", ["report", "check", "classify", "metrize"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_a_cell_whose_own_point_the_embedding_rejects_serves_its_other_points(
    sub, dim, capsys, tmp_path
):
    # the cells are the points of the first u value, and u = -1 fails the embedding
    # there; the points of u = 1 read the cells' (r, s) stages all the same
    args = [sub, "--phi", FLAT, "--dim", dim]
    args += ["--p", "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)", "--q", "0"] if sub == "metrize" else []
    code, doc = run_json([*args, "--u=-1:1:2"], capsys, tmp_path)
    one_code, one = run_json([*args, "--u=1:1:1"], capsys, tmp_path)
    assert len(doc["points"]) == 15 and len(doc["skipped"]) == 15
    assert (code, doc["points"], doc["verdicts"]) == (one_code, one["points"], one["verdicts"])
    assert doc["checks"] == one["checks"] and bool(doc["checks"]) == (sub == "check")
    for point, skip in zip(one["points"], doc["skipped"]):
        reason = f"r and u must be positive, got r={point['r']}, u=-1.0"
        assert skip == {"r": point["r"], "s": point["s"], "u": -1.0, "reason": reason}


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("sub, phi", [("report", "ln(s+0.5)+0.8"), ("check", "ln(s+0.5)+0.8"),
                                      ("metrize", "ln(s+0.5)+2")])
def test_each_skip_names_the_earliest_stage_through_the_one_run(sub, phi, dim, capsys, tmp_path):
    # stage order: the embedding (u = -1), phi's jet, the (r, s) stage (the front half, or
    # metrize's candidate spray), the point packs; at s = -0.7 phi's jet and the (r, s)
    # stage both fail, and the jet's reason wins
    from finslerlab import candidate_spray, canonical_point, eval_jet, parse
    from finslerlab.curvature import front_half

    args = [sub, "--phi", phi, "--dim", dim, "--r=1:1:1", "--s-frac=-0.7:0.7:5"]
    args += ["--p", "1/(s+0.7)+1/s", "--q", "0"] if sub == "metrize" else []
    code, doc = run_json([*args, "--u=-1:1:2"], capsys, tmp_path)
    one_code, one = run_json([*args, "--u=1:1:1"], capsys, tmp_path)
    assert (code, doc["points"]) == (one_code, one["points"]) and doc["points"]

    cells = canonical_point(int(dim), np.ones(5), np.array(parse_range("-0.7:0.7:5")), 1.0)
    jet = eval_jet(parse(phi), cells.r, cells.s, errors=(jet_errors := {}))
    with np.errstate(all="ignore"):
        if sub == "metrize":
            candidate_spray(parse("1/(s+0.7)+1/s"), parse("0"), cells, errors=(stage_errors := {}))
        else:
            front_half(jet, cells, (stage_errors := {}))
    assert 0 in jet_errors and 0 in stage_errors and set(stage_errors) - set(jet_errors)
    first = {s: str({**stage_errors, **jet_errors}[k]) for k, s in enumerate(cells.s.tolist())
             if k in jet_errors or k in stage_errors}
    assert [skip["reason"] for skip in one["skipped"] if skip["s"] in first] == [*first.values()]
    # the other skips are the point packs': the frame's radicand, at n = 2 only
    later = {skip["reason"] for skip in one["skipped"] if skip["s"] not in first}
    assert bool(later) == (sub != "metrize" and dim == "2")
    assert not later & {*map(str, jet_errors.values()), *map(str, stage_errors.values())}
    embedding = "r and u must be positive, got r=1.0, u=-1.0"
    expected = []
    for s in cells.s.tolist():
        expected.append({"r": 1.0, "s": s, "u": -1.0, "reason": embedding})
        expected += [skip for skip in one["skipped"] if skip["s"] == s]
    assert doc["skipped"] == expected


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: only the n = 2 Berwald frame's radicand reads the metric's "
    "signature, so at n >= 3 report and check keep points whose metric is indefinite",
)
def test_n3_skips_the_wrong_signature_points_that_n2_skips(capsys, tmp_path):
    # at these (r, s), ln(s+0.5)+0.8 gives an indefinite metric: n = 2 skips both points
    # on the frame's radicand, while n = 3 keeps them with det g < 0
    args = ["report", "--phi", "ln(s+0.5)+0.8", "--r=1:1:1", "--s-frac=0:0.35:2", "--u=1:1:1"]
    two_code, two = run_json([*args, "--dim", "2"], capsys, tmp_path)
    assert two_code == 3 and len(two["skipped"]) == 2
    _, three = run_json([*args, "--dim", "3"], capsys, tmp_path)
    rs = lambda doc: [(skip["r"], skip["s"]) for skip in doc["skipped"]]
    assert rs(three) == rs(two)


@pytest.mark.parametrize("sub", ["report", "check", "classify", "metrize"])
def test_main_reaches_every_public_function_of_the_cli(sub, monkeypatch, capsys, tmp_path):
    # a second door beside a public function leaves that function unreached by the CLI,
    # and the benchmark's span of it reads 0 with no error
    import inspect

    from finslerlab import cli

    names = [name for name, fn in vars(cli).items() if not name.startswith("_")
             and inspect.isfunction(fn) and fn.__module__ == cli.__name__]
    reached = set()
    for name in names:
        def wrapper(*args, fn=getattr(cli, name), name=name, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    args = [sub, "--phi", "1+s", "--json", str(tmp_path / "out.json")]
    args += ["--p", "1/(2*(1+s))", "--q", "0"] if sub == "metrize" else []
    assert cli.main(args) == 0
    capsys.readouterr()
    assert "run" in names and reached == set(names)


def test_metrize_reads_the_candidate_spray_at_degree_2(capsys, tmp_path):
    # 1/(1e-63 + s^2) overflows at s = 0 only in its degree-4 seed 24/v^5,
    # which C1..C3 never read: every point is evaluated, and the spray fails
    args = ["metrize", "--phi", "1+s", "--p", "1/(1e-63+s^2)", "--q", "0"]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 1 and doc["verdicts"] == {"metrizable": False}
    assert len(doc["points"]) == 30 and doc["skipped"] == []


def test_metrize_reads_phi_at_degree_1(capsys, tmp_path):
    # the same phi: its degree-4 seed overflows at s = 0, but C1..C3 read phi
    # only to first order, so those 6 points are evaluated too
    args = ["metrize", "--phi", "1/(1e-63+s^2)", "--p", "0", "--q", "0"]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 1 and doc["verdicts"] == {"metrizable": False}
    assert len(doc["points"]) == 30 and doc["skipped"] == []


@pytest.mark.parametrize(
    "phi", [FLAT, "1+s", "sqrt(1+s^2)", "(1+s)^r", "s^((r-1)^5+2)+2", "ln(1e100+s)"]
)
@pytest.mark.parametrize("dim", [2, 3])
def test_metrize_matches_a_degree_4_reference_bit_for_bit(phi, dim):
    from finslerlab import (
        canonical_point,
        eval_jet,
        metrizability_from_spray,
        parse,
        random_rotation,
        riemann_pack,
    )
    from finslerlab.cli import RunConfig, run
    from finslerlab.spray import spray_pack_from_jets

    p = "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)"
    q = "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"
    grid = [0.5, 1.0, 1.5], [-0.8, -0.3, 0.0, 0.3, 0.8], [0.6, 2.0]
    cfg = RunConfig("metrize", phi, dim, *grid, seed=7, rotate=True, p_expr=p, q_expr=q)
    doc, _ = run(cfg)  # ln(1e100+s) skips every point at any degree: its v^4 overflows
    doc["points"] = doc["points"].tolist()

    # the reference: phi at degree 4, P/Q at degree 2, C3 from the whole riemann_pack
    rotation = random_rotation(dim, np.random.default_rng(7))
    r, frac, u = (np.array(v) for v in zip(*itertools.product(*grid)))
    batch, errors = canonical_point(dim, r, frac * r, u, rotation=rotation), {}
    with np.errstate(all="ignore"):
        jet = eval_jet(parse(phi), batch.r, batch.s, errors=errors)
        pj, qj = (eval_jet(parse(e), batch.r, batch.s, degree=2, errors=errors) for e in (p, q))
        sp = spray_pack_from_jets(pj, qj, batch)
        mr = metrizability_from_spray(jet, sp, batch)
        ref = {"C1": mr.C1, "C2": mr.C2, "C3": riemann_pack(sp, jet, batch).C3}
    finite = np.isfinite(np.stack(list(ref.values()))).all(axis=0)
    kept = [k for k in range(r.size) if k not in errors and finite[k]]
    assert [(rec["r"], rec["s"], rec["u"]) for rec in doc["points"]] == [
        (batch.r[k], batch.s[k], batch.u[k]) for k in kept
    ]
    for name, values in ref.items():
        got = np.array([rec[name] for rec in doc["points"]])
        assert got.tobytes() == values[kept].tobytes(), name


def test_metrize_draws_no_rotation(monkeypatch, capsys, tmp_path):
    # C1..C3 are scalars in (r, s), so metrize builds no frame to rotate;
    # its config still echoes the flags
    from finslerlab import cli

    def no_rotation(*args):
        raise AssertionError("metrize drew a rotation")

    monkeypatch.setattr(cli, "random_rotation", no_rotation)
    args = ["metrize", "--phi", "1+s", "--p", "1/(2*(1+s))", "--q", "0", "--rotate", "--seed", "5"]
    code, doc = run_json(args, capsys, tmp_path)
    assert code == 0 and len(doc["points"]) == 30
    assert doc["config"]["rotate"] is True and doc["config"]["seed"] == 5


@pytest.mark.parametrize("sub", ["report", "check", "classify"])
def test_a_rotated_frame_is_drawn_once(sub, monkeypatch, capsys):
    from finslerlab import cli

    calls, draw = [], cli.random_rotation
    monkeypatch.setattr(cli, "random_rotation", lambda n, rng: calls.append(n) or draw(n, rng))
    assert main([sub, "--phi", "1+s", "--dim", "3", "--rotate"]) == 0
    capsys.readouterr()
    assert calls == [3]


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize(
    "args",
    [
        ["--phi", "1+s", "--p", "1/(2*(1+s))", "--q", "0"],
        ["--phi", FLAT, "--p", "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)",
         "--q", "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"],
        # the embedding skips r = 0 and |s| = 0.9999999 r, the jet ln(s + 0.5) < 0
        ["--phi", "ln(s+0.5)+2", "--p", "0", "--q", "0", "--r=0:1.5:4",
         "--s-frac=-0.9999999:0.9999999:5"],
    ],
)
def test_metrize_output_is_frame_free(args, dim, capsys, tmp_path):
    outputs = []
    for rotate in ([], ["--rotate", "--seed", "1"], ["--rotate", "--seed", "2"]):
        code, doc = run_json(["metrize", *args, "--dim", dim, *rotate], capsys, tmp_path)
        outputs.append((code, json.dumps([doc["points"], doc["skipped"], doc["verdicts"]])))
    assert outputs[0] == outputs[1] == outputs[2]
    if "ln(s+0.5)+2" in args:
        reasons = [rec["reason"] for rec in json.loads(outputs[0][1])[1]]
        assert {reason.split()[0] for reason in reasons} == {"r", "|s|", "ln"}


@pytest.mark.parametrize("sub", ["report", "check", "classify", "metrize"])
def test_a_clean_run_leaves_no_cyclic_garbage(sub):
    import gc

    from finslerlab.cli import RunConfig, run

    # the flat phi and its spray
    p = "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)"
    q = "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"
    cfg = RunConfig(sub, FLAT, 3, [0.6, 1.0, 1.4], [-0.5, 0.0, 0.5], [1.0, 2.0], p_expr=p, q_expr=q)
    doc, code = run(cfg)  # warm-up
    assert code == 0 and len(doc["points"]) == 18 and doc["skipped"] == []
    gc.collect()
    gc.disable()
    try:
        run(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: the named method raises BrokenPipeError."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":  # a buffered stdout fails when it is flushed
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("args, expected", [
    (["check", "--phi", "1+s", "--dim", "3"], 0),
    (["check", "--phi", "1e-63+s^2"], 1),  # fails metric_inverse and rho_contractions
    (["classify", "--phi", FLAT], 0),
])
def test_a_closed_stdout_changes_neither_the_exit_code_nor_the_report(
    args, expected, failing, capsys, tmp_path
):
    # main points stdout at os.devnull, so the flush at exit cannot fail either
    assert main([*args, "--json", str(tmp_path / "open.json")]) == expected
    capsys.readouterr()
    stdout, sys.stdout = sys.stdout, ClosedStdout(failing)
    try:
        code = main([*args, "--json", str(tmp_path / "closed.json")])
        devnull = sys.stdout
    finally:
        sys.stdout = stdout
    devnull.close()
    assert code == expected and devnull.name == os.devnull
    assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sub", ["report", "check", "classify", "metrize"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_a_run_calls_no_meshgrid_moveaxis_or_delete(sub, dim, monkeypatch, capsys, tmp_path):
    # the grid is broadcast, the Cartan tensor's shifts are transposes, and the kept
    # points are a mask: none of these numpy helpers is on a run's path
    args = [sub, "--phi", "1+0.3*s", "--dim", dim, "--rotate", "--seed", "4"]
    if sub == "metrize":
        args += ["--p", "1/(2*(1+s))", "--q", "0"]
    expected = run_json(args, capsys, tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("a numpy helper off the run's path was called")

    for name in ("meshgrid", "moveaxis", "delete"):
        monkeypatch.setattr(np, name, forbidden)
    assert run_json(args, capsys, tmp_path) == expected


@pytest.mark.parametrize("counts", itertools.product(range(1, 5), repeat=3))
def test_the_grid_is_meshgrid_raveled_bit_for_bit(counts):
    from finslerlab.cli import RunConfig, run

    axes = [parse_range(f"{a}:{b}:{k}") for (a, b), k in zip(((0.5, 1.5), (-0.7, 0.7), (1, 2)),
                                                              counts)]
    r, frac, u = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    doc, code = run(RunConfig("report", "2+s", 2, *axes))
    assert code == 0 and doc["skipped"] == []
    columns = doc["points"].columns
    for name, expected in (("r", r), ("s", frac * r), ("u", u)):
        assert columns[name].tobytes() == expected.tobytes()


@pytest.mark.parametrize("phi, dim, failing", [
    ("sqrt(1+s^2)", "3", set()), ("1+0.3*s", "2", set()), ("ln(s+0.5)+2", "2", set()),
    ("1e-63+s^2", "3", {"metric_inverse", "rho_contractions"}),
    ("1e-63+s^2", "2", {"metric_inverse", "rho_contractions", "frame_orthonormality"}),
])
def test_each_check_row_is_its_own_reduction(phi, dim, failing, monkeypatch, capsys, tmp_path):
    # the table reduced in one pass gives each row's max |residual / scale| over the
    # kept points and its pass flag, as one row at a time does
    from finslerlab.cli import DEFAULT_TOL_ABS, DEFAULT_TOL_REL

    code, doc, table, kept = run_check_table(phi, dim, monkeypatch, capsys, tmp_path)
    tol = max(DEFAULT_TOL_ABS, DEFAULT_TOL_REL)
    rows = []
    with np.errstate(all="ignore"):
        for name, (residual, scale) in table.items():
            value = np.abs(residual / scale)[kept]
            rows.append({"name": name, "max_residual": float(value.max()),
                         "pass": not (value > tol).any()})
    assert doc["checks"] == rows and code == (1 if failing else 0)
    assert {row["name"] for row in rows if not row["pass"]} == failing
