"""End-to-end tests for the finsler-lab command line interface."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ],
)
def test_each_pack_runs_once_per_run(args, metric_packs, monkeypatch, capsys, tmp_path):
    # the packs are evaluated as columns: one call over all 30 points of the run
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
    for p in calls["metric_pack"] + calls["riemann_pack"] + calls["compatibility"]:
        assert p.r.shape == (30,)


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
    (doc,) = docs
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
    [2.5],
    [1, 1.0, True],
    [1.0, 1, True, 1.0],
    [True, 1.0, 1, 1.0],
]


@pytest.mark.parametrize("column", _REPEATED_COLUMNS)
def test_write_report_formats_repeated_values_like_json_dumps(column, tmp_path):
    # repeated floats are formatted once per distinct value; the texts must
    # still tell 0.0 from -0.0 and keep hash-equal values of other types apart
    from finslerlab.cli import write_report

    path = tmp_path / "out.json"
    records = [{"v": v, "w": [v, 0.5], "x": 0.5} for v in column]
    for doc in ({"points": records}, {"column": column}, [column, column]):
        write_report(doc, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


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
    # classify shares one evaluation pass among its classifiers; its verdicts,
    # errors and K samples are those of the public classifiers on the points
    # whose phi jets evaluate
    from finslerlab import (
        GeometryError,
        canonical_point,
        degeneracy_classify,
        parse,
        riemannian_test,
        scalar_classify,
    )

    code, doc = run_json(["classify", "--phi", phi, "--dim", str(dim)], capsys, tmp_path)
    assert code == 0
    skipped = {(p["r"], p["s"], p["u"]) for p in doc["skipped"]}
    grid = [
        canonical_point(dim, r, frac * r, u)
        for r in parse_range("0.5:1.5:3")
        for frac in parse_range("-0.7:0.7:5")
        for u in parse_range("1:2:2")
        if (r, frac * r, u) not in skipped
    ]
    e, verdicts = parse(phi), doc["verdicts"]

    def outcome(classify):
        try:
            return classify(e, grid), None
        except (ArithmeticError, GeometryError) as exc:
            return None, str(exc)

    report, error = outcome(scalar_classify)
    assert verdicts.get("scalar_error") == error
    if report is None:
        assert verdicts["is_scalar"] is None and doc["points"] == []
    else:
        assert verdicts["is_scalar"] == report.is_scalar
        assert verdicts["max_R3_residual"] == report.max_R3_residual
        samples = [{"r": p.r, "s": p.s, "u": p.u, "K": K} for p, K in report.K_samples]
        assert doc["points"] == samples
    verdict, error = outcome(degeneracy_classify)
    assert verdicts["degeneracy"] == (verdict and verdict.value)
    assert verdicts.get("degeneracy_error") == error
    if dim == 2:
        verdict, error = outcome(riemannian_test)
        assert verdicts["riemannian"] == verdict and verdicts.get("riemannian_error") == error
    else:
        assert "riemannian" not in verdicts


def test_classify_keeps_the_stage_order_of_errors(capsys, tmp_path):
    # phi = 3s at s < 0 fails both phi > 0 and the TYPE_B denominator of P/Q;
    # the scalar classifier reports the phi > 0 failure, as report would
    code, doc = run_json(["classify", "--phi", "3*s"], capsys, tmp_path)
    assert code == 0
    for error in ("scalar_error", "riemannian_error"):
        assert doc["verdicts"][error].startswith("phi = ")
        assert doc["verdicts"][error].endswith("is not positive at (r, s) = (0.5, -0.35)")


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
        EvalPoint,
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

    # the reference: phi at degree 4, P/Q at degree 2, C3 from the whole riemann_pack
    rotation = random_rotation(dim, np.random.default_rng(7))
    points = [
        canonical_point(dim, r, frac * r, u, rotation=rotation)
        for r, frac, u in itertools.product(*grid)
    ]
    batch, errors = EvalPoint.stack(points), {}
    with np.errstate(all="ignore"):
        jet = eval_jet(parse(phi), batch.r, batch.s, errors=errors)
        pj, qj = (eval_jet(parse(e), batch.r, batch.s, degree=2, errors=errors) for e in (p, q))
        sp = spray_pack_from_jets(pj, qj, batch)
        mr = metrizability_from_spray(jet, sp, batch)
        ref = {"C1": mr.C1, "C2": mr.C2, "C3": riemann_pack(sp, jet, batch).C3}
    finite = np.isfinite(np.stack(list(ref.values()))).all(axis=0)
    kept = [k for k in range(len(points)) if k not in errors and finite[k]]
    assert [(rec["r"], rec["s"], rec["u"]) for rec in doc["points"]] == [
        (points[k].r, points[k].s, points[k].u) for k in kept
    ]
    for name, values in ref.items():
        got = np.array([rec[name] for rec in doc["points"]])
        assert got.tobytes() == values[kept].tobytes(), name


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
