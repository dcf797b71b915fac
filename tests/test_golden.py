"""Golden-output regression: small CLI runs against committed reports.

Each file in tests/golden holds the argv, the exit code and the JSON report
of one run below.  A rerun must give the same exit code, the same keys and
values, and every float within 1e-12 relative.

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

writes the file of each run of RUNS that has none yet; with names, it
rewrites exactly the files of those runs (only for an intended output
change), and an unknown name exits 1 without writing anything.  Other
files stay as they are, so their last float digits do not drift.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from finslerlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"
ROTATED = ["--rotate", "--seed", "3"]
RUNS = {
    "ex45_report_n2": ["report", "--phi", EX45, "--dim", "2", *ROTATED],
    "ex45_check_n2": ["check", "--phi", EX45, "--dim", "2", *ROTATED],
    "ex45_classify_n3": ["classify", "--phi", EX45, "--dim", "3", *ROTATED],
    "metrize_randers": ["metrize", "--phi", "1+0.5*s", "--p", "0.5/(2*(1+0.5*s))", "--q", "0"],
    "report_pack_skips_n3": ["report", "--phi", "1+s^2-0.9*r", "--dim", "3"],
    "ex45_check_n3": ["check", "--phi", EX45, "--dim", "3"],
    "randers_classify_n2": ["classify", "--phi", "1+0.3*s", "--dim", "2", *ROTATED],
    "overflow_classify_n2": ["classify", "--phi", "1e200*(2+s)"],
    # the r grid repeats r = 1, so cells of different index share an (r, s)
    "repeated_r_report_n3": [
        "report", "--phi", "sqrt(1+s^2)", "--dim", "3",
        "--r=1:1:2", "--s-frac=-0.5:0.5:3", "--u=0.5:2:3",
    ],
}
REL = 1e-12


def _run(argv, path):
    code = main([*argv, "--json", str(path)])
    return code, json.loads(Path(path).read_text())


def _assert_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        if math.isnan(want):
            assert isinstance(got, float) and math.isnan(got), where
        else:
            assert abs(got - want) <= REL * max(1.0, abs(want)), f"{where}: {got} != {want}"
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, tmp_path, capsys):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    code, doc = _run(RUNS[name], tmp_path / "out.json")
    capsys.readouterr()
    assert code == golden["exit_code"]
    _assert_close(doc, golden["report"])


def regenerate(names: list[str]) -> int:
    """Write the golden files of names, or of the runs without one."""
    import tempfile

    unknown = [name for name in names if name not in RUNS]
    if unknown:
        print(f"unknown golden run(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    names = names or [name for name in RUNS if not (GOLDEN / f"{name}.json").exists()]
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            code, doc = _run(RUNS[name], Path(tmp) / "out.json")
            record = {"argv": RUNS[name], "exit_code": code, "report": doc}
            text = json.dumps(record, indent=1, sort_keys=True)
            (GOLDEN / f"{name}.json").write_text(text + "\n")
            print(f"wrote {GOLDEN / name}.json")
    return 0


def test_regenerate_rejects_an_unknown_name(capsys):
    assert regenerate(["ex45_check_n2", "no_such_run"]) == 1
    assert capsys.readouterr().err == "unknown golden run(s): no_such_run\n"


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
