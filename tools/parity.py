"""Byte parity of the command line against another revision.

    python3 tools/parity.py REV

Runs one fixed corpus of ``finsler-lab`` calls through ``finslerlab.cli.main``
on the tree of the git revision REV (unpacked from ``git archive`` into a
temporary directory) and on the working tree, one subprocess each, both with
numpy's RuntimeWarnings raised as errors (``-W error::RuntimeWarning``).
Every call writes its report with ``--json``.  For each call the exit code,
stdout, stderr and the report's bytes must be identical, and no call on the
working tree may end in a traceback (an exception out of ``cli.main``).
Prints the number of calls per exit code, every call that raised and every
differing call (the first 20 of each), and exits 1 on any of them.
Everything it writes goes to a temporary directory.
"""

from __future__ import annotations

import argparse
import collections
import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"
PHIS = [
    EX45,
    "1+s",
    "1+0.3*s",
    "1+s^2-0.9*r",
    "3*s",
    "1e200*(2+s)",
    "exp(s)^800",
    "(1+s^2)^(1/2)",
    "s^((r-1)^5+2)+2",
    "2^(1e309-1e309)",
    "sqrt(1+s^2)",
    "sqrt(r^2-s^2)+0.5*s",
    "exp(1000*s)",
    "sin(1e308*10)",
    "cos(s)+2",
    "abs(s)+1",
    "s^0.5+1",
    "(1+s)^r",
    "ln(1e100+s)",
    "(2+s)^-3",
    "r^-5*(1+s^2)",
    "(2+s)^1025",
    "1/(1e-63+s^2)",
    # literal divisors: 1/c folds into a float, overflows in a seed (NaN), or fails
    "exp(s/10)+1",
    "s/1e-62+2",
    "s/0+1",
    "(2+s)/1e62",
    # a literal minus a jet (Jet.__rsub__), the one ring operator no phi above runs
    "3-s^2",
]
DIMS = ["2", "3"]
GRIDS = [
    [],
    ["--rotate", "--seed", "7", "--r=0.4:1.9:4", "--s-frac=-0.8:0.8:6", "--u=0.6:2:2"],
    ["--r=0:1.5:4", "--s-frac=-0.9999999:0.9999999:3", "--u=-0.5:2:6"],
    ["--r=0.3:1.2:3", "--s-frac=-0.95:0.95:4", "--rotate", "--seed", "2"],
    ["--r=1:1:3", "--s-frac=0:0:3", "--u=1:2:3"],
    ["--u=2:1:3"],
    # the randers_n2_dense shape: 120 points, so four blocks of the writer, and one
    # u value, so each point is its own cell; and a grid of one point
    ["--r=0.25:0.9:10", "--s-frac=-0.8:0.8:12", "--u=1.3:1.3:1"],
    ["--r=0.7:0.7:1", "--s-frac=0.3:0.3:1", "--u=1:1:1"],
]
# the metrize candidates (P, Q), taken in turn over the phis: the spray of
# the flat phi (a shared sqrt and literal operands), one that fails at some
# points, and one whose P overflows only in its degree-4 seed at s = 0
SPRAYS = [
    ("0.5/(2*(1+0.5*s))", "0"),
    ("s/(2*r)", "1/r^2"),
    ("-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)", "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"),
    ("1/(1e-63+s^2)", "sqrt(s)"),
    ("1/(1e-63+s^2)", "0"),
]


def corpus() -> list[list[str]]:
    calls = []
    for k, phi in enumerate(PHIS):
        p, q = SPRAYS[k % len(SPRAYS)]
        for dim in DIMS:
            for grid in GRIDS:
                for sub in ("report", "check", "classify", "metrize"):
                    extra = ["--p", p, "--q", q] if sub == "metrize" else []
                    calls.append([sub, "--phi", phi, "--dim", dim, *extra, *grid])
    return calls


# Runs each call of the pickled corpus on stdin through cli.main, and
# pickles (exit code, stdout, stderr, report bytes) per call to argv[1].
WORKER = """
import contextlib, io, os, pickle, sys
from finslerlab.cli import main
out = []
for argv in pickle.load(sys.stdin.buffer):
    path = "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "--json", path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    report = None
    if os.path.exists(path):
        report = open(path, "rb").read()
        os.remove(path)
    out.append((code, stdout.getvalue(), stderr.getvalue(), report))
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out, fh)
"""


def start(src: Path, workdir: Path, calls: list) -> subprocess.Popen:
    """The worker over calls, importing finslerlab from src, in workdir."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", WORKER, "results.pickle"]
    proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.PIPE)
    proc.stdin.write(pickle.dumps(calls))
    proc.stdin.close()
    return proc


def results(proc: subprocess.Popen, workdir: Path) -> list:
    if proc.wait() != 0:
        sys.exit(f"worker in {workdir} failed with exit {proc.returncode}")
    return pickle.loads((workdir / "results.pickle").read_bytes())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    calls = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.rev], cwd=ROOT, capture_output=True, check=True
        ).stdout
        # the "data" extraction filter where this Python has it (3.12 warns without one)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base", **safe)
        base = start(tmp / "base" / "src", tmp / "run_base", calls)
        work = start(ROOT / "src", tmp / "run_work", calls)
        want, got = results(base, tmp / "run_base"), results(work, tmp / "run_work")

    codes = collections.Counter(str(code) for code, *_ in got)
    print(f"{len(calls)} calls against {args.rev}; exit codes: {dict(sorted(codes.items()))}")
    raised = [k for k in range(len(calls)) if str(got[k][0]).startswith("raised ")]
    if raised:
        print(f"{len(raised)} calls raised" + ("; the first 20:" if len(raised) > 20 else ":"))
    for k in raised[:20]:
        print(f"  finsler-lab {' '.join(calls[k])}")
        print(f"    {got[k][0]}")
    differ = [k for k in range(len(calls)) if want[k] != got[k]]
    if not differ:
        print("exit codes, stdout, stderr and report bytes identical in every call")
        return 1 if raised else 0
    fields = ("exit code", "stdout", "stderr", "report")
    print(f"{len(differ)} calls differ" + ("; the first 20:" if len(differ) > 20 else ":"))
    for k in differ[:20]:
        parts = [name for name, a, b in zip(fields, want[k], got[k]) if a != b]
        print(f"  finsler-lab {' '.join(calls[k])}")
        print(f"    differs in: {', '.join(parts)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
