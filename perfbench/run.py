"""finslerlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py through ``finslerlab.cli.main`` in this
process, on one thread, for S seconds, and checks every report against the
workload's oracle.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with --trace 0, per-layer metrics from a run wrapped by spans.Tracer with
--trace 1.  NOTES.md says what each workload and metric is for.

Times are scaled to a reference speed by calibration.py; the ``raw`` line
gives the unscaled medians.
"""

import os
import sys

# One thread for every BLAS/OpenMP pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Neither this process nor a set-up probe writes bytecode caches, so every
# probe compiles finslerlab from source, as on a fresh checkout.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from calibration import calibrated  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SUBCOMMANDS = ("report", "check", "classify", "metrize")
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
# (r, s/r, u) of the set-up probe's one point: inside every workload's domain.
SETUP_POINT = ("0.7", "0.3", "1.0")
MAX_FAILURES_SHOWN = 5


def _arg(inv: Invocation, flag: str) -> str:
    return inv.argv[inv.argv.index(flag) + 1]


class Runner:
    """Calls ``cli.main`` once per invocation and checks its JSON report."""

    def __init__(self, cli, json_path: Path):
        self.cli = cli
        self.json_path = json_path
        self.attempted = 0
        self.failed = 0
        self.skipped_points = 0

    def call(self, inv: Invocation) -> tuple[float, float] | None:
        """(raw wall time in seconds, scale to the reference speed) of the
        call, or None if it failed.

        A call fails if it raises, exits non-zero or fails its oracle.  It is
        never retried, and failed calls are left out of every latency."""
        self.attempted += 1
        self.json_path.unlink(missing_ok=True)
        argv = [*inv.argv, "--json", str(self.json_path)]
        problems = []
        code = None

        def invoke():
            nonlocal code, problems
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - any raise is a failed call
                problems = [f"raised {exc!r}"]

        timing = calibrated(invoke)
        if code == 0:
            try:
                with open(self.json_path) as fh:
                    doc = json.load(fh)
                self.skipped_points += len(doc["skipped"])
                problems = inv.oracle(doc, code)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"report missing or malformed: {exc!r}"]
        elif not problems:
            problems = [f"exit code {code}"]
        if not problems:
            return timing
        self.failed += 1
        if self.failed <= MAX_FAILURES_SHOWN:
            print(f"FAILED {inv.argv}: {'; '.join(problems[:3])}", file=sys.stderr)
        return None


def _setup_seconds(inv: Invocation) -> list[tuple[float, float]]:
    """(raw seconds, scale) of fresh interpreters that import finslerlab,
    parse the workload's phi and evaluate one point (setup_probe.py)."""
    probe = [sys.executable, "-s", str(HERE / "setup_probe.py"), str(SRC),
             _arg(inv, "--phi"), _arg(inv, "--dim"), *SETUP_POINT]
    timings = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        timings.append(tuple(json.loads(done.stdout.splitlines()[-1])))
    return timings


def _warm_up_calls(workload: Workload, seed: int) -> list[Invocation]:
    """One call of each subcommand, on inputs the measured cycles never use."""
    return workload.cycle(random.Random(f"warm-up-{seed}"), None)


def end_to_end(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    """End-to-end metrics.  A subcommand's per-point sample is its wall time
    in one cycle over its grid points in that cycle."""
    warm_up = _warm_up_calls(workload, seed)
    setup = _setup_seconds(warm_up[0])
    for inv in warm_up:
        runner.call(inv)
    rng = random.Random(seed)
    timings = []  # (cycle, subcommand, grid points, raw seconds, scale)
    failed = set()  # (cycle, subcommand) with a failed call
    # Whole cycles only, so that every subcommand has the same share of the
    # invocation latencies.
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        for inv in workload.cycle(rng, index):
            timing = runner.call(inv)
            if timing is None:
                failed.add((index, inv.subcommand))
            else:
                timings.append((index, inv.subcommand, inv.points, *timing))
        if time.perf_counter() >= deadline:
            break

    def latencies(scaled: bool) -> dict:
        call_ms = []
        per_cycle = defaultdict(lambda: [0.0, 0])  # (cycle, subcommand) -> [ms, points]
        for index, sub, points, raw, scale in timings:
            ms = 1e3 * raw * (scale if scaled else 1.0)
            call_ms.append(ms)
            per_cycle[index, sub][0] += ms
            per_cycle[index, sub][1] += points
        per_point = defaultdict(list)
        for key, (ms, points) in per_cycle.items():
            if key not in failed:
                per_point[key[1]].append(ms / points)
        setup_s = [raw * (scale if scaled else 1.0) for raw, scale in setup]
        metrics = {"setup_s": (statistics.median(setup_s), "s")}
        for sub in SUBCOMMANDS:
            metrics[f"{sub}_ms_per_point"] = (statistics.median(per_point[sub]) if per_point[sub] else 0.0, "ms")
        # The mean, not the median: every subcommand has the same share of
        # the calls, and on flat_n3_dense the median falls in the gap between
        # the cheap calls (report, classify) and the dear ones (check, metrize).
        metrics["invocation_ms_mean"] = (statistics.fmean(call_ms) if call_ms else 0.0, "ms")
        p90 = statistics.quantiles(call_ms, n=10, method="inclusive")[8] if len(call_ms) >= 2 else 0.0
        metrics["invocation_ms_p90"] = (p90, "ms")
        return metrics

    counts = defaultdict(int)
    for _, sub, *_ in timings:
        counts[sub] += 1
    print("samples " + json.dumps({"cycles": index + 1, "invocations": len(timings), **counts}))
    print("raw " + json.dumps({name: value for name, (value, _) in latencies(False).items()}))
    metrics = latencies(True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    """Per-layer metrics.  Each cycle runs twice on the same inputs, once
    traced and once not, alternating which goes first.  Counts are per cycle;
    span times and the overhead ratio use times at the reference speed."""
    tracer = Tracer()
    for inv in _warm_up_calls(workload, seed):
        runner.call(inv)
    rng = random.Random(seed)
    stats = SpanStats()
    calls = defaultdict(lambda: defaultdict(int))  # subcommand -> counter -> total
    wall = {False: 0.0, True: 0.0}
    skipped_before = runner.skipped_points
    deadline = time.perf_counter() + seconds
    cycles = 0
    for index in itertools.count():
        invocations = workload.cycle(rng, index)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            for inv in invocations:
                with tracer.active() if traced else contextlib.nullcontext():
                    timing = runner.call(inv)
                spans = tracer.drain()
                if timing is None:
                    continue
                raw, scale = timing
                wall[traced] += raw * scale
                if traced:
                    stats.add(spans, scale)
                    counter = calls[inv.subcommand]
                    counter["points"] += inv.points
                    counter["unique_rs"] += inv.unique_rs
                    counter["eval_jet"] += sum(1 for s in spans if s[0] == "jet.eval_jet")
                    counter["pq_from_phi"] += sum(1 for s in spans if s[0] == "spray.pq_from_phi")
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    print("calls_per_point " + json.dumps({
        sub: {name: calls[sub][name] / calls[sub]["points"] for name in ("eval_jet", "pq_from_phi")}
        for sub in SUBCOMMANDS if calls[sub]["points"]
    }))

    def count(name):
        return stats.calls[name] / cycles, "count"

    def us(table, name):
        return 1e6 * stats.per_call(table, name), "us"

    def ms(table, name):
        return 1e3 * stats.per_call(table, name), "ms"

    metrics = {
        "jet.eval_jet.calls": count("jet.eval_jet"),
        "jet.eval_jet.us_per_call": us(stats.total, "jet.eval_jet"),
        "jet.mul.calls": count("jet.mul"),
        "jet.mul.us_per_call": us(stats.total, "jet.mul"),
    }
    for sub in SUBCOMMANDS:
        rs = calls[sub]["unique_rs"]
        metrics[f"jet.eval_jet.calls_per_unique_rs.{sub}"] = (calls[sub]["eval_jet"] / rs if rs else 0.0, "calls/rs")
    metrics.update({
        "spray.pq_from_phi.calls": count("spray.pq_from_phi"),
        "spray.pq_from_phi.us_per_call": us(stats.total, "spray.pq_from_phi"),
        "spray.pq_from_phi.self_us": us(stats.without_mul, "spray.pq_from_phi"),
        "spray.metrizability.us_per_call": us(stats.total, "spray.metrizability_residuals"),
        "geometry.metric_pack.calls": count("geometry.metric_pack"),
        "geometry.metric_pack.us_per_call": us(stats.total, "geometry.metric_pack"),
        "geometry.cartan_pack.calls": count("geometry.cartan_pack"),
        "geometry.cartan_pack.us_per_call": us(stats.total, "geometry.cartan_pack"),
        "geometry.degeneracy_classify.ms": ms(stats.total, "geometry.degeneracy_classify"),
        "curvature.riemann_pack.calls": count("curvature.riemann_pack"),
        "curvature.riemann_pack.us_per_call": us(stats.total, "curvature.riemann_pack"),
        "curvature.scalar_classify.self_ms": ms(stats.self_time, "curvature.scalar_classify"),
        "surface.berwald_frame.calls": count("surface.berwald_frame"),
        "surface.berwald_frame.us_per_call": us(stats.total, "surface.berwald_frame"),
        "surface.main_scalar.calls": count("surface.main_scalar"),
        "surface.main_scalar.us_per_call": us(stats.total, "surface.main_scalar"),
        "surface.riemannian_test.ms": ms(stats.total, "surface.riemannian_test"),
        "expr.parse.calls": count("expr.parse"),
        "expr.parse.us_per_call": us(stats.total, "expr.parse"),
        "cli.run.self_ms": ms(stats.self_time, "cli.run"),
        "cli.json.ms": ms(stats.total, "cli.json"),
        "cli.points_skipped": ((runner.skipped_points - skipped_before) / (2 * cycles), "count"),
        "trace.overhead_ratio": (wall[True] / wall[False] if wall[False] else 0.0, "ratio"),
    })
    return metrics


def _metadata(args) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "finslerlab" / "__init__.py").is_file():
        print(f"error: no finslerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from finslerlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: finslerlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(_metadata(args)))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = Runner(cli, tmp / "report.json")
        measure = per_layer if args.trace else end_to_end
        metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
