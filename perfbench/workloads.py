"""Seeded workloads of the finslerlab benchmark.

A workload turns a seeded ``random.Random`` into cycles.  A cycle is a list
of :class:`Invocation`: the argv of one ``finsler-lab`` call, the size of its
grid, and the oracle its JSON report must pass.  Every cycle draws fresh grid
values (and, for ``interactive_small``, fresh phis) from the stream, so a
cache kept across calls cannot replay earlier answers.

All grids stay inside the admissible domain of their metric: the benchmark
times valid evaluations.  Inputs that make the CLI end with a wrong exit code
are a separate defect and are not exercised here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

FLAT = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"
FLAT_P = "-s/r^2 - 3*sqrt(r^2-s^2)/(4*r^2)"
FLAT_Q = "7/(8*r^2) - 3*s^2/(8*r^4) - 3*s*sqrt(r^2-s^2)/(4*r^4)"
RANDERS = "1+s"
RANDERS_P = "1/(2*(1+s))"
BASIS_TERMS = ("s", "s^2", "sqrt(1+s^2)", "exp(s/10)", "r^2", "r*s")

# The CLI's default grid: --r 0.5:1.5:3 --s-frac -0.7:0.7:5 --u 1:2:2.
DEFAULT_GRID_POINTS = 30
DEFAULT_GRID_UNIQUE_RS = 15

# Tolerances of the acceptance suite (tests/test_acceptance.py).
CLOSED_FORM_REL = 1e-7
CLOSED_FORM_ABS = 1e-10
K_ZERO_ABS = 1e-8

REPORT_FIELDS = ("F", "P", "Q", "R1", "R2", "R3", "R4", "R5", "K", "C1", "C2", "C3")

Oracle = Callable[[dict, int], list[str]]


@dataclass(frozen=True)
class Invocation:
    subcommand: str
    argv: list[str]  # finsler-lab arguments, without --json
    points: int  # grid points the call must evaluate
    unique_rs: int  # distinct (r, s) pairs among them
    oracle: Oracle  # (report, exit code) -> list of failures


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng, cycle index) -> invocations; index None asks for warm-up calls.
    cycle: Callable[[random.Random, int | None], list[Invocation]]


def _rel_close(value: float, expected: float) -> bool:
    return abs(value - expected) <= max(CLOSED_FORM_ABS, CLOSED_FORM_REL * abs(expected))


def _base_failures(doc: dict, code: int, points: int) -> list[str]:
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if doc["skipped"]:
        out.append(f"{len(doc['skipped'])} points skipped")
    if len(doc["points"]) != points:
        out.append(f"{len(doc['points'])} points reported, {points} expected")
    return out


def _finite_failures(doc: dict) -> list[str]:
    for rec in doc["points"]:
        for key in REPORT_FIELDS:
            if not math.isfinite(rec[key]):
                return [f"{key} = {rec[key]} at (r, s, u) = ({rec['r']}, {rec['s']}, {rec['u']})"]
    return []


def _closed_form_failures(doc: dict, expected: Callable[[float, float], dict]) -> list[str]:
    for rec in doc["points"]:
        for key, want in expected(rec["r"], rec["s"]).items():
            if not _rel_close(rec[key], want):
                return [f"{key} = {rec[key]!r}, closed form {want!r} at (r, s) = ({rec['r']}, {rec['s']})"]
    return []


def _flat_closed_form(r: float, s: float) -> dict:
    """P, Q and R1..R5 of the flat-surface family (test_criterion_flat_surface_family)."""
    root = math.sqrt(r * r - s * s)
    return {
        "P": -s / r**2 - 3 * root / (4 * r**2),
        "Q": 7 / (8 * r**2) - 3 * s**2 / (8 * r**4) - 3 * s * root / (4 * r**4),
        "R1": 25 * (r * r - s * s) / (16 * r**4),
        "R2": -25 / (16 * r * r),
        "R3": -25 / (16 * r**4),
        "R4": 25 * s / (16 * r**4),
        "R5": 25 * s / (16 * r**4),
    }


def _randers_closed_form(r: float, s: float) -> dict:
    return {"P": 1 / (2 * (1 + s)), "Q": 0.0}


def _k_zero_failures(doc: dict) -> list[str]:
    for rec in doc["points"]:
        if not abs(rec["K"]) < K_ZERO_ABS:
            return [f"K = {rec['K']!r} is not 0 at (r, s) = ({rec['r']}, {rec['s']})"]
    return []


def _verdict_failures(doc: dict, expected: dict) -> list[str]:
    verdicts = doc["verdicts"]
    return [
        f"verdict {key} = {verdicts.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if verdicts.get(key) != want
    ]


def _oracle(
    subcommand: str,
    points: int,
    closed_form: Callable[[float, float], dict] | None = None,
    k_zero: bool = False,
    verdicts: dict | None = None,
) -> Oracle:
    def check(doc: dict, code: int) -> list[str]:
        out = _base_failures(doc, code, points)
        if subcommand in ("report", "check"):
            out += _finite_failures(doc)
            if closed_form is not None:
                out += _closed_form_failures(doc, closed_form)
        if subcommand == "check":
            if not doc["checks"]:
                out.append("no checks reported")
            out += [f"check {c['name']} failed" for c in doc["checks"] if not c["pass"]]
        if subcommand in ("report", "check", "classify") and k_zero:
            out += _k_zero_failures(doc)
        if subcommand == "metrize":
            out += [f"point {i} failed C1/C2" for i, rec in enumerate(doc["points"]) if not rec["pass"]]
        if verdicts:
            out += _verdict_failures(doc, verdicts)
        return out

    return check


@dataclass(frozen=True)
class DenseGrid:
    """Ranges that each cycle draws the grid end points from, and the counts.

    The range flags go to the CLI in ``--flag=A:B:K`` form because a value
    such as ``-0.7:...`` would otherwise be read as an option.
    """

    r_lo: tuple[float, float]
    r_hi: tuple[float, float]
    r_count: int
    frac_lo: tuple[float, float]
    frac_hi: tuple[float, float]
    frac_count: int
    u_lo: tuple[float, float]
    u_hi: tuple[float, float] | None  # None: one u value

    def draw(self, rng: random.Random, warm: bool) -> tuple[list[str], int, int]:
        """(range arguments, grid points, unique (r, s)); warm-up grids have
        8 points, the least that classify accepts."""
        r_count, frac_count = (2, 4) if warm else (self.r_count, self.frac_count)
        u_count = 1 if warm or self.u_hi is None else 2
        u_lo = rng.uniform(*self.u_lo)
        u_hi = rng.uniform(*self.u_hi) if self.u_hi is not None else u_lo
        ranges = (
            ("r", rng.uniform(*self.r_lo), rng.uniform(*self.r_hi), r_count),
            ("s-frac", rng.uniform(*self.frac_lo), rng.uniform(*self.frac_hi), frac_count),
            ("u", u_lo, u_hi, u_count),
        )
        args = [f"--{flag}={a!r}:{b!r}:{k}" for flag, a, b, k in ranges]
        return args, r_count * frac_count * u_count, r_count * frac_count


def _dense_cycle(
    phi: str,
    dim: int,
    grid: DenseGrid,
    spray: tuple[str, str],
    closed_form: Callable[[float, float], dict],
    k_zero: bool,
    classify_verdicts: dict,
) -> Callable[[random.Random, int | None], list[Invocation]]:
    """report, check, classify and metrize (with the known spray) of one phi
    on a freshly drawn grid."""

    def cycle(rng: random.Random, index: int | None) -> list[Invocation]:
        ranges, n, rs = grid.draw(rng, warm=index is None)
        common = ["--phi", phi, "--dim", str(dim), "--rotate", "--seed", str(rng.randrange(2**31))]
        common += ranges
        return [
            Invocation("report", ["report", *common], n, rs,
                       _oracle("report", n, closed_form, k_zero)),
            Invocation("check", ["check", *common], n, rs,
                       _oracle("check", n, closed_form, k_zero)),
            Invocation("classify", ["classify", *common], n, rs,
                       _oracle("classify", n, k_zero=k_zero, verdicts=classify_verdicts)),
            Invocation("metrize", ["metrize", *common, "--p", spray[0], "--q", spray[1]], n, rs,
                       _oracle("metrize", n, verdicts={"metrizable": True})),
        ]

    return cycle


def _interactive_calls(rng: random.Random, dim: int) -> list[Invocation]:
    """One acceptance-basis phi through report/check/classify on the default
    grid, plus one metrize call on a Randers phi a + b s, whose spray
    P = b / (2 (a + b s)), Q = 0 is known in closed form."""
    terms = [f"{rng.uniform(0.8, 1.5):.6f}"]
    terms += [f"{rng.uniform(0.0, 0.25):.6f}*{term}" for term in BASIS_TERMS]
    phi = " + ".join(terms)
    common = ["--dim", str(dim), "--rotate", "--seed", str(rng.randrange(2**31))]
    n, rs = DEFAULT_GRID_POINTS, DEFAULT_GRID_UNIQUE_RS
    classify_verdicts = {"degeneracy": "nondegenerate"}
    if dim == 2:
        classify_verdicts.update(is_scalar=True, riemannian=False)
    a, b = rng.uniform(0.8, 1.5), rng.uniform(0.0, 0.25)
    randers = f"{a:.6f} + {b:.6f}*s"
    randers_p = f"{b:.6f}/(2*({a:.6f} + {b:.6f}*s))"
    return [
        Invocation("report", ["report", "--phi", phi, *common], n, rs, _oracle("report", n)),
        Invocation("check", ["check", "--phi", phi, *common], n, rs, _oracle("check", n)),
        Invocation("classify", ["classify", "--phi", phi, *common], n, rs,
                   _oracle("classify", n, verdicts=classify_verdicts)),
        Invocation("metrize", ["metrize", "--phi", randers, *common, "--p", randers_p, "--q", "0"],
                   n, rs, _oracle("metrize", n, verdicts={"metrizable": True})),
    ]


def _interactive_cycle(rng: random.Random, index: int | None) -> list[Invocation]:
    """Two fresh phis, one at n = 2 and one at n = 3 (n = 2 only for warm-up).

    Both dimensions sit in every cycle because their costs differ (classify
    runs the Riemannian test only at n = 2): a median over single calls
    would fall in the gap between the two."""
    dims = (2,) if index is None else (2, 3)
    return [inv for dim in dims for inv in _interactive_calls(rng, dim)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat_n3_dense",
            _dense_cycle(
                FLAT,
                3,
                DenseGrid((0.5, 0.8), (1.6, 2.0), 4, (-0.8, -0.6), (0.6, 0.8), 6, (0.5, 1.0), (1.5, 2.5)),
                (FLAT_P, FLAT_Q),
                _flat_closed_form,
                True,
                {"is_scalar": False, "degeneracy": "nondegenerate"},
            ),
        ),
        Workload(
            "randers_n2_dense",
            _dense_cycle(
                RANDERS,
                2,
                # r < 1 keeps |b| = r below 1, the Randers positivity condition.
                DenseGrid((0.2, 0.35), (0.85, 0.95), 10, (-0.85, -0.7), (0.7, 0.85), 12, (0.5, 2.0), None),
                (RANDERS_P, "0"),
                _randers_closed_form,
                False,
                {"is_scalar": True, "riemannian": False, "degeneracy": "nondegenerate"},
            ),
        ),
        Workload("interactive_small", _interactive_cycle),
    )
}
