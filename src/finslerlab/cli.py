"""Command-line front end: evaluate, verify and classify a metric over a
grid of points and emit a deterministic JSON report.

    finsler-lab <report|check|classify|metrize> --phi EXPR [--p EXPR --q EXPR]
        --dim N --r A:B:K --s-frac A:B:K --u A:B:K
        [--seed N] [--rotate] [--tol-abs X] [--tol-rel X] [--json PATH]

Exit codes: 0 success, 1 failed check, 2 parse/config error, 3 every grid
point was skipped.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

import numpy as np

from . import __version__
from .curvature import flag_curvature, riemann_pack, scalar_classify
from .expr import ParseError, parse
from .geometry import (
    GeometryError,
    _ell_lo,
    canonical_point,
    cartan_pack,
    degeneracy_classify,
    metric_pack,
    phi_scalars,
    random_rotation,
)
from .jet import DEGREE, GridJets
from .spray import (
    _grid_spray,
    horizontal_residual,
    metrizability_from_spray,
    spray_pack_from_jets,
)
from .surface import main_scalar, riemannian_test

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-7
SUBCOMMANDS = ("report", "check", "classify", "metrize")


@dataclasses.dataclass
class RunConfig:
    subcommand: str
    phi: str
    dim: int
    r_grid: list[float]
    s_fraction_grid: list[float]
    u_grid: list[float]
    seed: int = 0
    rotate: bool = False
    tol_abs: float = DEFAULT_TOL_ABS
    tol_rel: float = DEFAULT_TOL_REL
    p_expr: str | None = None
    q_expr: str | None = None
    output: str | None = None

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        del doc["output"]
        doc["jet_degree"] = DEGREE
        return doc


def parse_range(text: str) -> list[float]:
    """'A:B:K' -> K evenly spaced values from A to B."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be A:B:K, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    return [float(v) for v in np.linspace(start, stop, count)]


def _evaluate(phi_jets: GridJets, spray_at, p, with_checks: bool) -> tuple[dict, dict]:
    """The report record of one point and, if asked, its identity-check
    residuals by check name, all from the point's phi jet."""
    jet = phi_jets.at(p)
    ps = phi_scalars(jet)
    mp = metric_pack(jet, p)
    phi0 = mp.F / p.u
    sp = spray_at(jet, p)
    cv = riemann_pack(sp, jet, p)
    mr = metrizability_from_spray(jet, sp, p)
    rec = {
        "r": p.r,
        "s": p.s,
        "u": p.u,
        "F": mp.F,
        "P": sp.P,
        "Q": sp.Q,
        "R1": cv.R1,
        "R2": cv.R2,
        "R3": cv.R3,
        "R4": cv.R4,
        "R5": cv.R5,
        "K": flag_curvature(cv, phi0, p),
        "C1": mr.C1,
        "C2": mr.C2,
        "C3": cv.C3,
        "det_direct": mp.det_direct,
        "det_formula": mp.det_formula,
        "regular": list(mp.regular),
    }
    if p.n == 2:
        ms = main_scalar(jet, p)
        rec.update(I=ms.I, I_direct=ms.I_direct)
    if not with_checks:
        return rec, {}

    cp = cartan_pack(jet, p)
    w = p.r**2 - p.s**2
    dval = phi0 - p.s * ps.phi_s + w * ps.phi_ss
    contr1 = ps.phi_s * mp.rho0 + phi0 * mp.rho2 + (p.s * phi0 + w * ps.phi_s) * mp.rho3
    contr2 = mp.rho0 + w * mp.rho3 - 1.0 / (phi0 * dval)
    scale = max(1.0, abs(cv.R1), abs(cv.R2), abs(cv.R3), abs(cv.R4), abs(cv.R5))
    trace = np.trace(cv.Rmat) - p.u**2 * ((p.n - 1) * cv.R1 + w * cv.R3)
    F2 = max(1.0, mp.F**2)
    residuals = {
        "metric_inverse": np.max(np.abs(mp.g @ mp.ginv - np.eye(p.n))),
        "energy_homogeneity": (p.y @ mp.g @ p.y - mp.F**2) / F2,
        "euler_identity": np.max(np.abs(mp.g @ p.y - mp.F * _ell_lo(ps, p))) / F2,
        "det_formula": (mp.det_direct - mp.det_formula) / max(1.0, abs(mp.det_formula)),
        "rho_contractions": max(abs(contr1), abs(contr2)),
        "cartan_y_annihilation": np.max(np.abs(np.einsum("ijk,k->ij", cp.C, p.y)))
        / max(1.0, np.max(np.abs(cp.C)) * p.u),
        "metrizability_C1_C2": max(abs(mr.C1), abs(mr.C2)) / max(1.0, phi0),
        "horizontal_dhF": np.max(np.abs(horizontal_residual(jet, sp, p)))
        / (p.u * max(1.0, phi0)),
        "spray_homogeneity": np.max(np.abs(sp.N @ p.y - 2 * sp.G))
        / max(1.0, np.max(np.abs(sp.G))),
        "curvature_C3": cv.C3 / (scale * max(1.0, phi0)),
        "identity_R2": cv.id_R2 / scale,
        "identity_R4": cv.id_R4 / scale,
        "jacobi_y_annihilation": np.max(np.abs(cv.Rmat @ p.y))
        / (scale * p.u**2 * max(1.0, p.u, p.r)),
        "curvature_trace": trace / (scale * p.u**2),
    }
    if p.n == 2:
        fr = ms.frame
        recon = np.outer(fr.ell_lo, fr.ell_lo) + np.outer(fr.m_lo, fr.m_lo)
        orth = (fr.ell_hi @ fr.ell_lo - 1.0, fr.ell_hi @ fr.m_lo, fr.m_hi @ fr.m_lo - 1.0)
        residuals["frame_orthonormality"] = max(abs(v) for v in orth)
        residuals["frame_resolves_metric"] = (
            np.max(np.abs(mp.g - recon)) / max(1.0, np.max(np.abs(mp.g)))
        )
        residuals["main_scalar_two_routes"] = (ms.I - ms.I_direct) / max(1.0, abs(ms.I))
    return rec, residuals


def _metrize_point(phi_jets, p_jets, q_jets, p, tol: float) -> dict:
    """C1/C2 and C3 of the user spray (P, Q) at one point."""
    jet = phi_jets.at(p)
    user_sp = spray_pack_from_jets(p_jets.at(p), q_jets.at(p), p)
    mr = metrizability_from_spray(jet, user_sp, p)
    c3 = riemann_pack(user_sp, jet, p).C3
    ok = max(abs(mr.C1), abs(mr.C2)) <= tol * max(1.0, abs(jet.partial(0, 0)))
    return {"r": p.r, "s": p.s, "u": p.u, "C1": mr.C1, "C2": mr.C2, "C3": c3, "pass": ok}


def _fold_checks(residual_sets, tol: float) -> list[dict]:
    """Largest |residual| per check over the points, and whether all stay
    within tol; checks keep the order of the residual dicts."""
    checks: dict[str, dict] = {}
    for residuals in residual_sets:
        for name, value in residuals.items():
            value = float(abs(value))
            check = checks.setdefault(name, {"name": name, "max_residual": 0.0, "pass": True})
            check["max_residual"] = max(check["max_residual"], value)
            if value > tol:
                check["pass"] = False
    return list(checks.values())


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a subcommand; returns (report document, exit code)."""
    for frac in cfg.s_fraction_grid:
        if not -1.0 < frac < 1.0:
            raise ValueError(f"s fractions must lie in (-1, 1), got {frac}")
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2, got {cfg.dim}")

    phi = parse(cfg.phi)
    p_ast = parse(cfg.p_expr) if cfg.p_expr is not None else None
    q_ast = parse(cfg.q_expr) if cfg.q_expr is not None else None
    if cfg.subcommand == "metrize" and (p_ast is None or q_ast is None):
        raise ValueError("metrize requires --p and --q")
    tol = max(cfg.tol_abs, cfg.tol_rel)
    if cfg.subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")

    rotation = None
    if cfg.rotate:
        rotation = random_rotation(cfg.dim, np.random.default_rng(cfg.seed))
    cells = []  # ((r, s, u), the point or the error building it raised)
    for r, frac, u in itertools.product(cfg.r_grid, cfg.s_fraction_grid, cfg.u_grid):
        s = frac * r
        try:
            cells.append(((r, s, u), canonical_point(cfg.dim, r, s, u, rotation=rotation)))
        except (ArithmeticError, GeometryError) as exc:
            cells.append(((r, s, u), exc))
    # Jets depend on (r, s) only: one batch per expression over the unique
    # (r, s); each point meets its recorded errors in the per-point loop.
    grid = [p for _, p in cells if not isinstance(p, Exception)]
    phi_jets = GridJets.evaluate(phi, grid)
    if cfg.subcommand == "classify":
        # the classifiers evaluate their own jets; this pass only screens the domain
        evaluate = phi_jets.at
    elif cfg.subcommand == "metrize":
        p_jets, q_jets = GridJets.evaluate(p_ast, grid), GridJets.evaluate(q_ast, grid)
        evaluate = functools.partial(_metrize_point, phi_jets, p_jets, q_jets, tol=tol)
    else:
        with_checks = cfg.subcommand == "check"
        evaluate = functools.partial(
            _evaluate, phi_jets, _grid_spray(phi_jets), with_checks=with_checks
        )

    evaluated, skipped = [], []
    for (r, s, u), p in cells:
        try:
            if isinstance(p, Exception):
                raise p
            evaluated.append((p, evaluate(p)))
        except (ArithmeticError, GeometryError) as exc:
            skipped.append({"r": r, "s": s, "u": u, "reason": str(exc)})
    doc: dict = {
        "config": cfg.as_dict(),
        "points": [],
        "checks": [],
        "verdicts": {},
        "skipped": skipped,
        "version": __version__,
    }
    if not evaluated:
        return doc, 3

    if cfg.subcommand == "classify":
        usable, verdicts = [p for p, _ in evaluated], doc["verdicts"]
        try:
            report = scalar_classify(phi, usable)
            verdicts["is_scalar"] = report.is_scalar
            verdicts["max_R3_residual"] = report.max_R3_residual
            doc["points"] = [{"r": p.r, "s": p.s, "u": p.u, "K": K} for p, K in report.K_samples]
        except (ArithmeticError, GeometryError) as exc:
            verdicts["is_scalar"] = None
            verdicts["scalar_error"] = str(exc)
        try:
            verdicts["degeneracy"] = degeneracy_classify(phi, usable).value
        except ArithmeticError as exc:
            verdicts["degeneracy"] = None
            verdicts["degeneracy_error"] = str(exc)
        if cfg.dim == 2:
            try:
                verdicts["riemannian"] = riemannian_test(phi, usable)
            except (ArithmeticError, GeometryError) as exc:
                verdicts["riemannian"] = None
                verdicts["riemannian_error"] = str(exc)
        return doc, 0
    if cfg.subcommand == "metrize":
        doc["points"] = [rec for _, rec in evaluated]
        doc["verdicts"]["metrizable"] = all(rec["pass"] for rec in doc["points"])
        return doc, 0 if doc["verdicts"]["metrizable"] else 1
    doc["points"] = [rec for _, (rec, _) in evaluated]
    doc["checks"] = _fold_checks((res for _, (_, res) in evaluated), tol)
    return doc, 0 if all(c["pass"] for c in doc["checks"]) else 1


def _print_summary(doc: dict, file=None):
    if file is None:
        file = sys.stdout
    cfg = doc["config"]
    print(f"finsler-lab {doc['version']}  phi = {cfg['phi']}  dim = {cfg['dim']}", file=file)
    print(
        f"grid: {len(doc['points'])} points evaluated, {len(doc['skipped'])} skipped",
        file=file,
    )
    for c in doc["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"  [{status}] {c['name']}: max residual {c['max_residual']:.3e}", file=file)
    for key, value in doc["verdicts"].items():
        print(f"  {key}: {value}", file=file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finsler-lab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--phi", required=True, help="phi(r, s) expression")
        sp.add_argument("--dim", type=int, default=2)
        sp.add_argument("--r", default="0.5:1.5:3", help="r grid A:B:K")
        sp.add_argument("--s-frac", default="-0.7:0.7:5", help="s/r grid A:B:K")
        sp.add_argument("--u", default="1:2:2", help="u grid A:B:K")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--rotate", action="store_true", help="random-rotate the frame")
        sp.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS)
        sp.add_argument("--tol-rel", type=float, default=DEFAULT_TOL_REL)
        sp.add_argument("--json", dest="json_path", default=None, help="write JSON report")
        if name == "metrize":
            sp.add_argument("--p", required=True, help="candidate P(r, s)")
            sp.add_argument("--q", required=True, help="candidate Q(r, s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            subcommand=args.subcommand,
            phi=args.phi,
            dim=args.dim,
            r_grid=parse_range(args.r),
            s_fraction_grid=parse_range(args.s_frac),
            u_grid=parse_range(args.u),
            seed=args.seed,
            rotate=args.rotate,
            tol_abs=args.tol_abs,
            tol_rel=args.tol_rel,
            p_expr=getattr(args, "p", None),
            q_expr=getattr(args, "q", None),
            output=args.json_path,
        )
        doc, exit_code = run(cfg)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(doc)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
