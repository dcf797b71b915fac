"""Command-line front end: evaluate, verify and classify a metric over a
grid of points and emit a deterministic JSON report.

    finsler-lab <report|check|classify|metrize> --phi EXPR [--p EXPR --q EXPR]
        --dim N --r A:B:K --s-frac A:B:K --u A:B:K
        [--seed N] [--rotate] [--tol-abs X] [--tol-rel X] [--json PATH]

Exit codes: 0 success, 1 failed check, 2 parse/config error or an
unwritable --json path, 3 every grid point was skipped.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .curvature import compatibility, flag_curvature, front_half, scalar_from_curvature
from .expr import ParseError, parse
from .geometry import (
    EvalPoint,
    GeometryError,
    _ell_lo,
    _require_grid,
    canonical_point,
    cartan_pack,
    degeneracy_from_scalars,
    lift,
    metric_pack,
    outer,
    random_rotation,
)
from .jet import DEGREE, Jet, cell_rows, eval_jet, fail_nonfinite
from .jsontext import Records, json_pieces
from .spray import _horizontal_residual, candidate_spray, metrizability_from_spray
from .surface import main_scalar, riemannian_from_scalars

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-7
SUBCOMMANDS = ("report", "check", "classify", "metrize")
VALUE_FLAGS = ("--phi", "--p", "--q", "--r", "--s-frac", "--u")  # their values may begin with "-"


class RunConfig(NamedTuple):
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


def parse_range(text: str) -> list[float]:
    """'A:B:K' -> K evenly spaced values from A to B."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be A:B:K, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not np.isfinite([start, stop]).all():
        raise ValueError(f"range end points must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    return [float(v) for v in np.linspace(start, stop, count)]


def _maxabs(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """max |a| over the last axes axes, per point."""
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


def _evaluate(
    phi_jets: Jet, cells: tuple, jet: Jet, p: EvalPoint, errors: dict, with_checks: bool
) -> tuple[dict, dict]:
    """The report columns of the points p and, if asked, their identity-check
    residuals, by name, all from phi's jets at the points' cells and at the points
    (``front_half``).  A point that fails a guard gets its error in errors."""
    ps, sp, cv = front_half(phi_jets, cells, jet, p, errors)
    mp = metric_pack(ps, p, errors=errors)
    mr = metrizability_from_spray(jet, sp, p)
    columns = {
        "F": mp.F,
        "P": sp.P, "Q": sp.Q,
        "R1": cv.R1, "R2": cv.R2, "R3": cv.R3, "R4": cv.R4, "R5": cv.R5,
        "K": flag_curvature(cv, ps.phi, p),
        "C1": mr.C1,
        "C2": mr.C2,
        "C3": cv.C3,
        "det_direct": mp.det_direct,
        "det_formula": mp.det_formula,
        "regular": np.stack(mp.regular, axis=-1),
    }
    if p.n == 2:
        ms = main_scalar(ps, p, mp, errors=errors)
        columns.update(I=ms.I, I_direct=ms.I_direct)
    if not with_checks:
        return columns, {}

    cp = ms.cartan if p.n == 2 else cartan_pack(ps, p, errors=errors)
    phi0, u, w, eye = ps.phi, p.u, ps.w, np.eye(p.n)
    Rmat, G, N = cv.Rmat, sp.G, sp.N  # each formed on read, and read twice
    contr1 = ps.phi_s * mp.rho0 + phi0 * mp.rho2 + (p.s * phi0 + w * ps.phi_s) * mp.rho3
    contr2 = mp.rho0 + w * mp.rho3 - 1.0 / (phi0 * ps.d)
    trace = np.trace(Rmat, axis1=-2, axis2=-1) - u * u * ((p.n - 1) * cv.R1 + w * cv.R3)
    F2 = np.maximum(1.0, mp.F * mp.F)
    gy = np.einsum("...ij,...j->...i", mp.g, p.y)
    checks = {
        "metric_inverse": _maxabs(mp.g @ mp.ginv - eye, 2),
        "energy_homogeneity": ((p.y * gy).sum(-1) - mp.F * mp.F) / F2,
        "euler_identity": _maxabs(gy - lift(mp.F) * _ell_lo(ps, p)) / F2,
        "det_formula": (mp.det_direct - mp.det_formula) / np.maximum(1.0, np.abs(mp.det_formula)),
        "rho_contractions": np.maximum(np.abs(contr1), np.abs(contr2)),
        "cartan_y_annihilation": _maxabs(np.einsum("...ijk,...k->...ij", cp.C, p.y), 2)
        / np.maximum(1.0, _maxabs(cp.C, 3) * u),
        "metrizability_C1_C2": np.maximum(np.abs(mr.C1), np.abs(mr.C2)) / np.maximum(1.0, phi0),
        "horizontal_dhF": _maxabs(_horizontal_residual(ps, N, p)) / (u * np.maximum(1.0, phi0)),
        "spray_homogeneity": _maxabs(np.einsum("...ij,...j->...i", N, p.y) - 2 * G)
        / np.maximum(1.0, _maxabs(G)),
        "curvature_C3": cv.C3 / (cv.scale * np.maximum(1.0, phi0)),
        "identity_R2": cv.id_R2 / cv.scale,
        "identity_R4": cv.id_R4 / cv.scale,
        "jacobi_y_annihilation": _maxabs(np.einsum("...ij,...j->...i", Rmat, p.y))
        / (cv.scale * u * u * np.maximum(np.maximum(1.0, u), p.r)),
        "curvature_trace": trace / (cv.scale * u * u),
    }
    if p.n == 2:
        fr = ms.frame
        recon = outer(fr.ell_lo, fr.ell_lo) + outer(fr.m_lo, fr.m_lo)
        orth = (
            (fr.ell_hi * fr.ell_lo).sum(-1) - 1.0,
            (fr.ell_hi * fr.m_lo).sum(-1),
            (fr.m_hi * fr.m_lo).sum(-1) - 1.0,
        )
        checks["frame_orthonormality"] = np.max(np.abs(orth), axis=0)
        checks["frame_resolves_metric"] = (
            _maxabs(mp.g - recon, 2) / np.maximum(1.0, _maxabs(mp.g, 2))
        )
        checks["main_scalar_two_routes"] = (ms.I - ms.I_direct) / np.maximum(1.0, np.abs(ms.I))
    return columns, checks


def _metrize(jet: Jet, cells: tuple, p_ast, q_ast, p: EvalPoint, errors: dict, tol: float) -> dict:
    """C1/C2 and C3 of the user spray (P, Q) at the points p, by name, from phi
    jets of degree 1 and P and Q jets at the cells of degree 2, all C1..C3 read."""
    user_sp = candidate_spray(p_ast, q_ast, cells, p, errors=errors)
    mr = metrizability_from_spray(jet, user_sp, p)
    bound = tol * np.maximum(1.0, np.abs(jet.partial(0, 0)))
    ok = np.maximum(np.abs(mr.C1), np.abs(mr.C2)) <= bound
    return {"C1": mr.C1, "C2": mr.C2, "C3": compatibility(user_sp, jet, p)[3], "pass": ok}


def _classify(phi_jets: Jet, cells: tuple, p: EvalPoint, kept, verdicts: dict) -> dict:
    """The verdicts on the points kept of p, into verdicts, and the columns r, s,
    u and K of the K samples.  Each classifier scans the points in order; a failed
    one's verdict is None, as is each on fewer than 8 points.  Of the front half's
    failures, the scalar test sees all, the Riemannian test phi <= 0 only and the
    degeneracy screen none."""
    p, index = EvalPoint(p.n, *(v[kept] for v in (p.r, p.s, p.u, p.x, p.y))), cells[2][kept]
    jet = cell_rows(phi_jets, {}, index, {})
    ps, _, cv = front_half(phi_jets, (*cells[:2], index), jet, p, (errors := {}))
    K = np.empty(0)  # no samples if the scalar test fails
    try:
        is_scalar, K, max_resid, _ = scalar_from_curvature(ps, cv, p, errors)
        verdicts.update(is_scalar=is_scalar, max_R3_residual=max_resid)
    except (ArithmeticError, GeometryError) as exc:
        verdicts.update(is_scalar=None, scalar_error=str(exc))
    try:
        verdicts["degeneracy"] = degeneracy_from_scalars(ps, {}).value
    except (ArithmeticError, GeometryError) as exc:
        verdicts.update(degeneracy=None, degeneracy_error=str(exc))
    if p.n == 2:
        try:
            verdicts["riemannian"] = riemannian_from_scalars(ps, p, {})
        except (ArithmeticError, GeometryError) as exc:
            verdicts.update(riemannian=None, riemannian_error=str(exc))
    return {"r": p.r[: len(K)], "s": p.s[: len(K)], "u": p.u[: len(K)], "K": K}


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a subcommand; returns (report document, exit code)."""
    doc, exit_code = run_columns(cfg)
    return {**doc, "points": doc["points"].tolist()}, exit_code


@np.errstate(all="ignore")  # a failing point's values turn NaN or infinite; its error is kept
def run_columns(cfg: RunConfig) -> tuple[dict, int]:
    """``run``, with the document's points held as columns, a ``Records``."""
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
    grid = np.meshgrid(cfg.r_grid, cfg.s_fraction_grid, cfg.u_grid, indexing="ij")
    r, frac, u = (g.ravel() for g in grid)
    if cfg.subcommand == "classify":
        _require_grid(r)
    # The grid's cells are evaluated as one batch, each jet once per cell of
    # the r x s/r plane: u varies fastest, so the cells [::len(u_grid)] are
    # that plane; cells[2] is each point's cell.  A point keeps its first error,
    # in stage order; one test then fails the non-finite values.  classify skips
    # only the embedding's and phi's jet failures.  metrize reads phi to first order.
    columns, checks, errors = {}, {}, {}
    nu = len(cfg.u_grid)
    batch = canonical_point(cfg.dim, r, frac * r, u, rotation=rotation, errors=errors)
    cells = batch.r[::nu], batch.s[::nu], np.arange(r.size) // nu
    degree = 1 if cfg.subcommand == "metrize" else DEGREE
    phi_jets = eval_jet(phi, *cells[:2], degree=degree, errors=(jet_errors := {}))
    jet = cell_rows(phi_jets, jet_errors, cells[2], errors)
    if cfg.subcommand == "metrize":
        columns = _metrize(jet, cells, p_ast, q_ast, batch, errors, tol)
    elif cfg.subcommand != "classify":
        columns, checks = _evaluate(phi_jets, cells, jet, batch, errors, cfg.subcommand == "check")
    if columns:
        fail_nonfinite(errors, {k: v for k, v in (columns | checks).items() if k != "regular"})
    failed = sorted(errors)
    kept = np.delete(np.arange(r.size), failed)
    rsu = (v[failed].tolist() for v in (batch.r, batch.s, batch.u))
    doc: dict = {
        "config": {**cfg._asdict(), "jet_degree": DEGREE},
        "points": Records({}),
        "checks": [],
        "verdicts": {},
        "skipped": [
            {"r": r, "s": s, "u": u, "reason": str(errors[i])} for i, r, s, u in zip(failed, *rsu)
        ],
        "version": __version__,
    }
    if not kept.size:
        return doc, 3

    if cfg.subcommand == "classify":
        doc["points"] = Records(_classify(phi_jets, cells, batch, kept, doc["verdicts"]))
        return doc, 0

    points = {"r": batch.r, "s": batch.s, "u": batch.u, **columns}
    doc["points"] = Records({k: v[kept] for k, v in points.items()})
    if cfg.subcommand == "metrize":
        doc["verdicts"]["metrizable"] = bool(columns["pass"][kept].all())
        return doc, 0 if doc["verdicts"]["metrizable"] else 1
    for name, value in checks.items():
        value = np.abs(value[kept])
        passed = not (value > tol).any()
        doc["checks"].append({"name": name, "max_residual": float(value.max()), "pass": passed})
    return doc, 0 if all(c["pass"] for c in doc["checks"]) else 1


def _print_summary(doc: dict):
    cfg = doc["config"]
    print(f"finsler-lab {doc['version']}  phi = {cfg['phi']}  dim = {cfg['dim']}")
    print(f"grid: {len(doc['points'])} points evaluated, {len(doc['skipped'])} skipped")
    for c in doc["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"  [{status}] {c['name']}: max residual {c['max_residual']:.3e}")
    for key, value in doc["verdicts"].items():
        print(f"  {key}: {value}")


def write_report(doc: dict, path: str) -> None:
    """Write doc to path as json.dumps(doc, sort_keys=True, indent=1) plus a
    newline, byte for byte, formatted column by column (``json_pieces``); a
    ``Records`` value is written as its list of dicts, in blocks."""
    with open(path, "w") as fh:
        fh.writelines(json_pieces(doc))
        fh.write("\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
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
    tokens = []  # "--phi -s+3" -> "--phi=-s+3": argparse reads a lone "-s+3" as a flag
    for token in sys.argv[1:] if argv is None else argv:
        flag = tokens[-1] if tokens else ""  # a flag, or a prefix argparse takes ("--s-fr")
        if flag[2:] and any(f.startswith(flag) for f in VALUE_FLAGS):
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    args = build_parser().parse_args(tokens)
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
        )
        doc, exit_code = run_columns(cfg)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(doc)
    if args.json_path:
        try:
            write_report(doc, args.json_path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
