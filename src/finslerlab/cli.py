"""Command-line front end: evaluate, verify and classify a metric over a
grid of points and emit a deterministic JSON report.

    finsler-lab <report|check|classify|metrize> --phi EXPR [--p EXPR --q EXPR]
        --dim N --r A:B:K --s-frac A:B:K --u A:B:K
        [--seed N] [--rotate] [--tol-abs X] [--tol-rel X] [--json PATH]

Exit codes: 0 success, 1 failed check, 2 parse/config error, a grid or dim
too large for memory, or an unwritable --json path, 3 every grid point was skipped.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .curvature import (_require_grid, classify_from_curvature, compatibility, flag_curvature,
                        front_half)
from .expr import ParseError, parse
from .geometry import (
    EvalPoint,
    _ell_lo,
    canonical_point,
    cartan_pack,
    lift,
    metric_pack,
    outer,
    random_rotation,
    residual_scale,
)
from .jet import DEGREE, eval_jet, fail_nonfinite
from .jsontext import Records, json_pieces
from .spray import c1_c2_test, candidate_spray, horizontal_residual, metrizability_from_spray
from .surface import main_scalar

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-7
SUBCOMMANDS = ("report", "check", "classify", "metrize")
VALUE_FLAGS = ("--phi", "--p", "--q", "--r", "--s-frac", "--u")  # their values may begin with "-"
# the flags and the prefixes argparse takes for them ("--s-fr"); "--" and "-" are neither
_VALUE_FLAG_PREFIXES = frozenset(f[:k] for f in VALUE_FLAGS for k in range(3, len(f) + 1))


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
    try:
        a, b, k = text.split(":")
        start, stop, count = float(a), float(b), int(k)
    except ValueError:
        raise ValueError(f"range must be A:B:K, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range end points must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {text!r}")
    return np.linspace(start, stop, count).tolist()


def _maxabs(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """max |a| over the last axes axes, per point."""
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


def _spread(cell: tuple, cell_errors: dict, p: EvalPoint, index, errors: dict) -> tuple:
    """The packs and columns cell, taken at the cells, at the points p, point k's cell
    being index[k]; each point gets its cell's error in cell_errors unless it has one,
    walking the points only if any."""
    for row, k in enumerate(index.tolist() if cell_errors else ()):
        if k in cell_errors:
            errors.setdefault(row, cell_errors[k])
    at = lambda v: p if isinstance(v, EvalPoint) else v[index]
    return tuple(type(v)(*map(at, v)) if isinstance(v, tuple) else at(v) for v in cell)


def _evaluate(ps, sp, cv, mr, p: EvalPoint, errors: dict, with_checks: bool) -> tuple[dict, dict]:
    """The report columns of the points p and, if asked, their identity checks as one
    table {name: (residual, scale)}, from the (r, s) stage's packs at p: phi's scalars,
    its spray, the curvature pack and C1/C2.  The metric, Cartan and frame packs run
    here, at the points; a point that fails a guard gets its error in errors."""
    mp = metric_pack(ps, p)
    columns = {
        "F": mp.F, "P": sp.P, "Q": sp.Q,
        "R1": cv.R1, "R2": cv.R2, "R3": cv.R3, "R4": cv.R4, "R5": cv.R5,
        "K": flag_curvature(cv, ps.phi, p),
        "C1": mr.C1, "C2": mr.C2, "C3": cv.C3,
        "det_direct": mp.det_direct, "det_formula": mp.det_formula,
        "regular": np.array(mp.regular).T,
    }
    if p.n == 2:
        ms = main_scalar(ps, p, mp, errors=errors)
        columns.update(I=ms.I, I_direct=ms.I_direct)
    if not with_checks:
        return columns, {}

    C = ms.cartan if p.n == 2 else cartan_pack(ps, p)
    phi0, u, w, eye = ps.phi, p.u, p.w, np.eye(p.n)
    Rmat, G, N = cv.Rmat, sp.G, sp.N  # each formed on read, and read twice
    contr1 = ps.phi_s * mp.rho0 + phi0 * mp.rho2 + (p.s * phi0 + w * ps.phi_s) * mp.rho3
    contr2 = mp.rho0 + w * mp.rho3 - 1.0 / (phi0 * ps.d)
    trace = np.trace(Rmat, axis1=-2, axis2=-1) - u * u * ((p.n - 1) * cv.R1 + w * cv.R3)
    F2, phi_scale = residual_scale(mp.F * mp.F), residual_scale(phi0)
    gy = np.einsum("...ij,...j->...i", mp.g, p.y)
    checks = {
        "metric_inverse": (_maxabs(mp.g @ mp.ginv - eye, 2), 1.0),
        "energy_homogeneity": ((p.y * gy).sum(-1) - mp.F * mp.F, F2),
        "euler_identity": (_maxabs(gy - lift(mp.F) * _ell_lo(ps, p)), F2),
        "det_formula": (mp.det_direct - mp.det_formula, residual_scale(mp.det_formula)),
        "rho_contractions": (np.maximum(np.abs(contr1), np.abs(contr2)), 1.0),
        "cartan_y_annihilation": (_maxabs(np.einsum("...ijk,...k->...ij", C, p.y), 2),
                                  residual_scale(_maxabs(C, 3) * u)),
        "metrizability_C1_C2": c1_c2_test(mr, phi0),  # phi0 > 0 at every kept point
        "horizontal_dhF": (_maxabs(horizontal_residual(ps, N, p)), u * phi_scale),
        "spray_homogeneity": (_maxabs(np.einsum("...ij,...j->...i", N, p.y) - 2 * G),
                              residual_scale(_maxabs(G))),
        "curvature_C3": (cv.C3, cv.scale * phi_scale),
        "identity_R2": (cv.R1 + cv.R2 + p.s * cv.R5, cv.scale),
        "identity_R4": (cv.R4 + p.s * cv.R3, cv.scale),
        "jacobi_y_annihilation": (_maxabs(np.einsum("...ij,...j->...i", Rmat, p.y)),
                                  cv.scale * u * u * residual_scale(u, p.r)),
        "curvature_trace": (trace, cv.scale * u * u),
    }
    if p.n == 2:
        fr = ms.frame
        recon = outer(fr.ell_lo, fr.ell_lo) + outer(fr.m_lo, fr.m_lo)
        orth = (
            (fr.ell_hi * fr.ell_lo).sum(-1) - 1.0,
            (fr.ell_hi * fr.m_lo).sum(-1),
            (fr.m_hi * fr.m_lo).sum(-1) - 1.0,
        )
        checks["frame_orthonormality"] = (np.max(np.abs(orth), axis=0), 1.0)
        checks["frame_resolves_metric"] = (_maxabs(mp.g - recon, 2),
                                           residual_scale(_maxabs(mp.g, 2)))
        checks["main_scalar_two_routes"] = (ms.I - ms.I_direct, residual_scale(ms.I))
    return columns, checks


@np.errstate(all="ignore")  # a failing point's values turn NaN or infinite; its error is kept
def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a subcommand; returns (report document, exit code), the document's points
    held as columns, a ``Records`` (``.tolist()`` gives one dict per point)."""
    for frac in cfg.s_fraction_grid:
        if not -1.0 < frac < 1.0:
            raise ValueError(f"s fractions must lie in (-1, 1), got {frac}")
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2, got {cfg.dim}")
    if not (cfg.tol_abs >= 0 and cfg.tol_rel >= 0):  # NaN fails this test, inf passes
        raise ValueError(f"tol_abs and tol_rel must be >= 0, got {cfg.tol_abs} and {cfg.tol_rel}")
    if cfg.seed < 0:  # numpy's own error names no flag, and a run without --rotate ignores it
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")

    phi = parse(cfg.phi)
    p_ast = parse(cfg.p_expr) if cfg.p_expr is not None else None
    q_ast = parse(cfg.q_expr) if cfg.q_expr is not None else None
    if cfg.subcommand == "metrize" and (p_ast is None or q_ast is None):
        raise ValueError("metrize requires --p and --q")
    tol = max(cfg.tol_abs, cfg.tol_rel)
    if cfg.subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")

    # metrize's C1..C3 are scalars in (r, s): it builds no frame, so it draws no rotation
    rotate = cfg.rotate and cfg.subcommand != "metrize"
    rotation = random_rotation(cfg.dim, np.random.default_rng(cfg.seed)) if rotate else None
    nu, axes = len(cfg.u_grid), (cfg.r_grid, cfg.s_fraction_grid, cfg.u_grid)
    grid = np.empty((3, *map(len, axes)))  # np.meshgrid(*axes, indexing="ij"), stacked
    grid[0].T[...], grid[1].swapaxes(1, 2)[...], grid[2] = axes
    r, frac, u = grid.reshape(3, -1)
    if cfg.subcommand == "classify":
        _require_grid(r)
    # The (r, s) stage runs once per cell of the r x s/r plane and is spread once to the
    # points (``_spread``): u varies fastest, so the points [::nu] are the cells and
    # point k's cell is k // nu (index).  A point keeps its first error, in stage order;
    # one test then fails the non-finite values.  classify skips only the embedding's
    # and phi's jet failures, so its front half is spread to the kept points alone;
    # metrize reads phi to first order.
    columns, checks, errors = {}, {}, {}
    batch = canonical_point(cfg.dim, r, frac * r, u, rotation=rotation, errors=errors)
    cells = EvalPoint(cfg.dim, *(v[::nu] for v in batch[1:]))
    index = np.arange(r.size) // nu
    degree = 1 if cfg.subcommand == "metrize" else DEGREE
    jet = eval_jet(phi, cells.r, cells.s, degree=degree, errors=(jet_errors := {}))
    _spread((), jet_errors, batch, index, errors)
    if cfg.subcommand == "metrize":  # C1/C2 and C3 of the user spray (P, Q)
        user_sp = candidate_spray(p_ast, q_ast, cells, errors=(cell_errors := {}))
        mr = metrizability_from_spray(jet, user_sp, cells)
        residual, scale = c1_c2_test(mr, jet.partial(0, 0))
        cell = (*mr, compatibility(user_sp, jet, cells)[3], residual <= tol * scale)
        cell = _spread(cell, cell_errors, batch, index, errors)
        columns = dict(zip(("C1", "C2", "C3", "pass"), cell))
    else:
        ps, sp, cv = front_half(jet, cells, (cell_errors := {}))
    if cfg.subcommand in ("report", "check"):
        cell = (ps, sp, cv, metrizability_from_spray(jet, sp, cells))
        cell = _spread(cell, cell_errors, batch, index, errors)
        columns, checks = _evaluate(*cell, batch, errors, cfg.subcommand == "check")
    values = {name: residual / scale for name, (residual, scale) in checks.items()}
    if columns:
        fail_nonfinite(errors, {k: v for k, v in (columns | values).items() if k != "regular"})
    failed = sorted(errors)
    kept = np.ones(r.size, dtype=bool)
    kept[failed] = False
    rsu = (v[failed].tolist() for v in (batch.r, batch.s, batch.u))
    doc: dict = {
        "config": {**cfg._asdict(), "jet_degree": DEGREE},
        "points": Records({}),
        "checks": [],
        "verdicts": {},
        "skipped": [{"r": r, "s": s, "u": u, "reason": str(errors[i])}
                    for i, r, s, u in zip(failed, *rsu)],
        "version": __version__,
    }
    if not kept.any():
        return doc, 3

    if cfg.subcommand == "classify":
        points = EvalPoint(cfg.dim, *(v[kept] for v in batch[1:]))
        ps, cv = _spread((ps, cv), cell_errors, points, index[kept], (errors := {}))
        doc["verdicts"], samples = classify_from_curvature(ps, cv, points, errors, {})
        doc["points"] = Records(samples)
        return doc, 0

    points = {"r": batch.r, "s": batch.s, "u": batch.u, **columns}
    doc["points"] = Records({k: v[kept] for k, v in points.items()})
    if cfg.subcommand == "metrize":
        doc["verdicts"]["metrizable"] = bool(columns["pass"][kept].all())
        return doc, 0 if doc["verdicts"]["metrizable"] else 1
    if not values:
        return doc, 0
    table = np.abs(np.array(list(values.values()))[:, kept])  # a row per check, in order
    passed = ~(table > tol).any(axis=1)
    rows = zip(values, table.max(axis=1).tolist(), passed.tolist())
    doc["checks"] = [{"name": name, "max_residual": m, "pass": ok} for name, m, ok in rows]
    return doc, 0 if passed.all() else 1


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


def _error(exc: Exception) -> int:
    """Print exc as one error line; exit code 2.  A bare MemoryError has no message."""
    print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    tokens = []  # "--phi -s+3" -> "--phi=-s+3": argparse reads a lone "-s+3" as a flag
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _VALUE_FLAG_PREFIXES:
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        grids = (parse_range(text) for text in (args.r, args.s_frac, args.u))
        cfg = RunConfig(args.subcommand, args.phi, args.dim, *grids, args.seed, args.rotate,
                        args.tol_abs, args.tol_rel, *(getattr(args, k, None) for k in "pq"))
        doc, exit_code = run(cfg)
    except (ParseError, ValueError, MemoryError) as exc:
        return _error(exc)
    try:
        _print_summary(doc)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:  # and changes neither the report nor the exit code
        sys.stdout = open(os.devnull, "w")
    if args.json_path:
        try:
            write_report(doc, args.json_path)
        except (OSError, MemoryError) as exc:
            return _error(exc)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
