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
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from struct import pack
from typing import NamedTuple

import numpy as np

from . import __version__
from .curvature import compatibility, flag_curvature, riemann_pack, scalar_from_curvature
from .expr import ParseError, parse
from .geometry import (
    EvalPoint,
    GeometryError,
    _ell_lo,
    _positive_scalars,
    _require_grid,
    canonical_point,
    cartan_pack,
    degeneracy_from_scalars,
    lift,
    metric_pack,
    outer,
    random_rotation,
    residual_scale,
)
from .jet import DEGREE, GridJets, fail_nonfinite
from .spray import (
    horizontal_residual,
    metrizability_from_spray,
    pq_jets,
    spray_pack_from_jets,
)
from .surface import main_scalar, riemannian_from_scalars

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-7
SUBCOMMANDS = ("report", "check", "classify", "metrize")


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


def _curvature(phi_jets: GridJets, p: EvalPoint, errors: dict) -> tuple:
    """(jet, ps, sp, cv): phi's jets and scalars, the spray and the curvature pack at the
    points p, P/Q taken on phi's columns.  A point keeps its first failure: jet, phi > 0, P/Q."""
    jet = phi_jets.rows(errors)
    ps = _positive_scalars(jet, p, errors)  # the one read of phi's scalars; the packs take them
    cols = phi_jets.r, phi_jets.s, phi_jets.index
    pq = pq_jets(phi_jets.jets, *cols[:2], errors=(pq_errors := {}))
    sp = spray_pack_from_jets(*(GridJets(*cols, j, pq_errors).rows(errors) for j in pq), p)
    return jet, ps, sp, riemann_pack(sp, jet, p)


def _evaluate(
    phi_jets: GridJets, p: EvalPoint, errors: dict, with_checks: bool
) -> tuple[dict, dict]:
    """The report columns of the points p and, if asked, their
    identity-check residuals, by name, all from the points' phi jets.  A
    point that fails a guard gets its error in errors."""
    jet, ps, sp, cv = _curvature(phi_jets, p, errors)
    mp = metric_pack(ps, p, errors=errors)
    mr = metrizability_from_spray(jet, sp, p)
    columns = {
        "F": mp.F,
        "P": sp.P,
        "Q": sp.Q,
        "R1": cv.R1,
        "R2": cv.R2,
        "R3": cv.R3,
        "R4": cv.R4,
        "R5": cv.R5,
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
    contr1 = ps.phi_s * mp.rho0 + phi0 * mp.rho2 + (p.s * phi0 + w * ps.phi_s) * mp.rho3
    contr2 = mp.rho0 + w * mp.rho3 - 1.0 / (phi0 * ps.d)
    scale = residual_scale(cv.R1, cv.R2, cv.R3, cv.R4, cv.R5)
    trace = np.trace(cv.Rmat, axis1=-2, axis2=-1) - u * u * ((p.n - 1) * cv.R1 + w * cv.R3)
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
        "horizontal_dhF": _maxabs(horizontal_residual(ps, sp, p)) / (u * np.maximum(1.0, phi0)),
        "spray_homogeneity": _maxabs(np.einsum("...ij,...j->...i", sp.N, p.y) - 2 * sp.G)
        / np.maximum(1.0, _maxabs(sp.G)),
        "curvature_C3": cv.C3 / (scale * np.maximum(1.0, phi0)),
        "identity_R2": cv.id_R2 / scale,
        "identity_R4": cv.id_R4 / scale,
        "jacobi_y_annihilation": _maxabs(np.einsum("...ij,...j->...i", cv.Rmat, p.y))
        / (scale * u * u * np.maximum(np.maximum(1.0, u), p.r)),
        "curvature_trace": trace / (scale * u * u),
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


def _metrize(phi_jets, p_ast, q_ast, p: EvalPoint, errors: dict, tol: float) -> dict:
    """C1/C2 and C3 of the user spray (P, Q) at the points p, by name, from phi
    jets of degree 1 and P and Q jets on their columns of degree 2, all C1..C3 read."""
    jet = phi_jets.rows(errors)
    cols = phi_jets.r, phi_jets.s, phi_jets.index
    pj, qj = (GridJets.evaluate(e, *cols, degree=2).rows(errors) for e in (p_ast, q_ast))
    user_sp = spray_pack_from_jets(pj, qj, p)
    mr = metrizability_from_spray(jet, user_sp, p)
    bound = tol * np.maximum(1.0, np.abs(jet.partial(0, 0)))
    ok = np.maximum(np.abs(mr.C1), np.abs(mr.C2)) <= bound
    return {"C1": mr.C1, "C2": mr.C2, "C3": compatibility(user_sp, jet, p)[3], "pass": ok}


def _classify(phi_jets: GridJets, p: EvalPoint, kept: list[int], verdicts: dict) -> list[dict]:
    """The verdicts on the points kept of p, into verdicts, and the K samples.
    Each classifier scans the points in order; a failed one's verdict is None, as is
    each on fewer than 8 points.  Of the front half's failures, the scalar test sees
    all, the Riemannian test phi <= 0 only and the degeneracy screen none."""
    p = EvalPoint(p.n, *(v[kept] for v in (p.r, p.s, p.u, p.x, p.y)))
    _, ps, _, cv = _curvature(phi_jets.take(kept), p, (errors := {}))
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
    rsu = zip(p.r.tolist(), p.s.tolist(), p.u.tolist())
    return [{"r": r, "s": s, "u": u, "K": k} for (r, s, u), k in zip(rsu, K.tolist())]


@np.errstate(all="ignore")  # a failing point's values turn NaN or infinite; its error is kept
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
    grid = np.meshgrid(cfg.r_grid, cfg.s_fraction_grid, cfg.u_grid, indexing="ij")
    r, frac, u = (g.ravel() for g in grid)
    if cfg.subcommand == "classify":
        _require_grid(r)
    # The grid's cells are evaluated as one batch, each jet once per cell of
    # the r x s/r plane: u varies fastest, so the cells [::len(u_grid)] are
    # that plane.  A cell that fails a guard keeps its first error, in stage
    # order; one test then fails the non-finite values.  classify skips only
    # the cells and phi jets that fail.  metrize reads phi to first order.
    columns, checks, errors = {}, {}, {}
    nu = len(cfg.u_grid)
    batch = canonical_point(cfg.dim, r, frac * r, u, rotation=rotation, errors=errors)
    cells = batch.r[::nu], batch.s[::nu], np.arange(r.size) // nu
    degree = 1 if cfg.subcommand == "metrize" else DEGREE
    phi_jets = GridJets.evaluate(phi, *cells, degree=degree)
    if cfg.subcommand == "classify":
        phi_jets.rows(errors)
    elif cfg.subcommand == "metrize":
        columns = _metrize(phi_jets, p_ast, q_ast, batch, errors, tol)
    else:
        columns, checks = _evaluate(phi_jets, batch, errors, cfg.subcommand == "check")
    if columns:
        fail_nonfinite(errors, {k: v for k, v in (columns | checks).items() if k != "regular"})
    kept = [k for k in range(r.size) if k not in errors]
    doc: dict = {
        "config": {**cfg._asdict(), "jet_degree": DEGREE},
        "points": [],
        "checks": [],
        "verdicts": {},
        "skipped": [
            {"r": r, "s": s, "u": u, "reason": str(errors[i])}
            for i, (r, s, u) in enumerate(zip(batch.r.tolist(), batch.s.tolist(), batch.u.tolist()))
            if i in errors
        ],
        "version": __version__,
    }
    if not kept:
        return doc, 3

    if cfg.subcommand == "classify":
        doc["points"] = _classify(phi_jets, batch, kept, doc["verdicts"])
        return doc, 0

    names = ["r", "s", "u", *columns]
    values = [v[kept].tolist() for v in (batch.r, batch.s, batch.u, *columns.values())]
    doc["points"] = [dict(zip(names, rec)) for rec in zip(*values)]
    if cfg.subcommand == "metrize":
        doc["verdicts"]["metrizable"] = all(rec["pass"] for rec in doc["points"])
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


# the texts of values of these exact types; json.dumps writes any other type
_LITERALS = {None: "null", False: "false", True: "true"}
_FORMATS = {str: encode_basestring_ascii, int: repr,
            bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column(values: list, pad: str) -> list[str]:
    """json.dumps(v, sort_keys=True, indent=1) of each v in values, with pad
    before each line after the first.  A column of one type takes one pass,
    each distinct float formatted once where at most half are distinct; lists
    of one length and dicts of one key set are joined from their items' columns."""
    kind = type(values[0]) if len(set(map(type, values))) == 1 else None
    if kind is float:
        distinct = dict.fromkeys(values)
        memo = 2 * len(distinct) <= len(values)
        text = list(map(repr, distinct if memo else values))
        if not math.isfinite(sum(distinct)):  # a finite sum has finite terms
            text = [_NONFINITE.get(t, t) for t in text]
        if memo:
            text = list(map(dict(zip(distinct, text)).__getitem__, values))
            # -0.0 shares 0.0's memo entry: a column that may hold it formats its zeros anew
            if 0.0 in distinct and pack("<d", -0.0) in pack(f"<{len(values)}d", *values):
                text = [t if v else repr(v) for t, v in zip(text, values)]
        return text
    if kind in _FORMATS:
        return list(map(_FORMATS[kind], values))
    # dicts of one key set: the union of their keys has as many as each of them
    same_keys = kind is dict and len(values) * len(set().union(*values)) == sum(map(len, values))
    if kind is list and len(set(map(len, values))) == 1:
        n = len(values[0])
        flat = _column(list(itertools.chain.from_iterable(values)), pad + " ")
        columns, labels, brackets = [flat[j::n] for j in range(n)], [""] * n, "[]"
    elif same_keys and all(type(k) is str for k in values[0]):
        keys = sorted(values[0])
        columns = [_column([d[k] for d in values], pad + " ") for k in keys]
        labels, brackets = [encode_basestring_ascii(k) + ": " for k in keys], "{}"
    else:
        return [json.dumps(v, sort_keys=True, indent=1).replace("\n", "\n" + pad) for v in values]
    if not labels:
        return [brackets] * len(values)
    # each value's text: its opening bracket, each item after a separator and label, the closing one
    first, sep, close = brackets[0] + "\n" + pad + " ", ",\n" + pad + " ", "\n" + pad + brackets[1]
    heads = [first + labels[0], *map(sep.__add__, labels[1:])]
    parts = itertools.chain.from_iterable(zip(map(itertools.repeat, heads), columns))
    return list(map("".join, zip(*parts, itertools.repeat(close))))


def write_report(doc: dict, path: str) -> None:
    """Write doc to path as json.dumps(doc, sort_keys=True, indent=1) plus a
    newline, byte for byte, formatted column by column."""
    with open(path, "w") as fh:
        print(_column([doc], "")[0], file=fh)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
        doc, exit_code = run(cfg)
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
