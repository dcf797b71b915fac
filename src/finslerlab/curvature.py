"""Riemann curvature scalars R1-R5, the Jacobi endomorphism matrix, the
curvature compatibility residual C3, and scalar-flag-curvature
classification, at one point or a batch (see ``geometry``)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import Node
from .geometry import (
    EvalPoint,
    _ell_lo,
    _positive_scalars,
    _require_grid,
    lift,
    outer,
    residual_scale,
)
from .jet import GridJets, Jet, fail_nonfinite, first_true, raise_first
from .spray import SprayPack, _grid_pq, spray_pack_from_jets

# Printed-formula vs identity values for R2/R4 flagged beyond this.
IDENTITY_MISMATCH_TOL = 1e-6

SCALAR_TOL = 1e-8


class CurvaturePack(NamedTuple):
    R1: float
    R2: float  # printed-formula value
    R3: float
    R4: float  # printed-formula value
    R5: float
    Rmat: np.ndarray  # R^i_j, identity values used for R2/R4
    C3: float
    id_R4: float  # R4 + s R3
    id_R2: float  # R1 + R2 + s R5
    identity_mismatch: bool


def compatibility(sp: SprayPack, jet: Jet, p: EvalPoint) -> tuple:
    """R1, R3, R5 and the compatibility residual C3 = phi_s R1 + (s phi
    + (r^2-s^2) phi_s) R3 + phi R5 at the points p: phi is read through
    ``Jet.partial`` to first order, so a degree-1 phi jet suffices."""
    r, s = p.r, p.s
    w = r * r - s * s
    P, P_r, P_s, P_ss, P_rs = sp.P, sp.P_r, sp.P_s, sp.P_ss, sp.P_rs
    Q, Q_r, Q_s, Q_ss, Q_rs = sp.Q, sp.Q_r, sp.Q_s, sp.Q_ss, sp.Q_rs
    R1 = 2 * Q - (s / r) * P_r - P_s + 2 * w * P_s * Q + P * P + 2 * s * P * Q
    R3 = (
        (2 / r) * Q_r
        - Q_ss
        - (s / r) * Q_rs
        + 2 * w * Q * Q_ss
        + 4 * Q * Q
        - w * Q_s * Q_s
        - 2 * s * Q * Q_s
    )
    R5 = (
        (2 / r) * P_r
        - (s / r) * P_rs
        - P_ss
        - Q_s
        + 2 * P * Q
        - 2 * s * P_s * Q
        + 2 * w * P_ss * Q
        - P * P_s
        - s * P * Q_s
        - w * P_s * Q_s
    )
    phi, phi_s = jet.partial(0, 0), jet.partial(0, 1)
    return R1, R3, R5, phi_s * R1 + (s * phi + w * phi_s) * R3 + phi * R5


def riemann_pack(sp: SprayPack, jet: Jet, p: EvalPoint) -> CurvaturePack:
    """Curvature scalars and the matrix R^i_j at the points p.

    R^i_j = u^2 R1 d^i_j + R2 y^i y_j + u^2 R3 x^i x_j
            + u R4 x^i y_j + u R5 x_j y^i

    R2 and R4 are computed twice: from the long printed expansions and
    from the homogeneity identities R2 = -R1 - s R5, R4 = -s R3.  The
    identity values feed the matrix; a disagreement beyond
    IDENTITY_MISMATCH_TOL * scale sets ``identity_mismatch``.
    """
    r, s, u = p.r, p.s, p.u
    w = r * r - s * s
    P, P_r, P_s, P_ss, P_rs = sp.P, sp.P_r, sp.P_s, sp.P_ss, sp.P_rs
    Q, Q_r, Q_s, Q_ss, Q_rs = sp.Q, sp.Q_r, sp.Q_s, sp.Q_ss, sp.Q_rs
    R1, R3, R5, C3 = compatibility(sp, jet, p)
    R2 = (
        P_s
        - (s / r) * P_r
        + (s * s / r) * P_rs
        + s * P_ss
        - 2 * Q
        + s * Q_s
        - 2 * s * P * P_s
        - 4 * s * P * Q
        + 4 * s * s * P_s * Q
        - P * P
        - 2 * s * w * P_ss * Q
        + 3 * s * P * P_s
        + s * s * P * Q_s
        + w * s * P_s * Q_s
        - 2 * r * r * P_s * Q
    )
    R4 = (
        -(2 * s / r) * Q_r
        + (s * s / r) * Q_rs
        + s * Q_ss
        - 2 * w * s * Q * Q_ss
        + w * s * Q_s * Q_s
        - 4 * s * Q * Q
        + 2 * s * s * Q * Q_s
    )
    R2_id = -R1 - s * R5
    R4_id = -s * R3
    scale = residual_scale(R1, R2, R3, R4, R5)
    mismatch = (np.abs(R2 - R2_id) > IDENTITY_MISMATCH_TOL * scale) | (
        np.abs(R4 - R4_id) > IDENTITY_MISMATCH_TOL * scale
    )

    x, y = p.x, p.y
    Rmat = (
        lift(u * u * R1, 2) * np.eye(p.n)
        + lift(R2_id, 2) * outer(y, y)
        + lift(u * u * R3, 2) * outer(x, x)
        + lift(u * R4_id, 2) * outer(x, y)
        + lift(u * R5, 2) * outer(y, x)
    )

    return CurvaturePack(
        R1=R1,
        R2=R2,
        R3=R3,
        R4=R4,
        R5=R5,
        Rmat=Rmat,
        C3=C3,
        id_R4=R4 + s * R3,
        id_R2=R1 + R2 + s * R5,
        identity_mismatch=mismatch,
    )


def flag_curvature(cp: CurvaturePack, phi: float, p: EvalPoint) -> float:
    """K from R1 + (r^2 - s^2) R3 = phi^2 K.

    For n >= 3 scalar metrics R3 vanishes and this reduces to R1 / phi^2;
    for surfaces the R3 term is essential.
    """
    return (cp.R1 + (p.r * p.r - p.s * p.s) * cp.R3) / (phi * phi)


class ScalarCurvatureReport(NamedTuple):
    is_scalar: bool
    K_samples: list[tuple[EvalPoint, float]]
    max_R3_residual: float
    n: int
    failing_point: EvalPoint | None = None


def scalar_classify(phi: Node, grid: list[EvalPoint]) -> ScalarCurvatureReport:
    """Decide scalar flag curvature over a grid and extract K = R1 / phi^2.

    Dimension two is unconditionally scalar.  For n >= 3 the verdict
    requires R3 ~ 0 at every point, and the reconstruction
    R^i_j = K F^2 (d^i_j - (y^i / F) dF/dy_j) is verified entrywise.  The
    points are taken in grid order: the first failed reconstruction ends
    the sampling, and a point before it whose jets, phi > 0 guard or K fail
    raises its error.
    """
    _require_grid(grid)
    pts = EvalPoint.stack(grid)
    jets = GridJets.evaluate(phi, pts.r, pts.s, np.arange(len(grid)))
    is_scalar, K, max_resid, failing = scalar_from_jets(jets, _grid_pq(jets), pts)
    failing = None if failing is None else grid[failing]
    return ScalarCurvatureReport(is_scalar, list(zip(grid, K.tolist())), max_resid, pts.n, failing)


def scalar_from_jets(
    jets: GridJets, pq: tuple[GridJets, GridJets], p: EvalPoint
) -> tuple[bool, np.ndarray, float, int | None]:
    """``scalar_classify`` at the points p, from the phi and P/Q jets there: the
    verdict, K at the sampled points, the largest R3 residual, the failing index."""
    errors = {}
    with np.errstate(all="ignore"):
        jet = jets.rows(errors)
        ps = _positive_scalars(jet, p, errors)
        sp = spray_pack_from_jets(pq[0].rows(errors), pq[1].rows(errors), p)
        cp = riemann_pack(sp, jet, p)
        K = flag_curvature(cp, ps.phi, p)
        fail_nonfinite(errors, {"K": K})
        resid = np.abs(cp.R3) / residual_scale(cp.R1, cp.R2, cp.R3, cp.R4, cp.R5)
        # reconstruction check of the scalar-curvature form
        F = p.u * ps.phi
        recon = lift(K * F * F, 2) * (np.eye(p.n) - outer(p.y, _ell_lo(ps, p)) / lift(F, 2))
        rscale = np.maximum(1.0, np.max(np.abs(cp.Rmat), axis=(-2, -1)))
        recon_failed = (p.n == 2) | (resid < SCALAR_TOL)
        recon_failed &= np.max(np.abs(cp.Rmat - recon), axis=(-2, -1)) > 1e-6 * rscale
    stop = first_true(recon_failed)
    raise_first(errors, stop)
    end = len(K) if stop is None else stop + 1
    # a NaN residual never raised the running maximum
    seen = np.where(np.isnan(resid[:end]), 0.0, resid[:end])
    max_resid = float(seen.max())
    failing = int(seen.argmax()) if max_resid > 0.0 else None
    if stop is not None:
        failing = stop
    is_scalar = stop is None and (p.n == 2 or max_resid < SCALAR_TOL)
    return is_scalar, K[:end], max_resid, None if is_scalar else failing
