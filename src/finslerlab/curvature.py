"""Riemann curvature scalars R1-R5, the Jacobi endomorphism matrix, the
curvature compatibility residual C3, and scalar-flag-curvature
classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Node
from .geometry import EvalPoint, GeometryError, _ell_lo, _require_grid, phi_scalars
from .jet import GridJets, Jet
from .spray import SprayPack, _grid_spray

# Printed-formula vs identity values for R2/R4 flagged beyond this.
IDENTITY_MISMATCH_TOL = 1e-6

SCALAR_TOL = 1e-8


@dataclass(frozen=True)
class CurvaturePack:
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


def riemann_pack(sp: SprayPack, jet: Jet, p: EvalPoint) -> CurvaturePack:
    """Curvature scalars and the matrix R^i_j at the point p.

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

    R1 = 2 * Q - (s / r) * P_r - P_s + 2 * w * P_s * Q + P * P + 2 * s * P * Q
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
    R3 = (
        (2 / r) * Q_r
        - Q_ss
        - (s / r) * Q_rs
        + 2 * w * Q * Q_ss
        + 4 * Q * Q
        - w * Q_s * Q_s
        - 2 * s * Q * Q_s
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

    R2_id = -R1 - s * R5
    R4_id = -s * R3
    scale = max(1.0, abs(R1), abs(R2), abs(R3), abs(R4), abs(R5))
    mismatch = (
        abs(R2 - R2_id) > IDENTITY_MISMATCH_TOL * scale
        or abs(R4 - R4_id) > IDENTITY_MISMATCH_TOL * scale
    )

    x, y = p.x, p.y
    Rmat = (
        u * u * R1 * np.eye(p.n)
        + R2_id * np.outer(y, y)
        + u * u * R3 * np.outer(x, x)
        + u * R4_id * np.outer(x, y)
        + u * R5 * np.outer(y, x)
    )

    ps = phi_scalars(jet)
    C3 = ps.phi_s * R1 + (s * ps.phi + w * ps.phi_s) * R3 + ps.phi * R5

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
    return (cp.R1 + (p.r**2 - p.s**2) * cp.R3) / phi**2


@dataclass(frozen=True)
class ScalarCurvatureReport:
    is_scalar: bool
    K_samples: list[tuple[EvalPoint, float]]
    max_R3_residual: float
    n: int
    failing_point: EvalPoint | None = None


def scalar_classify(
    phi: Node, grid: list[EvalPoint], tol: float = SCALAR_TOL
) -> ScalarCurvatureReport:
    """Decide scalar flag curvature over a grid and extract K = R1 / phi^2.

    Dimension two is unconditionally scalar.  For n >= 3 the verdict
    requires R3 ~ 0 at every point, and the reconstruction
    R^i_j = K F^2 (d^i_j - (y^i / F) dF/dy_j) is verified entrywise.
    """
    _require_grid(grid)
    dims = {p.n for p in grid}
    if len(dims) != 1:
        raise GeometryError(f"mixed dimensions in grid: {sorted(dims)}")
    n = dims.pop()

    samples: list[tuple[EvalPoint, float]] = []
    max_resid = 0.0
    failing = None
    recon_failed = False
    jets = GridJets.evaluate(phi, grid)
    spray_at = _grid_spray(jets)
    for p in grid:
        jet = jets.at(p)
        ps = phi_scalars(jet)
        cp = riemann_pack(spray_at(jet, p), jet, p)
        K = flag_curvature(cp, ps.phi, p)
        samples.append((p, K))
        scale = max(1.0, abs(cp.R1), abs(cp.R2), abs(cp.R3), abs(cp.R4), abs(cp.R5))
        resid = abs(cp.R3) / scale
        if resid > max_resid:
            max_resid = resid
            failing = p
        if n == 2 or resid < tol:
            # reconstruction check of the scalar-curvature form
            F = p.u * ps.phi
            recon = K * F * F * (np.eye(n) - np.outer(p.y, _ell_lo(ps, p)) / F)
            rscale = max(1.0, float(np.max(np.abs(cp.Rmat))))
            if np.max(np.abs(cp.Rmat - recon)) > 1e-6 * rscale:
                failing, recon_failed = p, True
                break

    is_scalar = not recon_failed and (n == 2 or max_resid < tol)
    return ScalarCurvatureReport(
        is_scalar=is_scalar,
        K_samples=samples,
        max_R3_residual=max_resid,
        n=n,
        failing_point=None if is_scalar else failing,
    )
