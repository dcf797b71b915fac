"""Riemann curvature scalars R1-R5, the Jacobi endomorphism matrix, the
compatibility residual C3, at one point or a batch (see ``geometry``), and
``classify``, the paper's verdicts on phi over a batch from one evaluation pass.
``front_half(jet, p, errors)`` reads phi's scalars and runs the spray and the
curvature pack on one phi jet and the points p it was taken at; its scalars
depend on (r, s) alone, and only the matrix ``Rmat``, formed on read, reads
u, x and y.  Every rule of ``classify`` is here: each verdict scans the points in
grid order, stops at the point that decides it (``_first_point``) and reads one
threshold, ``VERDICT_TOL``."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import Node
from .geometry import (
    EvalPoint,
    GeometryError,
    PhiScalars,
    _ell_lo,
    _fail_nonpositive,
    lift,
    outer,
    phi_scalars,
    residual_scale,
)
from .jet import Jet, eval_jet, fail_nonfinite, raise_first
from .spray import SprayPack, pq_from_phi

# Printed-formula vs identity values for R2/R4 flagged beyond this.
IDENTITY_MISMATCH_TOL = 1e-6
# The one threshold of classify's verdicts: on R3 / scale, and t, d, mu, nu / max(1, phi^2).
VERDICT_TOL = 1e-8


class CurvaturePack(NamedTuple):
    R1: float
    R2: float  # printed-formula value
    R3: float
    R4: float  # printed-formula value
    R5: float
    C3: float
    identity_mismatch: bool
    scale: float  # residual_scale(R1, ..., R5), the scale of the curvature residuals
    point: EvalPoint  # the points of the pack

    @property
    def Rmat(self) -> np.ndarray:
        """The matrix R^i_j, shape (*batch, n, n), from the identity values of R2
        and R4, formed on each read:

        R^i_j = u^2 R1 d^i_j + R2 y^i y_j + u^2 R3 x^i x_j
                + u R4 x^i y_j + u R5 x_j y^i
        """
        p, R1, R3, R5 = self.point, self.R1, self.R3, self.R5
        u, x, y = p.u, p.x, p.y
        R2_id, R4_id = _identity_R2_R4(R1, R3, R5, p.s)
        return (
            lift(u * u * R1, 2) * np.eye(p.n)
            + lift(R2_id, 2) * outer(y, y)
            + lift(u * u * R3, 2) * outer(x, x)
            + lift(u * R4_id, 2) * outer(x, y)
            + lift(u * R5, 2) * outer(y, x)
        )


def _identity_R2_R4(R1, R3, R5, s) -> tuple:
    """R2 and R4 by the homogeneity identities R2 = -R1 - s R5, R4 = -s R3."""
    return -R1 - s * R5, -s * R3


def compatibility(sp: SprayPack, jet: Jet, p: EvalPoint) -> tuple:
    """R1, R3, R5 and the compatibility residual C3 = phi_s R1 + (s phi
    + (r^2-s^2) phi_s) R3 + phi R5 at the points p: phi is read through
    ``Jet.partial`` to first order, so a degree-1 phi jet suffices."""
    r, s, w = p.r, p.s, p.w
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
    """Curvature scalars at the points p, and their matrix R^i_j on read.

    R2 and R4 are computed twice: from the long printed expansions and
    from the homogeneity identities R2 = -R1 - s R5, R4 = -s R3.  The
    identity values feed the matrix; a disagreement beyond
    IDENTITY_MISMATCH_TOL * scale sets ``identity_mismatch``.
    """
    r, s, w = p.r, p.s, p.w
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
    R2_id, R4_id = _identity_R2_R4(R1, R3, R5, s)
    scale = residual_scale(R1, R2, R3, R4, R5)
    mismatch = (np.abs(R2 - R2_id) > IDENTITY_MISMATCH_TOL * scale) | (
        np.abs(R4 - R4_id) > IDENTITY_MISMATCH_TOL * scale
    )
    return CurvaturePack(
        R1=R1,
        R2=R2,
        R3=R3,
        R4=R4,
        R5=R5,
        C3=C3,
        identity_mismatch=mismatch,
        scale=scale,
        point=p,
    )


def front_half(jet: Jet, p: EvalPoint, errors: dict) -> tuple:
    """(ps, sp, cv): phi's scalars, its spray and the curvature pack at the points p,
    from phi's jets jet there; errors holds their jet failures.  First failure wins:
    jet, phi <= 0, P/Q."""
    ps = phi_scalars(jet, p, errors=errors)
    sp = pq_from_phi(jet, p, errors=errors)
    return ps, sp, riemann_pack(sp, jet, p)


def flag_curvature(cp: CurvaturePack, phi: float, p: EvalPoint) -> float:
    """K from R1 + (r^2 - s^2) R3 = phi^2 K.

    For n >= 3 scalar metrics R3 vanishes and this reduces to R1 / phi^2;
    for surfaces the R3 term is essential.
    """
    return (cp.R1 + p.w * cp.R3) / (phi * phi)


def classify(phi: Node, p: EvalPoint) -> tuple[dict, dict]:
    """(verdicts, samples): the paper's verdicts on phi over the points p, a batch
    of shape (N,), from one ``eval_jet`` and one ``front_half``.  verdicts holds
    is_scalar and max_R3_residual, degeneracy (``degeneracy_from_scalars``) and, for
    n = 2, riemannian; a test that fails, as each does on fewer than 8 points,
    gives None with its error under scalar_error, degeneracy_error or
    riemannian_error.  samples holds the columns r, s, u and K of the points the
    scalar test sampled.  Each test scans the points in order, and each sees the
    failures of phi's jets (see ``classify_from_curvature``)."""
    with np.errstate(all="ignore"):
        jet = eval_jet(phi, p.r, p.s, errors=(jet_errors := {}))
        ps, _, cv = front_half(jet, p, (errors := dict(jet_errors)))
        return classify_from_curvature(ps, cv, p, errors, jet_errors)


def classify_from_curvature(
    ps: PhiScalars, cv: CurvaturePack, p: EvalPoint, errors: dict, jet_errors: dict
) -> tuple[dict, dict]:
    """``classify`` from phi's guarded scalars ps and the curvature pack cv at the
    points p, under the caller's ``np.errstate``: errors holds the points' failures
    up to the front half's, jet_errors those of phi's jets alone.  Of the front
    half's failures, the scalar test sees all, the Riemannian test phi <= 0 only
    and the degeneracy screen none."""
    verdicts, K = {}, np.empty(0)  # no samples if the scalar test fails
    for name in ("scalar", "degeneracy", "riemannian")[: 3 if p.n == 2 else 2]:
        key = "is_scalar" if name == "scalar" else name
        try:
            _require_grid(ps.phi)  # the one size rule of all three tests
            if name == "scalar":
                is_scalar, K, max_resid = scalar_from_curvature(ps, cv, p, errors)
                verdicts.update(is_scalar=is_scalar, max_R3_residual=max_resid)
            elif name == "degeneracy":
                verdicts[key] = degeneracy_from_scalars(ps, dict(jet_errors))
            else:
                verdicts[key] = riemannian_from_scalars(ps, p, dict(jet_errors))
        except (ArithmeticError, GeometryError) as exc:
            verdicts.update({key: None, f"{name}_error": str(exc)})
    return verdicts, {k: np.ravel(getattr(p, k))[: K.size] for k in "rsu"} | {"K": K}


def scalar_from_curvature(
    ps: PhiScalars, cv: CurvaturePack, p: EvalPoint, errors: dict
) -> tuple[bool, np.ndarray, float]:
    """(verdict, K at the sampled points, largest R3 residual) of the scalar flag
    curvature test at the points p, from phi's scalars and the curvature pack there,
    whose earlier failures are in errors.  n = 2 is always scalar; n >= 3 needs R3 ~ 0,
    and R^i_j = K F^2 (d^i_j - (y^i / F) dF/dy_j) is checked entrywise.  The first
    failed reconstruction ends the sampling; a point before it that failed, or whose
    K fails, raises its error."""
    K = flag_curvature(cv, ps.phi, p)
    fail_nonfinite(errors, {"K": K})
    resid = np.abs(cv.R3) / cv.scale
    # reconstruction check of the scalar-curvature form
    F, Rmat = p.u * ps.phi, cv.Rmat
    recon = lift(K * F * F, 2) * (np.eye(p.n) - outer(p.y, _ell_lo(ps, p)) / lift(F, 2))
    rscale = residual_scale(np.max(np.abs(Rmat), axis=(-2, -1)))
    recon_failed = (p.n == 2) | (resid < VERDICT_TOL)
    recon_failed &= np.max(np.abs(Rmat - recon), axis=(-2, -1)) > 1e-6 * rscale
    stop = _first_point(recon_failed, errors)
    end = len(K) if stop is None else stop + 1
    # a NaN residual never raised the running maximum
    seen = np.where(np.isnan(resid[:end]), 0.0, resid[:end])
    max_resid = float(seen.max())
    return stop is None and (p.n == 2 or max_resid < VERDICT_TOL), K[:end], max_resid


def degeneracy_from_scalars(ps: PhiScalars, errors: dict) -> str:
    """The verdict "nondegenerate", "degenerate_type_a" or "degenerate_type_b" of
    phi's scalars ps, whose points' earlier failures are in errors: type A is
    t = 0 at every point (phi = f(r^2) s), type B d = 0 at every point
    (phi = f1(r^2) s + f2(r^2) sqrt(r^2 - s^2)); either forces det(g) = 0.
    The first point, in order, that rules out both decides; a point no later
    than it that failed, or whose values are not finite, raises its error."""
    scale, t, d = residual_scale(ps.phi * ps.phi), ps.t, ps.d
    fail_nonfinite(errors, {"phi^2": scale, "phi - s phi_s": t,
                            "phi - s phi_s + (r^2-s^2) phi_ss": d})
    not_a = np.logical_or.accumulate(np.abs(t) >= VERDICT_TOL * scale)
    not_b = np.logical_or.accumulate(np.abs(d) >= VERDICT_TOL * scale)
    if _first_point(not_a & not_b, errors) is not None:
        return "nondegenerate"
    return "degenerate_type_b" if not_a[-1] else "degenerate_type_a"


def riemannian_from_scalars(ps: PhiScalars, p: EvalPoint, errors: dict) -> bool:
    """True iff mu vanishes at the surface points p (the Riemannian criterion), from
    phi's scalars ps there, whose earlier failures are in errors.  d(mu)/ds = -s nu,
    so a nonzero nu where mu vanishes raises as an inconsistent evaluation.  The
    first point that failed, or whose phi > 0 guard, mu or nu fails, raises its
    error; so does a non-finite phi^2 before the first nonzero mu, where it stops."""
    _fail_nonpositive(ps, p, errors)
    fail_nonfinite(errors, {"mu": ps.mu, "nu": ps.nu})
    raise_first(errors)
    fail_nonfinite(errors, {"phi^2": ps.phi * ps.phi})
    scale = VERDICT_TOL * residual_scale(ps.phi * ps.phi)
    # the mu test stops at the first point with a nonzero mu
    if _first_point(np.abs(ps.mu) >= scale, errors) is not None:
        return False
    inconsistent = _first_point(np.abs(ps.nu) >= scale, errors)
    if inconsistent is not None:
        raise GeometryError(f"mu vanishes on the grid but nu = {ps.nu[inconsistent].item()} "
                            "does not; inconsistent evaluation")
    return True


def _first_point(mask, errors: dict) -> int | None:
    """The flat index of the first point where mask holds (None: none does), the
    point where a verdict's scan in grid order stops; first raises the error of
    the first failed point no later than it (``raise_first``)."""
    hits = np.asarray(mask).ravel().nonzero()[0]
    stop = int(hits[0]) if hits.size else None
    raise_first(errors, stop)
    return stop


def _require_grid(grid: np.ndarray) -> None:
    if np.size(grid) < 8:
        raise GeometryError(f"grid of >= 8 points required, got {np.size(grid)}")
