"""Berwald frame, main scalar and the Riemannian criterion for
spherically symmetric Finsler surfaces (n = 2, positive-definite branch),
at one point or a batch (see ``geometry``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import Node
from .geometry import (
    CartanPack,
    EvalPoint,
    GeometryError,
    MetricPack,
    _ell_lo,
    _mu,
    _n_lo,
    _nu,
    _positive_scalars,
    _require_grid,
    cartan_pack,
    lift,
    metric_pack,
    phi_scalars,
)
from .jet import GridJets, Jet, batched, fail_nonfinite, fail_where, first_true, raise_first

RIEMANNIAN_TOL = 1e-8


class BerwaldFrame(NamedTuple):
    ell_lo: np.ndarray  # l_i = dF/dy^i
    ell_hi: np.ndarray  # l^i = y^i / F
    n_lo: np.ndarray  # n_j = x_j - (s/u) y_j
    n_hi: np.ndarray  # n^i = g^{ij} n_j
    a: float  # normalization sqrt(phi D / (r^2 - s^2))
    m_lo: np.ndarray  # m_i = a n_i
    m_hi: np.ndarray  # m^i = a n^i


@batched
def berwald_frame(jet: Jet, p: EvalPoint, *, errors: dict) -> BerwaldFrame:
    """The orthonormal pair (l, m) at surface points.

    a(r, s) = sqrt(phi (phi - s phi_s + (r^2-s^2) phi_ss) / (r^2 - s^2)),
    n^i = rho0 n^i_euclid + ((r^2-s^2)/u)(rho2 y^i + u rho3 x^i).
    A point fails where the radicand of a is not positive, and where
    ``metric_pack`` fails.
    """
    return _frame(jet, p, None, errors)[0]


def _frame(
    jet: Jet, p: EvalPoint, mp: MetricPack | None, errors: dict
) -> tuple[BerwaldFrame, MetricPack]:
    """The Berwald frame and the metric pack it was built from (mp, when
    given, is p's metric pack)."""
    if p.n != 2:
        raise GeometryError(f"Berwald frame requires n = 2, got n = {p.n}")
    ps = phi_scalars(jet)
    r, s, u = p.r, p.s, p.u
    w = r * r - s * s
    d = ps.phi - s * ps.phi_s + w * ps.phi_ss
    radicand = ps.phi * d / w
    fail_where(
        radicand <= 0,
        errors,
        lambda v: GeometryError(
            f"a(r, s) radicand {v} is not positive (degenerate or wrong-signature metric)"
        ),
        radicand,
    )
    a = np.sqrt(radicand)

    if mp is None:
        mp = metric_pack(jet, p, errors=errors)
    n_lo = _n_lo(p)
    n_hi = lift(mp.rho0) * n_lo + lift(w / u) * (lift(mp.rho2) * p.y + lift(u * mp.rho3) * p.x)
    frame = BerwaldFrame(
        ell_lo=_ell_lo(ps, p),
        ell_hi=p.y / lift(mp.F),
        n_lo=n_lo,
        n_hi=n_hi,
        a=a,
        m_lo=lift(a) * n_lo,
        m_hi=lift(a) * n_hi,
    )
    return frame, mp


class MainScalarPack(NamedTuple):
    A: float  # rho0 + s rho2 + r^2 rho3
    B: float  # rho2 + s rho3
    I: float  # closed-form route
    I_direct: float  # F C_ijk m^i m^j m^k
    frame: BerwaldFrame  # the frame both routes used
    cartan: CartanPack  # the Cartan pack both routes used


@batched
def main_scalar(
    jet: Jet, p: EvalPoint, mp: MetricPack | None = None, *, errors: dict
) -> MainScalarPack:
    """Main scalar of the surface by two independent routes.

    Closed form:
        I = (phi/2) ( 3 mu / a * ((m^1)^2 + (m^2)^2)
                      - 3 a mu (r^2-s^2)^2 B^2 + nu / a^3 )
    Direct: contraction of the full Cartan tensor with m^i.
    Points fail as in ``berwald_frame``.
    """
    frame, mp = _frame(jet, p, mp, errors)
    cp = cartan_pack(jet, p, errors=errors)
    ps = phi_scalars(jet)
    w = p.r * p.r - p.s * p.s
    A = mp.rho0 + p.s * mp.rho2 + p.r * p.r * mp.rho3
    B = mp.rho2 + p.s * mp.rho3
    m = frame.m_hi
    msq = (m * m).sum(-1)
    a = frame.a
    I = (ps.phi / 2.0) * (
        3 * cp.mu / a * msq - 3 * a * cp.mu * w * w * B * B + cp.nu / (a * a * a)
    )
    I_direct = mp.F * np.einsum("...ijk,...i,...j,...k->...", cp.C, m, m, m)
    return MainScalarPack(A=A, B=B, I=I, I_direct=I_direct, frame=frame, cartan=cp)


def riemannian_test(phi: Node, grid: list[EvalPoint]) -> bool:
    """True iff mu vanishes across the grid (the Riemannian criterion).

    When mu vanishes, nu is checked too: d(mu)/ds = -s nu forces nu = 0,
    so a nonzero nu flags an inconsistent evaluation.  A point whose jet,
    phi > 0 guard, mu or nu fails raises its error, the first in grid
    order; so does a non-finite phi^2 before the first point with a
    nonzero mu, where the test stops.
    """
    _require_grid(grid)
    pts = EvalPoint.stack(grid)
    if pts.n != 2:
        raise GeometryError(f"Riemannian test requires n = 2, got n = {pts.n}")
    return riemannian_from_jets(GridJets.evaluate(phi, pts.r, pts.s, np.arange(len(grid))), pts)


def riemannian_from_jets(jets: GridJets, p: EvalPoint) -> bool:
    """``riemannian_test`` at the surface points p, from phi's jets there."""
    errors = {}
    with np.errstate(all="ignore"):
        ps = _positive_scalars(jets.rows(errors), p, errors)
        mu, nu = _mu(ps, p.s), _nu(ps)
        fail_nonfinite(errors, {"mu": mu, "nu": nu})
        raise_first(errors)
        fail_nonfinite(errors, {"phi^2": ps.phi * ps.phi})
        scale = RIEMANNIAN_TOL * np.maximum(1.0, ps.phi * ps.phi)
        not_riemannian = first_true(np.abs(mu) >= scale)
        inconsistent = first_true(np.abs(nu) >= scale)
    # the mu test stops at the first point with a nonzero mu
    raise_first(errors, not_riemannian)
    if not_riemannian is not None:
        return False
    if inconsistent is not None:
        raise GeometryError(
            f"mu vanishes on the grid but nu = {nu[inconsistent].item()} does not; "
            "inconsistent evaluation"
        )
    return True
