"""Berwald frame, main scalar and the Riemannian criterion for
spherically symmetric Finsler surfaces (n = 2, positive-definite branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Node
from .geometry import (
    EvalPoint,
    GeometryError,
    MetricPack,
    _ell_lo,
    _n_lo,
    _require_grid,
    cartan_pack,
    metric_pack,
    phi_scalars,
)
from .jet import GridJets, Jet

RIEMANNIAN_TOL = 1e-8


@dataclass(frozen=True)
class BerwaldFrame:
    ell_lo: np.ndarray  # l_i = dF/dy^i
    ell_hi: np.ndarray  # l^i = y^i / F
    n_lo: np.ndarray  # n_j = x_j - (s/u) y_j
    n_hi: np.ndarray  # n^i = g^{ij} n_j
    a: float  # normalization sqrt(phi D / (r^2 - s^2))
    m_lo: np.ndarray  # m_i = a n_i
    m_hi: np.ndarray  # m^i = a n^i


def berwald_frame(jet: Jet, p: EvalPoint) -> BerwaldFrame:
    """The orthonormal pair (l, m) at a surface point.

    a(r, s) = sqrt(phi (phi - s phi_s + (r^2-s^2) phi_ss) / (r^2 - s^2)),
    n^i = rho0 n^i_euclid + ((r^2-s^2)/u)(rho2 y^i + u rho3 x^i).
    """
    return _frame(jet, p)[0]


def _frame(jet: Jet, p: EvalPoint) -> tuple[BerwaldFrame, MetricPack]:
    """The Berwald frame and the metric pack it was built from."""
    if p.n != 2:
        raise GeometryError(f"Berwald frame requires n = 2, got n = {p.n}")
    ps = phi_scalars(jet)
    r, s, u = p.r, p.s, p.u
    w = r * r - s * s
    d = ps.phi - s * ps.phi_s + w * ps.phi_ss
    radicand = ps.phi * d / w
    if radicand <= 0:
        raise GeometryError(
            f"a(r, s) radicand {radicand} is not positive "
            "(degenerate or wrong-signature metric)"
        )
    a = math.sqrt(radicand)

    mp = metric_pack(jet, p)
    n_lo = _n_lo(p)
    n_hi = mp.rho0 * n_lo + (w / u) * (mp.rho2 * p.y + u * mp.rho3 * p.x)
    frame = BerwaldFrame(
        ell_lo=_ell_lo(ps, p),
        ell_hi=p.y / mp.F,
        n_lo=n_lo,
        n_hi=n_hi,
        a=a,
        m_lo=a * n_lo,
        m_hi=a * n_hi,
    )
    return frame, mp


@dataclass(frozen=True)
class MainScalarPack:
    A: float  # rho0 + s rho2 + r^2 rho3
    B: float  # rho2 + s rho3
    I: float  # closed-form route
    I_direct: float  # F C_ijk m^i m^j m^k
    frame: BerwaldFrame  # the frame both routes used


def main_scalar(jet: Jet, p: EvalPoint) -> MainScalarPack:
    """Main scalar of the surface by two independent routes.

    Closed form:
        I = (phi/2) ( 3 mu / a * ((m^1)^2 + (m^2)^2)
                      - 3 a mu (r^2-s^2)^2 B^2 + nu / a^3 )
    Direct: contraction of the full Cartan tensor with m^i.
    """
    frame, mp = _frame(jet, p)
    cp = cartan_pack(jet, p)
    ps = phi_scalars(jet)
    w = p.r**2 - p.s**2
    A = mp.rho0 + p.s * mp.rho2 + p.r**2 * mp.rho3
    B = mp.rho2 + p.s * mp.rho3
    msq = float(frame.m_hi @ frame.m_hi)
    a = frame.a
    I = (ps.phi / 2.0) * (3 * cp.mu / a * msq - 3 * a * cp.mu * w * w * B * B + cp.nu / a**3)
    I_direct = mp.F * float(np.einsum("ijk,i,j,k->", cp.C, frame.m_hi, frame.m_hi, frame.m_hi))
    return MainScalarPack(A=A, B=B, I=I, I_direct=I_direct, frame=frame)


def riemannian_test(
    phi: Node, grid: list[EvalPoint], tol: float = RIEMANNIAN_TOL
) -> bool:
    """True iff mu vanishes across the grid (the Riemannian criterion).

    When mu vanishes, nu is checked too: d(mu)/ds = -s nu forces nu = 0,
    so a nonzero nu flags an inconsistent evaluation.
    """
    _require_grid(grid)
    for p in grid:
        if p.n != 2:
            raise GeometryError(f"Riemannian test requires n = 2, got n = {p.n}")
    jets = GridJets.evaluate(phi, grid)
    packs = []
    for p in grid:
        jet = jets.at(p)
        ps = phi_scalars(jet)
        cp = cartan_pack(jet, p)
        packs.append((ps, cp))
    if any(abs(cp.mu) >= tol * max(1.0, ps.phi**2) for ps, cp in packs):
        return False
    for ps, cp in packs:
        if abs(cp.nu) >= tol * max(1.0, ps.phi**2):
            raise GeometryError(
                f"mu vanishes on the grid but nu = {cp.nu} does not; "
                "inconsistent evaluation"
            )
    return True
