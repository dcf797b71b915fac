"""Berwald frame and main scalar of spherically symmetric Finsler surfaces (n = 2,
positive-definite branch), at one point or a batch (see ``geometry``), from phi's
``PhiScalars`` and the metric pack built from them."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import (
    EvalPoint,
    GeometryError,
    MetricPack,
    PhiScalars,
    _ell_lo,
    _n_lo,
    cartan_pack,
    lift,
)
from .jet import batched, fail_where


class BerwaldFrame(NamedTuple):
    ell_lo: np.ndarray  # l_i = dF/dy^i
    ell_hi: np.ndarray  # l^i = y^i / F
    n_lo: np.ndarray  # n_j = x_j - (s/u) y_j
    n_hi: np.ndarray  # n^i = g^{ij} n_j
    a: float  # normalization sqrt(phi D / (r^2 - s^2))
    m_lo: np.ndarray  # m_i = a n_i
    m_hi: np.ndarray  # m^i = a n^i


@batched
def berwald_frame(ps: PhiScalars, p: EvalPoint, mp: MetricPack, *, errors: dict) -> BerwaldFrame:
    """The orthonormal pair (l, m) at the surface points p, from phi's scalars ps
    and the metric pack mp there.

    a(r, s) = sqrt(phi (phi - s phi_s + (r^2-s^2) phi_ss) / (r^2 - s^2)),
    n^i = rho0 n^i_euclid + ((r^2-s^2)/u)(rho2 y^i + u rho3 x^i).
    A point fails where the radicand of a is not positive.
    """
    if p.n != 2:
        raise GeometryError(f"Berwald frame requires n = 2, got n = {p.n}")
    radicand = ps.phi * ps.d / p.w
    fail_where(
        radicand <= 0,
        errors,
        lambda v: GeometryError(
            f"a(r, s) radicand {v} is not positive (degenerate or wrong-signature metric)"
        ),
        radicand,
    )
    a = np.sqrt(radicand)
    n_lo, u = _n_lo(p), p.u
    n_hi = lift(mp.rho0) * n_lo + lift(p.w / u) * (lift(mp.rho2) * p.y + lift(u * mp.rho3) * p.x)
    return BerwaldFrame(
        ell_lo=_ell_lo(ps, p),
        ell_hi=p.y / lift(mp.F),
        n_lo=n_lo,
        n_hi=n_hi,
        a=a,
        m_lo=lift(a) * n_lo,
        m_hi=lift(a) * n_hi,
    )


class MainScalarPack(NamedTuple):
    A: float  # rho0 + s rho2 + r^2 rho3
    B: float  # rho2 + s rho3
    I: float  # closed-form route
    I_direct: float  # F C_ijk m^i m^j m^k
    frame: BerwaldFrame  # the frame both routes used
    cartan: np.ndarray  # the Cartan tensor C_ijk the direct route used


@batched
def main_scalar(ps: PhiScalars, p: EvalPoint, mp: MetricPack, *, errors: dict) -> MainScalarPack:
    """Main scalar of the surface by two independent routes, from phi's scalars ps
    and the metric pack mp at the points p.

    Closed form:
        I = (phi/2) ( 3 mu / a * ((m^1)^2 + (m^2)^2)
                      - 3 a mu (r^2-s^2)^2 B^2 + nu / a^3 )
    Direct: contraction of the full Cartan tensor with m^i.
    Points fail as in ``berwald_frame``.
    """
    frame = berwald_frame(ps, p, mp, errors=errors)
    C = cartan_pack(ps, p)
    A = mp.rho0 + p.s * mp.rho2 + p.r * p.r * mp.rho3
    B = mp.rho2 + p.s * mp.rho3
    m = frame.m_hi
    msq = (m * m).sum(-1)
    a = frame.a
    I = (ps.phi / 2.0) * (
        3 * ps.mu / a * msq - 3 * a * ps.mu * p.w * p.w * B * B + ps.nu / (a * a * a)
    )
    I_direct = mp.F * np.einsum("...ijk,...i,...j,...k->...", C, m, m, m)
    return MainScalarPack(A=A, B=B, I=I, I_direct=I_direct, frame=frame, cartan=C)
