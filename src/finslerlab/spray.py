"""Geodesic spray data P, Q, the nonlinear connection, and the
metrizability residuals, at one point or a batch (see ``geometry``).

P and Q are built as jet-valued expressions out of the phi jet, so their
partials come from the same truncated-Taylor engine rather than from a
separate symbolic differentiation of the closed formulas.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import Node
from .geometry import (
    EvalPoint,
    GeometryError,
    _ell_lo,
    _positive_scalars,
    lift,
    outer,
    phi_scalars,
)
from .jet import GridJets, Jet, batched, eval_jet, fail_nonfinite, fail_where, jet_reciprocal


class SprayPack(NamedTuple):
    P: float
    P_r: float
    P_s: float
    P_ss: float
    P_rs: float
    Q: float
    Q_r: float
    Q_s: float
    Q_ss: float
    Q_rs: float
    G: np.ndarray  # spray coefficients G^h, shape (*batch, n)
    N: np.ndarray  # connection coefficients G^i_j, shape (*batch, n, n), i row


class MetrizabilityResiduals(NamedTuple):
    C1: float
    C2: float


@batched
def pq_jets(jet: Jet, r, s, *, errors: dict) -> tuple[Jet, Jet]:
    """Jets of P and Q at the points (r, s) from the phi jet.

    Q = (1/2r) (-phi_r + s phi_rs + r phi_ss) / (phi - s phi_s + (r^2-s^2) phi_ss)
    P = -(Q/phi) (s phi + (r^2-s^2) phi_s) + (1/2 r phi)(s phi_r + r phi_s)

    P and Q are degree-2 jets, which hold every P/Q partial the curvature
    formulas consume, built from phi's partials cut to degree 2.  They
    carry the bits of degree-4 P/Q cut to degree 2, except where a dropped
    Taylor term of degree 3 or 4 (such as 24/phi^5) overflows and would
    have made them NaN.  r and s are floats or arrays matching the jet's
    batch; per-point errors behave as in ``eval_jet``.
    """
    phi_r, phi_s = jet.d_r(), jet.d_s()
    phi_ss, phi_rs = phi_s.d_s().cut(2), phi_r.d_s().cut(2)
    phi, phi_r, phi_s = jet.cut(2), phi_r.cut(2), phi_s.cut(2)
    rj, sj = Jet.variable("r", r, 2), Jet.variable("s", s, 2)
    w = rj * rj - sj * sj
    denom = phi - sj * phi_s + w * phi_ss
    phi2 = phi.c[0, 0] * phi.c[0, 0]
    fail_nonfinite(errors, {"phi^2": phi2})
    fail_where(
        np.abs(denom.c[0, 0]) < 1e-12 * np.maximum(1.0, phi2),
        errors,
        lambda: GeometryError(
            "degenerate denominator phi - s phi_s + (r^2 - s^2) phi_ss ~ 0 "
            "(TYPE_B degeneracy suspected)"
        ),
    )
    q = (-phi_r + sj * phi_rs + rj * phi_ss) * jet_reciprocal(2.0 * rj * denom, errors=errors)
    p = -(q * jet_reciprocal(phi, errors=errors)) * (sj * phi + w * phi_s)
    p = p + (sj * phi_r + rj * phi_s) * jet_reciprocal(2.0 * rj * phi, errors=errors)
    return p, q


@batched
def pq_from_phi(jet: Jet, p: EvalPoint, *, errors: dict) -> SprayPack:
    """Spray data of the metric F = u phi at the points p.  A point fails
    where phi <= 0 and where its P/Q jets fail."""
    _positive_scalars(jet, p, errors)
    pj, qj = pq_jets(jet, p.r, p.s, errors=errors)
    return spray_pack_from_jets(pj, qj, p)


def _grid_pq(phi: GridJets) -> tuple[GridJets, GridJets]:
    """The P and Q jets on the columns of phi's jets, from one batched
    ``pq_jets``; a column whose phi jet failed keeps that error."""
    errors = dict(phi.errors)
    pj, qj = pq_jets(phi.jets, phi.r, phi.s, errors=errors)
    return phi.with_jets(pj, errors), phi.with_jets(qj, errors)


def spray_pack_from_jets(pj: Jet, qj: Jet, p: EvalPoint) -> SprayPack:
    """Assemble G^h and G^i_j from P/Q jets at p.

    G^h  = u P y^h + u^2 Q x^h
    G^i_j = u P d^i_j + P_s x_j y^i + (1/u)(P - s P_s) y_j y^i
            + u Q_s x^i x_j + (2Q - s Q_s) x^i y_j
    """
    P, P_s = pj.partial(0, 0), pj.partial(0, 1)
    Q, Q_s = qj.partial(0, 0), qj.partial(0, 1)
    u, s = p.u, p.s
    x, y = p.x, p.y
    G = lift(u * P) * y + lift(u * u * Q) * x
    N = (
        lift(u * P, 2) * np.eye(p.n)
        + lift(P_s, 2) * outer(y, x)
        + lift((P - s * P_s) / u, 2) * outer(y, y)
        + lift(u * Q_s, 2) * outer(x, x)
        + lift(2 * Q - s * Q_s, 2) * outer(x, y)
    )
    return SprayPack(
        P=P,
        P_r=pj.partial(1, 0),
        P_s=P_s,
        P_ss=pj.partial(0, 2),
        P_rs=pj.partial(1, 1),
        Q=Q,
        Q_r=qj.partial(1, 0),
        Q_s=Q_s,
        Q_ss=qj.partial(0, 2),
        Q_rs=qj.partial(1, 1),
        G=G,
        N=N,
    )


def horizontal_residual(jet: Jet, sp: SprayPack, p: EvalPoint) -> np.ndarray:
    """The n residuals dF/dx^j - G^i_j dF/dy^i (the d_h F = 0 test).

    dF/dx^j = u (phi_r x_j / r + phi_s y_j / u)
    dF/dy^i = (phi/u) y_i + phi_s (x_i - (s/u) y_i)
    """
    ps = phi_scalars(jet)
    u, r = lift(p.u), lift(p.r)
    dF_dx = u * (lift(ps.phi_r) * p.x / r + lift(ps.phi_s) * p.y / u)
    return dF_dx - np.einsum("...ij,...i->...j", sp.N, _ell_lo(ps, p))


def metrizability_from_spray(jet: Jet, sp: SprayPack, p: EvalPoint) -> MetrizabilityResiduals:
    """C1/C2 residuals of the spray pack sp against phi, a jet of degree >= 1.

    C1 = (1 + sP - (r^2-s^2)(2Q - s Q_s)) phi_s
         + (s P_s - 2P - s(2Q - s Q_s)) phi
    C2 = phi_r / r - (P + Q_s (r^2-s^2)) phi_s - (P_s + s Q_s) phi
    """
    phi, phi_r, phi_s = jet.partial(0, 0), jet.partial(1, 0), jet.partial(0, 1)
    r, s = p.r, p.s
    w = r * r - s * s
    two_q = 2 * sp.Q - s * sp.Q_s
    c1 = (1 + s * sp.P - w * two_q) * phi_s + (s * sp.P_s - 2 * sp.P - s * two_q) * phi
    c2 = phi_r / r - (sp.P + sp.Q_s * w) * phi_s - (sp.P_s + s * sp.Q_s) * phi
    return MetrizabilityResiduals(C1=c1, C2=c2)


def metrizability_residuals(
    jet: Jet, p_expr: Node, q_expr: Node, p: EvalPoint
) -> MetrizabilityResiduals:
    """C1/C2 residuals of a candidate spray (P, Q), as degree-2 jets, against phi."""
    sp = spray_pack_from_jets(*(eval_jet(e, p.r, p.s, degree=2) for e in (p_expr, q_expr)), p)
    return metrizability_from_spray(jet, sp, p)
