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
    PhiScalars,
    _ell_lo,
    _positive_scalars,
    lift,
    outer,
    phi_scalars,
)
from .jet import Jet, batched, cell_rows, eval_jet, fail_nonfinite, fail_where, jet_reciprocal


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
    point: EvalPoint  # the points of the pack

    @property
    def G(self) -> np.ndarray:
        """The spray coefficients G^h = u P y^h + u^2 Q x^h, shape (*batch, n),
        formed on each read."""
        u, x, y = self.point.u, self.point.x, self.point.y
        return lift(u * self.P) * y + lift(u * u * self.Q) * x

    @property
    def N(self) -> np.ndarray:
        """The connection coefficients G^i_j, shape (*batch, n, n), i row, formed on each read:

        G^i_j = u P d^i_j + P_s x_j y^i + (1/u)(P - s P_s) y_j y^i
                + u Q_s x^i x_j + (2Q - s Q_s) x^i y_j
        """
        p, P, P_s, Q_s = self.point, self.P, self.P_s, self.Q_s
        u, s, x, y = p.u, p.s, p.x, p.y
        return (
            lift(u * P, 2) * np.eye(p.n)
            + lift(P_s, 2) * outer(y, x)
            + lift((P - s * P_s) / u, 2) * outer(y, y)
            + lift(u * Q_s, 2) * outer(x, x)
            + lift(2 * self.Q - s * Q_s, 2) * outer(x, y)
        )


# the partials (a, b) the spray reads of phi, P and Q, in SprayPack's order: value, r, s, ss, rs
_PARTIALS = ((0, 0), (1, 0), (0, 1), (0, 2), (1, 1))


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
    phi, phi_r, phi_s, phi_ss, phi_rs = jet.derivatives(_PARTIALS, 2)
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
    # the reciprocals of 2r denom, phi and 2r phi as one batch of three blocks:
    # a point keeps its first error, in that order
    two_r, size = 2.0 * rj, phi2.size
    stack = Jet(np.stack([(two_r * denom).c, phi.c, (two_r * phi).c], axis=2))
    inv = jet_reciprocal(stack, errors=(failed := {}))
    for k, exc in sorted(failed.items(), key=lambda item: item[0] // size):
        errors.setdefault(k % size, exc)
    inv_denom, inv_phi, inv_two_r_phi = (Jet(inv.c[:, :, k]) for k in range(3))
    q = (-phi_r + sj * phi_rs + rj * phi_ss) * inv_denom
    p = -(q * inv_phi) * (sj * phi + w * phi_s)
    p = p + (sj * phi_r + rj * phi_s) * inv_two_r_phi
    return p, q


def spray_half(jets: Jet, cells: tuple, jet: Jet, p: EvalPoint, errors: dict) -> tuple:
    """(ps, sp): phi's guarded scalars and spray at the points p, from phi's jets
    at cells (r, s, index: each point's cell, None where each point is its own)
    and phi's jets jet at the points; errors holds their jet failures.  P and Q
    are taken once per cell.  First failure wins: jet, phi <= 0, P/Q."""
    r, s, index = cells
    ps = _positive_scalars(jet, p, errors)  # the one read of phi's scalars; the packs take them
    pq = pq_jets(jets, r, s, errors=(pq_errors := {}))
    return ps, spray_pack_from_jets(*(cell_rows(j, pq_errors, index, errors) for j in pq), p)


def _own_cells(p: EvalPoint) -> tuple:
    """The cells of ``spray_half`` where each point of p is its own cell."""
    return p.r, p.s, None


@batched
def pq_from_phi(jet: Jet, p: EvalPoint, *, errors: dict) -> SprayPack:
    """Spray data of the metric F = u phi at the points p.  A point fails
    where phi <= 0 and where its P/Q jets fail."""
    return spray_half(jet, _own_cells(p), jet, p, errors)[1]


@batched
def candidate_spray(
    p_expr: Node, q_expr: Node, cells: tuple, p: EvalPoint, *, errors: dict
) -> SprayPack:
    """The spray of a candidate (P, Q) at the points p, from degree-2 jets at the
    cells of ``spray_half``.  A point keeps its first failure: P's jet, Q's jet."""
    r, s, index = cells
    pq = []
    for e in (p_expr, q_expr):
        jets = eval_jet(e, r, s, degree=2, errors=(cell_errors := {}))
        pq.append(cell_rows(jets, cell_errors, index, errors))
    return spray_pack_from_jets(*pq, p)


def spray_pack_from_jets(pj: Jet, qj: Jet, p: EvalPoint) -> SprayPack:
    """The spray pack of the P/Q jets at the points p."""
    return SprayPack(*(j.partial(a, b) for j in (pj, qj) for a, b in _PARTIALS), p)


def horizontal_residual(jet: Jet | PhiScalars, sp: SprayPack, p: EvalPoint) -> np.ndarray:
    """The n residuals dF/dx^j - G^i_j dF/dy^i (the d_h F = 0 test).

    dF/dx^j = u (phi_r x_j / r + phi_s y_j / u)
    dF/dy^i = (phi/u) y_i + phi_s (x_i - (s/u) y_i)
    """
    return _horizontal_residual(phi_scalars(jet, p.r, p.s), sp.N, p)


def _horizontal_residual(ps: PhiScalars, N: np.ndarray, p: EvalPoint) -> np.ndarray:
    """``horizontal_residual`` from phi's scalars and the connection N."""
    u, r = lift(p.u), lift(p.r)
    dF_dx = u * (lift(ps.phi_r) * p.x / r + lift(ps.phi_s) * p.y / u)
    return dF_dx - np.einsum("...ij,...i->...j", N, _ell_lo(ps, p))


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
    return metrizability_from_spray(jet, candidate_spray(p_expr, q_expr, _own_cells(p), p), p)
