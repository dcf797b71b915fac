"""Fundamental tensor, Cartan tensor and degeneracy screening.

All objects are assembled at a single evaluation point from the degree-4
Taylor jet of phi.  The carrier metric is the Euclidean one, so raised and
lowered indices coincide numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .expr import Node
from .jet import GridJets, Jet

# Points closer to the |s| = r cone than this relative margin are rejected;
# the inverse-metric scalars blow up there.
BOUNDARY_MARGIN = 1e-6

DEGENERACY_TOL = 1e-8


class GeometryError(ValueError):
    """Precondition violation of a geometric operation."""


@dataclass(frozen=True)
class EvalPoint:
    """A concrete (x, y) realization of the scalars (r, s, u) in dim n."""

    n: int
    r: float
    s: float
    u: float
    x: np.ndarray
    y: np.ndarray


def canonical_point(
    n: int, r: float, s: float, u: float, rotation: np.ndarray | None = None
) -> EvalPoint:
    """Embed (r, s, u) in the x-y coordinate 2-plane.

    x = (r, 0, ..., 0), y = (s u / r, (u / r) sqrt(r^2 - s^2), 0, ..., 0),
    so that |x| = r, |y| = u and <x, y> = s u exactly.  An optional
    orthogonal ``rotation`` is applied to both vectors; the scalars are
    rotation invariants.
    """
    if n < 2:
        raise GeometryError(f"dimension must be >= 2, got {n}")
    if r <= 0 or u <= 0:
        raise GeometryError(f"r and u must be positive, got r={r}, u={u}")
    if r - abs(s) < BOUNDARY_MARGIN * r:
        raise GeometryError(f"|s| = {abs(s)} too close to r = {r} (|s| < r required)")
    x = np.zeros(n)
    y = np.zeros(n)
    x[0] = r
    y[0] = s * u / r
    y[1] = (u / r) * math.sqrt(r * r - s * s)
    if rotation is not None:
        x = rotation @ x
        y = rotation @ y
    return EvalPoint(n=n, r=r, s=s, u=u, x=x, y=y)


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform (Haar) random orthogonal matrix."""
    q, rr = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(rr))


@dataclass(frozen=True)
class PhiScalars:
    """phi and its partials at the base point, read off a jet."""

    phi: float
    phi_r: float
    phi_s: float
    phi_ss: float
    phi_rs: float
    phi_sss: float


def phi_scalars(jet: Jet) -> PhiScalars:
    return PhiScalars(
        phi=jet.partial(0, 0),
        phi_r=jet.partial(1, 0),
        phi_s=jet.partial(0, 1),
        phi_ss=jet.partial(0, 2),
        phi_rs=jet.partial(1, 1),
        phi_sss=jet.partial(0, 3),
    )


def _positive_scalars(jet: Jet, p: EvalPoint) -> PhiScalars:
    """phi_scalars, rejecting a point where phi <= 0 (F is not a norm there)."""
    ps = phi_scalars(jet)
    if ps.phi <= 0:
        raise GeometryError(f"phi = {ps.phi} is not positive at (r, s) = ({p.r}, {p.s})")
    return ps


def _mu(ps: PhiScalars, s: float) -> float:
    """mu = phi phi_s - s phi_s^2 - s phi phi_ss."""
    return ps.phi * ps.phi_s - s * ps.phi_s**2 - s * ps.phi * ps.phi_ss


def _n_lo(p: EvalPoint) -> np.ndarray:
    """n_j = x_j - (s/u) y_j."""
    return p.x - (p.s / p.u) * p.y


def _ell_lo(ps: PhiScalars, p: EvalPoint) -> np.ndarray:
    """dF/dy^i = (phi/u) y_i + phi_s n_i."""
    return (ps.phi / p.u) * p.y + ps.phi_s * _n_lo(p)


def _require_grid(grid: list[EvalPoint]) -> None:
    if len(grid) < 8:
        raise GeometryError(f"grid of >= 8 points required, got {len(grid)}")


@dataclass(frozen=True)
class MetricPack:
    sigma0: float
    sigma1: float
    sigma2: float
    sigma3: float
    rho0: float
    rho1: float
    rho2: float
    rho3: float
    g: np.ndarray
    ginv: np.ndarray
    det_direct: float
    det_formula: float
    F: float
    regular: tuple[bool, bool]


def metric_pack(jet: Jet, p: EvalPoint) -> MetricPack:
    """Fundamental tensor, its inverse, and both determinant routes.

    g_jk  = sigma0 d_jk + sigma1 x_j x_k + (sigma2/u)(x_j y_k + x_k y_j)
            + (sigma3/u^2) y_j y_k
    g^jk  = rho0 d_jk + (rho1/u^2) y^j y^k + (rho2/u)(x^j y^k + x^k y^j)
            + rho3 x^j x^k
    det   = phi^(n+1) (phi - s phi_s)^(n-2) (phi - s phi_s + (r^2-s^2) phi_ss)
    """
    ps = _positive_scalars(jet, p)
    phi, phi_s, phi_ss = ps.phi, ps.phi_s, ps.phi_ss
    r, s, u, n = p.r, p.s, p.u, p.n
    w = r * r - s * s
    t = phi - s * phi_s  # first regularity factor
    d = t + w * phi_ss  # second regularity factor
    mu = _mu(ps, s)

    sigma0 = phi * t
    sigma1 = phi_s**2 + phi * phi_ss
    sigma2 = t * phi_s - s * phi * phi_ss
    sigma3 = s * s * phi * phi_ss - s * t * phi_s

    if t == 0.0 or d == 0.0:
        # degenerate metric: no inverse, the rho scalars are undefined
        rho0 = rho1 = rho2 = rho3 = math.nan
    else:
        rho0 = 1.0 / (phi * t)
        rho1 = (s * phi + w * phi_s) * mu / (phi**3 * t * d)
        rho2 = -mu / (phi**2 * t * d)
        rho3 = -phi_ss / (phi * t * d)

    eye = np.eye(n)
    xx = np.outer(p.x, p.x)
    yy = np.outer(p.y, p.y)
    xy = np.outer(p.x, p.y) + np.outer(p.y, p.x)
    g = sigma0 * eye + sigma1 * xx + (sigma2 / u) * xy + (sigma3 / u**2) * yy
    ginv = rho0 * eye + (rho1 / u**2) * yy + (rho2 / u) * xy + rho3 * xx

    return MetricPack(
        sigma0=sigma0,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
        rho0=rho0,
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        g=g,
        ginv=ginv,
        det_direct=float(np.linalg.det(g)),
        det_formula=phi ** (n + 1) * t ** (n - 2) * d,
        F=u * phi,
        regular=(t > 0, d > 0),
    )


@dataclass(frozen=True)
class CartanPack:
    mu: float
    nu: float
    C: np.ndarray  # (n, n, n), fully symmetric


def _sym_vd(v: np.ndarray, n: int) -> np.ndarray:
    """v_i d_jk + v_j d_ik + v_k d_ij."""
    eye = np.eye(n)
    return (
        np.einsum("i,jk->ijk", v, eye)
        + np.einsum("j,ik->ijk", v, eye)
        + np.einsum("k,ij->ijk", v, eye)
    )


def _sym_aab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i a_j b_k + a_j a_k b_i + a_i a_k b_j."""
    aa = np.outer(a, a)
    return (
        np.einsum("ij,k->ijk", aa, b)
        + np.einsum("jk,i->ijk", aa, b)
        + np.einsum("ik,j->ijk", aa, b)
    )


def cartan_pack(jet: Jet, p: EvalPoint) -> CartanPack:
    """Cartan tensor components and the two scalars driving them.

    mu = phi phi_s - s phi_s^2 - s phi phi_ss,
    nu = 3 phi_s phi_ss + phi phi_sss.
    """
    ps = _positive_scalars(jet, p)
    s, u, n = p.s, p.u, p.n
    mu = _mu(ps, s)
    nu = 3.0 * ps.phi_s * ps.phi_ss + ps.phi * ps.phi_sss
    x, y = p.x, p.y
    C = (
        (mu / (2 * u)) * _sym_vd(x, n)
        + (nu / (2 * u)) * np.einsum("i,j,k->ijk", x, x, x)
        - (s * mu / (2 * u**2)) * _sym_vd(y, n)
        + ((3 * s * mu - s**3 * nu) / (2 * u**4)) * np.einsum("i,j,k->ijk", y, y, y)
        + ((s * s * nu - mu) / (2 * u**3)) * _sym_aab(y, x)
        - (s * nu / (2 * u**2)) * _sym_aab(x, y)
    )
    return CartanPack(mu=mu, nu=nu, C=C)


class Degeneracy(enum.Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE_TYPE_A = "degenerate_type_a"
    DEGENERATE_TYPE_B = "degenerate_type_b"


def degeneracy_classify(
    phi: Node, grid: list[EvalPoint], tol: float = DEGENERACY_TOL
) -> Degeneracy:
    """Screen phi for the two degenerate families.

    TYPE_A: phi - s phi_s vanishes on the whole grid (phi = f(r^2) s).
    TYPE_B: phi - s phi_s + (r^2 - s^2) phi_ss vanishes on the whole grid
            (phi = f1(r^2) s + f2(r^2) sqrt(r^2 - s^2)).
    Either family forces det(g) = 0.
    """
    _require_grid(grid)
    jets = GridJets.evaluate(phi, grid)
    type_a = True
    type_b = True
    for p in grid:
        ps = phi_scalars(jets.at(p))
        w = p.r**2 - p.s**2
        scale = max(1.0, ps.phi**2)
        t = ps.phi - p.s * ps.phi_s
        if abs(t) >= tol * scale:
            type_a = False
        if abs(t + w * ps.phi_ss) >= tol * scale:
            type_b = False
        if not (type_a or type_b):
            return Degeneracy.NONDEGENERATE
    if type_a:
        return Degeneracy.DEGENERATE_TYPE_A
    return Degeneracy.DEGENERATE_TYPE_B
