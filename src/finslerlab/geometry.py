"""The embedding of (r, s, u), phi's scalars, and the fundamental and Cartan tensors.

All objects are assembled from a Taylor jet of phi of degree >= 3, at one
evaluation point or at a batch of them: ``phi_scalars`` reads phi's partials
off the jet once and guards phi > 0, and the pack functions take those
``PhiScalars`` and a batched ``EvalPoint`` and return one row per point,
scalars of shape ``batch`` and tensors of shape ``(*batch, n, ..., n)``; a
one-point call is a batch of shape ().
Rows never mix, and numpy sums a contraction (``np.einsum``, ``@``) of one
row in the same order whether or not the row is part of a batch, so each
row equals the one-point result.  The carrier metric is the Euclidean one,
so raised and lowered indices coincide numerically.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .jet import Jet, batched, fail_where

# Points closer to the |s| = r cone than this relative margin are rejected;
# the inverse-metric scalars blow up there.
BOUNDARY_MARGIN = 1e-6


class GeometryError(ValueError):
    """Precondition violation of a geometric operation."""


class EvalPoint(NamedTuple):
    """A concrete (x, y) realization of the scalars (r, s, u) in dim n.

    One point has float r, s, u and x, y of shape (n,); a batch has r, s, u
    of shape (N,) and x, y of shape (N, n)."""

    n: int
    r: float | np.ndarray
    s: float | np.ndarray
    u: float | np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def w(self) -> float | np.ndarray:
        """r^2 - s^2, formed on each read."""
        return self.r * self.r - self.s * self.s


@batched
def canonical_point(
    n: int, r, s, u, rotation: np.ndarray | None = None, *, errors: dict
) -> EvalPoint:
    """Embed (r, s, u) in the x-y coordinate 2-plane, at one point (floats)
    or at a batch (arrays of one shape).

    x = (r, 0, ..., 0), y = (s u / r, (u / r) sqrt(r^2 - s^2), 0, ..., 0),
    so that |x| = r, |y| = u and <x, y> = s u exactly.  An optional
    orthogonal ``rotation`` is applied to both vectors; the scalars are
    rotation invariants.  A point fails where r or u is not positive or
    |s| is too close to r.
    """
    if n < 2:
        raise GeometryError(f"dimension must be >= 2, got {n}")
    r, s, u = (np.asarray(v, dtype=float) for v in (r, s, u))
    fail_where(
        (r <= 0) | (u <= 0),
        errors,
        lambda r, u: GeometryError(f"r and u must be positive, got r={r}, u={u}"),
        r, u,
    )
    fail_where(
        r - np.abs(s) < BOUNDARY_MARGIN * r,
        errors,
        lambda a, r: GeometryError(f"|s| = {a} too close to r = {r} (|s| < r required)"),
        np.abs(s), r,
    )
    x, y = np.zeros((2, *r.shape, n))
    x[..., 0] = r
    y[..., 0] = s * u / r
    y[..., 1] = (u / r) * np.sqrt(r * r - s * s)
    if rotation is not None:
        # one matrix-vector product per point, a point's alone or a batch's
        # stacked, so each row equals the one-point call bit for bit
        x = (rotation @ x[..., None])[..., 0]
        y = (rotation @ y[..., None])[..., 0]
    return EvalPoint(n=n, r=r[()], s=s[()], u=u[()], x=x, y=y)


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform (Haar) random orthogonal matrix."""
    q, rr = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(rr))


class PhiScalars(NamedTuple):
    """phi and its partials at the base points (r, s), read off a jet, and
    the paper's factors of them, each formed once by ``phi_scalars``."""

    phi: float
    phi_r: float
    phi_s: float
    phi_ss: float
    t: float  # phi - s phi_s, the first regularity factor
    d: float  # t + w phi_ss, the second (D); det g = phi^(n+1) t^(n-2) d
    mu: float  # phi phi_s - s phi_s^2 - s phi phi_ss, with nu the Cartan scalars
    nu: float  # 3 phi_s phi_ss + phi phi_sss


# The (a, b) of phi, phi_r, phi_s, phi_ss and phi_sss as partials of the jet, and a! b!.
_PHI_A, _PHI_B = [0, 1, 0, 0, 0], [0, 0, 1, 2, 3]
_PHI_W = np.array([1.0, 1.0, 1.0, 2.0, 6.0])


@batched
def phi_scalars(jet: Jet, p: EvalPoint, *, errors: dict) -> PhiScalars:
    """The PhiScalars of phi's jet at the points p: the one read of phi's partials
    and the one phi > 0 guard, failing the points where phi <= 0 (F is not a norm
    there)."""
    if jet.degree < 3:
        raise ValueError(f"phi_scalars reads partials up to degree 3, jet has degree {jet.degree}")
    c = jet.c[_PHI_A, _PHI_B]  # the five coefficients, in one gather
    phi, phi_r, phi_s, phi_ss, phi_sss = c * lift(_PHI_W, c.ndim - 1)
    s, w = p.s, p.w
    t = phi - s * phi_s
    d = t + w * phi_ss
    mu = phi * phi_s - s * (phi_s * phi_s) - s * phi * phi_ss
    nu = 3.0 * phi_s * phi_ss + phi * phi_sss
    ps = PhiScalars(phi, phi_r, phi_s, phi_ss, t, d, mu, nu)
    _fail_nonpositive(ps, p, errors)
    return ps


def _fail_nonpositive(ps: PhiScalars, p: EvalPoint, errors: dict) -> None:
    """The phi > 0 guard: a GeometryError at each point of p where phi <= 0."""
    fail_where(
        ps.phi <= 0,
        errors,
        lambda phi, r, s: GeometryError(f"phi = {phi} is not positive at (r, s) = ({r}, {s})"),
        ps.phi, p.r, p.s,
    )


# -- column helpers ----------------------------------------------------------
# Shared by the pack layers: per-point factors, outer products and residual
# scales over a batch of points (see the module docstring).


def lift(a, k: int = 1):
    """a with k trailing unit axes: a per-point factor of a vector (k = 1),
    a matrix (k = 2) or a 3-tensor (k = 3)."""
    return np.asarray(a)[(..., *(None,) * k)]


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_j per point."""
    return a[..., :, None] * b[..., None, :]


def residual_scale(*values):
    """max(1, |v|) over the values, per point."""
    return functools.reduce(np.maximum, map(np.abs, values), 1.0)


def _ipow(a, k: int):
    """a^k for an integer k >= 0, by repeated multiplication."""
    out = np.ones_like(a)
    for _ in range(k):
        out = out * a
    return out


def _n_lo(p: EvalPoint) -> np.ndarray:
    """n_j = x_j - (s/u) y_j."""
    return p.x - lift(p.s / p.u) * p.y


def _ell_lo(ps: PhiScalars, p: EvalPoint) -> np.ndarray:
    """dF/dy^i = (phi/u) y_i + phi_s n_i."""
    return lift(ps.phi / p.u) * p.y + lift(ps.phi_s) * _n_lo(p)


class MetricPack(NamedTuple):
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


@np.errstate(all="ignore")  # a failing point's values turn NaN or infinite, silently
def metric_pack(ps: PhiScalars, p: EvalPoint) -> MetricPack:
    """Fundamental tensor, its inverse, and both determinant routes, from phi's
    scalars ps at the points p.

    g_jk  = sigma0 d_jk + sigma1 x_j x_k + (sigma2/u)(x_j y_k + x_k y_j)
            + (sigma3/u^2) y_j y_k
    g^jk  = rho0 d_jk + (rho1/u^2) y^j y^k + (rho2/u)(x^j y^k + x^k y^j)
            + rho3 x^j x^k
    det   = phi^(n+1) (phi - s phi_s)^(n-2) (phi - s phi_s + (r^2-s^2) phi_ss)
    """
    phi, phi_s, phi_ss, w, t, d, mu = ps.phi, ps.phi_s, ps.phi_ss, p.w, ps.t, ps.d, ps.mu
    s, u, n = p.s, p.u, p.n

    sigma0 = phi * t
    sigma1 = phi_s * phi_s + phi * phi_ss
    sigma2 = t * phi_s - s * phi * phi_ss
    sigma3 = s * s * phi * phi_ss - s * t * phi_s

    # a degenerate metric has no inverse: its rho scalars are undefined
    undefined = np.where((t == 0.0) | (d == 0.0), math.nan, 1.0)
    rho0 = undefined / (phi * t)
    rho1 = undefined * (s * phi + w * phi_s) * mu / (phi * phi * phi * t * d)
    rho2 = undefined * -mu / (phi * phi * t * d)
    rho3 = undefined * -phi_ss / (phi * t * d)

    eye = np.eye(n)
    xx = outer(p.x, p.x)
    yy = outer(p.y, p.y)
    xy = outer(p.x, p.y) + outer(p.y, p.x)
    g = lift(sigma0, 2) * eye + lift(sigma1, 2) * xx + lift(sigma2 / u, 2) * xy
    g = g + lift(sigma3 / (u * u), 2) * yy
    ginv = lift(rho0, 2) * eye + lift(rho1 / (u * u), 2) * yy + lift(rho2 / u, 2) * xy
    ginv = ginv + lift(rho3, 2) * xx

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
        det_direct=np.linalg.det(g),
        det_formula=_ipow(phi, n + 1) * _ipow(t, n - 2) * d,
        F=u * phi,
        regular=(t > 0, d > 0),
    )


def _cyclic(t: np.ndarray) -> np.ndarray:
    """t_ijk + t_jki + t_kij, summed in that order: the Cartan tensor's bits depend on it."""
    *batch, i, j, k = range(t.ndim)
    return t + t.transpose(*batch, k, i, j) + t.transpose(*batch, j, k, i)


def _cube(a: np.ndarray) -> np.ndarray:
    """a_i a_j a_k."""
    return outer(a, a)[..., None] * a[..., None, None, :]


@np.errstate(all="ignore")
def cartan_pack(ps: PhiScalars, p: EvalPoint) -> np.ndarray:
    """The Cartan tensor C_ijk at the points p, of shape (*batch, n, n, n) and
    fully symmetric, from phi's scalars ps there; mu and nu drive it."""
    s, u, x, y, mu, nu, eye = p.s, p.u, p.x, p.y, ps.mu, ps.nu, np.eye(p.n)
    u2 = u * u
    return (
        lift(mu / (2 * u), 3) * _cyclic(x[..., :, None, None] * eye)
        + lift(nu / (2 * u), 3) * _cube(x)
        - lift(s * mu / (2 * u2), 3) * _cyclic(y[..., :, None, None] * eye)
        + lift((3 * s * mu - s * s * s * nu) / (2 * (u2 * u2)), 3) * _cube(y)
        + lift((s * s * nu - mu) / (2 * (u2 * u)), 3)
          * _cyclic(outer(y, y)[..., None] * x[..., None, None, :])
        - lift(s * nu / (2 * u2), 3) * _cyclic(outer(x, x)[..., None] * y[..., None, None, :])
    )
