"""Fundamental tensor, Cartan tensor and degeneracy screening.

All objects are assembled from a Taylor jet of phi of degree >= 3, at one
evaluation point or at a batch of them: the pack functions take phi's jet
batch, or the ``PhiScalars`` read off it once, and a batched ``EvalPoint``
and return one row per point, scalars of shape ``batch`` and tensors of
shape ``(*batch, n, ..., n)``; a one-point call is a batch of shape ().
Rows never mix, and numpy sums a contraction (``np.einsum``, ``@``) of one
row in the same order whether or not the row is part of a batch, so each
row equals the one-point result.  ``degeneracy_from_scalars`` screens the
scalars under its caller's ``np.errstate``.  The carrier metric is the
Euclidean one, so raised and lowered indices coincide numerically.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .expr import Node
from .jet import Jet, batched, eval_jet, fail_nonfinite, fail_where, first_true, raise_first

# Points closer to the |s| = r cone than this relative margin are rejected;
# the inverse-metric scalars blow up there.
BOUNDARY_MARGIN = 1e-6

DEGENERACY_TOL = 1e-8


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

    @classmethod
    def stack(cls, points: list["EvalPoint"]) -> "EvalPoint":
        """The batch of the one-point EvalPoints, in order."""
        dims = {p.n for p in points}
        if len(dims) != 1:
            raise GeometryError(f"mixed dimensions in grid: {sorted(dims)}")
        return cls(
            n=dims.pop(),
            r=np.array([p.r for p in points], dtype=float),
            s=np.array([p.s for p in points], dtype=float),
            u=np.array([p.u for p in points], dtype=float),
            x=np.array([p.x for p in points], dtype=float),
            y=np.array([p.y for p in points], dtype=float),
        )


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
    phi_rs: float
    phi_sss: float
    w: float  # r^2 - s^2
    t: float  # phi - s phi_s, the first regularity factor
    d: float  # t + w phi_ss, the second (D); det g = phi^(n+1) t^(n-2) d
    mu: float  # phi phi_s - s phi_s^2 - s phi phi_ss, with nu the Cartan scalars
    nu: float  # 3 phi_s phi_ss + phi phi_sss


# The (a, b) of phi and its partials as partials of the jet, and a! b!.
_PHI_A, _PHI_B = [0, 1, 0, 0, 1, 0], [0, 0, 1, 2, 1, 3]
_PHI_W = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 6.0])


def phi_scalars(jet: Jet | PhiScalars, r, s) -> PhiScalars:
    """The PhiScalars of phi's jet at the points (r, s); scalars already
    read are returned unchanged, so a pack takes phi's jet or its scalars."""
    if isinstance(jet, PhiScalars):
        return jet
    if jet.degree < 3:
        raise ValueError(f"phi_scalars reads partials up to degree 3, jet has degree {jet.degree}")
    c = jet.c[_PHI_A, _PHI_B]  # the six coefficients, in one gather
    phi, phi_r, phi_s, phi_ss, phi_rs, phi_sss = c * lift(_PHI_W, c.ndim - 1)
    w = r * r - s * s
    t = phi - s * phi_s
    d = t + w * phi_ss
    mu = phi * phi_s - s * (phi_s * phi_s) - s * phi * phi_ss
    nu = 3.0 * phi_s * phi_ss + phi * phi_sss
    return PhiScalars(phi, phi_r, phi_s, phi_ss, phi_rs, phi_sss, w, t, d, mu, nu)


def _positive_scalars(jet: Jet | PhiScalars, p: EvalPoint, errors: dict) -> PhiScalars:
    """phi_scalars, failing the points where phi <= 0 (F is not a norm there)."""
    ps = phi_scalars(jet, p.r, p.s)
    fail_where(
        ps.phi <= 0,
        errors,
        lambda phi, r, s: GeometryError(f"phi = {phi} is not positive at (r, s) = ({r}, {s})"),
        ps.phi, p.r, p.s,
    )
    return ps


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
    out = np.maximum(1.0, np.abs(values[0]))
    for v in values[1:]:
        out = np.maximum(out, np.abs(v))
    return out


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


def _require_grid(grid: list | np.ndarray) -> None:
    if len(grid) < 8:
        raise GeometryError(f"grid of >= 8 points required, got {len(grid)}")


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


@batched
def metric_pack(jet: Jet | PhiScalars, p: EvalPoint, *, errors: dict) -> MetricPack:
    """Fundamental tensor, its inverse, and both determinant routes.

    g_jk  = sigma0 d_jk + sigma1 x_j x_k + (sigma2/u)(x_j y_k + x_k y_j)
            + (sigma3/u^2) y_j y_k
    g^jk  = rho0 d_jk + (rho1/u^2) y^j y^k + (rho2/u)(x^j y^k + x^k y^j)
            + rho3 x^j x^k
    det   = phi^(n+1) (phi - s phi_s)^(n-2) (phi - s phi_s + (r^2-s^2) phi_ss)

    A point with phi <= 0 fails (see ``jet.batched`` for the error policy).
    """
    ps = _positive_scalars(jet, p, errors)
    phi, phi_s, phi_ss, w, t, d, mu = ps.phi, ps.phi_s, ps.phi_ss, ps.w, ps.t, ps.d, ps.mu
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


class CartanPack(NamedTuple):
    mu: float
    nu: float
    C: np.ndarray  # (*batch, n, n, n), fully symmetric


def _sym_vd(v: np.ndarray, n: int) -> np.ndarray:
    """v_i d_jk + v_j d_ik + v_k d_ij."""
    eye = np.eye(n)
    return (
        v[..., :, None, None] * eye
        + v[..., None, :, None] * eye[:, None, :]
        + v[..., None, None, :] * eye[:, :, None]
    )


def _cube(a: np.ndarray) -> np.ndarray:
    """a_i a_j a_k."""
    return outer(a, a)[..., None] * a[..., None, None, :]


def _sym_aab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i a_j b_k + a_j a_k b_i + a_i a_k b_j."""
    aa = outer(a, a)
    return (
        aa[..., :, :, None] * b[..., None, None, :]
        + aa[..., None, :, :] * b[..., :, None, None]
        + aa[..., :, None, :] * b[..., None, :, None]
    )


@batched
def cartan_pack(jet: Jet | PhiScalars, p: EvalPoint, *, errors: dict) -> CartanPack:
    """Cartan tensor components and the two scalars driving them, mu and nu
    (see ``PhiScalars``).  A point with phi <= 0 fails.
    """
    ps = _positive_scalars(jet, p, errors)
    s, u, n, mu, nu = p.s, p.u, p.n, ps.mu, ps.nu
    x, y = p.x, p.y
    u2 = u * u
    C = (
        lift(mu / (2 * u), 3) * _sym_vd(x, n)
        + lift(nu / (2 * u), 3) * _cube(x)
        - lift(s * mu / (2 * u2), 3) * _sym_vd(y, n)
        + lift((3 * s * mu - s * s * s * nu) / (2 * (u2 * u2)), 3) * _cube(y)
        + lift((s * s * nu - mu) / (2 * (u2 * u)), 3) * _sym_aab(y, x)
        - lift(s * nu / (2 * u2), 3) * _sym_aab(x, y)
    )
    return CartanPack(mu=mu, nu=nu, C=C)


class Degeneracy(enum.Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE_TYPE_A = "degenerate_type_a"
    DEGENERATE_TYPE_B = "degenerate_type_b"


def degeneracy_classify(phi: Node, grid: list[EvalPoint]) -> Degeneracy:
    """Screen phi for the two degenerate families.

    TYPE_A: phi - s phi_s vanishes on the whole grid (phi = f(r^2) s).
    TYPE_B: phi - s phi_s + (r^2 - s^2) phi_ss vanishes on the whole grid
            (phi = f1(r^2) s + f2(r^2) sqrt(r^2 - s^2)).
    Either family forces det(g) = 0.  The points are screened in grid
    order: the first point that rules out both families decides, and a
    point before it whose jet or values fail raises its error.
    """
    _require_grid(grid)
    r, s = np.array([(p.r, p.s) for p in grid], dtype=float).T
    with np.errstate(all="ignore"):
        ps = phi_scalars(eval_jet(phi, r, s, errors=(errors := {})), r, s)
        return degeneracy_from_scalars(ps, errors)


def degeneracy_from_scalars(ps: PhiScalars, errors: dict) -> Degeneracy:
    """``degeneracy_classify`` at the points of phi's scalars ps, whose
    earlier failures are in errors."""
    _require_grid(ps.phi)
    scale, t, d = np.maximum(1.0, ps.phi * ps.phi), ps.t, ps.d
    fail_nonfinite(errors, {"phi^2": scale, "phi - s phi_s": t,
                            "phi - s phi_s + (r^2-s^2) phi_ss": d})
    ok = np.ones(len(t), dtype=bool)
    ok[list(errors)] = False
    not_a = np.logical_or.accumulate(ok & (np.abs(t) >= DEGENERACY_TOL * scale))
    not_b = np.logical_or.accumulate(ok & (np.abs(d) >= DEGENERACY_TOL * scale))
    decided = first_true(not_a & not_b)
    raise_first(errors, decided)
    if decided is not None:
        return Degeneracy.NONDEGENERATE
    if not not_a[-1]:
        return Degeneracy.DEGENERATE_TYPE_A
    return Degeneracy.DEGENERATE_TYPE_B
