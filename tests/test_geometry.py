import itertools
import math

import numpy as np
import pytest

from conftest import assert_row_matches, make_grid, rotated_batch, sympy_partial
from finslerlab import (
    Degeneracy,
    DomainError,
    GeometryError,
    berwald_frame,
    canonical_point,
    cartan_pack,
    degeneracy_classify,
    eval_jet,
    horizontal_residual,
    main_scalar,
    metric_pack,
    parse,
    pq_from_phi,
    random_rotation,
)
from finslerlab.geometry import phi_scalars

RANDOM_PHIS = [
    "1 + 0.2*s + 0.1*s^2",
    "1 + sqrt(1 + s^2)",
    "1.2 + 0.15*exp(s/10) + 0.1*r^2",
    "0.9 + 0.2*r*s + 0.05*s^2",
    "1 + 0.3*s + 0.1*sqrt(1 + s^2) + 0.05*r^2",
]


def test_canonical_point_orthogonal_case():
    p = canonical_point(2, 1.0, 0.0, 1.0)
    assert np.allclose(p.x, [1.0, 0.0])
    assert np.allclose(p.y, [0.0, 1.0])


def test_canonical_point_general_case():
    p = canonical_point(2, 1.0, 0.5, 2.0)
    assert np.allclose(p.x, [1.0, 0.0])
    assert np.allclose(p.y, [1.0, math.sqrt(3.0)])
    assert np.linalg.norm(p.y) == pytest.approx(2.0)
    assert p.x @ p.y == pytest.approx(0.5 * 2.0)  # s * u


def test_canonical_point_invariants_in_higher_dim():
    p = canonical_point(4, 1.7, -0.9, 2.5)
    assert np.linalg.norm(p.x) == pytest.approx(1.7)
    assert np.linalg.norm(p.y) == pytest.approx(2.5)
    assert p.x @ p.y == pytest.approx(-0.9 * 2.5)


def test_canonical_point_boundary_rejected():
    with pytest.raises(GeometryError):
        canonical_point(3, 1.0, 0.9999999, 1.0)
    with pytest.raises(GeometryError):
        canonical_point(2, 1.0, -1.0, 1.0)
    with pytest.raises(GeometryError):
        canonical_point(2, -1.0, 0.0, 1.0)
    with pytest.raises(GeometryError):
        canonical_point(1, 1.0, 0.0, 1.0)


GRID_CELLS = [
    (r, frac * r, u)
    for r in (0.4, 1.1, 1.9)
    for frac in (-0.8, -0.3, 0.0, 0.45, 0.8)
    for u in (0.6, 2.0)
]


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_canonical_point_rows_match_single_point_bits(n, rotate):
    rotation = random_rotation(n, np.random.default_rng(11)) if rotate else None
    r, s, u = (np.array(v) for v in zip(*GRID_CELLS))
    batch = canonical_point(n, r, s, u, rotation=rotation)
    assert batch.x.shape == batch.y.shape == (len(GRID_CELLS), n)
    for k, cell in enumerate(GRID_CELLS):
        single = canonical_point(n, *cell, rotation=rotation)
        for name in ("r", "s", "u", "x", "y"):
            row, one = np.asarray(getattr(batch, name))[k], np.asarray(getattr(single, name))
            assert row.tobytes() == one.tobytes(), (k, name)


def test_canonical_point_failing_rows_keep_their_single_point_error():
    cells = [(1.0, 0.3, 1.0), (-1.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, -0.9999999, 2.0),
             (0.0, 0.0, -1.0), (2.0, 1.0, 1.5), (1.0, 1.0, 1.0)]
    r, s, u = (np.array(v) for v in zip(*cells))
    errors = {}
    batch = canonical_point(3, r, s, u, errors=errors)
    for k, cell in enumerate(cells):
        try:
            single = canonical_point(3, *cell)
        except GeometryError as exc:
            assert type(errors[k]) is GeometryError and str(errors[k]) == str(exc), k
        else:
            assert k not in errors
            assert batch.y[k].tobytes() == single.y.tobytes()
    assert sorted(errors) == [1, 2, 3, 4, 6]
    with pytest.raises(GeometryError, match=r"^r and u must be positive, got r=-1.0, u=1.0$"):
        canonical_point(3, r, s, u)


def test_rotation_preserves_scalars():
    rot = random_rotation(3, np.random.default_rng(7))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-13)
    p0 = canonical_point(3, 1.2, 0.4, 1.5)
    p1 = canonical_point(3, 1.2, 0.4, 1.5, rotation=rot)
    jet = eval_jet(parse("1 + 0.2*s + 0.1*s^2"), 1.2, 0.4)
    mp0, mp1 = metric_pack(jet, p0), metric_pack(jet, p1)
    assert mp1.det_direct == pytest.approx(mp0.det_direct, rel=1e-10)
    assert mp1.F == mp0.F
    assert p1.y @ mp1.g @ p1.y == pytest.approx(p0.y @ mp0.g @ p0.y, rel=1e-12)


def test_euclidean_metric():
    for n in (2, 3):
        p = canonical_point(n, 1.0, 0.3, 2.0)
        mp = metric_pack(eval_jet(parse("1"), 1.0, 0.3), p)
        assert mp.sigma0 == 1.0
        assert mp.sigma1 == mp.sigma2 == mp.sigma3 == 0.0
        assert np.allclose(mp.g, np.eye(n))
        assert mp.det_direct == pytest.approx(1.0)
        assert mp.det_formula == 1.0
        assert mp.regular == (True, True)


def test_randers_inverse_scalars():
    # phi = 1 + s: rho0 = 1/(1+s), rho1 = (r^2+s)/(1+s)^3,
    # rho2 = -1/(1+s)^2, rho3 = 0
    r, s = 1.0, 0.3
    p = canonical_point(2, r, s, 1.0)
    mp = metric_pack(eval_jet(parse("1+s"), r, s), p)
    assert mp.rho0 == pytest.approx(1 / 1.3, rel=1e-12)
    assert mp.rho1 == pytest.approx((r * r + s) / 1.3**3, rel=1e-12)
    assert mp.rho2 == pytest.approx(-1 / 1.3**2, rel=1e-12)
    assert mp.rho3 == 0.0


def test_linear_phi_is_degenerate_by_formula():
    p = canonical_point(3, 1.0, 0.5, 1.0)
    mp = metric_pack(eval_jet(parse("s"), 1.0, 0.5), p)
    assert mp.det_formula == pytest.approx(0.0, abs=1e-14)
    assert abs(mp.det_direct) < 1e-12


def test_jet_below_degree_3_is_a_clear_error():
    # phi_scalars reads phi_sss: a degree-2 jet names both degrees, not an IndexError
    p = canonical_point(2, 1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="up to degree 3, jet has degree 2"):
        metric_pack(eval_jet(parse("1+s"), 1.0, 0.3, degree=2), p)


def test_non_positive_phi_rejected():
    p = canonical_point(2, 1.0, -0.5, 1.0)
    with pytest.raises(GeometryError):
        metric_pack(eval_jet(parse("s"), 1.0, -0.5), p)


@pytest.mark.parametrize("text", RANDOM_PHIS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_invariants(text, n):
    e = parse(text)
    for p in make_grid(n, (0.6, 1.0, 1.4), (-0.6, 0.1, 0.7), (1.0, 1.7)):
        jet = eval_jet(e, p.r, p.s)
        mp = metric_pack(jet, p)
        # inverse by formula vs LU inverse
        assert np.allclose(mp.ginv, np.linalg.inv(mp.g), rtol=1e-8, atol=1e-12)
        assert np.allclose(mp.g @ mp.ginv, np.eye(n), atol=1e-10)
        assert np.allclose(mp.g, mp.g.T)
        # determinant two routes
        assert mp.det_direct == pytest.approx(mp.det_formula, rel=1e-8)
        # Euler homogeneity of E = F^2/2
        assert p.y @ mp.g @ p.y == pytest.approx(mp.F**2, rel=1e-9)
        phi_s = jet.partial(0, 1)
        n_lo = p.x - (p.s / p.u) * p.y
        dF_dy = (mp.F / p.u**2) * p.y + phi_s * n_lo
        assert np.allclose(mp.g @ p.y, mp.F * dF_dy, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("text", RANDOM_PHIS)
def test_rho_contraction_identities(text):
    e = parse(text)
    for p in make_grid(3, (0.7, 1.2), (-0.5, 0.2, 0.6)):
        jet = eval_jet(e, p.r, p.s)
        mp = metric_pack(jet, p)
        phi, phi_s, phi_ss = jet.partial(0, 0), jet.partial(0, 1), jet.partial(0, 2)
        w = p.r**2 - p.s**2
        first = phi_s * mp.rho0 + phi * mp.rho2 + (p.s * phi + w * phi_s) * mp.rho3
        second = mp.rho0 + w * mp.rho3 - 1.0 / (
            phi * (phi - p.s * phi_s + w * phi_ss)
        )
        assert abs(first) < 1e-10
        assert abs(second) < 1e-10


def test_cartan_scalars_randers():
    p = canonical_point(2, 1.0, 0.3, 1.0)
    cp = cartan_pack(eval_jet(parse("1+s"), 1.0, 0.3), p)
    assert cp.mu == pytest.approx(1.0, rel=1e-14)
    assert cp.nu == pytest.approx(0.0, abs=1e-14)


def test_cartan_mu_vanishes_for_riemannian_phi():
    e = parse("sqrt(1+s^2)")
    for p in make_grid(2, (0.6, 1.1, 1.6), (-0.7, 0.0, 0.5)):
        cp = cartan_pack(eval_jet(e, p.r, p.s), p)
        assert abs(cp.mu) < 1e-14


@pytest.mark.parametrize("text", RANDOM_PHIS[:3])
def test_cartan_symmetry_and_y_annihilation(text):
    e = parse(text)
    for p in make_grid(3, (0.8, 1.3), (-0.4, 0.5)):
        cp = cartan_pack(eval_jet(e, p.r, p.s), p)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(cp.C, np.transpose(cp.C, perm), atol=1e-12)
        contracted = np.einsum("ijk,k->ij", cp.C, p.y)
        assert np.max(np.abs(contracted)) < 1e-9 * max(1.0, np.max(np.abs(cp.C)))


def test_degeneracy_type_a():
    grid = make_grid(2, (0.6, 0.9, 1.2, 1.5), (0.2, 0.5, 0.8), (1.0,))
    assert degeneracy_classify(parse("3*s"), grid) is Degeneracy.DEGENERATE_TYPE_A


def test_degeneracy_type_b():
    grid = make_grid(2, (0.6, 0.9, 1.2, 1.5), (-0.5, 0.2, 0.7), (1.0,))
    phi = parse("2*s + 0.5*sqrt(r^2-s^2)")
    assert degeneracy_classify(phi, grid) is Degeneracy.DEGENERATE_TYPE_B


def test_degeneracy_nondegenerate():
    grid = make_grid(2, (0.6, 0.9, 1.2, 1.5), (-0.5, 0.2, 0.7), (1.0,))
    assert degeneracy_classify(parse("1+s"), grid) is Degeneracy.NONDEGENERATE


def test_degeneracy_grid_too_small():
    grid = make_grid(2, (1.0,), (0.2, 0.5), (1.0,))
    with pytest.raises(GeometryError):
        degeneracy_classify(parse("1+s"), grid)


@pytest.mark.parametrize(
    "text",
    ["(1 + 0.5*r^2)*s", "1.5*s + (0.3 + 0.2*r^2)*sqrt(r^2 - s^2)"],
)
def test_degenerate_families_have_singular_metric(text):
    e = parse(text)
    for p in make_grid(3, (0.7, 1.1, 1.5), (0.3, 0.6, 0.8)):
        mp = metric_pack(eval_jet(e, p.r, p.s), p)
        scale = max(1.0, float(np.max(np.abs(mp.g))))
        assert abs(mp.det_direct) < 1e-8 * scale**p.n


# -- batched packs: every row equals the one-point pack ------------------------

CURVATURE_PHIS = [
    "1+s",
    "sqrt(1+s^2)",
    "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))",
    "1 + 0.2*s + 0.1*s^2 + 0.05*r^2",
]


@pytest.mark.parametrize("text", CURVATURE_PHIS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_metric_and_cartan_rows_match_single_points(text, n):
    points, batch, jets, singles = rotated_batch(text, n)
    mp, cp = metric_pack(jets, batch), cartan_pack(jets, batch)
    assert mp.g.shape == (len(points), n, n) and cp.C.shape == (len(points), n, n, n)
    for k, (p, jet) in enumerate(zip(points, singles)):
        assert_row_matches(mp, metric_pack(jet, p), k)
        assert_row_matches(cp, cartan_pack(jet, p), k)


def test_batched_metric_pack_keeps_each_point_error():
    # phi = 1 + s^2 - 0.9 r is not positive at some points with r = 1.6
    points, batch, jets, singles = rotated_batch("1+s^2-0.9*r", 3)
    errors = {}
    mp = metric_pack(jets, batch, errors=errors)
    assert 0 < len(errors) < len(points)
    for k, (p, jet) in enumerate(zip(points, singles)):
        try:
            single = metric_pack(jet, p)
        except GeometryError as exc:
            assert type(errors[k]) is GeometryError and str(errors[k]) == str(exc)
        else:
            assert k not in errors
            assert_row_matches(mp, single, k)
    with pytest.raises(GeometryError, match="is not positive"):
        metric_pack(jets, batch)


def test_degeneracy_raises_only_errors_before_the_deciding_point():
    # ln(1.4 - r) fails at r = 1.5; the points at r = 1.2 rule out both families
    phi = parse("1 + s + ln(1.4 - r)")
    grid = make_grid(2, (1.2, 1.5), (-0.5, 0.2, 0.7, 0.8))
    assert degeneracy_classify(phi, grid) is Degeneracy.NONDEGENERATE
    with pytest.raises(DomainError, match="ln of non-positive"):
        degeneracy_classify(phi, grid[::-1])


# -- phi's scalars and the paper's factors, read once ------------------------

FACTOR_PHIS = ["1+0.3*s", "sqrt(1+s^2)", "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))", "exp(s)*r"]


@pytest.mark.parametrize("text", FACTOR_PHIS)
@pytest.mark.parametrize("r, s", [(1.0, 0.3), (0.7, -0.4), (1.6, 1.1)])
def test_phi_scalars_factors_match_their_formulas(text, r, s):
    # each factor to 1e-12 of its terms' size: mu and nu cancel to 0 on Riemannian phis
    phi, phi_s, phi_ss, phi_sss = (sympy_partial(text, r, s, 0, b) for b in range(4))
    w = r * r - s * s
    terms = {
        "w": [r * r, -s * s],
        "t": [phi, -s * phi_s],
        "d": [phi, -s * phi_s, w * phi_ss],
        "mu": [phi * phi_s, -s * phi_s * phi_s, -s * phi * phi_ss],
        "nu": [3 * phi_s * phi_ss, phi * phi_sss],
    }
    ps = phi_scalars(eval_jet(parse(text), r, s), r, s)
    for name, parts in terms.items():
        size = sum(map(abs, parts))
        assert getattr(ps, name) == pytest.approx(sum(parts), rel=1e-12, abs=1e-12 * size), name


def _arrays(value) -> list:
    """The arrays of a pack, with its nested packs and tuples flattened in field order."""
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return [np.asarray(value)]


def _same_bits(a, b) -> bool:
    a, b = _arrays(a), _arrays(b)
    return len(a) == len(b) and all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()) for x, y in zip(a, b)
    )


@pytest.mark.parametrize("text", FACTOR_PHIS)
@pytest.mark.parametrize("n", [2, 3])
def test_packs_give_the_same_bits_from_phis_jet_and_from_its_scalars(text, n):
    _, p, jet, _ = rotated_batch(text, n)
    ps = phi_scalars(jet, p.r, p.s)
    assert phi_scalars(ps, p.r, p.s) is ps
    packs = [metric_pack, cartan_pack] + ([berwald_frame, main_scalar] if n == 2 else [])
    for pack in packs:
        from_jet, from_scalars = {}, {}
        a, b = pack(jet, p, errors=from_jet), pack(ps, p, errors=from_scalars)
        assert _same_bits(a, b), pack.__name__
        assert repr(from_jet) == repr(from_scalars)
    sp = pq_from_phi(jet, p, errors={})
    assert _same_bits(horizontal_residual(jet, sp, p), horizontal_residual(ps, sp, p))
