import itertools
import math

import numpy as np
import pytest

from conftest import assert_row_matches, make_batch, make_grid, rotated_batch, sympy_partial
from finslerlab import (
    EvalPoint,
    GeometryError,
    berwald_frame,
    canonical_point,
    cartan_pack,
    classify,
    eval_jet,
    main_scalar,
    metric_pack,
    parse,
    phi_scalars,
    pq_from_phi,
    random_rotation,
)
from finslerlab.curvature import front_half

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
    mp0, mp1 = metric_pack(phi_scalars(jet, p0), p0), metric_pack(phi_scalars(jet, p1), p1)
    assert mp1.det_direct == pytest.approx(mp0.det_direct, rel=1e-10)
    assert mp1.F == mp0.F
    assert p1.y @ mp1.g @ p1.y == pytest.approx(p0.y @ mp0.g @ p0.y, rel=1e-12)


def test_euclidean_metric():
    for n in (2, 3):
        p = canonical_point(n, 1.0, 0.3, 2.0)
        mp = metric_pack(phi_scalars(eval_jet(parse("1"), 1.0, 0.3), p), p)
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
    mp = metric_pack(phi_scalars(eval_jet(parse("1+s"), r, s), p), p)
    assert mp.rho0 == pytest.approx(1 / 1.3, rel=1e-12)
    assert mp.rho1 == pytest.approx((r * r + s) / 1.3**3, rel=1e-12)
    assert mp.rho2 == pytest.approx(-1 / 1.3**2, rel=1e-12)
    assert mp.rho3 == 0.0


def test_linear_phi_is_degenerate_by_formula():
    p = canonical_point(3, 1.0, 0.5, 1.0)
    mp = metric_pack(phi_scalars(eval_jet(parse("s"), 1.0, 0.5), p), p)
    assert mp.det_formula == pytest.approx(0.0, abs=1e-14)
    assert abs(mp.det_direct) < 1e-12


def test_jet_below_degree_3_is_a_clear_error():
    # phi_scalars reads phi_sss: a degree-2 jet names both degrees, not an IndexError
    p = canonical_point(2, 1.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="up to degree 3, jet has degree 2"):
        phi_scalars(eval_jet(parse("1+s"), 1.0, 0.3, degree=2), p)


def test_non_positive_phi_rejected():
    p = canonical_point(2, 1.0, -0.5, 1.0)
    with pytest.raises(GeometryError):
        phi_scalars(eval_jet(parse("s"), 1.0, -0.5), p)


@pytest.mark.parametrize("text", RANDOM_PHIS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_invariants(text, n):
    e = parse(text)
    for p in make_grid(n, (0.6, 1.0, 1.4), (-0.6, 0.1, 0.7), (1.0, 1.7)):
        jet = eval_jet(e, p.r, p.s)
        mp = metric_pack(phi_scalars(jet, p), p)
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
        mp = metric_pack(phi_scalars(jet, p), p)
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
    ps = phi_scalars(eval_jet(parse("1+s"), 1.0, 0.3), p)
    assert ps.mu == pytest.approx(1.0, rel=1e-14)
    assert ps.nu == pytest.approx(0.0, abs=1e-14)


def test_cartan_mu_vanishes_for_riemannian_phi():
    e = parse("sqrt(1+s^2)")
    for p in make_grid(2, (0.6, 1.1, 1.6), (-0.7, 0.0, 0.5)):
        ps = phi_scalars(eval_jet(e, p.r, p.s), p)
        assert abs(ps.mu) < 1e-14


@pytest.mark.parametrize("text", RANDOM_PHIS[:3])
def test_cartan_symmetry_and_y_annihilation(text):
    e = parse(text)
    for p in make_grid(3, (0.8, 1.3), (-0.4, 0.5)):
        C = cartan_pack(phi_scalars(eval_jet(e, p.r, p.s), p), p)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(C, np.transpose(C, perm), atol=1e-12)
        contracted = np.einsum("ijk,k->ij", C, p.y)
        assert np.max(np.abs(contracted)) < 1e-9 * max(1.0, np.max(np.abs(C)))


def cartan_by_index(ps, p) -> np.ndarray:
    """cartan_pack's sum written out index by index, each symmetrised term as three
    summands in this order: v_i d_jk + v_j d_ik + v_k d_ij and
    a_i a_j b_k + a_j a_k b_i + a_i a_k b_j."""
    s, u, x, y, mu, nu, d = p.s, p.u, p.x, p.y, ps.mu, ps.nu, np.eye(p.n)
    u2 = u * u
    c = (mu / (2 * u), nu / (2 * u), s * mu / (2 * u2),
         (3 * s * mu - s * s * s * nu) / (2 * (u2 * u2)), (s * s * nu - mu) / (2 * (u2 * u)),
         s * nu / (2 * u2))
    C = np.empty(x.shape + (p.n, p.n))
    for i, j, k in itertools.product(range(p.n), repeat=3):
        def vd(v):
            return v[..., i] * d[j, k] + v[..., j] * d[i, k] + v[..., k] * d[i, j]

        def aab(a, b):
            return (a[..., i] * a[..., j] * b[..., k] + a[..., j] * a[..., k] * b[..., i]
                    + a[..., i] * a[..., k] * b[..., j])

        C[..., i, j, k] = (c[0] * vd(x) + c[1] * (x[..., i] * x[..., j] * x[..., k])
                           - c[2] * vd(y) + c[3] * (y[..., i] * y[..., j] * y[..., k])
                           + c[4] * aab(y, x) - c[5] * aab(x, y))
    return C


@pytest.mark.parametrize("text", ["1+s", *RANDOM_PHIS])
@pytest.mark.parametrize("n", [2, 3])
def test_cartan_pack_keeps_its_bits(text, n):
    # the symmetrised sums keep their summand order: a reordering moves the last bit
    _, p, jet, _ = rotated_batch(text, n)
    ps = phi_scalars(jet, p)
    assert np.array_equal(cartan_pack(ps, p), cartan_by_index(ps, p))


def degeneracy(text, batch):
    """classify's degeneracy verdict and its error."""
    verdicts, _ = classify(parse(text), batch)
    return verdicts["degeneracy"], verdicts.get("degeneracy_error")


def test_degeneracy_type_a():
    batch = make_batch(2, (0.6, 0.9, 1.2, 1.5), (0.2, 0.5, 0.8), (1.0,))
    assert degeneracy("3*s", batch) == ("degenerate_type_a", None)


def test_degeneracy_type_b():
    batch = make_batch(2, (0.6, 0.9, 1.2, 1.5), (-0.5, 0.2, 0.7), (1.0,))
    assert degeneracy("2*s + 0.5*sqrt(r^2-s^2)", batch) == ("degenerate_type_b", None)


def test_degeneracy_nondegenerate():
    batch = make_batch(2, (0.6, 0.9, 1.2, 1.5), (-0.5, 0.2, 0.7), (1.0,))
    assert degeneracy("1+s", batch) == ("nondegenerate", None)


def test_degeneracy_grid_too_small():
    batch = make_batch(2, (1.0,), (0.2, 0.5), (1.0,))
    assert degeneracy("1+s", batch) == (None, "grid of >= 8 points required, got 2")


@pytest.mark.parametrize(
    "text",
    ["(1 + 0.5*r^2)*s", "1.5*s + (0.3 + 0.2*r^2)*sqrt(r^2 - s^2)"],
)
def test_degenerate_families_have_singular_metric(text):
    e = parse(text)
    for p in make_grid(3, (0.7, 1.1, 1.5), (0.3, 0.6, 0.8)):
        mp = metric_pack(phi_scalars(eval_jet(e, p.r, p.s), p), p)
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
    ps = phi_scalars(jets, batch)
    mp, C = metric_pack(ps, batch), cartan_pack(ps, batch)
    assert mp.g.shape == (len(points), n, n) and C.shape == (len(points), n, n, n)
    for k, (p, jet) in enumerate(zip(points, singles)):
        one = phi_scalars(jet, p)
        assert_row_matches(ps, one, k)
        assert_row_matches(mp, metric_pack(one, p), k)
        assert_row_matches(C, cartan_pack(one, p), k)


def test_batched_metric_pack_keeps_each_point_error():
    # phi = 1 + s^2 - 0.9 r is not positive at some points with r = 1.6; phi_scalars
    # fails them, and the metric pack of the other points matches theirs alone
    points, batch, jets, singles = rotated_batch("1+s^2-0.9*r", 3)
    errors = {}
    mp = metric_pack(phi_scalars(jets, batch, errors=errors), batch)
    assert 0 < len(errors) < len(points)
    for k, (p, jet) in enumerate(zip(points, singles)):
        try:
            single = metric_pack(phi_scalars(jet, p), p)
        except GeometryError as exc:
            assert type(errors[k]) is GeometryError and str(errors[k]) == str(exc)
        else:
            assert k not in errors
            assert_row_matches(mp, single, k)
    with pytest.raises(GeometryError, match="is not positive"):
        phi_scalars(jets, batch)


def test_degeneracy_raises_only_errors_before_the_deciding_point():
    cases = [
        # ln(1.4 - r) fails at r = 1.5; the points at r = 1.2 rule out both families
        ("1 + s + ln(1.4 - r)", (-0.5, 0.2, 0.7, 0.8), "ln of non-positive"),
        # abs fails at s = 0, the last point of each r, with t and d still finite there
        ("abs(s)+1", (-0.5, 0.2, 0.7, 0.0), "abs of a jet with value at the kink"),
    ]
    for phi, s_fracs, error in cases:
        batch = make_batch(2, (1.2, 1.5), s_fracs)
        assert degeneracy(phi, batch) == ("nondegenerate", None)
        verdict, message = degeneracy(phi, EvalPoint(2, *(v[::-1] for v in batch[1:])))
        assert verdict is None and message.startswith(error)


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
    p = canonical_point(2, r, s, 1.0)
    values = {**phi_scalars(eval_jet(parse(text), r, s), p)._asdict(), "w": p.w}
    for name, parts in terms.items():
        size = sum(map(abs, parts))
        assert values[name] == pytest.approx(sum(parts), rel=1e-12, abs=1e-12 * size), name


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
def test_the_front_half_reads_phi_through_the_public_doors(text, n):
    # front_half's scalars and spray are phi_scalars' and pq_from_phi's, bit for bit and
    # error for error; main_scalar's frame and Cartan tensor are berwald_frame's and cartan_pack's
    _, p, jet, _ = rotated_batch(text, n)
    ps, sp, _ = front_half(jet, p, (halves := {}))
    doors = {}
    assert _same_bits(ps, phi_scalars(jet, p, errors=doors))
    assert _same_bits(sp, pq_from_phi(jet, p, errors=doors))
    assert repr(halves) == repr(doors)
    if n == 2:
        mp = metric_pack(ps, p)
        ms = main_scalar(ps, p, mp, errors=(through := {}))
        assert _same_bits(ms.frame, berwald_frame(ps, p, mp, errors=(alone := {})))
        assert _same_bits(ms.cartan, cartan_pack(ps, p))
        assert repr(through) == repr(alone)
