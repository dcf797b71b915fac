import math

import numpy as np
import pytest

from conftest import assert_row_matches, make_batch, make_grid, rotated_batch
from finslerlab import (
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
)

EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"

REGULAR_PHIS = ["1+s", "sqrt(1+s^2)", "1 + 0.2*s + 0.1*s^2 + 0.05*r^2"]


def surface_args(jet, p, errors=None):
    """(ps, p, mp): phi's scalars at the points p and their metric pack, the
    arguments of ``berwald_frame`` and ``main_scalar``."""
    ps = phi_scalars(jet, p, errors=errors)
    return ps, p, metric_pack(ps, p)


def test_randers_normalization():
    r, s, u = 1.2, 0.4, 1.5
    p = canonical_point(2, r, s, u)
    fr = berwald_frame(*surface_args(eval_jet(parse("1+s"), r, s), p))
    assert fr.a == pytest.approx(math.sqrt((1 + s) / (r * r - s * s)), rel=1e-12)
    expected_m1 = (p.x[0] - (s / u) * p.y[0]) * fr.a
    assert fr.m_lo[0] == pytest.approx(expected_m1, rel=1e-12)


def test_euclidean_frame():
    p = canonical_point(2, 1.0, 0.0, 2.0)
    fr = berwald_frame(*surface_args(eval_jet(parse("1"), 1.0, 0.0), p))
    assert np.allclose(fr.ell_hi, p.y / 2.0)
    assert np.allclose(np.abs(fr.m_hi), np.abs(p.x))  # unit, orthogonal to y


def test_frame_requires_surface():
    p = canonical_point(3, 1.0, 0.3, 1.0)
    with pytest.raises(GeometryError):
        berwald_frame(*surface_args(eval_jet(parse("1+s"), 1.0, 0.3), p))


def test_frame_fails_on_degenerate_radicand():
    jet = eval_jet(parse("2*s + 0.5*sqrt(r^2-s^2)"), 1.0, 0.5)
    p = canonical_point(2, 1.0, 0.5, 1.0)
    with pytest.raises(GeometryError):
        berwald_frame(*surface_args(jet, p))


@pytest.mark.parametrize("text", REGULAR_PHIS + [EX45])
def test_orthonormality_suite(text):
    e = parse(text)
    for p in make_grid(2, (0.7, 1.0, 1.4), (-0.5, 0.1, 0.6), (1.0, 1.8)):
        jet = eval_jet(e, p.r, p.s)
        ps, _, mp = surface_args(jet, p)
        fr = berwald_frame(ps, p, mp)
        assert fr.ell_hi @ fr.ell_lo == pytest.approx(1.0, abs=1e-9)
        assert fr.ell_hi @ fr.m_lo == pytest.approx(0.0, abs=1e-9)
        assert fr.m_hi @ fr.m_lo == pytest.approx(1.0, abs=1e-9)
        assert fr.ell_hi @ mp.g @ fr.ell_hi == pytest.approx(1.0, abs=1e-9)
        scale = max(1.0, float(np.max(np.abs(mp.g))))
        assert np.max(
            np.abs(mp.g - np.outer(fr.ell_lo, fr.ell_lo) - np.outer(fr.m_lo, fr.m_lo))
        ) < 1e-9 * scale
        assert np.max(
            np.abs(mp.ginv - np.outer(fr.ell_hi, fr.ell_hi) - np.outer(fr.m_hi, fr.m_hi))
        ) < 1e-9 * max(1.0, float(np.max(np.abs(mp.ginv))))


@pytest.mark.parametrize("text", REGULAR_PHIS)
def test_n_vector_suite(text):
    e = parse(text)
    for p in make_grid(2, (0.8, 1.3), (-0.4, 0.2, 0.6), (1.0, 2.0)):
        jet = eval_jet(e, p.r, p.s)
        fr = berwald_frame(*surface_args(jet, p))
        w = p.r**2 - p.s**2
        assert p.y @ fr.n_lo == pytest.approx(0.0, abs=1e-12)
        assert p.x @ fr.n_lo == pytest.approx(w, rel=1e-12)
        phi, phi_s, phi_ss = jet.partial(0, 0), jet.partial(0, 1), jet.partial(0, 2)
        d = phi - p.s * phi_s + w * phi_ss
        assert fr.n_hi @ fr.n_lo == pytest.approx(w / (phi * d), rel=1e-10)
        # ds/dy^i = n_i / u by central differences in raw y coordinates
        h = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = h
            s_plus = p.x @ (p.y + step) / np.linalg.norm(p.y + step)
            s_minus = p.x @ (p.y - step) / np.linalg.norm(p.y - step)
            assert (s_plus - s_minus) / (2 * h) == pytest.approx(
                fr.n_lo[i] / p.u, abs=1e-8
            )


@pytest.mark.parametrize("text", REGULAR_PHIS + [EX45])
def test_normalization_identity(text):
    # a^2 (r^2 - s^2)(A - sB) = 1
    e = parse(text)
    for p in make_grid(2, (0.7, 1.2), (-0.5, 0.3), (1.0,)):
        jet = eval_jet(e, p.r, p.s)
        args = surface_args(jet, p)
        fr, ms = berwald_frame(*args), main_scalar(*args)
        w = p.r**2 - p.s**2
        assert fr.a**2 * w * (ms.A - p.s * ms.B) == pytest.approx(1.0, abs=1e-10)


def test_randers_main_scalar_at_origin_slice():
    # at (r, s) = (1, 0) the closed form evaluates to 3/2
    p = canonical_point(2, 1.0, 0.0, 1.0)
    ms = main_scalar(*surface_args(eval_jet(parse("1+s"), 1.0, 0.0), p))
    assert ms.I == pytest.approx(1.5, rel=1e-10)
    assert ms.I_direct == pytest.approx(1.5, rel=1e-10)


def test_riemannian_main_scalar_vanishes():
    e = parse("sqrt(1+s^2)")
    for p in make_grid(2, (0.7, 1.1, 1.5), (-0.6, 0.0, 0.5)):
        ms = main_scalar(*surface_args(eval_jet(e, p.r, p.s), p))
        assert abs(ms.I) < 1e-10
        assert abs(ms.I_direct) < 1e-10


@pytest.mark.parametrize("text", REGULAR_PHIS + [EX45])
def test_main_scalar_two_routes_agree(text):
    e = parse(text)
    for p in make_grid(2, (0.7, 1.0, 1.4), (-0.5, 0.1, 0.6), (1.0, 1.7)):
        ms = main_scalar(*surface_args(eval_jet(e, p.r, p.s), p))
        assert abs(ms.I - ms.I_direct) < 1e-8 * max(1.0, abs(ms.I))


def riemannian(text, batch):
    """classify's Riemannian verdict and its error."""
    verdicts, _ = classify(parse(text), batch)
    return verdicts["riemannian"], verdicts.get("riemannian_error")


def test_riemannian_criterion():
    batch = make_batch(2, (0.7, 1.0, 1.3), (-0.5, 0.0, 0.6))
    assert riemannian("sqrt(1+s^2)", batch) == (True, None)
    assert riemannian("sqrt(0.5*s^2 + r^2)", batch) == (True, None)
    assert riemannian("1+s", batch) == (False, None)


def test_riemannian_criterion_matches_main_scalar():
    grid = make_grid(2, (0.7, 1.0, 1.3), (-0.5, 0.0, 0.6))
    batch = make_batch(2, (0.7, 1.0, 1.3), (-0.5, 0.0, 0.6))
    for text in REGULAR_PHIS + ["sqrt(0.5*s^2 + r^2)"]:
        e = parse(text)
        verdict, _ = riemannian(text, batch)
        max_I = max(
            abs(main_scalar(*surface_args(eval_jet(e, p.r, p.s), p)).I) for p in grid
        )
        assert verdict == (max_I < 1e-8)


def test_riemannian_test_names_an_inconsistent_evaluation():
    # at s = 0, mu = 0 for any phi, but nu = 6 for 1 + s^3: the verdict is None with
    # its reason, and the other verdicts stand
    verdicts, _ = classify(parse("1+s^3"), make_batch(2, (0.5, 0.8, 1.2, 1.5), (0.0,), (1.0, 2.0)))
    assert verdicts["riemannian"] is None
    assert verdicts["riemannian_error"] == (
        "mu vanishes on the grid but nu = 6.0 does not; inconsistent evaluation"
    )
    assert verdicts["degeneracy"] == "nondegenerate" and verdicts["is_scalar"] is True


def test_riemannian_grid_preconditions():
    # too few points fail the verdict; off surfaces classify gives none
    batch = make_batch(2, (1.0,), (0.2, 0.4))
    assert riemannian("1+s", batch) == (None, "grid of >= 8 points required, got 2")
    verdicts, _ = classify(parse("1+s"), make_batch(3, (0.8, 1.2), (-0.4, 0.0, 0.3, 0.6)))
    assert not {"riemannian", "riemannian_error"} & verdicts.keys()


@pytest.mark.parametrize("text", REGULAR_PHIS + [EX45])
def test_batched_frame_and_main_scalar_rows_match_single_points(text):
    points, batch, jets, singles = rotated_batch(text, 2)
    args = surface_args(jets, batch)
    fr, ms = berwald_frame(*args), main_scalar(*args)
    assert fr.m_hi.shape == (len(points), 2)
    for k, (p, jet) in enumerate(zip(points, singles)):
        assert_row_matches(fr, berwald_frame(*surface_args(jet, p)), k)
        assert_row_matches(ms, main_scalar(*surface_args(jet, p)), k)


def assert_rows_keep_their_errors(text, match):
    """main_scalar over rotated_batch(text, 2) fails some points only, with match
    in each error, and every row equals its one-point call, error or pack."""
    points, batch, jets, singles = rotated_batch(text, 2)
    errors = {}
    ms = main_scalar(*surface_args(jets, batch, errors), errors=errors)
    assert 0 < len(errors) < len(points)
    assert all(match in str(exc) for exc in errors.values())
    for k, (p, jet) in enumerate(zip(points, singles)):
        try:
            single = main_scalar(*surface_args(jet, p))
        except GeometryError as exc:
            assert type(errors[k]) is GeometryError and str(errors[k]) == str(exc)
        else:
            assert k not in errors
            assert_row_matches(ms, single, k)


def test_batched_frame_keeps_each_point_error():
    # phi <= 0 at some points only: phi_scalars' guard fails them before the radicand of a
    assert_rows_keep_their_errors("2*s + 0.5*sqrt(r^2-s^2) + 0.3*s^2", "is not positive at")


def test_batched_frame_keeps_each_radicand_error():
    # phi = 1 - s^2/2 > 0 on the grid, and D = 1 - r^2 + 3 s^2/2 < 0 at some points
    assert_rows_keep_their_errors("1 - 0.5*s^2", "radicand")
