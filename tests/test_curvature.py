import math

import numpy as np
import pytest

from conftest import assert_row_matches, make_grid, rotated_batch
from finslerlab import (
    DomainError,
    GeometryError,
    canonical_point,
    eval_jet,
    flag_curvature,
    metric_pack,
    parse,
    pq_from_phi,
    riemann_pack,
    scalar_classify,
)

EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"

TEST_PHIS = ["1+s", "sqrt(1+s^2)", EX45, "1 + 0.2*s + 0.1*s^2 + 0.05*r^2"]


def curvature_at(text, p):
    jet = eval_jet(parse(text), p.r, p.s)
    return riemann_pack(pq_from_phi(jet, p), jet, p), jet


def test_flat_surface_closed_forms():
    r, s = 1.0, 0.3
    p = canonical_point(2, r, s, 1.0)
    cv, _ = curvature_at(EX45, p)
    assert cv.R1 == pytest.approx(25 * (r * r - s * s) / (16 * r**4), rel=1e-10)
    assert cv.R2 == pytest.approx(-25 / (16 * r * r), rel=1e-10)
    assert cv.R3 == pytest.approx(-25 / (16 * r**4), rel=1e-10)
    assert cv.R4 == pytest.approx(25 * s / (16 * r**4), rel=1e-10)
    assert cv.R5 == pytest.approx(25 * s / (16 * r**4), rel=1e-8)
    assert not cv.identity_mismatch


def test_riemannian_example_closed_forms():
    r, s = 1.0, 0.2
    p = canonical_point(2, r, s, 1.0)
    cv, _ = curvature_at("sqrt(1+s^2)", p)
    assert cv.R1 == pytest.approx(0.5, rel=1e-10)
    assert cv.R2 == pytest.approx(-0.5, rel=1e-10)
    assert cv.R3 == pytest.approx(-0.25, rel=1e-10)
    assert cv.R4 == pytest.approx(s / 4, rel=1e-8)
    assert cv.R5 == pytest.approx(0.0, abs=1e-10)


def test_euclidean_curvature_vanishes():
    p = canonical_point(3, 1.0, 0.4, 1.5)
    cv, _ = curvature_at("1", p)
    for value in (cv.R1, cv.R2, cv.R3, cv.R4, cv.R5, cv.C3):
        assert value == 0.0
    assert np.allclose(cv.Rmat, 0.0)


@pytest.mark.parametrize("text", TEST_PHIS)
def test_curvature_identities(text):
    for p in make_grid(2, (0.7, 1.0, 1.4), (-0.5, 0.1, 0.6), (1.0, 1.8)):
        cv, _ = curvature_at(text, p)
        scale = max(1.0, abs(cv.R1), abs(cv.R2), abs(cv.R3), abs(cv.R4), abs(cv.R5))
        assert abs(cv.id_R2) < 1e-8 * scale
        assert abs(cv.id_R4) < 1e-8 * scale
        assert abs(cv.C3) < 1e-8 * scale
        assert not cv.identity_mismatch


@pytest.mark.parametrize("text", TEST_PHIS)
@pytest.mark.parametrize("n", [2, 3])
def test_jacobi_annihilates_supporting_direction(text, n):
    for p in make_grid(n, (0.8, 1.3), (-0.4, 0.5), (1.0, 2.0)):
        cv, _ = curvature_at(text, p)
        scale = max(1.0, abs(cv.R1), abs(cv.R2), abs(cv.R3), abs(cv.R4), abs(cv.R5))
        assert np.max(np.abs(cv.Rmat @ p.y)) < 1e-8 * scale * p.u**2 * max(1.0, p.u, p.r)


@pytest.mark.parametrize("text", TEST_PHIS)
def test_trace_contraction(text):
    for n in (2, 3, 4):
        p = canonical_point(n, 1.1, 0.4, 1.5)
        cv, _ = curvature_at(text, p)
        scale = max(1.0, abs(cv.R1), abs(cv.R3))
        expected = p.u**2 * ((n - 1) * cv.R1 + (p.r**2 - p.s**2) * cv.R3)
        assert np.trace(cv.Rmat) == pytest.approx(expected, abs=1e-8 * scale * p.u**2)


@pytest.mark.parametrize("text", TEST_PHIS)
def test_two_dimensional_reconstruction(text):
    # for n = 2: R^i_j = K F^2 (d^i_j - (y^i / F) dF/dy_j) with
    # K = (R1 + (r^2 - s^2) R3) / phi^2
    for p in make_grid(2, (0.8, 1.2), (-0.5, 0.3)):
        cv, jet = curvature_at(text, p)
        mp = metric_pack(jet, p)
        phi, phi_s = jet.partial(0, 0), jet.partial(0, 1)
        K = flag_curvature(cv, phi, p)
        n_lo = p.x - (p.s / p.u) * p.y
        dF_dy = (phi / p.u) * p.y + phi_s * n_lo
        recon = K * mp.F**2 * (np.eye(2) - np.outer(p.y, dF_dy) / mp.F)
        scale = max(1.0, float(np.max(np.abs(cv.Rmat))))
        assert np.max(np.abs(cv.Rmat - recon)) < 1e-8 * scale


def test_scalar_classify_flat_surface():
    grid = make_grid(2, (0.6, 1.0, 1.4), (-0.6, 0.0, 0.5))
    report = scalar_classify(parse(EX45), grid)
    assert report.is_scalar
    assert report.n == 2
    for _, K in report.K_samples:
        assert abs(K) < 1e-10


def test_scalar_classify_riemannian_example():
    grid = make_grid(2, (1.0,), (-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.5, 0.6))
    report = scalar_classify(parse("sqrt(1+s^2)"), grid)
    assert report.is_scalar
    for _, K in report.K_samples:
        assert K == pytest.approx(0.25, rel=1e-9)  # 1/(1+r^2)^2 at r = 1


def test_scalar_classify_flat_in_three_dimensions():
    grid = make_grid(3, (0.7, 1.1, 1.5), (-0.5, 0.1, 0.6))
    report = scalar_classify(parse("1"), grid)
    assert report.is_scalar
    for _, K in report.K_samples:
        assert K == 0.0


def test_scalar_classify_rejects_r3_in_three_dimensions():
    # the flat-surface metric has R3 != 0, so it is not of scalar
    # curvature once the dimension exceeds two
    grid = make_grid(3, (0.7, 1.1, 1.5), (-0.5, 0.1, 0.6))
    report = scalar_classify(parse(EX45), grid)
    assert not report.is_scalar
    assert report.max_R3_residual > 1e-3
    assert report.failing_point is not None


def test_scalar_classify_mixed_dimensions_rejected():
    grid = make_grid(2, (0.8, 1.2), (-0.4, 0.4)) + make_grid(3, (0.8, 1.2), (-0.4, 0.4))
    with pytest.raises(GeometryError):
        scalar_classify(parse("1+s"), grid)


def test_scalar_classify_grid_too_small():
    with pytest.raises(GeometryError):
        scalar_classify(parse("1+s"), make_grid(2, (1.0,), (0.2, 0.4)))


@pytest.mark.parametrize(
    "text, error, match",
    [
        ("1+s^2-0.7*r", GeometryError, "is not positive"),
        ("2 + 0.3*s + ln(1.4 - r)", DomainError, "ln of non-positive"),
    ],
)
def test_scalar_classify_raises_the_first_failing_points_error(text, error, match):
    # phi <= 0, or a jet outside its domain, at r = 1.5 only; the grid is evaluated
    # in one batch, and the error surfaces when the loop reaches that point
    grid = make_grid(2, (1.2, 1.5), (-0.4, 0.0, 0.3, 0.6))
    with pytest.raises(error, match=match):
        scalar_classify(parse(text), grid)


@pytest.mark.parametrize("text", TEST_PHIS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_curvature_rows_match_single_points(text, n):
    # every row of a batched riemann_pack / flag_curvature equals the one-point value
    points, batch, jets, singles = rotated_batch(text, n)
    cv = riemann_pack(pq_from_phi(jets, batch), jets, batch)
    assert cv.Rmat.shape == (len(points), n, n)
    K = flag_curvature(cv, jets.partial(0, 0), batch)
    for k, (p, jet) in enumerate(zip(points, singles)):
        one = riemann_pack(pq_from_phi(jet, p), jet, p)
        assert_row_matches(cv, one, k)
        assert_row_matches(cv.Rmat, one.Rmat, k)
        assert_row_matches(K, flag_curvature(one, jet.partial(0, 0), p), k)


def test_scalar_classify_stops_at_the_first_failed_reconstruction(monkeypatch):
    # a wrong K at the third point fails its reconstruction: the sampling ends there
    from finslerlab import curvature

    original = curvature.flag_curvature

    def wrong_at_third_point(cp, phi, p):
        K = original(cp, phi, p)
        return np.where(np.arange(np.size(K)) == 2, K + 1.0, K)

    monkeypatch.setattr(curvature, "flag_curvature", wrong_at_third_point)
    grid = make_grid(2, (0.6, 1.0, 1.4), (-0.6, 0.0, 0.5))
    report = scalar_classify(parse("sqrt(1+s^2)"), grid)
    assert not report.is_scalar
    assert [p for p, _ in report.K_samples] == grid[:3]
    assert report.failing_point is grid[2]
