import math
import re

import numpy as np
import pytest

from conftest import assert_row_matches, make_batch, make_grid, rotated_batch
from finslerlab import (
    DomainError,
    GeometryError,
    canonical_point,
    classify,
    eval_jet,
    flag_curvature,
    metric_pack,
    parse,
    phi_scalars,
    pq_from_phi,
    riemann_pack,
)

EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"

TEST_PHIS = ["1+s", "sqrt(1+s^2)", EX45, "1 + 0.2*s + 0.1*s^2 + 0.05*r^2"]


def curvature_at(text, p):
    """The curvature pack of phi at the point p, behind the phi > 0 guard, and phi's jet."""
    jet = eval_jet(parse(text), p.r, p.s)
    phi_scalars(jet, p)
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
        assert abs(cv.R1 + cv.R2 + p.s * cv.R5) < 1e-8 * scale
        assert abs(cv.R4 + p.s * cv.R3) < 1e-8 * scale
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
        mp = metric_pack(phi_scalars(jet, p), p)
        phi, phi_s = jet.partial(0, 0), jet.partial(0, 1)
        K = flag_curvature(cv, phi, p)
        n_lo = p.x - (p.s / p.u) * p.y
        dF_dy = (phi / p.u) * p.y + phi_s * n_lo
        recon = K * mp.F**2 * (np.eye(2) - np.outer(p.y, dF_dy) / mp.F)
        scale = max(1.0, float(np.max(np.abs(cv.Rmat))))
        assert np.max(np.abs(cv.Rmat - recon)) < 1e-8 * scale


def test_scalar_classify_flat_surface():
    verdicts, samples = classify(parse(EX45), make_batch(2, (0.6, 1.0, 1.4), (-0.6, 0.0, 0.5)))
    assert verdicts["is_scalar"]
    assert len(samples["K"]) == 9 and np.all(np.abs(samples["K"]) < 1e-10)


def test_scalar_classify_riemannian_example():
    batch = make_batch(2, (1.0,), (-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.5, 0.6))
    verdicts, samples = classify(parse("sqrt(1+s^2)"), batch)
    assert verdicts["is_scalar"] and len(samples["K"]) == 8
    for K in samples["K"]:
        assert K == pytest.approx(0.25, rel=1e-9)  # 1/(1+r^2)^2 at r = 1


def test_scalar_classify_flat_in_three_dimensions():
    verdicts, samples = classify(parse("1"), make_batch(3, (0.7, 1.1, 1.5), (-0.5, 0.1, 0.6)))
    assert verdicts["is_scalar"] and "riemannian" not in verdicts
    assert len(samples["K"]) == 9 and np.all(samples["K"] == 0.0)


def test_scalar_classify_rejects_r3_in_three_dimensions():
    # the flat-surface metric has R3 != 0, so it is not of scalar
    # curvature once the dimension exceeds two
    verdicts, _ = classify(parse(EX45), make_batch(3, (0.7, 1.1, 1.5), (-0.5, 0.1, 0.6)))
    assert verdicts["is_scalar"] is False
    assert verdicts["max_R3_residual"] > 1e-3


def test_scalar_classify_grid_too_small():
    # the size rule is checked once and fails all three verdicts, with no K samples
    verdicts, samples = classify(parse("1+s"), make_batch(2, (1.0,), (0.2, 0.4)))
    error = "grid of >= 8 points required, got 2"
    assert verdicts == {
        "is_scalar": None,
        "scalar_error": error,
        "degeneracy": None,
        "degeneracy_error": error,
        "riemannian": None,
        "riemannian_error": error,
    }
    assert all(len(column) == 0 for column in samples.values())


@pytest.mark.parametrize("shape", [(), (1,)])
def test_classify_one_point_fails_the_size_rule(shape):
    # a one-point call is a batch of shape (): it gives what a shape-(1,) batch gives
    p = canonical_point(2, *(np.full(shape, v) for v in (1.0, 0.3, 1.0)))
    verdicts, samples = classify(parse("1+s"), p)
    error = "grid of >= 8 points required, got 1"
    assert verdicts == {
        "is_scalar": None,
        "scalar_error": error,
        "degeneracy": None,
        "degeneracy_error": error,
        "riemannian": None,
        "riemannian_error": error,
    }
    assert list(samples) == ["r", "s", "u", "K"]
    assert all(column.shape == (0,) for column in samples.values())


@pytest.mark.parametrize(
    "text, error, match",
    [
        ("1+s^2-0.7*r", GeometryError, "is not positive"),
        ("2 + 0.3*s + ln(1.4 - r)", DomainError, "ln of non-positive"),
    ],
)
def test_scalar_classify_raises_the_first_failing_points_error(text, error, match):
    # phi <= 0, or a jet outside its domain, at r = 1.5 only; the grid is evaluated
    # in one batch, and the scalar test gives the error of the first such point
    grid = make_grid(2, (1.2, 1.5), (-0.4, 0.0, 0.3, 0.6))
    verdicts, samples = classify(parse(text), make_batch(2, (1.2, 1.5), (-0.4, 0.0, 0.3, 0.6)))
    alone = []  # the error each failing point raises on its own
    for p in grid:
        try:
            curvature_at(text, p)
        except error as exc:
            alone.append(str(exc))
    assert alone and re.search(match, alone[0])
    assert verdicts["is_scalar"] is None and verdicts["scalar_error"] == alone[0]
    assert len(samples["K"]) == 0


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
    batch = make_batch(2, (0.6, 1.0, 1.4), (-0.6, 0.0, 0.5))
    verdicts, samples = classify(parse("sqrt(1+s^2)"), batch)
    assert verdicts["is_scalar"] is False
    for name in ("r", "s", "u"):
        assert samples[name].tolist() == getattr(batch, name)[:3].tolist()
