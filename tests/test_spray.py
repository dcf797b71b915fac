import math

import numpy as np
import pytest

from conftest import assert_row_matches, cut_jet, make_grid, rotated_batch, shift_jet
from finslerlab import (
    GeometryError,
    canonical_point,
    eval_jet,
    horizontal_residual,
    metrizability_from_spray,
    metrizability_residuals,
    parse,
    pq_from_phi,
)
from finslerlab.spray import pq_jets

EX45 = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"


def test_riemannian_example_pq():
    # phi = sqrt(1+s^2): P = 0, Q = 1/(2(1+r^2))
    p = canonical_point(2, 1.0, 0.2, 1.0)
    sp = pq_from_phi(eval_jet(parse("sqrt(1+s^2)"), 1.0, 0.2), p)
    assert sp.P == pytest.approx(0.0, abs=1e-12)
    assert sp.Q == pytest.approx(0.25, rel=1e-12)


def test_flat_surface_example_pq():
    r, s = 1.0, 0.3
    p = canonical_point(2, r, s, 1.0)
    sp = pq_from_phi(eval_jet(parse(EX45), r, s), p)
    w = math.sqrt(r * r - s * s)
    assert sp.P == pytest.approx(-s / r**2 - 3 / (4 * r**2) * w, rel=1e-12)
    assert sp.Q == pytest.approx(
        7 / (8 * r**2) - 3 * s**2 / (8 * r**4) - 3 * s / (4 * r**4) * w, rel=1e-12
    )


def test_euclidean_is_flat():
    p = canonical_point(3, 1.0, 0.4, 2.0)
    sp = pq_from_phi(eval_jet(parse("1"), 1.0, 0.4), p)
    assert sp.P == 0.0 and sp.Q == 0.0
    assert np.allclose(sp.G, 0.0)
    assert np.allclose(sp.N, 0.0)


def test_degenerate_denominator_reported():
    # phi = 2s + 0.5 sqrt(r^2 - s^2) kills the TYPE_B factor
    jet = eval_jet(parse("2*s + 0.5*sqrt(r^2-s^2)"), 1.0, 0.5)
    p = canonical_point(2, 1.0, 0.5, 1.0)
    with pytest.raises(GeometryError, match="TYPE_B"):
        pq_from_phi(jet, p)


@pytest.mark.parametrize("text", ["1+s", "sqrt(1+s^2)", EX45])
def test_horizontal_residual_vanishes(text):
    e = parse(text)
    for p in make_grid(2, (0.7, 1.0, 1.4), (-0.5, 0.1, 0.6), (1.0, 2.0)):
        jet = eval_jet(e, p.r, p.s)
        sp = pq_from_phi(jet, p)
        phi = jet.partial(0, 0)
        resid = horizontal_residual(jet, sp, p)
        assert np.max(np.abs(resid)) < 1e-9 * p.u * max(1.0, phi)


def test_horizontal_residual_detects_wrong_spray():
    p = canonical_point(2, 1.0, 0.5, 1.0)
    jet = eval_jet(parse("sqrt(1+s^2)"), 1.0, 0.5)
    sp = pq_from_phi(jet, p)
    # G and N are formed from the pack's fields: Q -> Q + 0.1 shifts them with it
    bad = sp._replace(Q=sp.Q + 0.1)
    assert np.allclose(bad.N, sp.N + 2 * 0.1 * np.outer(p.x, p.y), rtol=0, atol=1e-15)
    assert np.allclose(bad.G, sp.G + p.u**2 * 0.1 * p.x, rtol=0, atol=1e-15)
    assert np.max(np.abs(horizontal_residual(jet, bad, p))) > 1e-3


def test_spray_homogeneity():
    for text in ("1+s", EX45):
        e = parse(text)
        for p in make_grid(3, (0.8, 1.2), (-0.4, 0.3), (1.0, 1.5)):
            sp = pq_from_phi(eval_jet(e, p.r, p.s), p)
            assert np.allclose(sp.N @ p.y, 2 * sp.G, rtol=1e-9, atol=1e-12)


def test_connection_matches_finite_differences_of_spray():
    # N^i_j = dG^i/dy^j, by central differences in the raw y coordinates
    e = parse("1 + 0.3*s + 0.1*r^2")
    p = canonical_point(3, 1.1, 0.4, 1.3)

    def spray_coeffs(yvec):
        u = float(np.linalg.norm(yvec))
        s = float(p.x @ yvec) / u
        jet = eval_jet(e, p.r, s)
        pj_sp = pq_from_phi(jet, canonical_point(3, p.r, s, u))
        return u * pj_sp.P * yvec + u * u * pj_sp.Q * p.x

    sp = pq_from_phi(eval_jet(e, p.r, p.s), p)
    h = 1e-5
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (spray_coeffs(p.y + step) - spray_coeffs(p.y - step)) / (2 * h)
        assert np.allclose(sp.N[:, j], fd, atol=1e-5), j


def test_metrizability_own_spray_randers():
    # phi = 1 + s has P = 1/(2(1+s)), Q = 0
    e = parse("1+s")
    p_expr, q_expr = parse("1/(2*(1+s))"), parse("0")
    for p in make_grid(2, (0.7, 1.3), (-0.5, 0.2, 0.6)):
        jet = eval_jet(e, p.r, p.s)
        res = metrizability_residuals(jet, p_expr, q_expr, p)
        assert abs(res.C1) < 1e-9
        assert abs(res.C2) < 1e-9


def test_metrizability_flat_surface_closed_forms():
    # closed-form P, Q of the flat-surface example; the constant in front
    # of s^2/r^4 inside Q is 3/8 (a 3 appears in the source display, but
    # only 3/8 is consistent with the generating phi)
    e = parse(EX45)
    p_expr = parse("-s/r^2 - 3/(4*r^2)*sqrt(r^2-s^2)")
    q_expr = parse("7/(8*r^2) - 3*s^2/(8*r^4) - 3*s/(4*r^4)*sqrt(r^2-s^2)")
    for p in make_grid(2, (0.7, 1.0, 1.5), (-0.6, 0.0, 0.6)):
        jet = eval_jet(e, p.r, p.s)
        res = metrizability_residuals(jet, p_expr, q_expr, p)
        assert abs(res.C1) < 1e-8
        assert abs(res.C2) < 1e-8


@pytest.mark.parametrize("text", [EX45, "1+s", "(1+s)^r"])
def test_metrizability_residuals_read_phi_to_first_order(text):
    # C1/C2 read phi, phi_r, phi_s only: a degree-1 phi jet gives the degree-4 bits
    p_expr = parse("-s/r^2 - 3/(4*r^2)*sqrt(r^2-s^2)")
    q_expr = parse("7/(8*r^2) - 3*s^2/(8*r^4) - 3*s/(4*r^4)*sqrt(r^2-s^2)")
    _, batch, jets, _ = rotated_batch(text, 3)
    low = eval_jet(parse(text), batch.r, batch.s, degree=1)
    for a, b in zip(
        metrizability_residuals(low, p_expr, q_expr, batch),
        metrizability_residuals(jets, p_expr, q_expr, batch),
    ):
        assert a.tobytes() == b.tobytes()


def test_metrizability_rejects_zero_spray():
    p = canonical_point(2, 1.0, 0.3, 1.0)
    jet = eval_jet(parse("1+s"), 1.0, 0.3)
    res = metrizability_residuals(jet, parse("0"), parse("0"), p)
    assert res.C2 == pytest.approx(0.0, abs=1e-14)  # phi_r = 0
    assert abs(res.C1) > 0.5  # C1 reduces to phi_s = 1


# -- batched P/Q jets: every row equals the one-point evaluation ---------------

BASIS_COMBINATION = (
    "1.2 + 0.1*s + 0.05*s^2 + 0.2*sqrt(1+s^2) + 0.1*exp(s/10) + 0.03*r^2 + 0.07*r*s"
)
GRID_R = np.repeat([0.6, 0.9, 1.2, 1.7], 5)
GRID_S = GRID_R * np.tile([-0.7, -0.3, 0.0, 0.4, 0.8], 4)


@pytest.mark.parametrize(
    "text",
    ["1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))", "1+s", BASIS_COMBINATION, "sqrt(1+s^2)"],
)
def test_batched_pq_jets_match_single_point_bits(text):
    e = parse(text)
    p_batch, q_batch = pq_jets(eval_jet(e, GRID_R, GRID_S), GRID_R, GRID_S)
    for k, (r, s) in enumerate(zip(GRID_R, GRID_S)):
        p_one, q_one = pq_jets(eval_jet(e, r, s), r, s)
        assert p_batch.c[:, :, k].tobytes() == p_one.c.tobytes(), k
        assert q_batch.c[:, :, k].tobytes() == q_one.c.tobytes(), k


@pytest.mark.parametrize(
    "text",
    [
        # TYPE_B at r = 1, where phi = 2s + 0.5 sqrt(r^2 - s^2); the others are regular
        "2*s + 0.5*sqrt(r^2-s^2) + 0.1*s^2*(r-1)",
        # at r = 1 the denominator is exactly 0: the TYPE_B error comes first
        "3*s + 0.1*(r-1)",
    ],
)
def test_batched_pq_jets_keep_each_point_error(text):
    e = parse(text)
    r = np.array([1.0, 1.2, 1.0, 0.8])
    s = np.array([0.5, 0.3, -0.2, 0.1])
    errors = {}
    p_batch, q_batch = pq_jets(eval_jet(e, r, s), r, s, errors=errors)
    failed = 0
    for k in range(len(r)):
        try:
            p_one, q_one = pq_jets(eval_jet(e, r[k], s[k]), r[k], s[k])
        except GeometryError as exc:
            failed += 1
            assert type(errors[k]) is GeometryError and str(errors[k]) == str(exc)
        else:
            assert k not in errors
            assert p_batch.c[:, :, k].tobytes() == p_one.c.tobytes()
            assert q_batch.c[:, :, k].tobytes() == q_one.c.tobytes()
    assert 0 < failed < len(r)


# -- batched spray packs: every row equals the one-point pack ------------------


@pytest.mark.parametrize("text", ["1+s", "sqrt(1+s^2)", EX45, "1 + 0.2*s + 0.1*s^2 + 0.05*r^2"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_spray_rows_match_single_points(text, n):
    points, batch, jets, singles = rotated_batch(text, n)
    sp = pq_from_phi(jets, batch)
    assert sp.G.shape == (len(points), n) and sp.N.shape == (len(points), n, n)
    resid = horizontal_residual(jets, sp, batch)
    mr = metrizability_from_spray(jets, sp, batch)
    for k, (p, jet) in enumerate(zip(points, singles)):
        one = pq_from_phi(jet, p)
        assert_row_matches(sp, one, k)
        assert_row_matches((sp.G, sp.N), (one.G, one.N), k)
        assert_row_matches(resid, horizontal_residual(jet, one, p), k)
        assert_row_matches(mr, metrizability_from_spray(jet, one, p), k)


def test_pq_jets_do_not_read_the_unused_reciprocal_seeds():
    # at s = 0, phi = 1e-63 + s^2 gives P = 0 and Q = 1/(2 r^2), up to 1e-63.
    # 1/phi's fourth Taylor seed 24/phi^5 overflows there; P and Q, as
    # degree-2 jets, never read it
    r = np.array([1.0, 0.5])
    p, q = pq_jets(eval_jet(parse("1e-63 + s^2"), r, 0.0 * r), r, 0.0 * r)
    assert p.c.shape == q.c.shape == (3, 3, 2)
    assert np.all(p.value == 0.0)
    assert q.value == pytest.approx(0.5 / (r * r), rel=1e-15)


def reference_pq_jets(jet, r, s, errors):
    """pq_jets as written before its one gather and its one reciprocal: phi's
    partials by shifting and cutting, and the three reciprocals in turn.
    Returns P, Q and, for each reciprocal, the points where it fails alone."""
    from finslerlab.jet import Jet, fail_nonfinite, fail_where, jet_reciprocal

    alone = []

    def reciprocal(g):
        jet_reciprocal(g, errors=(own := {}))
        alone.append(set(own))
        return jet_reciprocal(g, errors=errors)

    phi_r, phi_s = shift_jet(jet, 0), shift_jet(jet, 1)
    phi_ss, phi_rs = cut_jet(shift_jet(phi_s, 1), 2), cut_jet(shift_jet(phi_r, 1), 2)
    phi, phi_r, phi_s = cut_jet(jet, 2), cut_jet(phi_r, 2), cut_jet(phi_s, 2)
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
    q = (-phi_r + sj * phi_rs + rj * phi_ss) * reciprocal(2.0 * rj * denom)
    p = -(q * reciprocal(phi)) * (sj * phi + w * phi_s)
    p = p + (sj * phi_r + rj * phi_s) * reciprocal(2.0 * rj * phi)
    return p, q, alone


# r = 0 zeroes 2r denom and 2r phi, r = 1e62 puts their fifth powers out of
# float range, and phi = 1e-70 at s = 1 puts phi's out of range (phi = 0 there
# zeroes it, after a 2r denom out of range at r = 1e62); phi = s fails the
# guards at s = 0.  So the points fail none, one, two or all three
# reciprocals, or a guard first.
STACK_R = np.repeat([0.0, 1e62, 2.0, 0.7], 4)
STACK_S = np.tile([0.0, -0.0, 1.0, -0.5], 4)


@pytest.mark.parametrize(
    "text", ["1e-70 + (s-1)^2", "(s-1)^2", "1 + s", "1e-63 + s^2", "s", "s^3 + 2"]
)
def test_pq_jets_stacked_reciprocal_keeps_the_sequential_route(text):
    # the values, and each point's first error in the same insertion order, of the
    # three reciprocals taken one after another
    with np.errstate(all="ignore"):
        jet = eval_jet(parse(text), STACK_R, STACK_S, errors={})
        errors, reference_errors = {}, {}
        p, q = pq_jets(jet, STACK_R, STACK_S, errors=errors)
        p_ref, q_ref, alone = reference_pq_jets(jet, STACK_R, STACK_S, reference_errors)
    listed = [(k, type(e), str(e)) for k, e in errors.items()]
    assert listed == [(k, type(e), str(e)) for k, e in reference_errors.items()]
    assert p.c.tobytes() == p_ref.c.tobytes() and q.c.tobytes() == q_ref.c.tobytes()
    if text == "1e-70 + (s-1)^2":
        # points where two and where three reciprocals fail, none failing a guard first
        reciprocal_first = {k for k, e in errors.items() if type(e) is not GeometryError}
        fails = {k: sum(k in a for a in alone) for k in reciprocal_first}
        assert {2, 3} <= set(fails.values())
