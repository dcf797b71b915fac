"""Acceptance suite: one test per release criterion.

Each test appends a single pass/fail line to the terminal summary so the
whole checklist is visible in one place at the end of a run.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, make_batch, make_grid, rel_close
from oracles import fd_partials

from finslerlab import (
    berwald_frame,
    classify,
    eval_jet,
    flag_curvature,
    horizontal_residual,
    main_scalar,
    metric_pack,
    metrizability_from_spray,
    parse,
    phi_scalars,
    pq_from_phi,
    riemann_pack,
)

FLAT_SURFACE = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"
SPHERE_LIKE = "sqrt(1+s^2)"
RANDERS = "1+s"

BASIS_TERMS = ["s", "s^2", "sqrt(1+s^2)", "exp(s/10)", "r^2", "r*s"]


def record(name, ok):
    ACCEPTANCE_LINES.append(f"[{'pass' if ok else 'FAIL'}] {name}")
    assert ok, name


def random_phis(count, seed=2024):
    """Random positive combinations of a fixed regular basis."""
    rng = np.random.default_rng(seed)
    phis = []
    for _ in range(count):
        parts = [f"{rng.uniform(0.8, 1.5):.6f}"]
        for term in BASIS_TERMS:
            parts.append(f"{rng.uniform(0.0, 0.25):.6f}*{term}")
        phis.append(" + ".join(parts))
    return phis


def grid_5x5(n, u=1.0):
    return make_grid(
        n,
        np.linspace(0.5, 2.0, 5),
        np.linspace(-0.8, 0.8, 5),
        (u,),
    )


def test_criterion_flat_surface_family():
    """P, Q, R1..R5 match their closed forms; K vanishes; runs in < 1 s."""
    e = parse(FLAT_SURFACE)
    started = time.perf_counter()
    ok = True
    for p in grid_5x5(2):
        r, s = p.r, p.s
        root = math.sqrt(r * r - s * s)
        jet = eval_jet(e, r, s)
        sp = pq_from_phi(jet, p)
        cv = riemann_pack(sp, jet, p)
        expected = {
            sp.P: -s / r**2 - 3 * root / (4 * r**2),
            sp.Q: 7 / (8 * r**2) - 3 * s**2 / (8 * r**4) - 3 * s * root / (4 * r**4),
            cv.R1: 25 * (r * r - s * s) / (16 * r**4),
            cv.R2: -25 / (16 * r * r),
            cv.R3: -25 / (16 * r**4),
            cv.R4: 25 * s / (16 * r**4),
            cv.R5: 25 * s / (16 * r**4),
        }
        for got, want in expected.items():
            ok = ok and rel_close(got, want, rel=1e-7, abs_tol=1e-10)
        K = flag_curvature(cv, jet.partial(0, 0), p)
        ok = ok and abs(K) < 1e-8
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    record("flat surface family: P, Q, R1..R5, K = 0, runtime", ok)


def test_criterion_positive_curvature_family():
    """phi = sqrt(1+s^2): closed-form spray and curvature scalars."""
    e = parse(SPHERE_LIKE)
    ok = True
    for p in grid_5x5(2):
        r = p.r
        jet = eval_jet(e, p.r, p.s)
        sp = pq_from_phi(jet, p)
        cv = riemann_pack(sp, jet, p)
        ok = ok and abs(sp.P) < 1e-10
        ok = ok and rel_close(sp.Q, 1 / (2 * (1 + r * r)), rel=1e-8)
        ok = ok and rel_close(cv.R1, 1 / (1 + r * r), rel=1e-8)
        ok = ok and rel_close(cv.R3, -1 / (1 + r * r) ** 2, rel=1e-8)
        ok = ok and abs(cv.R5) < 1e-8
        K = flag_curvature(cv, jet.partial(0, 0), p)
        ok = ok and rel_close(K, 1 / (1 + r * r) ** 2, rel=1e-8)
    record("positive curvature family: P, Q, R1, R3, R5, K", ok)


def test_criterion_randers_surface_invariants():
    """phi = 1+s: inverse-metric factors, frame scale, mu and nu."""
    e = parse(RANDERS)
    ok = True
    for p in make_grid(2, (0.7, 1.0, 1.4, 1.8), (-0.5, -0.2, 0.3, 0.6)):
        r, s = p.r, p.s
        ps = phi_scalars(eval_jet(e, r, s), p)
        mp = metric_pack(ps, p)
        fr = berwald_frame(ps, p, mp)
        ok = ok and rel_close(mp.rho0, 1 / (1 + s), rel=1e-9)
        ok = ok and rel_close(mp.rho1, (r * r + s) / (1 + s) ** 3, rel=1e-9)
        ok = ok and rel_close(mp.rho2, -1 / (1 + s) ** 2, rel=1e-9)
        ok = ok and abs(mp.rho3) < 1e-12
        ok = ok and rel_close(fr.a, math.sqrt((1 + s) / (r * r - s * s)), rel=1e-9)
        ok = ok and abs(ps.mu - 1.0) < 1e-12
        ok = ok and abs(ps.nu) < 1e-12
    record("randers surface: rho factors, frame scale, mu = 1, nu = 0", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the transcribed closed form for I disagrees with both "
    "independent computations except on the locus r^2 = 1 + s^2",
)
def test_criterion_randers_main_scalar_closed_form():
    e = parse(RANDERS)
    ok = True
    for p in make_grid(2, (0.7, 1.0, 1.4, 1.8), (-0.5, -0.2, 0.3, 0.6)):
        r, s = p.r, p.s
        ps = phi_scalars(eval_jet(e, r, s), p)
        ms = main_scalar(ps, p, metric_pack(ps, p))
        closed = (
            -1.5
            * (r * r - 2 * s * s - 2 * s - 2)
            / (1 + s) ** 2
            * math.sqrt((r * r - s * s) / (1 + s))
        )
        ok = ok and rel_close(ms.I, closed, rel=1e-7)
    record("randers surface: main scalar closed form (known discrepancy)", ok)


def test_criterion_metrizability_identity_suite():
    """Self-consistency residuals vanish for random regular metrics."""
    ok = True
    for text in random_phis(10):
        e = parse(text)
        for p in make_grid(3, np.linspace(0.7, 1.4, 5), np.linspace(-0.6, 0.6, 5)):
            jet = eval_jet(e, p.r, p.s)
            phi = jet.partial(0, 0)
            sp = pq_from_phi(jet, p)
            cv = riemann_pack(sp, jet, p)
            mr = metrizability_from_spray(jet, sp, p)
            scale = max(
                1.0, abs(cv.R1), abs(cv.R2), abs(cv.R3), abs(cv.R4), abs(cv.R5)
            )
            ok = ok and max(abs(mr.C1), abs(mr.C2)) < 1e-8 * max(1.0, phi)
            ok = ok and abs(cv.C3) < 1e-8 * scale * max(1.0, phi)
            resid = np.max(np.abs(horizontal_residual(phi_scalars(jet, p), sp.N, p)))
            ok = ok and resid < 1e-8 * p.u * max(1.0, phi)
            ok = ok and abs(cv.R1 + cv.R2 + p.s * cv.R5) < 1e-8 * scale
            ok = ok and abs(cv.R4 + p.s * cv.R3) < 1e-8 * scale
            jacobi = np.max(np.abs(cv.Rmat @ p.y))
            ok = ok and jacobi < 1e-8 * scale * p.u**2 * max(1.0, p.u, p.r)
    record("metrizability identities: C1, C2, C3, d_h F, R identities", ok)


def test_criterion_determinant_formula():
    ok = True
    for text in random_phis(10):
        e = parse(text)
        for n in (2, 3, 4):
            for p in make_grid(n, (0.7, 1.0, 1.4), (-0.6, 0.0, 0.5)):
                mp = metric_pack(phi_scalars(eval_jet(e, p.r, p.s), p), p)
                ok = ok and rel_close(mp.det_direct, mp.det_formula, rel=1e-8)
    record("determinant: direct evaluation matches the product formula", ok)


def test_criterion_degenerate_families():
    """The two degenerate families have singular metrics and are detected."""
    rng = np.random.default_rng(7)
    ok = True
    fracs = (0.2, 0.35, 0.5, 0.65)
    for _ in range(3):
        a0, a1 = rng.uniform(0.5, 1.5, size=2)
        b0, b1, c0, c1 = rng.uniform(0.5, 1.5, size=4)
        type_a = f"({a0:.4f} + {a1:.4f}*r^2)*s"
        type_b = (
            f"({b0:.4f} + {b1:.4f}*r^2)*s"
            f" + ({c0:.4f} + {c1:.4f}*r^2)*sqrt(r^2-s^2)"
        )
        for text, verdict in (
            (type_a, "degenerate_type_a"),
            (type_b, "degenerate_type_b"),
        ):
            e = parse(text)
            grid = make_grid(2, (0.7, 1.0, 1.4), fracs) + make_grid(
                3, (0.8, 1.2), fracs
            )
            for p in grid:
                mp = metric_pack(phi_scalars(eval_jet(e, p.r, p.s), p), p)
                scale = max(1.0, float(np.max(np.abs(mp.g))))
                ok = ok and abs(mp.det_direct) < 1e-8 * scale**p.n
            for n, r_values in ((2, (0.7, 1.0, 1.4)), (3, (0.8, 1.2))):
                verdicts, _ = classify(e, make_batch(n, r_values, fracs))
                ok = ok and verdicts["degeneracy"] == verdict
    record("degenerate families: singular determinants and verdicts", ok)


def test_criterion_berwald_frame_suite():
    ok = True
    texts = [RANDERS, SPHERE_LIKE, FLAT_SURFACE] + random_phis(4, seed=11)
    for text in texts:
        e = parse(text)
        for p in make_grid(2, (0.7, 1.0, 1.4), (-0.6, -0.2, 0.3, 0.6), (1.0, 1.7)):
            ps = phi_scalars(eval_jet(e, p.r, p.s), p)
            mp = metric_pack(ps, p)
            fr = berwald_frame(ps, p, mp)
            scale = max(1.0, float(np.max(np.abs(mp.g))))
            ok = ok and abs(fr.ell_hi @ fr.ell_lo - 1.0) < 1e-9 * scale
            ok = ok and abs(fr.ell_hi @ fr.m_lo) < 1e-9 * scale
            ok = ok and abs(fr.m_hi @ fr.m_lo - 1.0) < 1e-9 * scale
            recon = np.outer(fr.ell_lo, fr.ell_lo) + np.outer(fr.m_lo, fr.m_lo)
            ok = ok and float(np.max(np.abs(mp.g - recon))) < 1e-9 * scale
            ms = main_scalar(ps, p, mp)
            ok = ok and abs(ms.I - ms.I_direct) < 1e-8 * max(1.0, abs(ms.I))
    record("berwald frame: orthonormality, metric resolution, main scalar", ok)


def fd_tol(value, order):
    if order <= 3:
        return max(1e-6, 1e-4 * abs(value))
    return max(1e-4, 1e-3 * abs(value))


def test_criterion_jet_oracle_agreement():
    """All 15 jet coefficients match finite differences at random points."""
    rng = np.random.default_rng(99)
    texts = [RANDERS, SPHERE_LIKE, FLAT_SURFACE]
    exprs = [parse(t) for t in texts]
    ok = True
    for i in range(100):
        r = rng.uniform(0.8, 1.5)
        s = rng.uniform(-0.6, 0.6) * r
        e = exprs[i % len(exprs)]
        jet = eval_jet(e, r, s)
        for a in range(5):
            for b in range(5 - a):
                fd = fd_partials(e, r, s, a, b)
                ok = ok and abs(jet.partial(a, b) - fd) <= fd_tol(fd, a + b)
    record("jet oracle: 15 coefficients vs finite differences, 100 points", ok)
