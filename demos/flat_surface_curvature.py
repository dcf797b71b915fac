"""Walk through the curvature pipeline for a projectively flat surface metric.

The metric is F = u * phi(r, s) with

    phi = r^-5 * sqrt(r^2 - s^2) * exp(2s / sqrt(r^2 - s^2))

All five curvature scalars are nonzero, yet the flag curvature vanishes
identically, so this is a genuinely non-Riemannian flat surface.
"""

import numpy as np

from finslerlab import (
    canonical_point,
    eval_jet,
    flag_curvature,
    metric_pack,
    parse,
    phi_scalars,
    pq_from_phi,
    riemann_pack,
)

PHI = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"


def main():
    e = parse(PHI)
    print(f"phi = {PHI}\n")

    header = f"{'r':>5} {'s':>6} {'P':>10} {'Q':>10} {'R1':>10} {'R3':>10} {'K':>12}"
    print(header)
    # the nine points as one batch: one evaluation pass for the whole table
    r, frac = (a.ravel() for a in np.meshgrid((0.6, 1.0, 1.5), (-0.5, 0.0, 0.5), indexing="ij"))
    p = canonical_point(2, r, frac * r, np.ones(r.size))
    jet = eval_jet(e, p.r, p.s)
    sp = pq_from_phi(jet, p)
    cv = riemann_pack(sp, jet, p)
    K = flag_curvature(cv, jet.partial(0, 0), p)
    for r, s, P, Q, R1, R3, k in zip(p.r, p.s, sp.P, sp.Q, cv.R1, cv.R3, K):
        print(f"{r:5.2f} {s:6.2f} {P:10.5f} {Q:10.5f} {R1:10.5f} {R3:10.5f} {k:12.2e}")

    # the Jacobi endomorphism annihilates y and its trace contracts to
    # (n-1) R1 + (r^2 - s^2) R3, both good smoke tests for the assembly
    p = canonical_point(2, 1.0, 0.3, 1.4)
    jet = eval_jet(e, 1.0, 0.3)
    sp = pq_from_phi(jet, p)
    cv = riemann_pack(sp, jet, p)
    mp = metric_pack(phi_scalars(jet, p), p)
    print(f"\nF(x, y)            = {mp.F:.8f}")
    Rmat = cv.Rmat  # formed on each read
    print(f"max |R^i_j y^j|    = {np.max(np.abs(Rmat @ p.y)):.2e}")
    trace = np.trace(Rmat) / p.u**2
    print(f"trace contraction  = {trace:.8f}")
    print(f"(n-1)R1 + w R3     = {cv.R1 + (1.0 - 0.09) * cv.R3:.8f}")
    print(f"compatibility C3   = {cv.C3:.2e}")


if __name__ == "__main__":
    main()
