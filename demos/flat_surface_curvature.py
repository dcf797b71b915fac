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
    pq_from_phi,
    riemann_pack,
)

PHI = "1/r^5*sqrt(r^2-s^2)*exp(2*s/sqrt(r^2-s^2))"


def main():
    e = parse(PHI)
    print(f"phi = {PHI}\n")

    header = f"{'r':>5} {'s':>6} {'P':>10} {'Q':>10} {'R1':>10} {'R3':>10} {'K':>12}"
    print(header)
    for r in (0.6, 1.0, 1.5):
        for frac in (-0.5, 0.0, 0.5):
            s = frac * r
            p = canonical_point(2, r, s, 1.0)
            jet = eval_jet(e, r, s)
            sp = pq_from_phi(jet, p)
            cv = riemann_pack(sp, jet, p)
            K = flag_curvature(cv, jet.partial(0, 0), p)
            print(
                f"{r:5.2f} {s:6.2f} {sp.P:10.5f} {sp.Q:10.5f}"
                f" {cv.R1:10.5f} {cv.R3:10.5f} {K:12.2e}"
            )

    # the Jacobi endomorphism annihilates y and its trace contracts to
    # (n-1) R1 + (r^2 - s^2) R3, both good smoke tests for the assembly
    p = canonical_point(2, 1.0, 0.3, 1.4)
    jet = eval_jet(e, 1.0, 0.3)
    sp = pq_from_phi(jet, p)
    cv = riemann_pack(sp, jet, p)
    mp = metric_pack(jet, p)
    print(f"\nF(x, y)            = {mp.F:.8f}")
    Rmat = cv.Rmat  # formed on each read
    print(f"max |R^i_j y^j|    = {np.max(np.abs(Rmat @ p.y)):.2e}")
    trace = np.trace(Rmat) / p.u**2
    print(f"trace contraction  = {trace:.8f}")
    print(f"(n-1)R1 + w R3     = {cv.R1 + (1.0 - 0.09) * cv.R3:.8f}")
    print(f"compatibility C3   = {cv.C3:.2e}")


if __name__ == "__main__":
    main()
