"""Screen candidate phi functions for metric degeneracy.

Two whole families produce singular metric tensors at every point:

    phi = f(r^2) * s
    phi = f1(r^2) * s + f2(r^2) * sqrt(r^2 - s^2)

The first kills the t = phi - s*phi_s factor of det(g) (type A), the second
kills the D = t + (r^2 - s^2)*phi_ss factor (type B). Anything that avoids
both factors vanishing is usable as a metric.
"""

import numpy as np

from finslerlab import canonical_point, classify, eval_jet, metric_pack, parse, phi_scalars

CANDIDATES = [
    "3*s",
    "(1 + 0.5*r^2)*s",
    "2*s + 0.5*sqrt(r^2 - s^2)",
    "(1 + r^2)*s + 0.8*r^2*sqrt(r^2 - s^2)",
    "1 + 0.3*s",
    "sqrt(1 + s^2)",
]


def main():
    # s kept positive so every candidate phi is positive on the grid
    r, frac = (a.ravel() for a in np.meshgrid((0.7, 1.0, 1.3), (0.2, 0.4, 0.6), indexing="ij"))
    grid = canonical_point(3, r, frac * r, np.ones(r.size))
    for text in CANDIDATES:
        e = parse(text)
        # classify gives all its verdicts from one evaluation pass; this screen reads one
        verdicts, _ = classify(e, grid)
        det = metric_pack(phi_scalars(eval_jet(e, grid.r, grid.s), grid), grid).det_direct
        print(f"{text:45s} {verdicts['degeneracy']:16s} max |det g| = {np.abs(det).max():.2e}")


if __name__ == "__main__":
    main()
