"""Berwald frame and main scalar on a Randers-type surface, phi = 1 + s.

The frame (ell, m) is g-orthonormal and resolves the metric as
g = ell (x) ell + m (x) m. The main scalar I is computed two independent
ways: from the inverse-metric factors, and from the full Cartan tensor
contracted three times with m. A Riemannian phi gives I = 0.
"""

import numpy as np

from finslerlab import (
    berwald_frame,
    canonical_point,
    eval_jet,
    main_scalar,
    metric_pack,
    parse,
    phi_scalars,
)


def show(phi_text, r, s):
    p = canonical_point(2, r, s, 1.0)
    ps = phi_scalars(eval_jet(parse(phi_text), r, s), p)  # phi's partials, read once
    mp = metric_pack(ps, p)
    fr = berwald_frame(ps, p, mp)
    ms = main_scalar(ps, p, mp)

    recon = np.outer(fr.ell_lo, fr.ell_lo) + np.outer(fr.m_lo, fr.m_lo)
    print(f"phi = {phi_text}   at (r, s) = ({r}, {s})")
    print(f"  a(r, s)                 = {fr.a:.8f}")
    print(f"  <ell, ell>              = {fr.ell_hi @ fr.ell_lo:.12f}")
    print(f"  <ell, m>                = {fr.ell_hi @ fr.m_lo:.2e}")
    print(f"  max |g - (ll + mm)|     = {np.max(np.abs(mp.g - recon)):.2e}")
    print(f"  I  (inverse factors)    = {ms.I:.10f}")
    print(f"  I  (Cartan contraction) = {ms.I_direct:.10f}\n")


def main():
    show("1 + s", 1.0, 0.0)
    show("1 + s", 1.0, 0.3)
    show("1 + s", 1.4, -0.5)
    # a Riemannian surface for contrast: the main scalar vanishes
    show("sqrt(1 + s^2)", 1.0, 0.3)


if __name__ == "__main__":
    main()
