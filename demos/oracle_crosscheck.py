#!/usr/bin/env python3
"""Trust-but-verify: exact anchors and two independent evaluation routes.

The d=2 and d=3 simplex densities have elementary closed forms (EXACT),
which check both instruments: the Monte-Carlo estimator and the
Laplace-Chebyshev quadrature (a Laplace transform over lambda, carried down
the chain levels by Chebyshev averaging operators), which runs the same
recursion there as at every other d.  Beyond those, the two are independent instruments for
the same solid-angle integral, at any dimension, and they must agree
within their stated uncertainties.  The quadrature's own error is near 1e-13 relative, so each
separation measures the Monte-Carlo error; the last block does the same
for the gap sigma - sigma_hat, which carries the paper's claim.

Exits 1 when a d = 2, 3 quadrature lies more than 1e-13 relative from its
closed form or any separation exceeds 3 se, and 0 otherwise.

Usage: python demos/oracle_crosscheck.py
"""

import math
import sys
import time

from packbounds import (
    canonical_simplex,
    canonical_wedge,
    improvement_gap,
    quadrature_density,
    quadrature_gap,
    surface_density,
)

SEED = 31337

# d = 2: three pi/3 sectors of the unit disc over the area sqrt(3) of the
# regular triangle of edge 2; d = 3: four corner solid angles (spherical
# excess 3 acos(1/3) - pi) over 3 times the tetrahedron's volume 2 sqrt(2)/3
EXACT = {
    2: math.pi / (2.0 * math.sqrt(3.0)),
    3: (4.0 / 3.0) * (3.0 * math.acos(1.0 / 3.0) - math.pi) / (2.0 * math.sqrt(2.0) / 3.0),
}


def main():
    worst_anchor = worst_sep = 0.0
    print("exact anchors:")
    for d, exact in EXACT.items():
        quad = quadrature_density(canonical_simplex(d))
        mc = surface_density(canonical_simplex(d), 10**6, SEED + d)
        z = (mc.value - exact) / mc.stderr
        rel = abs(quad.value - exact) / exact
        worst_anchor = max(worst_anchor, rel)
        worst_sep = max(worst_sep, abs(z))
        print(f"  d={d}: exact {exact:.10f}")
        print(f"        quadrature {quad.value:.15f}  (relative deviation {rel:.1e})")
        print(f"        monte-carlo {mc.value:.10f} +- {mc.stderr:.1e}  ({z:+.2f} se)")

    print("\ncross-oracle without anchors (simplex and wedge):")
    t0 = time.time()
    for label, make, ds in (("simplex", canonical_simplex, (5, 8, 16, 24)),
                            ("wedge", canonical_wedge, (5, 8, 16, 24))):
        for d in ds:
            cfg = make(d)
            mc = surface_density(cfg, 4 * 10**5, SEED + 10 * d)
            quad = quadrature_density(cfg)
            sep = abs(mc.value - quad.value) / math.hypot(mc.stderr, quad.stderr)
            worst_sep = max(worst_sep, sep)
            print(f"  {label:8s} d={d}: mc {mc.value:.7f} +- {mc.stderr:.1e} | "
                  f"quad {quad.value:.7f} +- {quad.stderr:.1e} | "
                  f"separation {sep:.2f} se")
    print(f"\n  {time.time() - t0:.1f}s; separations beyond 3 would flag a defect")
    print("  in one of the two instruments, which share only the chain")
    print("  coefficients and the domains' radial mass.")

    print("\nthe gap sigma - sigma_hat, quadrature vs paired Monte-Carlo:")
    for d in (8, 24, 42):
        gap, err = quadrature_gap(d)
        mc = improvement_gap(d, 10**6, SEED + d)
        sep = abs(mc.gap - gap) / math.hypot(mc.gap_stderr, err)
        worst_sep = max(worst_sep, sep)
        print(f"  d={d}: quad {gap:.9e} +- {err:.1e} | "
              f"mc {mc.gap:.9e} +- {mc.gap_stderr:.1e} | separation {sep:.2f} se")

    print(f"\nworst anchor deviation {worst_anchor:.1e} (limit 1e-13), "
          f"worst separation {worst_sep:.2f} se (limit 3)")
    return 1 if worst_anchor > 1e-13 or worst_sep > 3.0 else 0


if __name__ == "__main__":
    sys.exit(main())
