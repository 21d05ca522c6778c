#!/usr/bin/env python3
"""Trust-but-verify: exact anchors and two independent evaluation routes.

The d=2 and d=3 simplex densities have elementary closed forms (the
quadrature returns the same exact value there); beyond those, the
Monte-Carlo estimator and the chain-variable grid quadrature are
independent instruments for the same solid-angle integral, at any
dimension, and they must agree within their stated uncertainties.

Usage: python demos/oracle_crosscheck.py
"""

import math
import time

from packbounds import (
    canonical_simplex,
    canonical_wedge,
    closed_form_simplex_density,
    quadrature_density,
    surface_density,
)

SEED = 31337


def main():
    print("exact anchors:")
    for d in (2, 3):
        exact = closed_form_simplex_density(d)
        mc = surface_density(canonical_simplex(d), 10**6, SEED + d)
        z = (mc.value - exact.value) / mc.stderr
        print(f"  d={d}: exact {exact.value:.10f}")
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
            print(f"  {label:8s} d={d}: mc {mc.value:.7f} +- {mc.stderr:.1e} | "
                  f"quad {quad.value:.7f} +- {quad.stderr:.1e} | "
                  f"separation {sep:.2f} se")
    print(f"\n  {time.time() - t0:.1f}s; separations beyond 3 would flag a defect")
    print("  in one of the two instruments, since they share no code path.")


if __name__ == "__main__":
    main()
