#!/usr/bin/env python3
"""Truncated wedges: geometry, truncation gain, and the maximum property.

Builds base domains at several face heights (trace disc, disc-capped
square, disc-capped quadrilateral), shows that cutting a base at the trace
disc never lowers the surface density, and that admissible truncated wedges
stay below the wedge bound.

Usage: python demos/truncated_wedges.py
"""

import math

import numpy as np

from packbounds import surface_density, truncated_wedge, wedge_density
from packbounds.formulas import height_breakpoints, truncation_scalars
from packbounds.geometry import DiscPolygon, WedgeConfig, canonical_chain, truncation_domain

SEED = 777
N = 200_000
D = 8


def main():
    lo, mid, hi = height_breakpoints(D)
    print(f"face height ranges at d={D}:")
    print(f"  capped range  [{lo:.6f}, {mid:.6f})   (disc cut by sides)")
    print(f"  disc range    [{mid:.6f}, {hi:.6f})   (trace disc inside the face)")

    print("\ntrace radius g0 and clearance g across the capped range:")
    for h in np.linspace(lo, mid, 5, endpoint=False):
        g0, g = truncation_scalars(D, float(h))
        print(f"  h={h:.6f}  g0={g0:.6f}  g={g:.6f}  g0/g={g0 / g:.6f}")

    print("\ndensities of truncated wedges (canonical chain):")
    ref = wedge_density(D, 4 * N, SEED)
    print(f"  wedge bound sigma_hat = {ref.value:.6f} +- {ref.stderr:.1e}")
    for h, shape in ((lo, "disc_cap_square"), (0.5 * (lo + mid), "disc_cap_square"),
                     (mid, "disc"), (0.5 * (mid + hi), "disc")):
        cfg = truncated_wedge(D, float(h), shape)
        est = surface_density(cfg, N, SEED + 1)
        print(f"  h={h:.6f} {shape:16s} area={cfg.domain.area:.6f} "
              f"density={est.value:.6f} +- {est.stderr:.1e}")

    print("\ntruncation gain: a square sticking out of the trace disc,")
    print("before and after cutting at the disc:")
    g0, _ = truncation_scalars(D, lo)
    chain = canonical_chain(D, D - 2)
    g = 2.0 * g0
    wide = DiscPolygon(g * math.sqrt(2.0) * 1.01, [(g, g), (-g, g), (-g, -g), (g, -g)])
    full = surface_density(WedgeConfig(chain, wide), N, SEED + 2)
    cut = surface_density(WedgeConfig(chain, truncation_domain(D, lo, "disc")), N, SEED + 2)
    print(f"  full square   density = {full.value:.6f} +- {full.stderr:.1e}")
    print(f"  cut at disc   density = {cut.value:.6f} +- {cut.stderr:.1e}")
    print(f"  gain = {cut.value - full.value:+.6f}")
    print("\nall truncated densities sit at or below the wedge bound, which is")
    print("what makes sigma_hat an upper bound for whole packings.")


if __name__ == "__main__":
    main()
