#!/usr/bin/env python3
"""Headline demo: the refined packing bound across dimensions.

Prints sigma (the classical simplex bound), sigma_hat (the wedge bound),
their measured gap, and the per-cell volume/surface consequences, for a
small range of dimensions.

Usage: python demos/bound_table.py [dmin dmax]
"""

import sys
import time

from packbounds import improvement_gap, reference_bounds, voronoi_bounds
from packbounds.streams import spawn_key

SEED = 11
N = 300_000


def main():
    dmin, dmax = 8, 14
    if len(sys.argv) == 3:
        dmin, dmax = int(sys.argv[1]), int(sys.argv[2])

    print("=" * 84)
    print("  Upper bounds for the density of unit-ball packings")
    print(f"  n = {N} samples per dimension, seed = {SEED}")
    print("=" * 84)
    print(f"  {'d':>3} {'sigma':>12} {'sigma_hat':>12} {'gap':>11} {'gap/se':>7} "
          f"{'cell volume >=':>14} {'cell surface >=':>15}")

    t0 = time.time()
    for d in range(dmin, dmax + 1):
        gap = improvement_gap(d, N, spawn_key(SEED, d))
        volume_lower, surface_lower = voronoi_bounds(d, gap.sigma_hat)
        print(f"  {d:>3} {gap.sigma.value:>12.8f} {gap.sigma_hat.value:>12.8f} "
              f"{gap.gap:>11.3e} {gap.gap / gap.gap_stderr:>7.0f} "
              f"{volume_lower:>14.6f} {surface_lower:>15.6f}")
    print(f"\n  done in {time.time() - t0:.1f}s")

    print("\n  For context (asymptotic curves, not certified at finite d):")
    for d in (dmin, dmax):
        ref = reference_bounds(d)
        print(f"  d={d}: daniels approx {ref.daniels:.6f}, "
              f"kl approx {ref.kl:.6f}, lattice existence >= {ref.ball_lower:.3e}")

    print("\n  Every cell of a unit-ball packing in dimension d >= 8 has volume")
    print("  at least omega_d/sigma_hat_d and surface at least d*omega_d/sigma_hat_d;")
    print("  the packing density itself is at most sigma_hat_d < sigma_d.")


if __name__ == "__main__":
    main()
