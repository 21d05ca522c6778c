#!/usr/bin/env python3
"""Run the whole inequality-check registry and print a one-line verdict each.

Every scalar inequality the wedge bound rests on is re-verified by brute
force: dense grids for the closed forms, the quadrature oracle for the
density comparisons.  Exit status mirrors the CLI: 0 all pass, 1 failure,
3 inconclusive only.

Usage: python demos/proof_checks.py
"""

import sys
import time

from packbounds.verify import REGISTRY, run_checks


def main():
    print("=" * 78)
    print("  Inequality checks behind the wedge bound")
    print("=" * 78)

    t0 = time.time()
    results = run_checks()
    width = max(len(name) for name in REGISTRY)
    for r in results:
        print(f"  {r.name:<{width}s}  [{r.status:^12s}]  {r.summary}")
    print(f"\n  {len(results)} checks in {time.time() - t0:.1f}s")

    if any(r.status == "fail" for r in results):
        return 1
    if any(r.status == "inconclusive" for r in results):
        print("  some strict comparisons were not resolved beyond the refinement error")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
