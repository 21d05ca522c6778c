"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines as
they complete.  Statistical criteria use fixed seeds and their stated
tolerances; nothing is calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    membership_oracle,
    mixed_directions,
    planar_corner_density,
    tetrahedron_corner_density,
)
from packbounds import density as dn
from packbounds import formulas as fm
from packbounds import geometry as geo
from packbounds import verify as vf
from packbounds.cli import main as cli_main
from packbounds.streams import spawn_key

SEED = 20260808


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS {text}")


def test_01_planar_anchor():
    t0 = time.monotonic()
    target = planar_corner_density()  # pi/(2 sqrt(3)) = 0.9068997
    assert target == pytest.approx(0.9068997, abs=1e-7)
    est = dn.simplex_density(2, 10**6, spawn_key(SEED, 1))
    elapsed = time.monotonic() - t0
    assert abs(est.value - target) <= 3.0 * est.stderr
    assert est.stderr <= 2e-4
    assert elapsed < 10.0
    report(1, f"sigma_2 = {est.value:.7f} +- {est.stderr:.1e} vs {target:.7f} "
              f"({elapsed:.1f}s)")


def test_02_spatial_anchor():
    t0 = time.monotonic()
    target = tetrahedron_corner_density()  # 0.7796356
    assert target == pytest.approx(0.7796356, abs=1e-7)
    est = dn.simplex_density(3, 10**6, spawn_key(SEED, 2))
    elapsed = time.monotonic() - t0
    assert abs(est.value - target) <= 3.0 * est.stderr
    assert est.stderr <= 2e-4
    assert elapsed < 10.0
    report(2, f"sigma_3 = {est.value:.7f} +- {est.stderr:.1e} vs {target:.7f} "
              f"({elapsed:.1f}s)")


def test_03_cross_oracle_agreement():
    worst = 0.0
    for d in range(2, 13):
        q = dn.quadrature_density(geo.canonical_simplex(d))
        m = dn.simplex_density(d, 2 * 10**5, spawn_key(SEED, 3, d))
        sep = abs(q.value - m.value) / math.hypot(q.stderr, m.stderr)
        worst = max(worst, sep)
        assert sep <= 3.0, f"simplex d={d}: {q.value} vs {m.value}"
    for d in range(4, 13):
        q = dn.quadrature_density(geo.canonical_wedge(d))
        m = dn.wedge_density(d, 2 * 10**5, spawn_key(SEED, 3, 100 + d))
        sep = abs(q.value - m.value) / math.hypot(q.stderr, m.stderr)
        worst = max(worst, sep)
        assert sep <= 3.0, f"wedge d={d}: {q.value} vs {m.value}"
    report(3, f"quadrature vs Monte-Carlo agree for simplex d=2..12 and "
              f"wedge d=4..12 (worst separation {worst:.2f} combined se)")


def test_04_membership_against_oracle():
    rng = np.random.default_rng(SEED)
    total = 0
    for d in (4, 5, 6):
        lo, _, _ = fm.height_breakpoints(d)
        for cfg in (
            geo.canonical_simplex(d),
            geo.canonical_wedge(d),
            geo.truncated_wedge(d, lo, "disc_cap_square"),
        ):
            dirs = mixed_directions(cfg, 10**4, rng)
            mine = geo.cone_contains_many(cfg, dirs)
            oracle, decided = membership_oracle(cfg, dirs, band=1e-9)
            disagreements = int(np.sum((mine != oracle) & decided))
            assert disagreements == 0, f"d={d} {cfg.domain}"
            total += int(decided.sum())
    report(4, f"membership matches the convex-combination oracle on {total} "
              f"decided rays across nine configurations")


def test_05_floor_recursion():
    worst = max(
        abs(fm.next_chain_floor(fm.chain_floor(i)) - fm.chain_floor(i + 1))
        for i in range(1, 101)
    )
    assert worst < 1e-12
    report(5, f"floor recursion reproduces the canonical norms, max dev {worst:.2e}")


def test_06_pair_separation_threshold():
    assert fm.pair_gap_max(8) == pytest.approx(3.920684, abs=1e-6)
    assert fm.pair_gap_max(8) <= 4.0
    assert fm.pair_gap_max(7) == pytest.approx(4.016512, abs=1e-6)
    assert fm.pair_gap_max(7) > 4.0
    for d in (8, 10, 16, 42):
        tilt_max = math.acos(fm.max_tilt_cosine(d))
        angles = np.linspace(0.0, tilt_max, 200)
        corner = fm.pair_gap_max(d)
        worst = float(fm.pair_gap_bound(d, angles[:, None], angles[None, :]).max())
        assert worst <= corner + 1e-9, f"d={d}"
    report(6, "pair bound threshold bracketed (3.920684 at d=8, 4.016512 at "
              "d=7); 200x200 grids stay below the corner value")


def test_07_tilt_extremum():
    for d in (4, 8, 12, 42):
        r = vf.check_tilt_extremum(d=d, grid=10**5)
        assert r.passed, r.summary
        assert r.witness["cos_deviation"] <= 1e-8
        assert r.witness["max_interior_quartic"] < 0.0
    report(7, "tilt maximal at the left endpoint with the closed-form cosine "
              "(1e5-point grids, d in {4, 8, 12, 42})")


def test_08_reach_bound():
    vals = [fm.reach_bound(d) for d in range(3, 1001)]
    assert max(vals) <= 2.0
    report(8, f"neighbor reach below 2 for 3 <= d <= 1000 (max {max(vals):.7f})")


def test_09_radius_ratio_monotone():
    for d in (8, 12, 42):
        r = vf.check_radius_ratio(d=d, grid=10**3)
        assert r.passed, r.summary
        assert abs(r.witness["left_ratio"] - math.sqrt(2.0 * d / (d + 1))) <= 1e-9
    report(9, "trace/clearance ratio strictly decreasing with the exact left "
              "endpoint value, d in {8, 12, 42}")


def test_10_improvement_gaps():
    t0 = time.monotonic()
    g8 = dn.improvement_gap(8, 10**7, spawn_key(SEED, 10, 8))
    assert g8.gap > 5.0 * g8.gap_stderr
    assert g8.lambda_gap > 5.0 * g8.lambda_gap_stderr
    ratios = []
    for d in range(8, 17):
        g = dn.improvement_gap(d, 10**6, spawn_key(SEED, 10, 100 + d))
        assert g.gap > 3.0 * g.gap_stderr, f"d={d}"
        assert g.lambda_gap > 3.0 * g.lambda_gap_stderr, f"d={d}"
        ratios.append(g.gap / g.gap_stderr)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(10, f"sigma_hat < sigma: d=8 at n=1e7 separates by "
               f"{g8.gap / g8.gap_stderr:.0f} se; d=8..16 at n=1e6 by at least "
               f"{min(ratios):.0f} se ({elapsed:.0f}s)")


def test_11_combination_identity():
    for d in (4, 8, 12):
        n = 4 * 10**5
        sig = dn.simplex_density(d, n, spawn_key(SEED, 11, d, 1))
        lam = dn.sector_density(d, n, spawn_key(SEED, 11, d, 2))
        hat = dn.wedge_density(d, n, spawn_key(SEED, 11, d, 3))
        tri = geo.triangle_domain(d)
        sec = geo.sector_domain(d)
        w_tri = tri.area / (tri.area + sec.area)
        mix = w_tri * sig.value + (1.0 - w_tri) * lam.value
        se = math.sqrt(
            (w_tri * sig.stderr) ** 2
            + ((1.0 - w_tri) * lam.stderr) ** 2
            + hat.stderr**2
        )
        assert abs(hat.value - mix) <= 3.0 * se, f"d={d}"
    report(11, "area-weighted combination of sigma and lambda reproduces "
               "sigma_hat at d in {4, 8, 12}")


def test_12_profile_representation():
    d = 8
    chain = geo.canonical_chain(d, d - 2)
    dom = geo.wedge_domain(d)
    # 40x40 cell grid over the domain's bounding box, cell weights by
    # 32x32 membership subsampling
    nx = ny = 40
    x_hi = dom.max_radius
    y_hi = dom.max_radius * math.sin(math.pi / 4.0)
    dx, dy = x_hi / nx, y_hi / ny
    sub = (np.arange(32) + 0.5) / 32.0
    centers = []
    weights = []
    for i in range(nx):
        for j in range(ny):
            cx, cy = i * dx, j * dy
            pts = np.column_stack(
                [np.repeat(cx + sub * dx, 32), np.tile(cy + sub * dy, 32)]
            )
            frac = dom.contains(pts).mean()
            if frac > 0.0:
                centers.append(math.hypot(cx + 0.5 * dx, cy + 0.5 * dy))
                weights.append(frac)
    prof = dn.limiting_density_profile(chain, centers, 4 * 10**5, spawn_key(SEED, 12),
                                       weights=weights)
    mean, se_mean = prof.mean_functional()
    hat = dn.wedge_density(d, 10**6, spawn_key(SEED, 12, 1))
    sep = abs(mean - hat.value) / math.hypot(se_mean, hat.stderr)
    assert sep <= 3.0, f"grid mean {mean} vs sigma_hat {hat.value}"
    # radial profile nonincreasing within error bars
    radii = np.linspace(0.0, 2.0 * fm.sector_geometry(d).radius, 8)
    prof2 = dn.limiting_density_profile(chain, radii, 2 * 10**5, spawn_key(SEED, 12, 2))
    for i in range(len(radii) - 1):
        drop = prof2.values[i] - prof2.values[i + 1]
        assert drop >= -3.0 * prof2.diff_stderr(i, i + 1)
    report(12, f"40x40 quadrature of the limiting profile gives sigma_hat to "
               f"{sep:.2f} combined se; radial profile nonincreasing")


def test_13_truncation_spot_checks():
    r1 = vf.check_truncation_gain(d=8, seed=spawn_key(SEED, 13, 1))
    assert r1.passed, r1.summary
    r2 = vf.check_truncated_max(d=8, trials=50, seed=spawn_key(SEED, 13, 2))
    assert r2.passed, r2.summary
    assert r2.witness["skipped"] <= 10
    r3 = vf.check_square_cap(d=8)
    assert r3.passed, r3.summary
    report(13, "truncation raises density; 100 random admissible truncated "
               "wedges stay below the bound; capped-square sweep nonincreasing "
               "with the bound reproduced at the lowest height")


def test_14_bounds_table_scale(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "bounds.json"
    code = cli_main([
        "bounds", "--dmin", "8", "--dmax", "42", "--samples", str(10**6),
        "--seed", str(SEED), "--format", "json", "--out", str(out),
    ])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 600.0
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    assert [r["d"] for r in rows] == list(range(8, 43))
    for r in rows:
        for key in ("sigma", "sigma_hat", "lambda"):
            assert math.isfinite(r[key]["value"]) and math.isfinite(r[key]["stderr"])
            assert r[key]["stderr"] > 0.0
        assert r["sigma_hat"]["value"] < r["sigma"]["value"]
    # the whole table against the quadrature oracle, one pooled statistic per
    # column: the rows are independent, so sum_d z_d^2 is chi-square with 35
    # degrees of freedom, and the level is its 0.999 quantile
    chi2_35_999 = 66.6
    oracle = {"sigma": geo.canonical_simplex, "sigma_hat": geo.canonical_wedge,
              "lambda": geo.sector_wedge}
    pooled = {}
    for key, make in oracle.items():
        z2 = 0.0
        for r in rows:
            q = dn.quadrature_density(make(r["d"]))
            mc = r[key]
            z2 += (mc["value"] - q.value) ** 2 / (mc["stderr"] ** 2 + q.stderr**2)
        pooled[key] = z2
        assert z2 <= chi2_35_999, f"{key}: sum z^2 = {z2:.1f} over 35 rows"
    # the improvement flag is set on every row of the csv rendering
    out_csv = tmp_path / "bounds.csv"
    code = cli_main([
        "bounds", "--dmin", "8", "--dmax", "42", "--samples", str(10**4),
        "--seed", str(SEED), "--format", "csv", "--out", str(out_csv),
    ])
    assert code == 0
    flags = [line.rsplit(",", 1)[1] for line in out_csv.read_text().strip().split("\n")[1:]]
    assert all(f == "yes" for f in flags)
    report(14, f"bounds table for d=8..42 at n=1e6 in {elapsed:.0f}s, all rows "
               f"finite and improved; sum z^2 against the quadrature "
               f"{pooled['sigma']:.1f} / {pooled['sigma_hat']:.1f} / {pooled['lambda']:.1f} "
               f"(sigma / sigma_hat / lambda) <= {chi2_35_999}")
