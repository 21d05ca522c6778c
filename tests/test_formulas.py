import math

import numpy as np
import pytest

from packbounds import formulas as fm

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# chain scalars and the floor recursion


def test_chain_scalars_level_one():
    assert fm.chain_floor(1) == 1.0
    assert fm.chain_height(1) == 1.0


def test_chain_scalars_level_eight():
    m, h = fm.chain_floor(8), fm.chain_height(8)
    assert m == pytest.approx(math.sqrt(16.0 / 9.0), abs=1e-15)
    assert h == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_chain_heights_telescope():
    # partial sums of h_j^2 telescope to m_i^2
    total = 0.0
    for i in range(1, 9):
        total += fm.chain_height(i) ** 2
    assert abs(total - fm.chain_floor(8) ** 2) < 1e-12


def test_chain_scalars_rejects_bad_level():
    with pytest.raises(ValueError):
        fm.chain_floor(0)
    with pytest.raises(ValueError):
        fm.chain_height(-3)


def test_floor_recursion_values():
    assert fm.next_chain_floor(0.0) == 1.0
    assert fm.next_chain_floor(1.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)
    assert fm.next_chain_floor(fm.chain_floor(2)) == pytest.approx(
        fm.chain_floor(3), abs=1e-14
    )


def test_floor_recursion_fixed_point_and_monotone():
    assert fm.next_chain_floor(SQ2) == pytest.approx(SQ2, abs=1e-15)
    grid = np.linspace(0.0, 1.9, 500)
    vals = [fm.next_chain_floor(float(r)) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_floor_recursion_chains_floors():
    worst = max(
        abs(fm.next_chain_floor(fm.chain_floor(i)) - fm.chain_floor(i + 1))
        for i in range(1, 101)
    )
    assert worst <= 1e-12


def test_floor_recursion_domain():
    with pytest.raises(ValueError):
        fm.next_chain_floor(2.0)
    with pytest.raises(ValueError):
        fm.next_chain_floor(-0.5)


# ---------------------------------------------------------------------------
# truncation radii


def test_truncation_radii_at_lower_end():
    g0, g = fm.truncation_scalars(8, fm.chain_floor(6))
    assert g0 == pytest.approx(2.0 / math.sqrt(63.0), abs=1e-12)
    assert g == pytest.approx(math.sqrt(7.0) / 14.0, abs=1e-12)
    assert g0 / g == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert g0 / g == pytest.approx(math.sqrt(16.0 / 9.0), abs=1e-12)


def test_truncation_radii_cross_at_middle_breakpoint():
    lo, mid, hi = fm.height_breakpoints(8)
    g0, g = fm.truncation_scalars(8, mid)
    assert g0 == pytest.approx(g, abs=1e-12)
    assert g0 == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_trace_radius_vanishes_at_upper_end():
    _, _, hi = fm.height_breakpoints(8)
    g0, _ = fm.truncation_scalars(8, hi * (1.0 - 1e-13))
    assert g0 < 1e-5


def test_clearance_below_trace_on_lower_range():
    lo, mid, _ = fm.height_breakpoints(8)
    for h in np.linspace(lo, mid, 200, endpoint=False):
        g0, g = fm.truncation_scalars(8, float(h))
        assert g < g0


def test_radius_ratio_strictly_decreasing():
    # central finite differences negative across the lower height range
    for d in (8, 12):
        lo, mid, _ = fm.height_breakpoints(d)
        hs = np.linspace(lo, mid, 500, endpoint=False)
        ratio = np.array([np.divide(*fm.truncation_scalars(d, float(h))) for h in hs])
        slopes = (ratio[2:] - ratio[:-2]) / (hs[2:] - hs[:-2])
        assert np.all(slopes < 0.0)


def test_truncation_radii_domain_errors():
    lo, _, hi = fm.height_breakpoints(8)
    with pytest.raises(ValueError):
        fm.truncation_scalars(8, lo - 1e-6)
    with pytest.raises(ValueError):
        fm.truncation_scalars(8, hi)
    with pytest.raises(ValueError):
        fm.truncation_scalars(3, 1.2)


# ---------------------------------------------------------------------------
# sector geometry


def test_sector_geometry_d8():
    geo = fm.sector_geometry(8)
    assert geo.radius == pytest.approx(0.2519763, abs=1e-7)
    assert geo.alpha == pytest.approx(0.7227342, abs=1e-7)
    assert geo.theta == pytest.approx(0.0626639, abs=1e-7)
    # tan(alpha) = h_8/h_7
    assert math.tan(geo.alpha) == pytest.approx(
        fm.chain_height(8) / fm.chain_height(7), abs=1e-12
    )


@pytest.mark.parametrize("d", [4, 5, 8, 13, 42, 100])
def test_sector_radius_identity(d):
    geo = fm.sector_geometry(d)
    hh = fm.chain_height(d - 1) ** 2 + fm.chain_height(d) ** 2
    assert abs(geo.radius**2 - hh) < 1e-14


def test_sector_angle_limits():
    geo = fm.sector_geometry(10**6)
    assert geo.theta > 0.0
    assert geo.alpha == pytest.approx(math.pi / 4.0, abs=1e-5)
    with pytest.raises(ValueError):
        fm.sector_geometry(3)


# ---------------------------------------------------------------------------
# tilt extremal problem


def test_quartic_roots():
    # sqrt(2) is a root for every d; the other root is sqrt(2(d-4)/(d-1))
    for d in (4, 8, 12, 42):
        assert abs(fm.tilt_quartic(d, SQ2)) < 1e-12
        assert abs(fm.tilt_quartic(d, math.sqrt(2.0 * (d - 4) / (d - 1)))) < 1e-12


@pytest.mark.parametrize("d", [4, 8, 12, 42])
def test_quartic_negative_between_roots(d):
    lo_root = math.sqrt(2.0 * (d - 4) / (d - 1))
    xs = np.linspace(lo_root, SQ2, 10**4 + 2)[1:-1]
    vals = [fm.tilt_quartic(d, float(x)) for x in xs]
    assert max(vals) < 0.0


def test_tilt_angles_at_left_endpoint_d8():
    lo, hi = fm.tilt_interval(8)
    s = fm.tilt_angle_scalars(8, lo)
    # exact values at x = sqrt(10/6), enlarged radius sqrt(16/9)
    assert s.cos_lower == pytest.approx(math.sqrt(4.0 / 7.0), abs=1e-12)
    assert s.cos_upper == pytest.approx(-0.5, abs=1e-12)


def test_tilt_degenerates_at_right_endpoint():
    # the lower and upper arcs become supplementary: tilt angle zero
    for d in (5, 8, 42):
        _, hi = fm.tilt_interval(d)
        s = fm.tilt_angle_scalars(d, hi)
        assert s.cos_lower == pytest.approx(-s.cos_upper, abs=1e-10)


def test_tilt_scalars_reject_outside_interval():
    lo, hi = fm.tilt_interval(8)
    with pytest.raises(ValueError):
        fm.tilt_angle_scalars(8, lo - 1e-6)
    with pytest.raises(ValueError):
        fm.tilt_angle_scalars(8, hi + 1e-6)


@pytest.mark.parametrize("d", [4, 8, 42])
def test_tilt_scalars_on_an_array_match_scalar_calls(d):
    lo, hi = fm.tilt_interval(d)
    xs = np.linspace(lo, hi, 257)
    grid = fm.tilt_angle_scalars(d, xs)
    for name, column in zip(fm.TiltAngleScalars._fields, grid):
        scalar = [getattr(fm.tilt_angle_scalars(d, float(x)), name) for x in xs]
        np.testing.assert_allclose(column, scalar, rtol=1e-15, atol=0.0, err_msg=name)
    xs[100] = hi + 1e-6  # one entry out of range rejects the array
    with pytest.raises(ValueError):
        fm.tilt_angle_scalars(d, xs)


def test_max_tilt_cosine_values():
    assert fm.max_tilt_cosine(8) == pytest.approx(5.0 / (2.0 * math.sqrt(7.0)), abs=1e-12)
    assert fm.max_tilt_cosine(8) == pytest.approx(0.9449112, abs=1e-7)
    assert fm.max_tilt_cosine(4) == pytest.approx(0.9525793, abs=1e-7)


def test_max_tilt_cosine_monotone_to_limit():
    vals = [fm.max_tilt_cosine(d) for d in range(4, 200)]
    assert all(1.0 > a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 2.0 * SQ2 / 3.0


@pytest.mark.parametrize("d", [4, 8, 12, 42])
def test_max_tilt_matches_angle_scalars(d):
    # cos(pi - lower - upper) at the interval's left end
    lo, _ = fm.tilt_interval(d)
    s = fm.tilt_angle_scalars(d, lo)
    tilt = math.pi - math.acos(s.cos_lower) - math.acos(s.cos_upper)
    assert math.cos(tilt) == pytest.approx(fm.max_tilt_cosine(d), abs=1e-8)


# ---------------------------------------------------------------------------
# pair separation bound


def test_pair_gap_corner_values():
    assert fm.pair_gap_max(8) == pytest.approx(3.920684, abs=1e-6)
    assert fm.pair_gap_max(7) == pytest.approx(4.016512, abs=1e-6)
    assert fm.pair_gap_max(8) <= 4.0
    assert fm.pair_gap_max(7) > 4.0


def test_pair_gap_threshold_sweep():
    assert all(fm.pair_gap_max(d) <= 4.0 for d in range(8, 1001))


def test_pair_gap_zero_tilt_assembly():
    # independent term-by-term reassembly of the zero-tilt value
    c5 = math.cos(2.0 * math.pi / 5.0)
    for d in (8, 11):
        expected = (
            (2.0 - c5) * 4.0 * d / (d + 1)
            - 2.0 * (1.0 - c5) * 2.0 * (d - 2) / (d - 1)
            - (4.0 * d / (d + 1)) * c5
            + 2.0 * (1.0 - c5) * 2.0 * math.sqrt(2.0 * d / (d + 1))
            * math.sqrt(2.0 * d / (d + 1) - 2.0 * (d - 2) / (d - 1))
        )
        assert fm.pair_gap_bound(d, 0.0, 0.0) == pytest.approx(expected, abs=1e-12)


def test_pair_gap_corner_attained():
    for d in (8, 10):
        tilt = math.acos(fm.max_tilt_cosine(d))
        assert fm.pair_gap_bound(d, tilt, tilt) == pytest.approx(
            fm.pair_gap_max(d), abs=1e-12
        )


@pytest.mark.parametrize("d", [8, 10, 16, 42])
def test_pair_gap_grid_below_corner(d):
    tilt_max = math.acos(fm.max_tilt_cosine(d))
    angles = np.linspace(0.0, tilt_max, 200)
    corner = fm.pair_gap_max(d)
    worst = max(
        fm.pair_gap_bound(d, float(a), float(b)) for a in angles for b in angles[::7]
    )
    assert worst <= corner + 1e-9


def test_pair_gap_rejects_bad_tilt():
    tilt_max = math.acos(fm.max_tilt_cosine(8))
    with pytest.raises(ValueError):
        fm.pair_gap_bound(8, -0.1, 0.0)
    with pytest.raises(ValueError):
        fm.pair_gap_bound(8, 0.0, tilt_max + 0.01)


@pytest.mark.parametrize("d", [4, 8, 42])
def test_pair_gap_on_a_grid_matches_scalar_calls(d):
    angles = np.linspace(0.0, math.acos(fm.max_tilt_cosine(d)), 61)
    grid = fm.pair_gap_bound(d, angles[:, None], angles[None, :])
    scalar = [[fm.pair_gap_bound(d, float(a), float(b)) for b in angles] for a in angles]
    np.testing.assert_allclose(grid, scalar, rtol=1e-15, atol=0.0)
    # one entry out of range, in either argument, rejects the grid
    with pytest.raises(ValueError):
        fm.pair_gap_bound(d, angles[:, None], angles[None, :] + 0.01)
    with pytest.raises(ValueError):
        fm.pair_gap_bound(d, angles[:, None] - 0.01, angles[None, :])


def test_cos_two_pi_fifth_algebraic_identity():
    # documented once: the trig value equals (sqrt(5)-1)/4
    assert math.cos(2.0 * math.pi / 5.0) == pytest.approx(
        (math.sqrt(5.0) - 1.0) / 4.0, abs=1e-15
    )


# ---------------------------------------------------------------------------
# reach bound and reference curves


def test_reach_bound_values():
    assert fm.reach_bound(3) == pytest.approx(1.9318517, abs=1e-7)
    assert fm.reach_bound(3) == pytest.approx(
        math.sqrt(0.5) + math.sqrt(1.5), abs=1e-12
    )
    assert fm.reach_bound(8) == pytest.approx(1.5853097, abs=5e-7)


def test_reach_bound_below_two_and_decreasing():
    vals = [fm.reach_bound(d) for d in range(3, 1001)]
    assert max(vals) <= 2.0
    assert all(a > b for a, b in zip(vals[:98], vals[1:99]))
    # large-d limit is sqrt(2)
    assert fm.reach_bound(10**6) == pytest.approx(SQ2, abs=1e-3)


def test_reach_bound_rejects_small_dimension():
    with pytest.raises(ValueError):
        fm.reach_bound(2)


def test_zeta_against_known_constants():
    assert fm.zeta(2) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert fm.zeta(4) == pytest.approx(math.pi**4 / 90.0, abs=1e-13)


def test_unit_ball_volumes():
    assert fm.unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-13)
    assert fm.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert fm.unit_ball_volume(8) == pytest.approx(math.pi**4 / 24.0, abs=1e-12)
    # log-space evaluation agrees with the direct ratio where both exist
    assert fm.unit_ball_volume(100) == pytest.approx(
        math.pi**50 / math.gamma(51.0), rel=1e-12
    )
    assert 0.0 < fm.unit_ball_volume(300) < 1e-180


def test_reference_bounds_d8():
    ref = fm.reference_bounds(8)
    assert ref.daniels == pytest.approx((8.0 / math.e) * 2.0**-4, abs=1e-12)
    assert ref.daniels == pytest.approx(0.1839397, abs=1e-7)
    assert ref.kl == pytest.approx(2.0 ** (-0.599 * 8), abs=1e-12)
    assert ref.ball_lower == pytest.approx(7.0 * fm.zeta(8) / 128.0, abs=1e-12)


def test_reference_bounds_orderings():
    for d in (20, 40, 60):
        ref = fm.reference_bounds(d)
        assert ref.ball_lower < ref.kl
        assert ref.daniels > 0 and ref.kl > 0 and ref.ball_lower > 0
    with pytest.raises(ValueError):
        fm.reference_bounds(1)
