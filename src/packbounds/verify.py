"""Brute-force verification of the inequality chain behind the wedge bound.

Each check re-derives one scalar claim by independent means (dense grids,
finite differences, random admissible configurations, the quadrature
oracle) and emits a machine-readable record with the extremal witness, so a
failure is reproducible from the report alone.  The five density checks
take every density from the quadrature oracle and decide a comparison only
beyond the sum of the two values' refinement errors (_decide); a strict
claim within that sum is reported as inconclusive.  Only truncation-gain
and truncated-max draw random configurations, from substreams of the
command line's seed, DEFAULT_SEED, by default.  The oracle's agreement with
the Monte-Carlo estimators is held by the test suite, not re-derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import formulas as fm
from . import geometry as geo
from .density import quadrature_density, quadrature_profile
from .streams import DEFAULT_SEED, substream

__all__ = [
    "CheckResult",
    "REGISTRY",
    "MIN_D",
    "run_check",
    "run_checks",
    "check_floor_recursion",
    "check_tilt_extremum",
    "check_pair_separation",
    "check_reach_bound",
    "check_radius_ratio",
    "check_profile_monotone",
    "check_truncation_gain",
    "check_truncated_max",
    "check_square_cap",
    "check_chain_inflation",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# least dimension of the checks that take d and reject some d >= 4: the
# wedge bound is proved for d >= 8 only
MIN_D = {"truncated-max": 8, "square-cap-monotone": 8}

# the sizes of the checks' sweeps, each named in its check's docstring, and
# the draws _random_admissible_quadrilateral makes before it gives up
_FLOOR_LEVELS = 100
_REACH_D_MAX = 1000
_PAIR_GRID = 200
_RATIO_HEIGHTS = 1000
_PROFILE_RADII = 6
_TRIALS = 50
_CAP_HEIGHTS = 5
_QUAD_ATTEMPTS = 50


@dataclass
class CheckResult:
    name: str
    status: str
    summary: str
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "summary": self.summary,
            "witness": self.witness,
        }


def _result(name, failures, inconclusive, summary, witness) -> CheckResult:
    """A check's record: its first failure, else its first inconclusive note,
    else its summary."""
    if failures:
        return CheckResult(name, FAIL, failures[0], witness)
    if inconclusive:
        return CheckResult(name, INCONCLUSIVE, inconclusive[0], witness)
    return CheckResult(name, PASS, summary, witness)


def _decide(diff: float, err: float, strict: bool = False) -> str:
    """The claim diff > 0 (strict) or diff >= 0, diff known to within err: it
    fails below -err, a strict one is inconclusive within [-err, err]."""
    if diff < -err:
        return FAIL
    if strict and diff <= err:
        return INCONCLUSIVE
    return PASS


# ---------------------------------------------------------------------------
# deterministic closed-form checks


def check_floor_recursion() -> CheckResult:
    """The floor recursion maps m_i to m_{i+1} for i < _FLOOR_LEVELS and fixes sqrt(2)."""
    devs = [
        abs(fm.next_chain_floor(fm.chain_floor(i)) - fm.chain_floor(i + 1))
        for i in range(1, _FLOOR_LEVELS)
    ]
    worst = int(np.argmax(devs)) + 1
    fixed_dev = abs(fm.next_chain_floor(math.sqrt(2.0)) - math.sqrt(2.0))
    failures = []
    if max(devs) > 1e-12:
        failures.append(f"recursion deviates by {max(devs):.3e} at i={worst}")
    if fixed_dev > 1e-12:
        failures.append(f"sqrt(2) fixed point deviates by {fixed_dev:.3e}")
    return _result(
        "floor-recursion", failures, [],
        f"max deviation {max(devs):.2e} over i < {_FLOOR_LEVELS}; sqrt(2) fixed to {fixed_dev:.1e}",
        {"i_max": _FLOOR_LEVELS, "max_deviation": max(devs), "argmax_i": worst},
    )


def check_tilt_extremum(d: int = 8, grid: int = 10**5) -> CheckResult:
    """The neighbor tilt is maximal at the interval's left end.

    Grid-maximizes the tilt, checks the closed-form cosine at the maximum,
    positivity of the finite-difference slope of the angle sum, and
    negativity of the quartic on the open interval.
    """
    if grid < 10**3:
        raise ValueError("grid must be >= 1e3")
    lo, hi = fm.tilt_interval(d)
    xs = np.linspace(lo, hi, grid)
    scal = fm.tilt_angle_scalars(d, xs)
    angle_sum = np.arccos(scal.cos_lower) + np.arccos(scal.cos_upper)
    tilt = math.pi - angle_sum
    quartic = scal.quartic
    k_max = int(np.argmax(tilt))
    failures = []
    if k_max != 0:
        failures.append(f"tilt maximal at x={xs[k_max]:.9f}, not the left endpoint")
    cos_closed = fm.max_tilt_cosine(d)
    cos_dev = abs(math.cos(tilt[0]) - cos_closed)
    if cos_dev > 1e-8:
        failures.append(f"closed-form tilt cosine off by {cos_dev:.3e}")
    slopes = np.diff(angle_sum)
    if np.any(slopes <= 0.0):
        k = int(np.argmin(slopes))
        failures.append(f"angle sum not increasing near x={xs[k]:.9f}")
    interior = quartic[1:-1]
    if np.any(interior >= 0.0):
        k = int(np.argmax(interior)) + 1
        failures.append(f"quartic nonnegative at interior x={xs[k]:.9f}")
    return _result(
        "tilt-extremum", failures, [],
        f"d={d}: tilt max at left end, cos={cos_closed:.7f} (dev {cos_dev:.1e})",
        {
            "d": int(d),
            "grid": grid,
            "x_argmax": float(xs[k_max]),
            "cos_tilt_max": cos_closed,
            "cos_deviation": cos_dev,
            "min_slope": float(slopes.min()),
            "max_interior_quartic": float(interior.max()),
        },
    )


def check_pair_separation(d: int = 8) -> CheckResult:
    """Maximum of the pair bound on a _PAIR_GRID^2 grid vs its closed-form corner value.

    For d >= 8 the corner value must be <= 4 (at d = 8 the d-1 case is
    checked to exceed 4, bracketing the threshold); for 4 <= d < 8 the
    corner value exceeding 4 is the expected out-of-domain behavior.
    Finite-difference partial slopes must be nonnegative for every d >= 4.
    """
    tilt_max = math.acos(fm.max_tilt_cosine(d))
    angles = np.linspace(0.0, tilt_max, _PAIR_GRID)
    values = fm.pair_gap_bound(d, angles[:, None], angles[None, :])
    corner = fm.pair_gap_max(d)
    failures = []
    notes = []
    gmax = float(values.max())
    i_max, j_max = np.unravel_index(int(np.argmax(values)), values.shape)
    if gmax > corner + 1e-9:
        failures.append(f"grid max {gmax:.9f} exceeds corner value {corner:.9f}")
    if np.any(np.diff(values, axis=0) < -1e-12) or np.any(np.diff(values, axis=1) < -1e-12):
        failures.append("bound not nondecreasing in a tilt angle")
    expected_outside = d < 8
    if expected_outside:
        notes.append("expected-outside-domain")
        if corner <= 4.0:
            failures.append(f"corner value {corner:.9f} <= 4 below the d=8 threshold")
    else:
        if corner > 4.0:
            failures.append(f"corner value {corner:.9f} > 4 for d={d}")
        if d == 8 and fm.pair_gap_max(7) <= 4.0:
            failures.append("threshold not bracketed: corner value at d=7 is <= 4")
    return _result(
        "pair-separation", failures, [],
        f"d={d}: corner value {corner:.7f}"
        + (" (expected-outside-domain, > 4)" if expected_outside else " <= 4")
        + f", grid max {gmax:.7f} at the corner",
        {
            "d": int(d),
            "grid": _PAIR_GRID,
            "corner_value": corner,
            "grid_max": gmax,
            "argmax_tilts": [float(angles[i_max]), float(angles[j_max])],
            "notes": notes,
        },
    )


def check_reach_bound() -> CheckResult:
    """Neighbor reach stays below 2 and decreases with dimension up to _REACH_D_MAX."""
    ds = np.arange(3, _REACH_D_MAX + 1)
    vals = np.array([fm.reach_bound(int(d)) for d in ds])
    top = int(np.argmax(vals))
    failures = []
    if vals[top] > 2.0 + 1e-12:
        failures.append(f"reach bound {vals[top]:.9f} > 2 at d={ds[top]}")
    if np.any(np.diff(vals) >= 0.0):
        k = int(np.argmax(np.diff(vals)))
        failures.append(f"reach bound not decreasing at d={ds[k]}")
    return _result(
        "reach-bound", failures, [],
        f"bound <= 2 and decreasing for 3 <= d <= {_REACH_D_MAX} "
        f"(max {vals[top]:.7f} at d={ds[top]})",
        {"d_max": _REACH_D_MAX, "max_value": float(vals[top]), "at_d": int(ds[top])},
    )


def check_radius_ratio(d: int = 8) -> CheckResult:
    """Trace/clearance radius ratio decreases strictly across _RATIO_HEIGHTS lower heights."""
    lo, mid, _ = fm.height_breakpoints(d)
    hs = np.linspace(lo, mid, _RATIO_HEIGHTS, endpoint=False)
    ratio = np.array([np.divide(*fm.truncation_scalars(d, float(h))) for h in hs])
    slopes = (ratio[2:] - ratio[:-2]) / (hs[2:] - hs[:-2])
    failures = []
    if np.any(slopes >= 0.0):
        k = int(np.argmax(slopes)) + 1
        failures.append(f"ratio not decreasing at h={hs[k]:.9f}")
    left_expected = math.sqrt(2.0 * d / (d + 1))
    left_dev = abs(ratio[0] - left_expected)
    if left_dev > 1e-9:
        failures.append(f"left endpoint ratio off by {left_dev:.3e}")
    return _result(
        "radius-ratio", failures, [],
        f"d={d}: ratio strictly decreasing on grid of {_RATIO_HEIGHTS}, left value {ratio[0]:.9f}",
        {
            "d": int(d),
            "grid": _RATIO_HEIGHTS,
            "left_ratio": float(ratio[0]),
            "left_expected": left_expected,
            "max_slope": float(slopes.max()),
        },
    )


# ---------------------------------------------------------------------------
# density comparisons by the quadrature oracle


def check_profile_monotone(d: int = 8) -> CheckResult:
    """Limiting density profile is nonincreasing over _PROFILE_RADII local radii."""
    chain = geo.canonical_chain(d, d - 2)
    rmax = 2.0 * fm.sector_geometry(d).radius
    radii = np.linspace(0.0, rmax, _PROFILE_RADII)
    values, errors = quadrature_profile(chain, radii)
    failures = []
    for i in range(_PROFILE_RADII - 1):
        diff = values[i] - values[i + 1]
        err = errors[i] + errors[i + 1]
        if _decide(diff, err) == FAIL:
            failures.append(
                f"profile increases from r={radii[i]:.6f} to r={radii[i+1]:.6f} "
                f"by {-diff:.3e} > error {err:.3e}"
            )
    return _result(
        "profile-monotone", failures, [],
        f"d={d}: profile nonincreasing over {_PROFILE_RADII} radii in [0, {rmax:.4f}]",
        {
            "d": int(d),
            "method": "quadrature",
            "radii": [float(r) for r in radii],
            "values": [float(v) for v in values],
            "stderr": [float(e) for e in errors],
        },
    )


def check_truncation_gain(d: int = 8, seed: int = DEFAULT_SEED) -> CheckResult:
    """Cutting the base at the trace disc never lowers the surface density."""
    lo = fm.height_breakpoints(d)[0]
    g0, _ = fm.truncation_scalars(d, lo)
    # (label, dimension, full domain, truncated domain)
    pairs = [
        # square of half-width 2 g0: sticks out of the disc, truncates to the disc
        ("square-2g0", d, geo.DiscPolygon(2.0 * g0 * math.sqrt(2.0) * 1.01, geo._square(2.0 * g0)),
         geo.truncation_domain(d, lo, "disc")),
    ]
    # a wider quadrilateral at d+2, same construction idea
    d2 = d + 2
    lo2, _, _ = fm.height_breakpoints(d2)
    quad = _random_admissible_quadrilateral(d2, lo2, substream(seed, 99))
    if quad is not None:
        g0_2, _ = fm.truncation_scalars(d2, lo2)
        trunc_dom = geo.truncation_domain(d2, lo2, "disc_cap_polygon", vertices=quad)
        pairs.append(("quadrilateral", d2, geo.DiscPolygon(4.0 * g0_2, quad), trunc_dom))
    failures = []
    rows = []
    for label, dim, full_dom, trunc_dom in pairs:
        chain = geo.canonical_chain(dim, dim - 2)
        full = quadrature_density(geo.WedgeConfig(chain, full_dom))
        trunc = quadrature_density(geo.WedgeConfig(chain, trunc_dom))
        band = full.stderr + trunc.stderr
        rows.append(
            {"pair": label, "full": full.value, "truncated": trunc.value,
             "band": band, "d": int(dim)}
        )
        if _decide(trunc.value - full.value, band) == FAIL:
            failures.append(
                f"{label}: truncated density {trunc.value:.6f} below full {full.value:.6f}"
                f" beyond error {band:.2e}"
            )
    return _result(
        "truncation-gain", failures, [],
        f"truncation never lowered density across {len(rows)} domain pairs",
        {"d": int(d), "seed": int(seed), "method": "quadrature", "pairs": rows},
    )


def _repaired_chain(d: int, h: float, rng) -> geo.ChainSpec:
    """Random wedge chain (k = d - 2) ending at h, norms >= floors, multipliers in [1, 1.2].

    Raw independent multipliers can break strict monotonicity (the floors
    get closer with the level), so a backward pass caps each norm below its
    successor; floors stay intact because they are themselves increasing.
    """
    k = d - 2
    mult = 1.0 + 0.2 * rng.random(k)
    xi = [fm.chain_floor(i + 1) * mult[i] for i in range(k)]
    xi[-1] = h
    for i in range(k - 2, -1, -1):
        cap = xi[i + 1] * (1.0 - 1e-9)
        xi[i] = max(min(xi[i], cap), fm.chain_floor(i + 1))
    return geo.ChainSpec(d=d, k=k, xi=tuple(xi))


def _random_admissible_quadrilateral(d: int, h: float, rng):
    """Quadrilateral with sides at distance >= clearance and vertices off the disc."""
    g0, g = fm.truncation_scalars(d, h)
    for _ in range(_QUAD_ATTEMPTS):
        angles = (np.arange(4) * math.pi / 2.0) + rng.uniform(-0.2, 0.2, size=4)
        offsets = rng.uniform(g, g0, size=4)
        verts = []
        for k in range(4):
            # consecutive normals differ by pi/2 +- 0.4, so |det| >= cos 0.4
            a0, a1 = angles[k], angles[(k + 1) % 4]
            mat = np.array([[math.cos(a0), math.sin(a0)], [math.cos(a1), math.sin(a1)]])
            verts.append(np.linalg.solve(mat, np.array([offsets[k], offsets[(k + 1) % 4]])))
        verts = np.array(verts)
        if np.any(np.hypot(verts[:, 0], verts[:, 1]) < g0):
            continue
        return verts
    return None


def check_truncated_max(d: int = 8, seed: int = DEFAULT_SEED) -> CheckResult:
    """Random admissible truncated wedges, _TRIALS of each type, never beat the wedge bound.

    Type-I instances live at heights below the radii crossover and carry a
    disc-capped admissible quadrilateral; type-II instances live above the
    crossover and carry the bare trace disc.  Each density must not exceed
    the wedge bound beyond their summed refinement errors.
    """
    if d < MIN_D["truncated-max"]:
        raise ValueError("type-I truncated wedges require d >= 8")
    ref = quadrature_density(geo.canonical_wedge(d))
    lo, mid, hi = fm.height_breakpoints(d)
    rng = substream(seed, 1)
    failures = []
    skipped = 0
    worst = {"excess": -math.inf}
    for trial in range(_TRIALS):
        for kind in ("I", "II"):
            if kind == "I":
                h = float(rng.uniform(lo, mid * (1.0 - 1e-9)))
                quad = _random_admissible_quadrilateral(d, h, rng)
                if quad is None:
                    skipped += 1
                    continue
                domain = geo.truncation_domain(d, h, "disc_cap_polygon", vertices=quad)
            else:
                h = float(rng.uniform(mid, hi * (1.0 - 1e-6)))
                domain = geo.truncation_domain(d, h, "disc")
            chain = _repaired_chain(d, h, rng)
            est = quadrature_density(geo.WedgeConfig(chain, domain))
            band = est.stderr + ref.stderr
            excess = est.value - ref.value
            if excess > worst["excess"]:
                worst = {
                    "excess": excess,
                    "kind": kind,
                    "h": h,
                    "xi": list(chain.xi),
                    "value": est.value,
                    "band": band,
                }
            if _decide(-excess, band) == FAIL:
                failures.append(
                    f"type-{kind} trial {trial} at h={h:.6f} exceeds the bound by "
                    f"{excess:.3e} > error {band:.3e}"
                )
    # boundary anchor: type-II at the crossover equals the disc-capped square
    disc_dom = geo.truncation_domain(d, mid, "disc")
    square_dom = geo.truncation_domain(d, mid, "disc_cap_square")
    area_dev = abs(disc_dom.area - square_dom.area)
    if area_dev > 1e-12:
        failures.append(f"crossover areas differ by {area_dev:.3e}")
    return _result(
        "truncated-max", failures, [],
        f"d={d}: {2 * _TRIALS - skipped} truncated wedges all below the bound "
        f"({skipped} skipped as inadmissible); worst excess {worst['excess']:.3e}",
        {
            "d": int(d),
            "seed": int(seed),
            "method": "quadrature",
            "reference": ref.value,
            "reference_stderr": ref.stderr,
            "skipped": skipped,
            "worst": worst,
            "crossover_area_deviation": area_dev,
        },
    )


def check_square_cap(d: int = 8) -> CheckResult:
    """Disc-capped-square density falls over _CAP_HEIGHTS rising face heights.

    The value at the lowest height must reproduce the wedge bound (the
    capped region splits into congruent copies of the base domain there)
    within the two values' summed refinement errors.
    """
    if d < MIN_D["square-cap-monotone"]:
        raise ValueError("the capped-square sweep is stated for d >= 8")
    lo, mid, _ = fm.height_breakpoints(d)
    hs = np.linspace(lo, mid, _CAP_HEIGHTS, endpoint=False)
    ests = [quadrature_density(geo.truncated_wedge(d, float(h), "disc_cap_square")) for h in hs]
    failures = []
    for i in range(len(hs) - 1):
        diff = ests[i].value - ests[i + 1].value
        if _decide(diff, ests[i].stderr + ests[i + 1].stderr) == FAIL:
            failures.append(
                f"density rises from h={hs[i]:.6f} to h={hs[i+1]:.6f} by {-diff:.3e}"
            )
    ref = quadrature_density(geo.canonical_wedge(d))
    anchor_dev = abs(ests[0].value - ref.value)
    band0 = ests[0].stderr + ref.stderr
    if _decide(-anchor_dev, band0) == FAIL:
        failures.append(
            f"lowest-height value {ests[0].value:.6f} does not reproduce the bound "
            f"{ref.value:.6f} (dev {anchor_dev:.3e} > error {band0:.3e})"
        )
    g0_lo, g_lo = fm.truncation_scalars(d, lo)
    return _result(
        "square-cap-monotone", failures, [],
        f"d={d}: capped-square density nonincreasing over {_CAP_HEIGHTS} heights; "
        f"anchor matches the bound within {band0:.1e}",
        {
            "d": int(d),
            "method": "quadrature",
            "heights": [float(h) for h in hs],
            "values": [e.value for e in ests],
            "stderr": [e.stderr for e in ests],
            "reference": ref.value,
            "anchor_deviation": anchor_dev,
            "clearance_at_lo": g_lo,
        },
    )


def check_chain_inflation(d: int = 5) -> CheckResult:
    """Inflating chain norms can only lower the density, strictly when large.

    Compares the canonical simplex against elementwise and single-coordinate
    inflations; each must lower the density by more than the two values'
    summed refinement errors.
    """
    # (case, dimension, multipliers): elementwise 10 percent, and one coordinate at d=8
    cases = [("uniform-1.1", d, [1.1] * d), ("last-coordinate-1.2", 8, [1.0] * 7 + [1.2])]
    failures, inconclusive, rows, canonical = [], [], [], []
    for case, dim, mults in cases:
        base = quadrature_density(geo.canonical_simplex(dim))
        xi = tuple(fm.chain_floor(i + 1) * m for i, m in enumerate(mults))
        est = quadrature_density(geo.WedgeConfig(geo.ChainSpec(d=dim, k=dim, xi=xi)))
        canonical.append(base.value)
        sep = base.value - est.value
        band = base.stderr + est.stderr
        rows.append({"case": case, "density": est.value, "separation": sep, "band": band})
        status = _decide(sep, band, strict=True)
        if status == FAIL:
            failures.append(f"{case} inflation raised the density by {-sep:.3e}")
        elif status == INCONCLUSIVE:
            inconclusive.append(f"{case} separation {sep:.3e} within the error {band:.3e}")
    return _result(
        "chain-inflation", failures, inconclusive,
        f"inflated chains strictly below canonical (separations "
        f"{rows[0]['separation']:.2e}, {rows[1]['separation']:.2e})",
        {"d": int(d), "method": "quadrature", "canonical": canonical[0], "cases": rows},
    )


REGISTRY = {
    "floor-recursion": check_floor_recursion,
    "tilt-extremum": check_tilt_extremum,
    "pair-separation": check_pair_separation,
    "reach-bound": check_reach_bound,
    "radius-ratio": check_radius_ratio,
    "profile-monotone": check_profile_monotone,
    "truncation-gain": check_truncation_gain,
    "truncated-max": check_truncated_max,
    "square-cap-monotone": check_square_cap,
    "chain-inflation": check_chain_inflation,
}


def _unknown(name: str) -> ValueError:
    return ValueError(f"unknown check {name!r}; known checks: {', '.join(sorted(REGISTRY))}")


def run_check(name: str, **overrides) -> CheckResult:
    if name not in REGISTRY:
        raise _unknown(name)
    fn = REGISTRY[name]
    import inspect

    accepted = set(inspect.signature(fn).parameters)
    kwargs = {k: v for k, v in overrides.items() if k in accepted and v is not None}
    return fn(**kwargs)


def run_checks(names=None, **overrides) -> list[CheckResult]:
    """Run the named checks, all by default; none if a name is unknown or d is
    out of any one's range (MIN_D)."""
    selected = list(names or REGISTRY)
    if unknown := [n for n in selected if n not in REGISTRY]:
        raise _unknown(unknown[0])
    d = overrides.get("d")
    if rejecting := [f"{n} (d >= {MIN_D[n]})" for n in selected
                     if d is not None and d < MIN_D.get(n, d)]:
        raise ValueError(f"d = {d} is outside the range of {', '.join(rejecting)}")
    return [run_check(name, **overrides) for name in selected]
