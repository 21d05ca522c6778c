"""Closed-form scalars for the packing-bound geometry.

Everything here is deterministic double-precision arithmetic, no sampling.
The tilt and pair-separation formulas also take numpy arrays and evaluate
them elementwise, so a grid check costs one call.  Their range checks count
offending entries with np.count_nonzero, which serves floats and arrays
alike at a fraction of np.any's cost per scalar call.

CORE QUANTITIES
===============

Chain floors and heights (i >= 1):
    m_i = sqrt(2i/(i+1))        least distance from a cell center to its
                                codimension-i faces; fixed points of the
                                floor recursion below
    h_i = sqrt(2/(i(i+1)))      level height, m_i^2 = sum_{j<=i} h_j^2

Floor recursion (0 <= R < 2):
    R -> 2/sqrt(4 - R^2)        maps m_i to m_{i+1}, fixed point sqrt(2)

Truncation radii at face height h (d >= 4, m_{d-2} <= h < sqrt(2d/(d+1))):
    trace     g0(h) = sqrt(2d/(d+1) - h^2)      radius of the enlarged-ball
                                                trace disc in the face plane
    clearance g(h)  = (2 - h^2)/sqrt(4 - h^2)   least distance from the foot
                                                point to any side of the face

Sector geometry (d >= 4): the planar base domain is a right triangle with
legs h_{d-1}, h_d completed by a circular sector of radius 2/sqrt(d^2-1)
so that the total angle at the corner is pi/4.  That radius is the
triangle's hypotenuse |(h_{d-1}, h_d)|, so the domain is the disc of that
radius cut by the triangle (0, 0), (h_{d-1}, 0), (h_{d-1}, h_{d-1}), and
the sector alone is the disc cut by (0, 0), (h_{d-1}, h_d), (h_{d-1}, h_{d-1}).

Tilt extremal problem (d >= 4): with l^2 = 2d/(d+1) fixed, the angles of
the extremal tangent configuration at ring parameter x satisfy
    cos(lower) = sqrt((l^2(4-x^2) - 4)/((4-x^2)(l^2-x^2)))
    cos(upper) = (l^2 - 2)/(l sqrt(l^2 - x^2))
and their sum is strictly increasing in x wherever the quartic
    q(x) = x^4 - ((4d-10)/(d-1)) x^2 + (4d-16)/(d-1)
is negative.  The neighbor tilt pi - (lower + upper) is therefore maximal
at the left end x = sqrt(2(d-3)/(d-2)) of the admissible interval, where
its cosine has the closed form
    cos(tilt_max) = (sqrt(2)/3) (2d-1)/sqrt(d(d-1)).

Pair separation (d >= 4): the squared distance between two rescaled
neighbor centers at tilt angles (a_i, a_j) is bounded by a trigonometric
expression whose maximum over the admissible square is the rational
function pair_gap_max(d); the bound drops to 4 exactly from d = 8 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EDGE_TOL",
    "SectorGeometry",
    "ReferenceBounds",
    "TiltAngleScalars",
    "chain_floor",
    "chain_height",
    "next_chain_floor",
    "truncation_scalars",
    "height_breakpoints",
    "sector_geometry",
    "tilt_interval",
    "tilt_quartic",
    "tilt_angle_scalars",
    "max_tilt_cosine",
    "pair_gap_bound",
    "pair_gap_max",
    "reach_bound",
    "zeta",
    "unit_ball_volume",
    "reference_bounds",
]

# closed interval endpoints are accepted within this band
EDGE_TOL = 1e-12


def _check_dimension(d, minimum):
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {d}")


def chain_floor(i: int) -> float:
    """m_i = sqrt(2i/(i+1)), the distance floor at chain level i."""
    if i < 1:
        raise ValueError(f"chain level must be >= 1, got {i}")
    return math.sqrt(2.0 * i / (i + 1.0))


def chain_height(i: int) -> float:
    """h_i = sqrt(2/(i(i+1))), so that m_i^2 = sum_{j<=i} h_j^2."""
    if i < 1:
        raise ValueError(f"chain level must be >= 1, got {i}")
    return math.sqrt(2.0 / (i * (i + 1.0)))


def next_chain_floor(R: float) -> float:
    """Floor recursion R -> 2/sqrt(4 - R^2).

    Strictly increasing on [0, 2); maps m_i to m_{i+1} and fixes sqrt(2).
    """
    if R < -EDGE_TOL:
        raise ValueError(f"distance must be nonnegative, got {R}")
    if R >= 2.0:
        raise ValueError(f"recursion is singular at distances >= 2, got {R}")
    return 2.0 / math.sqrt(4.0 - R * R)


def height_breakpoints(d: int) -> tuple[float, float, float]:
    """Admissible face-height range for dimension d.

    Returns (m_{d-2}, sqrt(2(d-1)/d), sqrt(2d/(d+1))): the lower end, the
    point where trace and clearance radii coincide, and the open upper end.
    """
    _check_dimension(d, 4)
    return (
        chain_floor(d - 2),
        math.sqrt(2.0 * (d - 1) / d),
        math.sqrt(2.0 * d / (d + 1)),
    )


def truncation_scalars(d: int, h: float) -> tuple[float, float]:
    """Trace radius g0(h) and clearance radius g(h) at face height h.

    g0(h) = sqrt(2d/(d+1) - h^2) is the radius of the disc cut out of the
    face plane by the ball of radius sqrt(2d/(d+1)); g(h) = (2-h^2)/sqrt(4-h^2)
    is the least distance from the foot point to a side of the face.  The
    ratio g0/g decreases strictly from sqrt(2d/(d+1)) to 1 across the lower
    height range, and g0 < g beyond the middle breakpoint.
    """
    lo, _, hi = height_breakpoints(d)
    if h < lo - EDGE_TOL or h >= hi:
        raise ValueError(
            f"height {h} outside [{lo}, {hi}) for d={d}"
        )
    g0 = math.sqrt(2.0 * d / (d + 1) - h * h)
    g = (2.0 - h * h) / math.sqrt(4.0 - h * h)
    return g0, g


@dataclass(frozen=True)
class SectorGeometry:
    """Planar data of the base domain's circular sector.

    radius  distance from the corner to the two far vertices, 2/sqrt(d^2-1)
    alpha   triangle angle at the corner, atan(sqrt((d-1)/(d+1)))
    theta   sector central angle pi/4 - alpha
    """

    radius: float
    alpha: float
    theta: float


def sector_geometry(d: int) -> SectorGeometry:
    _check_dimension(d, 4)
    radius = 2.0 / math.sqrt(d * d - 1.0)
    alpha = math.atan(math.sqrt((d - 1.0) / (d + 1.0)))
    theta = math.pi / 4.0 - alpha
    return SectorGeometry(radius=radius, alpha=alpha, theta=theta)


def tilt_interval(d: int) -> tuple[float, float]:
    """Admissible ring-parameter interval [sqrt(2(d-3)/(d-2)), sqrt(2(d-2)/(d-1))]."""
    _check_dimension(d, 4)
    return (
        math.sqrt(2.0 * (d - 3) / (d - 2)),
        math.sqrt(2.0 * (d - 2) / (d - 1)),
    )


class TiltAngleScalars(NamedTuple):
    """Cosines and quartic at x: floats, or arrays of x's shape."""

    cos_lower: float | np.ndarray
    cos_upper: float | np.ndarray
    quartic: float | np.ndarray


def tilt_quartic(d: int, x):
    """x^4 - ((4d-10)/(d-1)) x^2 + (4d-16)/(d-1), unguarded; x may be an array.

    Roots at sqrt(2(d-4)/(d-1)) and sqrt(2); negative strictly between them,
    which brackets the whole admissible ring-parameter interval.
    """
    _check_dimension(d, 4)
    # products, not a power: float ** 4 and numpy's power may round apart,
    # and the terms nearly cancel
    x2 = x * x
    return x2 * x2 - (4.0 * d - 10.0) / (d - 1.0) * x2 + (4.0 * d - 16.0) / (d - 1.0)


def tilt_angle_scalars(d: int, x) -> TiltAngleScalars:
    """Angle cosines and monotonicity quartic of the tilt problem at x.

    The apex angle at the enlarged-ball center splits into a lower arc
    (center to ring) and an upper arc (ring to far vertex); the neighbor
    tilt is pi minus their sum.  quartic < 0 on the open admissible
    interval, which makes lower+upper strictly increasing there, so the
    tilt is maximal at the interval's left end.  x may be an array; every
    entry must lie in the interval.
    """
    lo, hi = tilt_interval(d)
    if np.count_nonzero((x < lo - EDGE_TOL) | (x > hi + EDGE_TOL)):
        raise ValueError(f"ring parameter {x} outside [{lo}, {hi}] for d={d}")
    l2 = 2.0 * d / (d + 1)
    rad_low = l2 * (4.0 - x * x) - 4.0
    if np.count_nonzero((rad_low <= 0.0) | (l2 - x * x <= 0.0) | (4.0 - x * x <= 0.0)):
        raise ValueError(f"degenerate radicand at x={x}, d={d}")
    cos_lower = np.sqrt(rad_low / ((4.0 - x * x) * (l2 - x * x)))
    cos_upper = (l2 - 2.0) / np.sqrt(l2 * (l2 - x * x))
    return TiltAngleScalars(cos_lower, cos_upper, tilt_quartic(d, x))


def max_tilt_cosine(d: int) -> float:
    """cos of the largest admissible neighbor tilt, (sqrt(2)/3)(2d-1)/sqrt(d(d-1)).

    Strictly below 1 for d >= 4 and decreasing toward 2 sqrt(2)/3.
    """
    _check_dimension(d, 4)
    return (math.sqrt(2.0) / 3.0) * (2.0 * d - 1.0) / math.sqrt(d * (d - 1.0))


# cos(2 pi/5) from the trig function; equality with (sqrt(5)-1)/4 is a test
_COS_2PI5 = math.cos(2.0 * math.pi / 5.0)


def pair_gap_bound(d: int, tilt_i, tilt_j):
    """Squared-distance bound for two rescaled neighbor centers.

    Both tilt angles must lie in [0, acos(max_tilt_cosine(d))]; they may be
    arrays, which broadcast against each other.  The center offset norm is
    already replaced by its floor sqrt(2(d-2)/(d-1)), so the returned value
    dominates the true squared distance for every admissible configuration;
    it is nondecreasing in either tilt.
    """
    tilt_max = math.acos(max_tilt_cosine(d))
    for name, a in (("tilt_i", tilt_i), ("tilt_j", tilt_j)):
        if np.count_nonzero((a < -EDGE_TOL) | (a > tilt_max + EDGE_TOL)):
            raise ValueError(f"{name}={a} outside [0, {tilt_max}] for d={d}")
    c5 = _COS_2PI5
    ld2 = 2.0 * d / (d + 1)  # squared enlarged radius
    off2 = 2.0 * (d - 2) / (d - 1)  # floored squared center offset
    return (
        (2.0 - c5) * 2.0 * ld2
        - 2.0 * (1.0 - c5) * off2
        + 2.0 * ld2 * np.sin(tilt_i) * np.sin(tilt_j)
        - 2.0 * ld2 * c5 * np.cos(tilt_i) * np.cos(tilt_j)
        + 2.0 * (1.0 - c5) * math.sqrt(ld2) * (np.cos(tilt_i) + np.cos(tilt_j))
        * math.sqrt(ld2 - off2)
    )


def pair_gap_max(d: int) -> float:
    """Closed-form maximum of pair_gap_bound over the admissible square.

    ((40 - 32 c) d^2 + (56 - 64 c) d + (16 - 32 c)) / (9 (d^2 - 1)) with
    c = cos(2 pi/5); attained at both tilts maximal.  <= 4 exactly for
    d >= 8 and > 4 at d = 7.
    """
    _check_dimension(d, 4)
    c5 = _COS_2PI5
    num = (40.0 - 32.0 * c5) * d * d + (56.0 - 64.0 * c5) * d + (16.0 - 32.0 * c5)
    return num / (9.0 * (d * d - 1.0))


def reach_bound(d: int) -> float:
    """sqrt(2d/(d+1) - 2(d-2)/(d-1)) + sqrt(2d/(d+1)), shown <= 2 for d >= 3."""
    _check_dimension(d, 3)
    ld2 = 2.0 * d / (d + 1)
    return math.sqrt(ld2 - 2.0 * (d - 2) / (d - 1)) + math.sqrt(ld2)


def zeta(s: float) -> float:
    """Riemann zeta by direct series with an Euler-Maclaurin tail.

    The bare series stalls at s = 2 (1e15 terms for 1e-15 accuracy), so the
    tail beyond K terms is closed out analytically; the first dropped
    correction is below 1e-16 for K = 100 and any s >= 2.
    """
    if s < 2:
        raise ValueError(f"series evaluation requires s >= 2, got {s}")
    s = float(s)
    K = 100
    total = 0.0
    for k in range(1, K):
        term = k ** (-s)
        total += term
        if term < 1e-17:
            return total
    return (
        total
        + K ** (1.0 - s) / (s - 1.0)
        + 0.5 * K ** (-s)
        + s * K ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * K ** (-s - 3.0) / 720.0
    )


def unit_ball_volume(d: int) -> float:
    """Volume pi^{d/2}/Gamma(d/2 + 1) of the d-dimensional unit ball."""
    _check_dimension(d, 1)
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0))


@dataclass(frozen=True)
class ReferenceBounds:
    """Reference curves for context tables.

    daniels and kl are asymptotic forms with their o(1) corrections dropped;
    they are reference curves, not certified bounds at finite d.  ball_lower
    is the zeta-function existence bound for lattice packings.
    """

    daniels: float
    kl: float
    ball_lower: float


def reference_bounds(d: int) -> ReferenceBounds:
    _check_dimension(d, 2)
    return ReferenceBounds(
        daniels=(d / math.e) * 2.0 ** (-0.5 * d),
        kl=2.0 ** (-0.599 * d),
        ball_lower=(d - 1.0) * zeta(d) / 2.0 ** (d - 1),
    )
