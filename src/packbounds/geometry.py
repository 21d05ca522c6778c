"""Chain coordinates, planar base domains, cone membership, and samplers.

COORDINATE CONVENTION
=====================
A chain of k levels in dimension d is placed in canonical coordinates

    w_j = (eta_1, ..., eta_j, 0, ..., 0),      eta_j = sqrt(xi_j^2 - xi_{j-1}^2),

so that ||w_j|| = xi_j and (w_j - w_i) is orthogonal to w_i for i < j.  Base
membership then reduces to coordinate comparisons, no linear solves.

Two cone variants share this frame:

  simplex variant (k = d)      base = conv{w_1, ..., w_d}
  wedge variant   (k = d - 2)  base = conv({w_1, ..., w_{d-3}} u lifted domain)

where the planar domain lives in the terminal 2-plane spanned by the last
two axes, with local origin at the chain endpoint w_{d-2}.  A scaled point
y in the base hyperplane {x_1 = xi_1} belongs to the simplex base iff

    1 >= y_2/eta_2 >= ... >= y_d/eta_d >= 0,

and to the wedge base iff the inequalities hold through level d-2 with
a = y_{d-2}/eta_{d-2}, and (y_{d-1}/a, y_d/a) lies in the domain.

Every planar domain is a DiscPolygon, a disc centred at the origin cut by
a convex polygon.  The wedge's triangle, its sector and their union are
each the disc of radius 2/sqrt(d^2 - 1) cut by a triangle cornered at the
origin; truncation_domain's capped square and polygons are cut by polygons
around it, and its bare trace disc by a square whose sides lie outside it.

Uniform sampling sorts d - 1 uniforms: their order statistics are the
simplex levels, and for the wedge the join parameter t = y_{d-2}/eta_{d-2},
whose density is proportional to t^2 (1-t)^(d-4), a Beta(3, d-3) law, is
the third smallest of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .formulas import (
    EDGE_TOL,
    chain_floor,
    chain_height,
    truncation_scalars,
)

__all__ = [
    "ChainSpec",
    "canonical_chain",
    "PlanarDomain",
    "DiscPolygon",
    "wedge_domain",
    "sector_domain",
    "triangle_domain",
    "truncation_domain",
    "WedgeConfig",
    "canonical_simplex",
    "canonical_wedge",
    "sector_wedge",
    "truncated_wedge",
    "cone_contains",
    "cone_contains_many",
]


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class ChainSpec:
    """A k-level chain in dimension d with per-level norms xi_1 <= ... <= xi_k.

    Norms must respect the floors xi_i >= m_i = sqrt(2i/(i+1)); the canonical
    chain has equality everywhere.
    """

    d: int
    k: int
    xi: tuple[float, ...]
    eta: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if not (1 <= self.k <= self.d):
            raise ValueError(f"levels k must satisfy 1 <= k <= d, got k={self.k}, d={self.d}")
        if len(self.xi) != self.k:
            raise ValueError(f"expected {self.k} norms, got {len(self.xi)}")
        prev = 0.0
        etas = []
        for i, x in enumerate(self.xi, start=1):
            floor = chain_floor(i)
            if x < floor - EDGE_TOL:
                raise ValueError(f"norm xi_{i}={x} below floor {floor}")
            if x <= prev:
                raise ValueError(f"norms must increase strictly, xi_{i}={x} after {prev}")
            etas.append(math.sqrt(max(x * x - prev * prev, 0.0)))
            prev = x
        object.__setattr__(self, "xi", tuple(float(x) for x in self.xi))
        object.__setattr__(self, "eta", tuple(etas))

    @property
    def eta_array(self) -> np.ndarray:
        return np.asarray(self.eta)


def canonical_chain(d: int, k: int) -> ChainSpec:
    """Chain with xi_i = m_i exactly."""
    return ChainSpec(d=d, k=k, xi=tuple(chain_floor(i) for i in range(1, k + 1)))


# ---------------------------------------------------------------------------
# planar domains (local coordinates, origin at the chain endpoint)


def _as_points(pts) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if arr.shape[-1] != 2:
        raise ValueError(f"expected 2D points, got shape {arr.shape}")
    return arr


def _fan_edges(verts: np.ndarray):
    """Columns (sign, span, p, delta) of a polygon's fan of edge triangles, as (edges, 1) arrays.

    Edge a -> b spans the triangle (origin, a, b).  span is its angle at
    the origin, p the distance of the edge's line from the origin and delta
    the angle of the perpendicular's foot, measured from a.  sign is
    negative when a -> b turns clockwise about the origin, so the signed sum
    over the edges measures the polygon wherever the origin lies.  An edge
    whose line passes through the origin measures zero and is left out.
    The scalars are Python floats; the two dot products are np.dot's, which
    rounds differently from a plain a_x b_x + a_y b_y, and the recursion at
    d near 64 turns a one-ulp change of the radial weights into 1e-13.
    """
    fan = []
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        cross_ab = float(a[0] * b[1] - a[1] * b[0])
        if math.hypot(*a) < 1e-15 or math.hypot(*b) < 1e-15 or abs(cross_ab) < 1e-30:
            continue
        span = math.atan2(cross_ab, float(np.dot(a, b)))
        sign = 1.0
        if span < 0:
            a, b = b, a
            span = -span
            sign = -1.0
        e = b - a
        # the foot is a - (a.e / e.e) e, so a x foot = -(a.e) |cross| / e.e and
        # a . foot = cross^2 / e.e.  Taken from that ratio, the angle stays
        # accurate where the line passes within rounding of the origin, where
        # a . foot computed as |a|^2 - (a.e)^2 / e.e cancels to noise
        delta = math.atan2(-float(np.dot(a, e)), abs(cross_ab))
        fan.append((sign, span, abs(cross_ab) / math.hypot(*e), delta))
    return tuple(np.array(col).reshape(-1, 1) for col in zip(*fan)) if fan else None


def _segment_circle_area(a, b, R: float) -> float:
    """Green contribution of directed edge a -> b to area(polygon ^ disc(R)).

    The edge's line a + s e runs inside the open disc for s between the
    roots s0 < s1 of |a + s e|^2 = R^2.  Pieces of the edge in (s0, s1) are
    chords; every other piece is replaced by its arc, and so is a whole edge
    whose line misses the open disc or touches it (discriminant <= 0).  a
    and b are pairs of Python floats.
    """
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    ee, ae = ex * ex + ey * ey, ax * ex + ay * ey
    disc = ae * ae - ee * ((ax * ax + ay * ay) - R * R)
    s0 = s1 = 0.0
    if ee > 0.0 and disc > 0.0:
        s0, s1 = (-ae - math.sqrt(disc)) / ee, (-ae + math.sqrt(disc)) / ee
    cuts = [s for s in (s0, s1) if 1e-14 < s < 1.0 - 1e-14]
    params = [0.0, *cuts, 1.0]
    pts = [(ax, ay), *((ax + s * ex, ay + s * ey) for s in cuts), (bx, by)]
    total = 0.0
    for k in range(len(pts) - 1):
        (px, py), (qx, qy) = pts[k], pts[k + 1]
        cross = px * qy - py * qx
        if s0 < 0.5 * (params[k] + params[k + 1]) < s1:
            total += 0.5 * cross
        else:
            total += 0.5 * R * R * math.atan2(cross, px * qx + py * qy)
    return total


def _inside_edges(p: np.ndarray, verts: np.ndarray, tol: float) -> np.ndarray:
    """Points on the inner side (within tol) of every edge of a ccw convex polygon."""
    ok = np.ones(len(p), dtype=bool)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        e = b - a
        ln = math.hypot(*e)
        signed = (e[0] * (p[:, 1] - a[1]) - e[1] * (p[:, 0] - a[0])) / ln
        ok &= signed >= -tol
    return ok


def _edges(verts) -> list:
    """A polygon's directed edges (a, b), in vertex order, as pairs of Python floats."""
    pts = np.asarray(verts, dtype=float).tolist()
    return list(zip(pts, pts[1:] + pts[:1]))


def _fan_radial_mass(r, fan) -> np.ndarray:
    """Radial mass of a convex polygon from its _fan_edges, all edges in one pass.

    At radius r an edge's triangle measures its span less the arc of
    half-width arccos(p / r) about delta that the edge's line cuts off when
    r > p.  The (edges x r) measures are added in vertex order.
    """
    r = np.asarray(r, dtype=float)
    if fan is None:
        return np.zeros_like(r)
    sign, span, p, delta = fan
    flat = r.reshape(-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(flat > p, np.arccos(np.clip(p / np.maximum(flat, 1e-300), -1.0, 1.0)), 0.0)
    removed = np.minimum(span, delta + c) - np.maximum(0.0, delta - c)
    meas = (sign * (span - np.maximum(0.0, removed))).sum(axis=0)
    return (flat * np.maximum(meas, 0.0)).reshape(r.shape)


def _polygon_breakpoints(verts, max_radius: float) -> list[float]:
    """Kinks of a polygon's fan radial mass up to max_radius, as Python floats.

    They are 0, max_radius, the vertices' radii and each edge's least
    radius, at the perpendicular foot from the origin clipped to the edge.
    """
    pts = {0.0, max_radius}
    for (ax, ay), (bx, by) in _edges(verts):
        ex, ey = bx - ax, by - ay
        ee = ex * ex + ey * ey
        if ee > 0:
            s = min(max(-(ax * ex + ay * ey) / ee, 0.0), 1.0)
            pts.add(math.hypot(ax + s * ex, ay + s * ey))
        pts.add(math.hypot(ax, ay))
    return sorted(x for x in pts if x <= max_radius + 1e-15)


def _polar_points(R: float, ang0: float, ang1: float, n: int, rng) -> np.ndarray:
    """n uniform points of the sector of radius R between angles ang0 and ang1."""
    ang = rng.uniform(ang0, ang1, size=n)
    r = R * np.sqrt(rng.random(n))
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _angular_span(verts: np.ndarray) -> tuple[float, float]:
    """Angles ang0 < ang1 between which a convex polygon lies, seen from the origin.

    The whole turn when no gap between the vertex directions exceeds pi (the
    origin inside the polygon or on its boundary); otherwise the complement
    of the largest gap.  A vertex at the origin has no direction.
    """
    ang = np.sort([math.atan2(v[1], v[0]) for v in verts if v[0] or v[1]])
    gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
    k = int(np.argmax(gaps))
    if gaps[k] <= math.pi:
        return 0.0, 2.0 * math.pi
    if k == len(ang) - 1:
        return float(ang[0]), float(ang[k])
    return float(ang[k + 1]), float(ang[k]) + 2.0 * math.pi


# Gauss-Legendre nodes per breakpoint piece in PlanarDomain.radial_moments
_MOMENT_NODES = 64


def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights of [-1, 1], to a few ulp.

    numpy's leggauss leaves moment errors near 1e-14 (a w^40 weight summed
    to 1 - 1.8e-13 with 76 nodes), and the chain recursion compounds them
    once per level; three Newton steps on the three-term recurrence polish
    the nodes, and the weights 2 / ((1 - x^2) P_m'(x)^2) follow.  Called
    only when a rule is built, as numpy.polynomial is not loaded at import.
    """
    x = np.polynomial.legendre.leggauss(m)[0]
    for _ in range(3):
        p0, p1 = np.ones_like(x), x.copy()
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


@functools.lru_cache(maxsize=8)
def _cosine_gauss_legendre(n: int):
    """Nodes u = (1 - cos theta)/2 in [0, 1] and weights of the n-node radial rule."""
    x, w = _gauss_legendre(n)
    theta = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(theta)), 0.25 * math.pi * w * np.sin(theta)


class PlanarDomain:
    """The radial quadrature shared by the 2D base regions.

    A subclass provides ``kind``, ``area``, ``max_radius``, the radial mass
    density ``radial_mass`` (so that integral of radial_mass over [0,
    max_radius] equals the area) and ``radial_breakpoints`` where that
    density has kinks.  DiscPolygon is the one subclass.
    """

    kind: str
    area: float
    max_radius: float

    def radial_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes r and weights w with sum w f(r) ~ integral of radial_mass(r) f(r) dr.

        Gauss-Legendre in theta with r = a + (b - a)(1 - cos theta)/2 on each
        piece [a, b] between radial_breakpoints, n nodes per piece: the
        substitution smooths the square-root kinks that the radial mass has
        at the piece ends, so 64 nodes per piece give sum w = area to about
        1e-15.
        """
        u, gl_w = _cosine_gauss_legendre(n)
        brk = self.radial_breakpoints()
        pieces = list(zip(brk[:-1], brk[1:]))
        r = np.concatenate([a + (b - a) * u for a, b in pieces])
        w = np.concatenate([(b - a) * gl_w for a, b in pieces]) * self.radial_mass(r)
        return r, w

    def radial_moments(self, rho: float, n_terms: int) -> np.ndarray:
        """nu_m = integral of radial_mass(r) ((r^2 - rho)/rho)^m dr for m < n_terms.

        Summed by radial_rule with _MOMENT_NODES nodes per piece.
        """
        r, w = self.radial_rule(_MOMENT_NODES)
        z = (r * r - rho) / rho
        nu = np.empty(n_terms)
        for m in range(n_terms):
            nu[m] = w.sum()
            w = w * z
        return nu


class DiscPolygon(PlanarDomain):
    """Disc of radius R centred at the origin, intersected with a convex polygon.

    The origin may lie inside the polygon, on its boundary or outside it.
    """

    kind = "disc_cap_polygon"

    def __init__(self, radius, vertices):
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("polygon needs at least 3 planar vertices")
        # orient counterclockwise
        area2 = 0.0
        for (ax, ay), (bx, by) in _edges(verts):
            area2 += ax * by - ay * bx
        if area2 < 0:
            verts = verts[::-1].copy()
        edges = _edges(verts)
        self._edge_dist = []
        for ((ax, ay), (bx, by)), (_, (cx, cy)) in zip(edges, edges[1:] + edges[:1]):
            ex, ey = bx - ax, by - ay
            cr = ex * (cy - by) - ey * (cx - bx)
            ln = math.hypot(ex, ey)
            if area2 == 0.0 or ln == 0.0 or cr < -1e-12:
                raise ValueError("polygon must be convex, with distinct vertices and positive area")
            # signed distance of the edge's line, positive on the origin's side
            self._edge_dist.append((ax * by - ay * bx) / ln)
        # with the origin outside, the polygon's nearest point lies on an edge
        if min(self._edge_dist) < 0.0 and _polygon_breakpoints(verts, math.inf)[1] >= radius:
            raise ValueError("polygon must meet the open disc")
        self.radius = float(radius)
        self.vertices = verts
        self.area = float(sum(_segment_circle_area(a, b, self.radius) for a, b in edges))
        self.max_radius = min(self.radius, max(math.hypot(*a) for a, _ in edges))
        self._breakpoints = _polygon_breakpoints(verts, self.max_radius)
        self._fan = _fan_edges(verts)

    def contains(self, pts, tol: float = EDGE_TOL):
        p = _as_points(pts)
        r = np.hypot(p[:, 0], p[:, 1])
        return (r <= self.radius + tol) & _inside_edges(p, self.vertices, tol)

    def sample(self, n, rng):
        # rejection from the polar sector of radius max_radius spanning the
        # polygon's directions, so that a polygon cornered at the origin is
        # not drawn from the whole disc
        span = _angular_span(self.vertices)
        out = np.empty((n, 2))
        got = 0
        while got < n:
            cand = _polar_points(self.max_radius, *span, max(2 * (n - got), 64), rng)
            keep = cand[self.contains(cand, tol=0.0)]
            take = min(n - got, len(keep))
            out[got : got + take] = keep[:take]
            got += take
        return out

    def radial_mass(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, _fan_radial_mass(r, self._fan), 0.0)

    def radial_breakpoints(self):
        return list(self._breakpoints)


def _corner(d: int) -> tuple[float, float, float]:
    """Legs h_{d-1}, h_d of the wedge's corner triangle and its hypotenuse R."""
    if d < 4:
        raise ValueError(f"wedge base domains need d >= 4, got {d}")
    a, b = chain_height(d - 1), chain_height(d)
    return a, b, math.hypot(a, b)


def triangle_domain(d: int) -> DiscPolygon:
    """Right triangle with legs h_{d-1}, h_d at the chain endpoint.

    It is the disc of radius R = |(h_{d-1}, h_d)| = 2/sqrt(d^2 - 1), which
    holds it, cut by the triangle itself.
    """
    a, b, R = _corner(d)
    return DiscPolygon(R, [(0.0, 0.0), (a, 0.0), (a, b)])


def sector_domain(d: int) -> DiscPolygon:
    """Circular sector of radius R closing the triangle's corner angle to pi/4.

    It is the disc of radius R cut by the triangle (0, 0), (h_{d-1}, h_d),
    (h_{d-1}, h_{d-1}): at angles alpha <= phi <= pi/4, where cos alpha =
    h_{d-1}/R, the disc already keeps x <= R cos phi <= h_{d-1}.
    """
    a, b, R = _corner(d)
    return DiscPolygon(R, [(0.0, 0.0), (a, b), (a, a)])


def wedge_domain(d: int) -> DiscPolygon:
    """Triangle and sector joined along the common corner ray.

    Local coordinates sit in the terminal 2-plane with origin at the chain
    endpoint; the union subtends exactly the angle pi/4 there, and it is
    the disc of radius R cut by the triangle (0, 0), (h_{d-1}, 0),
    (h_{d-1}, h_{d-1}).
    """
    a, _, R = _corner(d)
    return DiscPolygon(R, [(0.0, 0.0), (a, 0.0), (a, a)])


def _square(half_width: float) -> list[tuple[float, float]]:
    """Counterclockwise vertices of the square [-half_width, half_width]^2."""
    g = float(half_width)
    return [(g, g), (-g, g), (-g, -g), (g, -g)]


def truncation_domain(d: int, h: float, shape: str = "disc", vertices=None) -> DiscPolygon:
    """Trace disc of radius g0(h), optionally capped by a square or polygon.

    Every shape is a DiscPolygon and reports kind "disc_cap_polygon".  The
    bare disc is cut by the square of half-width 2 g0, whose sides never
    meet it; the cap square, of half-width g(h), by its corners.  A polygon
    given by its vertices must be admissible: every vertex outside the open
    trace disc and every side line at distance at least g(h) from the center.
    """
    g0, g = truncation_scalars(d, h)
    if shape == "disc":
        return DiscPolygon(g0, _square(2.0 * g0))
    if shape == "disc_cap_square":
        return DiscPolygon(g0, _square(g))
    if shape == "disc_cap_polygon":
        if vertices is None:
            raise ValueError("polygon shape requires vertices")
        dom = DiscPolygon(g0, vertices)
        for v in dom.vertices:
            if math.hypot(*v) < g0 - EDGE_TOL:
                raise ValueError(f"polygon vertex {tuple(v)} inside the trace disc (g0={g0})")
        for p in dom._edge_dist:
            if p < g - EDGE_TOL:
                raise ValueError(f"polygon side at distance {p} closer than clearance g={g}")
        return dom
    raise ValueError(f"unknown truncation shape {shape!r}")


# ---------------------------------------------------------------------------
# cone configurations


@dataclass(frozen=True)
class WedgeConfig:
    """A cone with apex at the origin over a simplex or joined base.

    chain.k == chain.d with no domain gives the simplex variant; chain.k ==
    chain.d - 2 with a planar domain gives the wedge variant.
    """

    chain: ChainSpec
    domain: PlanarDomain | None = None

    def __post_init__(self):
        if self.domain is None:
            if self.chain.k != self.chain.d:
                raise ValueError("simplex variant requires k == d")
        else:
            if self.chain.d < 4:
                raise ValueError("wedge variant requires d >= 4")
            if self.chain.k != self.chain.d - 2:
                raise ValueError("wedge variant requires k == d - 2")

    @property
    def d(self) -> int:
        return self.chain.d

    @property
    def is_simplex(self) -> bool:
        return self.domain is None


def canonical_simplex(d: int) -> WedgeConfig:
    return WedgeConfig(chain=canonical_chain(d, d))


def canonical_wedge(d: int) -> WedgeConfig:
    domain = wedge_domain(d)
    return WedgeConfig(chain=canonical_chain(d, d - 2), domain=domain)


def sector_wedge(d: int) -> WedgeConfig:
    domain = sector_domain(d)
    return WedgeConfig(chain=canonical_chain(d, d - 2), domain=domain)


def truncated_wedge(d: int, h: float, shape: str = "disc", vertices=None) -> WedgeConfig:
    """Truncated wedge at face height h over the chain (m_1, ..., m_{d-3}, h)."""
    xi = tuple(chain_floor(i) for i in range(1, d - 2)) + (float(h),)
    chain = ChainSpec(d=d, k=d - 2, xi=xi)
    return WedgeConfig(chain=chain, domain=truncation_domain(d, h, shape, vertices))


# ---------------------------------------------------------------------------
# membership


def cone_contains_many(config: WedgeConfig, dirs) -> np.ndarray:
    """Vectorized membership of rays in the cone over the base, within EDGE_TOL."""
    u = np.atleast_2d(np.asarray(dirs, dtype=float))
    if u.shape[1] != config.d:
        raise ValueError(f"directions must have dimension {config.d}")
    norms = np.linalg.norm(u, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero direction vector")
    eta = config.chain.eta_array
    xi1 = config.chain.xi[0]
    out = np.zeros(len(u), dtype=bool)
    pos = u[:, 0] > 0.0
    if not np.any(pos):
        return out
    y = (xi1 / u[pos, 0])[:, None] * u[pos]
    k = config.chain.k
    tl = y[:, 1:k] / eta[1:k]
    ok = np.ones(len(y), dtype=bool)
    prev = np.ones(len(y))
    for j in range(tl.shape[1]):
        ok &= tl[:, j] <= prev + EDGE_TOL
        prev = tl[:, j]
    if config.is_simplex:
        if k > 1:
            ok &= tl[:, -1] >= -EDGE_TOL
    else:
        a = tl[:, -1] if k > 1 else np.ones(len(y))
        ok &= a >= -EDGE_TOL
        q1, q2 = y[:, -2], y[:, -1]
        small = a <= EDGE_TOL
        ok_small = small & (np.abs(q1) <= EDGE_TOL) & (np.abs(q2) <= EDGE_TOL)
        big = ok & ~small
        ok_big = np.zeros(len(y), dtype=bool)
        if np.any(big):
            pts = np.column_stack([q1[big] / a[big], q2[big] / a[big]])
            ok_big[big] = config.domain.contains(pts, EDGE_TOL)
        ok = (ok & ok_small) | ok_big
    out[pos] = ok
    return out


def cone_contains(config: WedgeConfig, u) -> bool:
    """True iff the ray from the origin through u meets the base, within EDGE_TOL."""
    return bool(cone_contains_many(config, np.asarray(u, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# chain draw


def _ordered_chain(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """One chain draw per row: d - 1 uniforms from rng, sorted ascending in place.

    The one chain draw behind every Monte-Carlo estimator.
    Column j holds the level d - j coordinate y_(d-j)/eta_(d-j), so the
    columns run from the last level up to level 2 (order statistics of
    uniforms; David and Nagaraja, Order Statistics, 2003).  For a simplex
    all d - 1 columns are levels d..2 and the lead, level 2, is the largest.
    For a wedge the join parameter t = y_(d-2)/eta_(d-2), a Beta(3, d-3)
    variable, is the third smallest (column 2), the top d - 4 columns are
    the free levels d-3..2, and the two columns below t stand for the
    planar part, which the estimators integrate out.
    """
    v = rng.random((m, d - 1))
    v.sort(axis=1)
    return v
