import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_vertices,
    disc_radial_mass,
    disc_square_area,
    disc_square_radial_mass,
    fan_radial_mass_loop,
    grid_centroid,
    membership_oracle,
    mixed_directions,
    rejection_area,
    sample_base,
    sector_moments,
    vertex_triangle_moments,
)
from packbounds import formulas as fm
from packbounds import geometry as geo
from packbounds import verify as vf
from packbounds.density import quadrature_density, surface_density


# ---------------------------------------------------------------------------
# chains


def test_canonical_chain_norms_d8():
    ch = geo.canonical_chain(8, 8)
    expected = [1.0, 1.1547005, 1.2247449, 1.2649111, 1.2909944,
                1.3093073, 1.3228757, 1.3333333]
    assert np.allclose(ch.xi, expected, atol=5e-7)
    assert ch.eta[7] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_chain_vertices_orthoscheme_property():
    ch = geo.canonical_chain(8, 8)
    v = chain_vertices(ch)
    for i in range(8):
        assert np.linalg.norm(v[i]) == pytest.approx(ch.xi[i], abs=1e-12)
        for j in range(i + 1, 8):
            assert abs(np.dot(v[j] - v[i], v[i])) < 1e-12


def test_chain_validation():
    with pytest.raises(ValueError):
        geo.canonical_chain(8, 9)
    with pytest.raises(ValueError):
        geo.canonical_chain(8, 0)
    with pytest.raises(ValueError):
        geo.ChainSpec(d=5, k=2, xi=(1.0, 0.9))  # not increasing
    with pytest.raises(ValueError):
        geo.ChainSpec(d=5, k=2, xi=(0.8, 1.2))  # below floor


def test_inflated_chain_heights():
    ch = geo.ChainSpec(d=4, k=4, xi=(1.1, 1.3, 1.4, 1.5))
    assert ch.eta[0] == pytest.approx(1.1)
    assert ch.eta[1] == pytest.approx(math.sqrt(1.3**2 - 1.1**2), abs=1e-14)


# ---------------------------------------------------------------------------
# planar domains


def _triangle(*v):
    """The triangle v as a DiscPolygon, its disc just reaching the farthest vertex."""
    return geo.DiscPolygon(max(math.hypot(*p) for p in v), v)


def test_wedge_domain_areas_d8():
    dom, tri, sec = geo.wedge_domain(8), geo.triangle_domain(8), geo.sector_domain(8)
    assert tri.area == pytest.approx(0.0157485, abs=1e-7)
    assert sec.area == pytest.approx(0.0019893, abs=1e-7)
    assert dom.area == pytest.approx(0.0177379, abs=2e-7)
    assert sec.area == pytest.approx(0.5 * sec.radius**2 * fm.sector_geometry(8).theta, rel=1e-14)


@pytest.mark.parametrize("d", range(4, 65))
def test_wedge_domain_is_triangle_plus_sector(d):
    # three disc-capped triangles on one disc: the wedge's area is the sum of
    # the other two to a few ulp, and no radial rule has more than two pieces
    dom, tri, sec = geo.wedge_domain(d), geo.triangle_domain(d), geo.sector_domain(d)
    assert abs(dom.area - (tri.area + sec.area)) <= 4.0 * math.ulp(dom.area)
    assert tri.area == 0.5 * fm.chain_height(d - 1) * fm.chain_height(d)
    for part in (dom, tri, sec):
        assert part.radius == pytest.approx(fm.sector_geometry(d).radius, rel=1e-15)
        assert part.max_radius == pytest.approx(part.radius, rel=1e-15)
        assert len(part.radial_breakpoints()) <= 3


def test_wedge_domain_membership_examples():
    dom = geo.wedge_domain(8)
    h7, h8 = fm.chain_height(7), fm.chain_height(8)
    assert dom.contains([(h7, h8 / 2.0)])[0]
    ang = math.pi / 4.0 + 0.01
    assert not dom.contains([(0.2 * math.cos(ang), 0.2 * math.sin(ang))])[0]
    with pytest.raises(ValueError):
        geo.wedge_domain(3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: geo.wedge_domain(8),
        lambda: geo.triangle_domain(6),
        lambda: geo.sector_domain(8),
        # the bare disc, capped by a square whose sides lie outside it
        lambda: geo.DiscPolygon(0.25, geo._square(0.5)),
        lambda: geo.DiscPolygon(0.25, geo._square(0.19)),
        lambda: geo.DiscPolygon(0.25, [(0.2, 0.21), (-0.23, 0.2), (-0.2, -0.22), (0.24, -0.2)]),
        # the origin at a vertex, with the disc cutting the far side
        lambda: geo.DiscPolygon(0.3, [(0.0, 0.0), (0.35, 0.05), (0.1, 0.32)]),
        # the origin outside, with the disc cutting two sides
        lambda: geo.DiscPolygon(0.3, [(0.1, -0.05), (0.4, 0.1), (0.2, 0.35), (-0.05, 0.15)]),
    ],
)
def test_domain_area_sampler_membership_consistency(make):
    dom = make()
    rng = np.random.default_rng(7)
    # bounding-box rejection area agrees with the analytic area
    est, se = rejection_area(dom, 200_000, rng)
    assert abs(est - dom.area) <= 3.0 * se
    # sampled points are members
    pts = dom.sample(20_000, rng)
    assert dom.contains(pts).all()
    # radial mass integrates to the area
    r = np.linspace(0.0, dom.max_radius, 200_001)
    assert np.trapezoid(dom.radial_mass(r), r) == pytest.approx(dom.area, rel=1e-4)


coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def triangles(draw):
    v = np.array([[draw(coord), draw(coord)] for _ in range(3)])
    e1, e2 = v[1] - v[0], v[2] - v[0]
    assume(abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-2)
    return _triangle(*v)


@st.composite
def disc_polygons(draw):
    # a linear image of a polygon inscribed in a circle around the origin,
    # with every angular gap below pi, is convex and holds the origin inside;
    # gap weights in [1, 1.8] keep every gap below 0.95 pi
    k = draw(st.integers(3, 7))
    weights = np.array([draw(st.floats(1.0, 1.8)) for _ in range(k)])
    ang = draw(st.floats(0.0, 2.0 * math.pi)) + 2.0 * math.pi * np.cumsum(weights) / weights.sum()
    lin = np.array([[draw(coord), draw(coord)] for _ in range(2)]) + 1.5 * np.eye(2)
    verts = 0.3 * np.column_stack([np.cos(ang), np.sin(ang)]) @ lin.T
    reach = float(np.max(np.hypot(verts[:, 0], verts[:, 1])))
    return geo.DiscPolygon(draw(st.floats(0.3, 1.3)) * reach, verts)


@st.composite
def disc_squares(draw):
    return geo.DiscPolygon(draw(st.floats(0.05, 1.0)), geo._square(draw(st.floats(0.05, 1.0))))


domains = st.one_of(triangles(), disc_polygons(), disc_squares())


def radial_integral(dom, n=64):
    """Integral of radial_mass over [0, max_radius], piece by piece between breakpoints.

    Gauss-Legendre in theta with r = a + (b - a)(1 - cos theta) / 2 on each
    piece [a, b]: the substitution smooths the square-root kinks that the
    radial mass has at the piece ends.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (x + 1.0)
    total = 0.0
    brk = dom.radial_breakpoints()
    for a, b in zip(brk[:-1], brk[1:]):
        r = a + 0.5 * (b - a) * (1.0 - np.cos(theta))
        total += 0.25 * math.pi * (b - a) * float(w @ (dom.radial_mass(r) * np.sin(theta)))
    return total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domains)
# an edge line that passes within rounding of the origin, where the fan
# measure's foot angle is open to cancellation
@example(_triangle((-2.220446049250313e-16, 0.9999999999999999),
                   (-0.820688136785924, -0.2182540773122461),
                   (-1.0475074674389329e-252, -6.103515625e-05)))
# every side tangent to the disc: the area is the disc's, not the square's
@example(geo.DiscPolygon(0.3, geo._square(0.3)))
def test_radial_mass_integrates_to_area(dom):
    # the identity the quadrature's radial nodes rely on
    assert radial_integral(dom) == pytest.approx(dom.area, rel=1e-9)
    # and the zeroth radial moment behind the Monte-Carlo planar series
    nu = dom.radial_moments(0.5 * dom.max_radius**2, 1)
    assert nu[0] == pytest.approx(dom.area, rel=1e-12)


# |z| <= 1 about rho = r_max^2 / 2, so the area bounds every |nu_m|, and the
# tolerance is relative to it (odd sector moments vanish)
MOMENT_TERMS = 16


@pytest.mark.parametrize("d", [4, 8, 24, 42])
def test_sector_moments_closed_form(d):
    sec = geo.sector_domain(d)
    nu = sec.radial_moments(0.5 * sec.max_radius**2, MOMENT_TERMS)
    assert np.abs(nu - sector_moments(sec, MOMENT_TERMS)).max() <= 1e-13 * sec.area


@pytest.mark.parametrize(
    "tri",
    [geo.triangle_domain(d) for d in (4, 8, 24, 42)]
    + [
        _triangle((0.0, 0.0), (0.3, 0.1), (0.05, 0.25)),
        # the origin's foot on the far edge lies outside that edge
        _triangle((0.3, 0.0), (0.0, 0.0), (0.5, 0.2)),
    ],
)
def test_vertex_triangle_moments_closed_form(tri):
    rho = 0.5 * tri.max_radius**2
    nu = tri.radial_moments(rho, MOMENT_TERMS)
    assert np.abs(nu - vertex_triangle_moments(tri, rho, MOMENT_TERMS)).max() <= 1e-13 * tri.area


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domains, st.integers(0, 2**32 - 1))
# the origin at a vertex, and outside with the disc cutting two sides
@example(geo.sector_domain(42), 3)
@example(geo.DiscPolygon(0.3, [(0.1, -0.05), (0.4, 0.1), (0.2, 0.35), (-0.05, 0.15)]), 5)
def test_samples_lie_in_domain(dom, seed):
    pts = dom.sample(2000, np.random.default_rng(seed))
    assert pts.shape == (2000, 2)
    assert dom.contains(pts).all()


@pytest.mark.parametrize(
    "dom, span",
    [
        (geo.triangle_domain(42), (0.0, fm.sector_geometry(42).alpha)),
        (geo.sector_domain(42), (fm.sector_geometry(42).alpha, math.pi / 4.0)),
        (geo.wedge_domain(8), (0.0, math.pi / 4.0)),
        (geo.DiscPolygon(0.25, geo._square(0.19)), (0.0, 2.0 * math.pi)),
        # the largest gap between vertex directions straddles the angle pi
        (_triangle((-1.0, 0.1), (-1.0, -0.1), (-0.5, -0.2)),
         (math.atan2(0.1, -1.0), math.atan2(-0.2, -0.5) + 2.0 * math.pi)),
    ],
)
def test_sampler_draws_from_the_angles_the_polygon_subtends(dom, span):
    # rejection runs in the polar sector that the polygon subtends at the
    # origin, so a thin sector is not drawn from its whole disc
    assert geo._angular_span(dom.vertices) == pytest.approx(span, rel=1e-15, abs=1e-15)
    pts = dom.sample(4000, np.random.default_rng(17))
    turn = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - span[0] + 1e-12, 2.0 * math.pi)
    assert turn.max() <= span[1] - span[0] + 2e-12


def _fan_polygons():
    """The canonical disc-capped triangles and random admissible truncated polygons."""
    doms = [make(d) for d in range(4, 65)
            for make in (geo.triangle_domain, geo.sector_domain, geo.wedge_domain)]
    lo, mid, _ = fm.height_breakpoints(8)
    rng = np.random.default_rng(2021)
    for h in lo + (mid - lo) * rng.random(40):
        doms.append(geo.truncation_domain(8, h, "disc_cap_square"))
        quad = vf._random_admissible_quadrilateral(8, h, rng)
        if quad is not None:
            doms.append(geo.truncation_domain(8, h, "disc_cap_polygon", vertices=quad))
    return doms


def test_fan_radial_mass_matches_per_edge_loop():
    # all edges in one array pass give the per-edge loop's radial mass bit
    # for bit: the same per-edge scalars, and the edges added in vertex order
    doms = _fan_polygons()
    assert sum(dom.kind == "disc_cap_polygon" and len(dom.vertices) == 4 for dom in doms) > 60
    for dom in doms:
        r = np.concatenate([np.linspace(0.0, 1.2 * dom.radius, 401), dom.radial_breakpoints()])
        expected = fan_radial_mass_loop(r, dom.vertices)
        assert np.array_equal(geo._fan_radial_mass(r, dom._fan), expected)
        assert np.array_equal(dom.radial_mass(r), np.where(r <= dom.radius, expected, 0.0))
    # a polygon whose every edge line passes through the origin measures zero
    assert geo._fan_edges(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])) is None
    assert np.array_equal(geo._fan_radial_mass(np.ones(3), None), np.zeros(3))


def test_radial_breakpoints_computed_once():
    dom = geo.truncation_domain(8, fm.chain_floor(6), "disc_cap_square")
    brk = dom.radial_breakpoints()
    assert brk == geo._polygon_breakpoints(dom.vertices, dom.max_radius)
    brk.append(9.0)  # a caller's copy
    with mock.patch.object(geo, "_polygon_breakpoints", side_effect=AssertionError):
        r, _ = dom.radial_rule(16)
    assert len(r) == 16 * (len(brk) - 2)


def test_disc_polygon_validation():
    with pytest.raises(ValueError, match="convex"):
        geo.DiscPolygon(1.0, [(0.0, 0.0), (1.0, 0.0), (0.2, 0.2), (0.0, 1.0)])
    with pytest.raises(ValueError, match="positive area"):
        geo.DiscPolygon(1.0, [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    with pytest.raises(ValueError, match="distinct"):
        geo.DiscPolygon(1.0, [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="radius"):
        geo.DiscPolygon(0.0, geo._square(0.5))
    # a polygon outside the disc, and one touching it from outside
    with pytest.raises(ValueError, match="meet"):
        geo.DiscPolygon(0.1, [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="meet"):
        geo.DiscPolygon(0.1, [(0.1, -1.0), (1.0, 0.0), (0.1, 1.0)])


def test_disc_square_matches_polygon_route():
    # the closed forms of the disc-capped square against the polygon route,
    # with the disc inside the square, cut by it, holding it, and tangent
    g = 0.19
    for R in (0.15, 0.25, g * math.sqrt(2.0) * 1.01, g):
        dom = geo.DiscPolygon(R, geo._square(g))
        assert dom.area == pytest.approx(disc_square_area(R, g), rel=1e-15, abs=0.0)
        r = np.linspace(0.0, 1.5 * g, 100_001)
        assert np.max(np.abs(dom.radial_mass(r) - disc_square_radial_mass(r, R, g))) < 1e-9


def test_truncation_domain_disc_area():
    dom = geo.truncation_domain(8, fm.chain_floor(6), "disc")
    assert dom.area == pytest.approx(math.pi * 4.0 / 63.0, abs=1e-12)


@pytest.mark.parametrize("d", [8, 12, 42])
@pytest.mark.parametrize("frac", [0.0, 0.5, 0.999])
def test_truncation_domain_disc_is_the_bare_disc(d, frac):
    # the capping square's sides lie at 2 g0, so the fan measures 2 pi at
    # every radius and the rule is the closed-form disc's, bit for bit
    _, mid, hi = fm.height_breakpoints(d)
    h = mid + frac * (hi - mid)
    g0, _ = fm.truncation_scalars(d, h)
    dom = geo.truncation_domain(d, h, "disc")
    assert dom.radial_breakpoints() == [0.0, g0]
    assert dom.area == pytest.approx(math.pi * g0 * g0, rel=1e-15, abs=0.0)
    for n in (64, 128):
        u, gl_w = geo._cosine_gauss_legendre(n)
        r, w = dom.radial_rule(n)
        assert np.array_equal(r, g0 * u)
        assert np.array_equal(w, g0 * gl_w * disc_radial_mass(r, g0))


def test_truncation_domain_square_between_inclusion_bounds():
    g0, g = fm.truncation_scalars(8, fm.chain_floor(6))
    dom = geo.truncation_domain(8, fm.chain_floor(6), "disc_cap_square")
    # set inclusion: contains disc(g), contained in both square and disc
    assert dom.area > math.pi * g * g
    assert dom.area < 4.0 * g * g
    assert dom.area < math.pi * g0 * g0


def test_truncation_domain_square_equals_disc_at_crossover():
    _, mid, _ = fm.height_breakpoints(8)
    disc = geo.truncation_domain(8, mid, "disc")
    capped = geo.truncation_domain(8, mid, "disc_cap_square")
    assert capped.area == pytest.approx(disc.area, abs=1e-12)


def test_truncation_domain_polygon_admissibility():
    h = fm.chain_floor(6)
    g0, g = fm.truncation_scalars(8, h)
    good = [(g0, g0), (-g0, g0), (-g0, -g0), (g0, -g0)]
    dom = geo.truncation_domain(8, h, "disc_cap_polygon", vertices=good)
    # the sides touch the trace disc, so the domain is the whole disc
    assert dom.area == pytest.approx(math.pi * g0 * g0, rel=1e-15)
    cfg = geo.truncated_wedge(8, h, "disc_cap_polygon", vertices=good)
    mc = surface_density(cfg, 200_000, 1)
    quad = quadrature_density(cfg)
    assert abs(mc.value - quad.value) <= 3.0 * math.hypot(mc.stderr, quad.stderr)
    # vertex inside the trace disc
    bad_vertex = [(0.5 * g0, 0.5 * g0), (-g0, g0), (-g0, -g0), (g0, -g0)]
    with pytest.raises(ValueError):
        geo.truncation_domain(8, h, "disc_cap_polygon", vertices=bad_vertex)
    # side closer than the clearance radius
    close = 0.5 * g
    bad_side = [(close, g0), (-close, g0), (-close, -g0), (close, -g0)]
    with pytest.raises(ValueError):
        geo.truncation_domain(8, h, "disc_cap_polygon", vertices=bad_side)
    with pytest.raises(ValueError):
        geo.truncation_domain(8, h, "hexagon")


# ---------------------------------------------------------------------------
# cone membership


def test_cone_contains_vertex_rays():
    cfg = geo.canonical_simplex(8)
    v = chain_vertices(cfg.chain)
    for j in range(8):
        assert geo.cone_contains(cfg, v[j])
    assert not geo.cone_contains(cfg, -np.eye(8)[0])
    assert not geo.cone_contains(cfg, np.eye(8)[7])
    with pytest.raises(ValueError):
        geo.cone_contains(cfg, np.zeros(8))


def test_cone_contains_scale_invariance():
    cfg = geo.canonical_wedge(6)
    rng = np.random.default_rng(11)
    dirs = mixed_directions(cfg, 2000, rng)
    base = geo.cone_contains_many(cfg, dirs)
    for lam in (1e-6, 7.3, 1e6):
        assert np.array_equal(base, geo.cone_contains_many(cfg, lam * dirs))


@pytest.mark.parametrize("d", [4, 5, 6])
def test_cone_contains_against_oracle(d):
    lo, _, _ = fm.height_breakpoints(d)
    configs = [
        geo.canonical_simplex(d),
        geo.canonical_wedge(d),
        geo.truncated_wedge(d, lo, "disc_cap_square"),
    ]
    rng = np.random.default_rng(100 + d)
    for cfg in configs:
        dirs = mixed_directions(cfg, 2500, rng)
        mine = geo.cone_contains_many(cfg, dirs)
        oracle, decided = membership_oracle(cfg, dirs)
        assert np.array_equal(mine[decided], oracle[decided])


@st.composite
def cone_configs(draw):
    # a simplex or a wedge over a random domain, on a chain whose norms sit
    # up to 30 percent above their floors; each norm is kept at least 0.1
    # percent above the one before, so every level has a visible height
    domain = draw(st.none() | domains)
    d = draw(st.integers(4, 8))
    k = d if domain is None else d - 2
    xi = [fm.chain_floor(i + 1) * draw(st.floats(1.0, 1.3)) for i in range(k)]
    for i in range(1, k):
        xi[i] = max(xi[i], 1.001 * xi[i - 1])
    return geo.WedgeConfig(geo.ChainSpec(d=d, k=k, xi=tuple(xi)), domain)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cone_configs(), st.integers(0, 2**32 - 1))
def test_cone_contains_many_matches_oracle(cfg, seed):
    dirs = mixed_directions(cfg, 400, np.random.default_rng(seed))
    mine = geo.cone_contains_many(cfg, dirs)
    oracle, decided = membership_oracle(cfg, dirs)
    assert decided.any()
    assert np.array_equal(mine[decided], oracle[decided])


# ---------------------------------------------------------------------------
# sampling: oracles.sample_base, through geometry._ordered_chain and
# DiscPolygon.sample


def test_sampled_points_lie_in_cone():
    rng = np.random.default_rng(23)
    for cfg in (geo.canonical_simplex(7), geo.canonical_wedge(8),
                geo.sector_wedge(5), geo.truncated_wedge(9, fm.chain_floor(7), "disc")):
        pts = sample_base(cfg, rng, 100_000)
        assert geo.cone_contains_many(cfg, pts).all()
        # base plane: first coordinate equals the apex distance
        assert np.allclose(pts[:, 0], cfg.chain.xi[0], atol=1e-12)


def test_canonical_wedge_norm_range():
    rng = np.random.default_rng(29)
    d = 8
    pts = sample_base(geo.canonical_wedge(d), rng, 200_000)
    nrm = np.linalg.norm(pts, axis=1)
    assert nrm.min() >= 1.0
    assert nrm.max() <= math.sqrt(2.0 * d / (d + 1)) + 1e-12


def test_sampler_mean_matches_join_moment():
    # E[point] = (1 - 3/d) simplex centroid + (3/d) lifted domain centroid
    d = 8
    cfg = geo.canonical_wedge(d)
    rng = np.random.default_rng(31)
    n = 400_000
    pts = sample_base(cfg, rng, n)
    simplex_centroid = chain_vertices(cfg.chain)[: d - 3].mean(axis=0)
    dom_c2 = grid_centroid(cfg.domain, cells=1200)
    lifted = np.zeros(d)
    lifted[: d - 2] = cfg.chain.eta
    lifted[-2:] = dom_c2
    expected = (1.0 - 3.0 / d) * simplex_centroid + (3.0 / d) * lifted
    se = pts.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(pts.mean(axis=0) - expected) <= 4.0 * se + 1e-9)


def test_join_parameter_law_d4():
    # with a single-vertex prefix the join parameter has density 3 t^2
    cfg = geo.canonical_wedge(4)
    rng = np.random.default_rng(37)
    n = 400_000
    pts = sample_base(cfg, rng, n)
    t = pts[:, 1] / cfg.chain.eta[1]
    assert t.mean() == pytest.approx(0.75, abs=4.0 * t.std() / math.sqrt(n))


def test_join_parameter_quartile_masses():
    # chi-square over the four equal-mass cells of the join parameter
    from scipy.special import betaincinv

    d = 8
    cfg = geo.canonical_wedge(d)
    rng = np.random.default_rng(41)
    n = 200_000
    pts = sample_base(cfg, rng, n)
    t = pts[:, d - 3] / cfg.chain.eta[d - 3]
    edges = betaincinv(3.0, float(d - 3), [0.25, 0.5, 0.75])
    counts = np.histogram(t, bins=[0.0, *edges, 1.0])[0]
    chi2 = float(np.sum((counts - n / 4.0) ** 2 / (n / 4.0)))
    assert chi2 < 16.27  # upper 1e-3 quantile at three degrees of freedom


@pytest.mark.parametrize("d", range(5, 65))
def test_lead_transform_matches_beta_quantile(d):
    # the lead of a wedge's sorted chain draw, its join parameter t, has the
    # Beta(3, d-3) law, and the estimators' post-stratum of each draw is the
    # stratum of scipy's Beta(3, d-3) CDF at t wherever t is not within
    # rounding of a stratum edge
    from scipy.special import betainc, betaincinv
    from scipy.stats import chi2

    from packbounds import density as dn

    n = 1 << 16
    t = geo._ordered_chain(d, n, np.random.default_rng(1000 + d))[:, 2]
    u = betainc(3.0, float(d - 3), t)
    edges = dn._stratum_edges(d, 3)
    assert np.max(np.abs(edges - betaincinv(3.0, float(d - 3), np.arange(1, 16) / 16))) <= 1e-12
    labels = np.searchsorted(edges, t)
    cdf_labels = np.minimum(np.floor(16.0 * u), 15).astype(labels.dtype)
    near_edge = np.min(np.abs(t[:, None] - edges), axis=1) <= 1e-12
    assert np.array_equal(labels[~near_edge], cdf_labels[~near_edge])
    order = np.argsort(t, kind="stable")
    assert np.all(np.diff(labels[order]) >= 0)
    # equal-probability strata, and the CDF values uniform (Kolmogorov-Smirnov
    # at the 1e-3 level, critical value 1.95 / sqrt(n))
    counts = np.bincount(labels, minlength=16)
    stat = float(np.sum((counts - n / 16) ** 2 / (n / 16)))
    assert stat < chi2.ppf(0.999, 15)
    ks = np.max(np.abs(np.sort(u) - (np.arange(n) + 0.5) / n)) + 0.5 / n
    assert ks < 1.95 / math.sqrt(n)


def test_sampler_determinism():
    cfg = geo.canonical_wedge(6)
    a = sample_base(cfg, np.random.default_rng(5), 1000)
    b = sample_base(cfg, np.random.default_rng(5), 1000)
    assert np.array_equal(a, b)


def test_wedge_config_validation():
    with pytest.raises(ValueError):
        geo.WedgeConfig(geo.canonical_chain(8, 7))  # simplex needs k = d
    with pytest.raises(ValueError):
        geo.WedgeConfig(geo.canonical_chain(8, 8), geo.wedge_domain(8))  # wedge needs k = d-2
