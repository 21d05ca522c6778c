"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: membership goes
through dense linear solves on the block decomposition of the join, areas
and centroids through plain 2D grids, so an indexing or ordering bug in the
production predicates cannot cancel out here.
"""

import math

import numpy as np


def chain_vertices(chain):
    """Chain vertex coordinates, shape (k, d), row j-1 holding w_j."""
    out = np.zeros((chain.k, chain.d))
    for j in range(chain.k):
        out[j, : j + 1] = chain.eta[: j + 1]
    return out


def membership_oracle(config, dirs, band=1e-9):
    """Classify rays against the cone by convex-combination solving.

    Returns (verdict, decided): verdict[i] is the oracle's inside/outside
    call, decided[i] is False when the ray lands within `band` of the
    boundary in any of the decomposed coordinates (those comparisons are
    float-ambiguous and excluded from agreement counts).
    """
    dirs = np.asarray(dirs, dtype=float)
    m = len(dirs)
    d = config.d
    chain = config.chain
    eta = np.asarray(chain.eta)
    xi1 = chain.xi[0]
    verdict = np.zeros(m, dtype=bool)
    decided = np.ones(m, dtype=bool)
    u1 = dirs[:, 0]
    norms = np.linalg.norm(dirs, axis=1)
    decided &= np.abs(u1) / norms > 1e-12
    pos = u1 > 0
    idx = np.where(pos & decided)[0]
    if len(idx) == 0:
        return verdict, decided
    z = (xi1 / u1[idx])[:, None] * dirs[idx]

    def simplex_weights(verts, pts):
        # unique convex-combination weights from a dense affine solve
        k = len(verts)
        mat = np.vstack([verts[:, 1:k].T, np.ones(k)])
        rhs = np.vstack([pts[:, 1:k].T, np.ones(len(pts))])
        return np.linalg.solve(mat, rhs)

    if config.is_simplex:
        verts = chain_vertices(chain)
        weights = simplex_weights(verts, z)
        margin = weights.min(axis=0)
        ok = margin >= 0.0
        near = np.abs(margin) <= band
        verdict[idx] = ok
        decided[idx] &= ~near
        return verdict, decided

    # join decomposition z = (1-t) p + t q_lifted: t, q, p are all pinned
    # by coordinate blocks, so feasibility needs no search
    t = z[:, d - 3] / eta[d - 3]
    near = np.minimum(np.abs(t), np.abs(1.0 - t)) <= band
    ok = (t > 0.0) & (t < 1.0)
    safe_t = np.where(t > 0.0, t, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = z[:, -2:] / safe_t[:, None]
        inside_lo = config.domain.contains(np.nan_to_num(q, nan=1e6), tol=-band)
        inside_hi = config.domain.contains(np.nan_to_num(q, nan=1e6), tol=band)
    near |= ok & (inside_lo != inside_hi)
    ok &= inside_hi
    kpre = d - 3
    denom = np.where(t < 1.0, 1.0 - t, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        pcoords = (z[:, :kpre] - t[:, None] * eta[None, :kpre]) / denom[:, None]
    pcoords = np.nan_to_num(pcoords, nan=1e6)
    if kpre == 1:
        # the prefix simplex is the single vertex w_1 = (eta_1, 0, ...) and
        # p_1 = (z_1 - t eta_1)/(1 - t) = eta_1 identically: nothing to test
        pass
    else:
        prefix = chain_vertices(chain)[:kpre, :kpre]
        weights = simplex_weights(prefix, pcoords)
        margin = weights.min(axis=0)
        near |= np.abs(margin) <= band
        ok &= margin >= 0.0
    verdict[idx] = ok
    decided[idx] &= ~near
    return verdict, decided


def rejection_area(domain, n, rng):
    """Unbiased bounding-box rejection estimate of the area, with stderr."""
    r = domain.max_radius
    pts = rng.uniform(-r, r, size=(n, 2))
    inside = domain.contains(pts)
    p = inside.mean()
    box = (2.0 * r) ** 2
    return p * box, box * math.sqrt(p * (1.0 - p) / n)


def sample_base(config, rng, n=1):
    """n points uniformly distributed on the (d-1)-dimensional base."""
    from packbounds.geometry import _ordered_chain

    k = config.chain.k
    v = _ordered_chain(config.d, n, rng)
    pts = np.empty((n, config.d))
    pts[:, 0] = config.chain.xi[0]
    # v[:, ::-1] holds levels 2, 3, ... in chain order
    pts[:, 1:k] = v[:, ::-1][:, : k - 1] * config.chain.eta_array[1:]
    if not config.is_simplex:
        pts[:, -2:] = v[:, 2:3] * config.domain.sample(n, rng)
    return pts


def mixed_directions(config, n, rng, jitter=0.05):
    """Random test rays, half Gaussian, half aimed near the base.

    Pure Gaussian directions almost never meet the (tiny) cone once d grows,
    so half the rays point at perturbed base points to exercise both sides
    of the membership predicate.
    """
    d = config.d
    half = n // 2
    gauss = rng.standard_normal((n - half, d))
    aimed = sample_base(config, rng, half)
    aimed = aimed + jitter * rng.standard_normal((half, d)) / math.sqrt(d)
    return np.vstack([gauss, aimed])


def disc_radial_mass(r, R):
    """Radial mass 2 pi r of the disc of radius R, zero beyond R."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= R, 2.0 * math.pi * r, 0.0)


def disc_square_area(R, g):
    """Area of the disc of radius R cut by the square [-g, g]^2, in closed form.

    The disc for R <= g, the square for R >= g sqrt(2), and in between the
    disc less four circular segments of half-chord sqrt(R^2 - g^2).
    """
    if R <= g:
        return math.pi * R * R
    if R >= g * math.sqrt(2.0):
        return 4.0 * g * g
    return math.pi * R * R - 4.0 * (R * R * math.acos(g / R) - g * math.sqrt(R * R - g * g))


def disc_square_radial_mass(r, R, g):
    """Radial mass r * angle(r) of the same domain, in closed form.

    A circle of radius r in (g, g sqrt(2)) loses the angle 2 acos(g/r) to
    each of the four sides; the mass vanishes beyond min(R, g sqrt(2)).
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        cut = 8.0 * np.arccos(np.clip(g / np.maximum(r, 1e-300), 0.0, 1.0))
    angle = np.maximum(np.where(r <= g, 2.0 * math.pi, 2.0 * math.pi - cut), 0.0)
    return np.where(r <= min(R, g * math.sqrt(2.0)), angle * r, 0.0)


def grid_centroid(domain, cells=1500):
    r = domain.max_radius
    xs = np.linspace(-r, r, cells, endpoint=False) + r / cells
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inside = domain.contains(pts)
    sel = pts[inside]
    return sel.mean(axis=0)


def tetrahedron_corner_density() -> float:
    """Ball density in the regular simplex of edge 2 in three dimensions.

    Corner solid angle by spherical excess, corner cone volume excess/3,
    four corners, simplex volume 2 sqrt(2)/3.
    """
    excess = 3.0 * math.acos(1.0 / 3.0) - math.pi
    return (4.0 * excess / 3.0) / (2.0 * math.sqrt(2.0) / 3.0)


def planar_corner_density() -> float:
    """Ball density in the regular triangle of edge 2 (arc over area)."""
    # covered area: three pi/3 sectors of unit radius; triangle area sqrt(3)
    return (math.pi / 2.0) / math.sqrt(3.0)


def low_dim_quad(config):
    """Adaptive quadrature of the d = 2, 3 simplex integral, as (value, error).

    scipy's QUADPACK integrates the chain integral at d = 2 and the inner
    integral of d = 3 taken in closed form; it shares nothing with the
    library's quadrature, which carries the same integral down the chain by
    Chebyshev averaging operators.
    """
    from scipy.integrate import quad as _quad

    chain = config.chain
    xi1 = chain.xi[0]
    eta = chain.eta
    d = config.d
    if d == 2:
        val, err = _quad(lambda s: xi1 * (xi1 * xi1 + eta[1] ** 2 * s * s) ** -1.0, 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-13)
        return val, max(err, 1e-14)
    a3 = eta[2] ** 2

    def outer(y2):
        c = xi1 * xi1 + eta[1] ** 2 * y2 * y2
        return xi1 * y2 / (c * math.sqrt(c + a3 * y2 * y2))

    val, err = _quad(outer, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val, max(2.0 * err, 1e-13)


def _radial_midpoints(domain, nr):
    """Midpoint nodes and weights of the domain's radial mass, about nr in all."""
    brk = [b for b in domain.radial_breakpoints() if b <= domain.max_radius + 1e-15]
    if brk[0] > 0.0:
        brk = [0.0] + brk
    nodes, weights = [], []
    total = brk[-1] - brk[0]
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a < 1e-15:
            continue
        edges = np.linspace(a, b, max(4, int(round(nr * (b - a) / total))) + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes.append(mid)
        weights.append(domain.radial_mass(mid) * np.diff(edges))
    return np.concatenate(nodes), np.concatenate(weights)


def direct_chain_grid_pass(config, ns, na, nr):
    """A second-order grid evaluation of a wedge's surface density, row by row.

    The ordered chain's mass is propagated over an (own value, accumulated
    squared norm) grid of midpoint cells (direct_chain_mass_grid), the
    planar radius is integrated by nr midpoint nodes of the radial mass,
    and the full (na + 1) x nr matrix xi_1^2 + a_j + t_i^2 r_k^2 is raised
    to the power -d/2 for every chain row.  It shares no code with the
    library's Laplace-Chebyshev quadrature; its error falls like the square
    of the cell width, so two resolutions bound it.
    """
    d = config.d
    xi1 = config.chain.xi[0]
    W, s_mid, a_nodes = direct_chain_mass_grid(config, ns, na)
    r_nodes, r_w = _radial_midpoints(config.domain, nr)
    r_sq = r_nodes * r_nodes
    base = xi1 * xi1 + a_nodes
    t2 = s_mid * s_mid
    num = 0.0
    den = 0.0
    for i in range(ns):
        row = W[i]
        if not row.any():
            continue
        u = base[:, None] + t2[i] * r_sq[None, :]
        g_row = (u ** (-0.5 * d)) @ r_w
        num += t2[i] * float(row @ g_row)
        den += t2[i] * float(row.sum()) * float(r_w.sum())
    return float(xi1 * num / den)


def direct_chain_moment(config, ns, na):
    """xi_1 E[(xi_1^2 + a)^(-d/2)] over the row-by-row chain-mass grid.

    a is the chain's accumulated squared norm, so this is the density with
    the planar point at the origin: a simplex's own density, and for a
    wedge the chain alone, whose join rows carry the weight t^2.  Second
    order in the cell width, like direct_chain_grid_pass.
    """
    xi1 = config.chain.xi[0]
    W, s_mid, a_nodes = direct_chain_mass_grid(config, ns, na)
    rows = np.ones(ns) if config.is_simplex else s_mid * s_mid
    mass_a = rows @ W
    g = (xi1 * xi1 + a_nodes) ** (-0.5 * config.d)
    return float(xi1 * (mass_a @ g) / mass_a.sum())


def _shift_add(dest, src, offset, weight):
    """dest[j + offset] += weight * src[j]; mass beyond either end piles up there."""
    if weight <= 0.0:
        return
    na = len(dest)
    if offset >= na:
        dest[-1] += weight * src.sum()
        return
    if offset <= -len(src):
        dest[0] += weight * src.sum()
        return
    if offset >= 0:
        m = min(len(src), na - offset)
        dest[offset : offset + m] += weight * src[:m]
        if m < len(src):
            dest[-1] += weight * src[m:].sum()
    else:
        dest[0] += weight * src[:-offset].sum()
        m = min(len(src) + offset, na)
        dest[:m] += weight * src[-offset : -offset + m]


def direct_chain_mass_grid(config, ns, na):
    """The ordered chain's mass on an (own value, squared norm) grid, row by row.

    ns midpoint cells of each level's own value and na + 1 nodes of the
    accumulated squared norm: the first level is deposited directly, and at
    each later level every row takes the mass of the earlier levels above
    its cell midpoint, shifted along the accumulated axis by its own
    ``_shift_add`` calls with a linearly split deposit; mass pushed past
    the last column piles up there.  Returns ``(W, s_mid, a_nodes)``.
    """
    chain = config.chain
    etas = chain.eta_array[1:]
    amax = float(np.sum(etas**2)) + 1e-30
    ds = 1.0 / ns
    s_mid = (np.arange(ns) + 0.5) * ds
    da = amax / na
    a_nodes = np.arange(na + 1) * da

    def offsets_for(eta):
        pos = (eta * eta) * s_mid * s_mid / da
        j0 = np.floor(pos).astype(int)
        return j0, pos - j0

    W = np.zeros((ns, na + 1))
    j0, frac = offsets_for(etas[0])
    for i in range(ns):
        lo = min(j0[i], na)
        hi = min(j0[i] + 1, na)
        W[i, lo] += ds * (1.0 - frac[i])
        W[i, hi] += ds * frac[i]

    for eta in etas[1:]:
        suffix = np.cumsum(W[::-1], axis=0)[::-1]
        src = (suffix - 0.5 * W) * ds
        Wn = np.zeros_like(W)
        j0, frac = offsets_for(eta)
        for i in range(ns):
            _shift_add(Wn[i], src[i], j0[i], 1.0 - frac[i])
            _shift_add(Wn[i], src[i], j0[i] + 1, frac[i])
        W = Wn
    return W, s_mid, a_nodes


def sampled_planar_estimate(chain, domains, n, seed):
    """The wedge estimator with one drawn planar point per sample and column.

    The library integrates the planar radius out given each chain draw;
    this reference draws a uniform point of every domain instead, from the
    same block streams after the chain draw, so it shares the chain draw
    and nothing of the planar series.  Column j uses
    xi_1 (s + t^2 |q_j|^2)^(-d/2) with q_j a fresh sample of domains[j], and
    s is summed over the chain coordinates formed level by level.  Returns
    (mean vector, covariance matrix of the mean), post-stratified on the
    join parameter over the library's 16 strata, with the within-stratum
    covariance taken in two passes.
    """
    from packbounds.density import _stratum_edges
    from packbounds.geometry import _ordered_chain
    from packbounds.streams import substream

    d = chain.d
    xi1 = chain.xi[0]
    coeff = chain.eta_array[1:] ** 2
    edges = _stratum_edges(d, 3)
    labels, rows = [], []
    for k in range(16):
        m = n // 16 + (1 if k < n % 16 else 0)
        rng = substream(seed, k)
        v = _ordered_chain(d, m, rng)
        t = v[:, 2]
        levels = v[:, ::-1][:, : d - 3]  # levels 2..d-2, the join t last
        s = xi1 * xi1 + (levels * levels) @ coeff
        cols = []
        for domain in domains:
            q = domain.sample(m, rng)
            cols.append(xi1 * (s + t * t * (q[:, 0] ** 2 + q[:, 1] ** 2)) ** (-0.5 * d))
        labels.append(np.searchsorted(edges, t))
        rows.append(np.column_stack(cols))
    labels, rows = np.concatenate(labels), np.concatenate(rows)
    means = np.array([rows[labels == k].mean(axis=0) for k in range(16)])
    dev = rows - means[labels]
    return means.mean(axis=0), dev.T @ dev / ((n - 16) * n)


def full_covariance(chunks, n, dim):
    """(mean vector, covariance matrix of the mean) from a Monte-Carlo
    estimate's chunks (labels, g), by the full Gram matrix.

    The post-stratified formula over 16 strata, (G - sum_k n_k mu_k mu_k^T)
    / ((n - 16) n) with G = sum_i g_i g_i^T, each chunk's Gram matrix
    formed whole, for n >= 256 with no stratum empty.
    """
    counts, sums, gram = np.zeros(16), np.zeros((16, dim)), np.zeros((dim, dim))
    for labels, g in chunks:
        counts += np.bincount(labels, minlength=16)
        for j, row in enumerate(g):
            sums[:, j] += np.bincount(labels, weights=row, minlength=16)
        gram += np.einsum("ik,jk->ij", g, g)
    means = sums / counts[:, None]
    return means.mean(axis=0), (gram - (means.T * counts) @ means) / ((n - 16) * n)


def sector_moments(sector, n_terms):
    """Radial moments of a sector about rho = R^2 / 2, in closed form.

    Under the sector's radial law r dr, z = (r^2 - rho)/rho = 2 r^2 / R^2 - 1
    is uniform on [-1, 1], so nu_m = area (1 - (-1)^(m+1)) / (2 (m+1)).
    """
    return np.array([sector.area * (1 - (-1) ** (m + 1)) / (2 * (m + 1)) for m in range(n_terms)])


def vertex_triangle_moments(triangle, rho, n_terms):
    """Radial moments of a triangle with a vertex at the origin, in closed form.

    With p the distance from the origin to the opposite edge and u = tan(phi)
    the angle from the foot of that perpendicular, the edge is r = p sec(phi)
    and the inner integral of ((r^2 - rho)/rho)^m r dr is
    rho (w^(m+1) - (-1)^(m+1)) / (2 (m+1)), w = kappa sec^2(phi) - 1,
    kappa = p^2 / rho.  Expanding w^(m+1) binomially, its constant term
    cancels the (-1)^(m+1) and the rest needs J_k = int sec^(2k) dphi
    = int (1 + u^2)^(k-1) du, k >= 1, from the sec recursion

        J_k = [u (1 + u^2)^(k-1)] / (2k - 1) + (2k - 2)/(2k - 1) J_(k-1).

    Everything after p and the edge's two u values is exact rational
    arithmetic, so no cancellation in the alternating sums can show.
    """
    from fractions import Fraction

    verts = [v for v in triangle.vertices if np.hypot(*v) > 0.0]
    if len(verts) != 2:
        raise ValueError("triangle needs exactly one vertex at the origin")
    a, b = verts
    e = b - a
    foot = a - (np.dot(a, e) / np.dot(e, e)) * e
    p = math.hypot(*foot)
    unit = e / math.hypot(*e)
    lo, hi = sorted(float(np.dot(v - foot, unit)) / p for v in (a, b))
    kappa = Fraction(p) ** 2 / Fraction(rho)
    u_lo, u_hi = Fraction(lo), Fraction(hi)

    J = [None, u_hi - u_lo]  # J_1 = int du
    for k in range(2, n_terms + 1):
        edge = u_hi * (1 + u_hi**2) ** (k - 1) - u_lo * (1 + u_lo**2) ** (k - 1)
        J.append(edge / (2 * k - 1) + Fraction(2 * k - 2, 2 * k - 1) * J[k - 1])
    nu = []
    for m in range(n_terms):
        total = sum(math.comb(m + 1, k) * kappa**k * (-1) ** (m + 1 - k) * J[k]
                    for k in range(1, m + 2))
        nu.append(float(Fraction(rho) * total / (2 * (m + 1))))
    return np.array(nu)


# doubles in one row block of direct_planar_factor's exponentials, about 2 MB
_BLOCK = 1 << 18


def direct_planar_factor(mu: np.ndarray, r2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """M(mu) = sum_k w_k exp(-mu r2_k) for every entry of mu, in blocks of rows.

    Every block's exponentials are formed in one buffer allocated per call.
    """
    out = np.empty_like(mu)
    rows = max(1, _BLOCK // (mu.shape[1] * len(r2)))
    buf = np.empty((min(rows, len(mu)), mu.shape[1], len(r2)))
    neg_r2 = -r2
    for lo in range(0, len(mu), rows):
        block = mu[lo : lo + rows]
        e = buf[: len(block)]
        np.multiply(block[:, :, None], neg_r2, out=e)
        np.exp(e, out=e)
        np.matmul(e, w, out=out[lo : lo + len(block)])
    return out


def _fan_measure(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed angular measure at radii r of the triangle (origin, a, b), one edge at a time."""
    na, nb = math.hypot(*a), math.hypot(*b)
    cross_ab = a[0] * b[1] - a[1] * b[0]
    if na < 1e-15 or nb < 1e-15 or abs(cross_ab) < 1e-30:
        return np.zeros_like(r)
    span = math.atan2(cross_ab, float(np.dot(a, b)))
    sign = 1.0
    if span < 0:
        a, b = b, a
        span = -span
        sign = -1.0
    e = b - a
    p = abs(cross_ab) / math.hypot(*e)
    delta = math.atan2(-float(np.dot(a, e)), abs(cross_ab))
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(r > p, np.arccos(np.clip(p / np.maximum(r, 1e-300), -1.0, 1.0)), 0.0)
    lo = np.maximum(0.0, delta - c)
    hi = np.minimum(span, delta + c)
    removed = np.maximum(0.0, hi - lo)
    return sign * (span - removed)


def fan_radial_mass_loop(r, verts) -> np.ndarray:
    """Radial mass of a convex polygon, its signed fan of edge triangles summed edge by edge.

    The per-edge loop that geometry._fan_radial_mass replaced with one
    (edges x r) array pass, kept as its reference.
    """
    r = np.asarray(r, dtype=float)
    meas = np.zeros_like(r)
    for i in range(len(verts)):
        meas = meas + _fan_measure(r, verts[i], verts[(i + 1) % len(verts)])
    return r * np.maximum(meas, 0.0)
