"""Density estimators for cones at the ball center.

ESTIMATOR
=========
Every cone here has its apex at the center of the unit ball and its base in
the hyperplane {x_1 = xi_1} with xi_1 >= 1, so the ball's spherical cone
exhausts the intersection and the surface density of the unit sphere in the
cone is the bounded integral

    delta_hat = E[ xi_1 * ||Y||^{-d} ],    Y uniform on the base,

from the solid-angle element dOmega = cos(theta) dA / r^{d-1} with
cos(theta) = xi_1/r.  For xi_1 = 1 (every canonical configuration) the
volume density of the ball in the cone coincides with this surface density,
which is why a single estimator serves both readings; the integrand is
bounded by 1, so values always land in (0, 1).

Monte-Carlo draws are stratified into 16 equal-probability strata of the
lead coordinate (the join parameter t of a wedge, the leading ordered
coordinate of a simplex) with one PCG64 substream per stratum keyed by
(seed, stratum) (streams.substream), so results are reproducible bit-for-bit
and independent of any parallel scheduling.  Each sample is one draw of the
ordered chain, from the shared kernel geometry._ordered_chain (the lead
coordinate plus one sorted uniform tail), and one estimator, _cone_estimate,
serves sigma, sigma_hat and lambda.  The chain coordinates are never formed:
_chain_norm2 contracts the sorted tail and its square with the reversed
level coefficients, two matrix-vector products per block.  No planar point
is drawn: given the chain draw, the mean over a wedge's planar domain is a
one-dimensional integral against the domain's radial law, which a binomial
series in the domain's radial moments evaluates exactly (conditional Monte
Carlo, or Rao-Blackwellisation: same mean, smaller variance).  The surface
density, the paired gap and the limiting profile differ only in the
columns' series coefficients: the domain's, the triangle's and the
sector's, or a point mass at each fixed radius.

Quadrature propagates the chain's ordered variables through a (level,
accumulated squared norm) grid, integrates a wedge's planar radius by a
series in its radial moments, and reports the disagreement of two
refinements as its error estimate.  The propagation is one row-blocked
kernel, _propagate: per level, blocks of 64 chain rows take their suffix
sums from one cumsum with a carried row, and every row's shift along the
accumulated axis is one window of a zero-padded buffer, so no Python code
runs per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .formulas import unit_ball_volume
from .geometry import (
    ChainSpec,
    WedgeConfig,
    _ordered_chain,
    canonical_chain,
    canonical_simplex,
    canonical_wedge,
    sector_domain,
    sector_wedge,
    triangle_domain,
)
from .streams import substream

__all__ = [
    "DensityEstimate",
    "ProfileEstimate",
    "ImprovementGap",
    "improvement_gap",
    "surface_density",
    "simplex_density",
    "wedge_density",
    "sector_density",
    "closed_form_simplex_density",
    "limiting_surface_density",
    "limiting_density_profile",
    "quadrature_density",
    "voronoi_bounds",
]

_CHUNK = 1 << 17
_STRATA = 16


@dataclass(frozen=True)
class DensityEstimate:
    """A measured density with one-standard-error uncertainty.

    method is one of monte_carlo, quadrature, closed_form; for the latter
    two, stderr carries the reported truncation bound instead of a
    statistical error.
    """

    value: float
    stderr: float
    n: int
    seed: int
    method: str

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"density {self.value} outside [0, 1]")
        if not (math.isfinite(self.stderr) and self.stderr >= 0.0):
            raise ValueError(f"stderr must be finite and nonnegative, got {self.stderr}")


@dataclass(frozen=True)
class ProfileEstimate:
    """Joint estimates of the limiting density at several radii.

    values[j] estimates the limiting density at radii[j]; cov is the
    covariance matrix of the estimate vector (shared samples correlate the
    entries, which sharpens differences between nearby radii).
    """

    radii: np.ndarray
    values: np.ndarray
    cov: np.ndarray
    n: int
    seed: int

    def stderr(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def diff_stderr(self, i: int, j: int) -> float:
        v = self.cov[i, i] + self.cov[j, j] - 2.0 * self.cov[i, j]
        return math.sqrt(max(v, 0.0))

    def mean_functional(self, weights) -> tuple[float, float]:
        """Weighted average of the profile and its standard error."""
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        return float(w @ self.values), float(math.sqrt(max(w @ self.cov @ w, 0.0)))


# ---------------------------------------------------------------------------
# stratified Monte-Carlo core


def _strata(n: int) -> int:
    return _STRATA if n >= 16 * _STRATA else 1


def _planar_series(domain, chain: ChainSpec):
    """Column (rho, coef) of a domain: its planar factor as a radial-moment series.

    Given the chain part s and t^2, the mean of (s + t^2 r^2)^-p, p = d/2, over
    a uniform point of the domain is, with rho = r_max^2 / 2, c = s + t^2 rho
    and y = t^2 rho / c,

        c^-p sum_m coef[m] y^m,   coef[m] = C(-p, m) nu_m / area,

    nu_m from PlanarDomain.radial_moments.  y <= q = rho / (xi_1^2 + rho) < 1
    because s >= xi_1^2 and t <= 1, and the term count is the least whose tail
    bound is below 1e-17 of the value (_series_terms).  The quadrature uses the
    same series with its own midpoint moments; the coefficients here come from
    the domain's exact moments and share nothing with it.
    """
    p = 0.5 * chain.d
    xi1 = chain.xi[0]
    rho = 0.5 * domain.max_radius**2
    n_terms = _series_terms(rho / (xi1 * xi1 + rho), p)
    binom = np.empty(n_terms)
    b = 1.0
    for m in range(n_terms):
        binom[m] = b
        b *= (-p - m) / (m + 1)
    return rho, binom * domain.radial_moments(rho, n_terms) / domain.area


def _chain_norm2(xi1, coeff, is_simplex, lead, tail):
    """Squared norm s = xi_1^2 + sum_i eta_i^2 (y_i/eta_i)^2 of chain draws.

    lead and tail are one _ordered_chain draw and coeff = eta_2^2..eta_k^2.
    The tail's columns run from the last level back, so they contract with
    the tail levels' coefficients reversed, c_rev: with a = tail . c_rev and
    b = tail^2 . c_rev, simplex levels lead * s_i give

        s = xi_1^2 + lead^2 (c_0 + b),

    and wedge levels t + (1 - t) s_i, with the join t at the last level,

        s = xi_1^2 + t^2 sum(c_rev) + 2 t (1 - t) a + (1 - t)^2 b + c_last t^2.

    Every term is nonnegative, so nothing cancels.  tail is squared in
    place; no temporary of its size is made.
    """
    if is_simplex:
        tail *= tail
        s = tail @ coeff[:0:-1].copy()
        s += coeff[0]
        s *= lead * lead
        s += xi1 * xi1
        return s
    c_rev = coeff[-2::-1].copy()
    a = tail @ c_rev
    tail *= tail
    b = tail @ c_rev
    t2 = lead * lead
    one_t = 1.0 - lead
    a *= 2.0 * lead * one_t
    b *= one_t * one_t
    s = np.full(len(lead), xi1 * xi1)
    s += c_rev.sum() * t2
    s += a
    s += b
    s += coeff[-1] * t2
    return s


def _cone_samples(chain: ChainSpec, is_simplex: bool, planar, n, seed):
    """Per-sample integrand rows xi_1 E[|y|^-d | chain draw], one block at a time.

    Every sample is one chain draw (geometry._ordered_chain).  For the
    simplex, planar is None and each row has one column.  For a wedge,
    planar holds one (rho, coef) pair per column, and column j of a row is
    the planar factor integrated out exactly given the draw's chain part s
    and join parameter t: with c = s + t^2 rho_j and y = t^2 rho_j / c,

        xi_1 c^(-d/2) sum_m coef_j[m] y^m,

    by Horner in y.  A domain's pair comes from _planar_series; a fixed
    planar radius r is the point mass rho = r^2, coef = [1.0], which is
    xi_1 (s + t^2 r^2)^(-d/2) exactly.  Each column is its own contiguous
    expression; a broadcast (m, dim) one was slower.  Yields
    (stratum, rows) with rows of shape (m, dim), stratum by stratum.
    """
    if n < 2:
        raise ValueError("sample count must be >= 2, the least that gives an error estimate")
    d = chain.d
    xi1 = chain.xi[0]
    coeff = chain.eta_array[1:] ** 2
    dim = 1 if is_simplex else len(planar)

    def integrand(rng, u):
        lead, tail = _ordered_chain(d, is_simplex, u, rng)
        s = _chain_norm2(xi1, coeff, is_simplex, lead, tail)
        if is_simplex:
            return (xi1 * s ** (-0.5 * d))[:, None]
        t2 = lead * lead
        cols = []
        for rho, coef in planar:
            lead_r = t2 * rho
            c = s + lead_r
            g = np.full_like(c, coef[-1])
            if len(coef) > 1:
                y = np.divide(lead_r, c, out=lead_r)
                for cm in coef[-2::-1]:
                    g *= y
                    g += cm
            g *= np.power(c, -0.5 * d, out=c)
            g *= xi1
            cols.append(g)
        return np.column_stack(cols)

    strata = _strata(n)
    counts = [n // strata + (1 if k < n % strata else 0) for k in range(strata)]
    # chunk size shrinks with the integrand dimension to cap memory; it is a
    # pure function of dim, so results stay deterministic in (seed, n)
    chunk = max(2048, _CHUNK // max(1, dim // 8))
    for k in range(strata):
        nk = counts[k]
        rng = substream(seed, k)
        done = 0
        while done < nk:
            m = min(chunk, nk - done)
            u = rng.random(m)
            yield k, integrand(rng, (k + u) / strata)
            done += m


def _cone_estimate(chain: ChainSpec, is_simplex: bool, planar, n, seed):
    """Stratified mean of the _cone_samples rows and the covariance of that mean.

    Returns (mean vector, covariance matrix of the mean); strata carry equal
    weight, and n >= 2 leaves none empty (16 strata only from n = 256 on).
    """
    dim = 1 if is_simplex else len(planar)
    strata = _strata(n)
    sums = np.zeros((strata, dim))
    squares = np.zeros((strata, dim, dim))
    counts = np.zeros(strata)
    for k, g in _cone_samples(chain, is_simplex, planar, n, seed):
        sums[k] += g.sum(axis=0)
        squares[k] += g.T @ g
        counts[k] += len(g)
    means = sums / counts[:, None]
    covs = squares - counts[:, None, None] * np.einsum("ki,kj->kij", means, means)
    covs /= (counts - 1)[:, None, None]
    covs /= counts[:, None, None]
    weight = np.full(strata, 1.0 / strata)
    value = weight @ means
    cov = np.einsum("k,kij->ij", weight**2, covs)
    return value, cov


def surface_density(config: WedgeConfig, n: int, seed: int) -> DensityEstimate:
    """Monte-Carlo surface density of the unit sphere in the cone.

    Deterministic in (seed, n): draws come from per-stratum PCG64
    substreams keyed by (seed, stratum).
    """
    planar = None if config.is_simplex else [_planar_series(config.domain, config.chain)]
    value, cov = _cone_estimate(config.chain, config.is_simplex, planar, n, seed)
    return DensityEstimate(
        value=float(value[0]),
        stderr=float(math.sqrt(max(cov[0, 0], 0.0))),
        n=n,
        seed=seed,
        method="monte_carlo",
    )


def simplex_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the canonical orthoscheme cone (sigma)."""
    if d < 2:
        raise ValueError(f"simplex density needs d >= 2, got {d}")
    return surface_density(canonical_simplex(d), n, seed)


def wedge_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the canonical wedge (sigma_hat)."""
    if d < 4:
        raise ValueError(f"wedge density needs d >= 4, got {d}")
    return surface_density(canonical_wedge(d), n, seed)


def sector_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the sector-only sub-wedge (lambda)."""
    if d < 4:
        raise ValueError(f"sector density needs d >= 4, got {d}")
    return surface_density(sector_wedge(d), n, seed)


def _exact_simplex_density(chain: ChainSpec) -> float:
    """Exact density in the cone over a simplex chain (k = d) with d = 2 or 3.

    With e = eta_2^2, the base integral at d = 2 is
    int_0^1 xi_1 / (xi_1^2 + e s^2) ds = atan(eta_2 / xi_1) / eta_2.  At
    d = 3, with a = eta_3^2, c = xi_1^2 + e y^2 and V = sqrt(xi_1^2 + e + a),

        2 int_0^1 xi_1 y / (c sqrt(c + a y^2)) dy
            = 2 / sqrt(ae) (atan(k V / xi_1) - atan(k)),   k = sqrt(e / a).

    The difference of arctangents is taken as one atan2 of
    sqrt(ae) (V - xi_1) over a xi_1 + e V, with V - xi_1 = (e + a)/(V + xi_1):
    the plain difference loses about 2e-12 to cancellation on chains whose
    norms nearly coincide, where this form stays within 3e-16 of a 40-digit
    quadrature.
    """
    xi1 = chain.xi[0]
    eta = chain.eta
    if chain.d == 2:
        return math.atan(eta[1] / xi1) / eta[1]
    e = eta[1] ** 2
    a = eta[2] ** 2
    s = math.sqrt(a * e)
    v = math.sqrt(xi1 * xi1 + e + a)
    return 2.0 / s * math.atan2(s * (e + a), (v + xi1) * (a * xi1 + e * v))


def closed_form_simplex_density(d: int) -> DensityEstimate:
    """Exact low-dimensional anchors: the canonical simplex at d = 2 and 3.

    The values are pi/(2 sqrt(3)) at d = 2, the covered area of the regular
    triangle of edge 2 over its area, and at d = 3 the regular tetrahedron's
    (4/3)(3 acos(1/3) - pi) over 2 sqrt(2)/3.  Both are evaluated by the
    exact chain integral that quadrature_density uses for d <= 3.
    """
    if d not in (2, 3):
        raise ValueError("closed forms are kept for d in {2, 3} only")
    value = _exact_simplex_density(canonical_simplex(d).chain)
    return DensityEstimate(value=value, stderr=1e-15, n=0, seed=0, method="closed_form")


# ---------------------------------------------------------------------------
# limiting density at a point of the terminal plane


def _check_profile_chain(chain: ChainSpec):
    if chain.k != chain.d - 2:
        raise ValueError("limiting density requires a chain with k = d - 2")
    if chain.d < 4:
        raise ValueError("limiting density requires d >= 4")


def limiting_density_profile(
    chain: ChainSpec, radii, n: int, seed: int
) -> ProfileEstimate:
    """Limiting densities at several radii from shared samples.

    The limiting density at a terminal-plane point depends on the point
    through its local radius only, because the join collapses the planar
    factor onto the point and the chain part is orthogonal to the plane.
    Sharing samples across radii gives a full covariance matrix, so
    differences along the profile carry honest (and small) error bars.
    """
    _check_profile_chain(chain)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or len(r) == 0 or np.any(r < 0):
        raise ValueError("radii must be a nonempty 1D array of nonnegative reals")
    planar = [(float(x * x), [1.0]) for x in r]
    values, cov = _cone_estimate(chain, False, planar, n, seed)
    return ProfileEstimate(radii=r, values=values, cov=cov, n=n, seed=seed)


def limiting_surface_density(chain: ChainSpec, x, n: int, seed: int) -> DensityEstimate:
    """Limiting surface density at a terminal-plane point x (local 2D coords)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ValueError("x must be a finite 2D point of the terminal plane")
    prof = limiting_density_profile(chain, [float(np.hypot(x[0], x[1]))], n, seed)
    return DensityEstimate(
        value=float(prof.values[0]),
        stderr=float(prof.stderr()[0]),
        n=n,
        seed=seed,
        method="monte_carlo",
    )


# ---------------------------------------------------------------------------
# quadrature oracle


def _radial_nodes(domain, nr: int):
    """Midpoint nodes and weights of the domain's radial mass function."""
    brk = domain.radial_breakpoints()
    brk = [b for b in brk if b <= domain.max_radius + 1e-15]
    if brk[0] > 0.0:
        brk = [0.0] + brk
    nodes = []
    weights = []
    total = brk[-1] - brk[0]
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a < 1e-15:
            continue
        cells = max(4, int(round(nr * (b - a) / total)))
        edges = np.linspace(a, b, cells + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes.append(mid)
        weights.append(domain.radial_mass(mid) * (edges[1:] - edges[:-1]))
    return np.concatenate(nodes), np.concatenate(weights)


# chain rows worked at once, in the propagation and in the radial contraction:
# keeps each temporary near half a megabyte
_ROW_BLOCK = 64


def _propagate(W: np.ndarray, offsets, ds: float) -> np.ndarray:
    """Carry the chain mass grid W through the levels given by their offsets.

    At a level with offsets (j0, frac), row i of the new grid carries
    src[i] = (sum_{k >= i} W[k] - W[i] / 2) ds, the mass of the earlier
    levels whose variable lies above this level's cell midpoint, moved along
    the accumulated axis: a share 1 - frac[i] by j0[i] >= 0 columns and a
    share frac[i] by one column more.  Mass pushed past the last column
    piles up there.  W and one grid of its shape alternate between levels,
    so W is overwritten; the last level's grid is returned.

    Rows are worked in blocks of _ROW_BLOCK, from the last block upward.  A
    block's suffix sums are one cumsum over its rows with the running column
    sums of the rows below prepended, so they come out in the row order of
    one cumsum over the whole grid.  The split deposit
    c[m] = (1 - frac) src[m] + frac src[m - 1], m = 0..L, sits behind L zero
    columns, so each shifted row is one window of that buffer (a strided
    view, gathered with one index per row), and the last column is the true
    suffix of c from L - 1 - j0 on, summed from the right over only the
    columns that some row of the block reaches.  Every other cell gets the
    same arithmetic, in the same order, as shifting row by row.
    """
    ns, L = W.shape
    rows = min(_ROW_BLOCK, ns)
    out = np.empty_like(W)
    suffix = np.empty((rows + 1, L))
    src = np.empty((rows, L))
    comb = np.zeros((rows, 2 * L + 1))
    window = sliding_window_view(comb, L - 1, axis=1)
    for j0, frac in offsets:
        j0 = np.minimum(j0, L)
        keep = (1.0 - frac)[:, None]
        move = frac[:, None]
        suffix[0] = 0.0
        for hi in range(ns, 0, -rows):
            lo = max(hi - rows, 0)
            n = hi - lo
            block = W[lo:hi]
            suffix[1 : n + 1] = block[::-1]
            np.cumsum(suffix[: n + 1], axis=0, out=suffix[: n + 1])
            s = src[:n]
            np.multiply(block, 0.5, out=s)
            np.subtract(suffix[n:0:-1], s, out=s)
            s *= ds
            c = comb[:n, L:]
            np.multiply(s, keep[lo:hi], out=c[:, :L])
            c[:, L] = 0.0
            s *= move[lo:hi]
            c[:, 1:] += s
            shift = j0[lo:hi]
            r = np.arange(n)
            out[lo:hi, : L - 1] = window[r, L - shift]
            first = max(L - 1 - int(shift.max()), 0)
            tail = np.cumsum(comb[:n, 2 * L : L + first - 1 : -1], axis=1)
            out[lo:hi, L - 1] = tail[r, np.minimum(shift + 1, L - first)]
            suffix[0] = suffix[n]
        W, out = out, W
    return W


def _chain_mass_grid(config: WedgeConfig, ns: int, na: int):
    """Mass of the ordered chain variables on an (own value, squared norm) grid.

    Propagates the mass of the ordered chain variables over an
    (own value, accumulated squared norm) grid with midpoint cells and a
    linearly split deposit along the accumulated axis: the first level is
    deposited directly and the later ones by _propagate, the row-blocked
    kernel.  Returns ``(W, s_mid, a_nodes)``: W[i, j] is the mass whose last
    variable sits in the cell at s_mid[i] and whose accumulated squared norm
    is a_nodes[j].
    """
    chain = config.chain
    etas = chain.eta_array[1:]
    amax = float(np.sum(etas**2)) + 1e-30
    ds = 1.0 / ns
    s_mid = (np.arange(ns) + 0.5) * ds
    # accumulated squared norm lives on na+1 nodes j*da; shifts between
    # node-registered columns are relative, so no -0.5 offset anywhere
    da = amax / na
    a_nodes = np.arange(na + 1) * da

    def offsets_for(eta):
        pos = (eta * eta) * s_mid * s_mid / da
        j0 = np.floor(pos).astype(int)
        return j0, pos - j0

    W = np.zeros((ns, na + 1))
    j0, frac = offsets_for(etas[0])
    rows = np.arange(ns)
    W[rows, np.minimum(j0, na)] += ds * (1.0 - frac)
    W[rows, np.minimum(j0 + 1, na)] += ds * frac
    W = _propagate(W, map(offsets_for, etas[1:]), ds)
    return W, s_mid, a_nodes


# relative truncation error allowed in the radial series
_SERIES_TOL = 1e-17


def _series_terms(q: float, p: float) -> int:
    """Number of terms M of the radial series for a ratio bound q < 1.

    Term m is bounded by |C(-p, m)| q^m times the leading term.  For p >= 1
    the ratio of consecutive bounds, q (p + m)/(m + 1), falls with m, so once
    it is below 1 the tail from m on is at most the m-th bound over one minus
    that ratio.  Every cell is at least (1 + q)^-p times its leading term,
    so M is the first m at which (1 + q)^p times that tail is below
    _SERIES_TOL.
    """
    scale = (1.0 + q) ** p
    bound, m = 1.0, 0
    while True:
        ratio = q * (p + m) / (m + 1)
        if ratio < 1.0 and scale * bound / (1.0 - ratio) < _SERIES_TOL:
            return m
        bound *= ratio
        m += 1


def _chain_grid_pass(config: WedgeConfig, ns: int, na: int, nr: int) -> float:
    """One grid evaluation of the surface-density integral.

    The chain mass comes from _chain_mass_grid.  For a wedge, the planar
    radius r is integrated against the domain's radial mass with nr midpoint
    nodes r_k and weights w_k, and every cell (i, j) needs

        g(i, j) = sum_k w_k (c_ij + t_i^2 (r_k^2 - rho))^(-p),   p = d/2,

    with rho = r_max^2 / 2 and c_ij = xi_1^2 + a_j + t_i^2 rho.  The binomial
    series in the radial moments evaluates it as

        g(i, j) = c_ij^-p sum_m C(-p, m) nu_m y_ij^m,   y_ij = t_i^2 rho / c_ij,
        nu_m = sum_k w_k ((r_k^2 - rho) / rho)^m,

    so the moments are taken once per pass and each cell costs one power and
    M multiply-adds (Horner in y) in place of nr powers.  |nu_m| <= nu_0 and
    y <= q = max t^2 rho / (xi_1^2 + t^2 rho) < 1, because xi_1 > 0: the
    series converges for every configuration, and M follows from q and p
    (_series_terms) with a relative truncation error below 1e-17.  For the
    canonical wedges d = 4..12, q lies between 0.12 and 0.014.
    """
    d = config.d
    xi1 = config.chain.xi[0]
    W, s_mid, a_nodes = _chain_mass_grid(config, ns, na)
    base = xi1 * xi1 + a_nodes

    if config.is_simplex:
        mass_a = W.sum(axis=0)
        g = base ** (-0.5 * d)
        return float(xi1 * (mass_a @ g) / mass_a.sum())

    p = 0.5 * d
    r_nodes, r_w = _radial_nodes(config.domain, nr)
    rho = 0.5 * config.domain.max_radius**2
    t2 = s_mid * s_mid
    n_terms = _series_terms(t2[-1] * rho / (base[0] + t2[-1] * rho), p)
    z = (r_nodes * r_nodes - rho) / rho
    coef = np.empty(n_terms)
    binom, z_pow = 1.0, np.ones_like(z)
    for m in range(n_terms):
        coef[m] = binom * float(r_w @ z_pow)
        binom *= (-p - m) / (m + 1)
        z_pow *= z

    num = 0.0
    for lo in range(0, len(t2), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        lead = (t2[rows] * rho)[:, None]
        c = base[None, :] + lead
        y = lead / c
        g = np.full_like(c, coef[-1])
        for b in coef[-2::-1]:
            g *= y
            g += b
        g *= c ** -p
        num += float(t2[rows] @ np.einsum("ij,ij->i", W[rows], g))
    den = float(t2 @ W.sum(axis=1)) * float(r_w.sum())
    return float(xi1 * num / den)


def quadrature_density(
    config: WedgeConfig,
    ns: int = 512,
    na: int = 512,
    nr: int = 256,
    tol: float | None = None,
) -> DensityEstimate:
    """Grid quadrature of the same solid-angle integral, as an independent oracle.

    Runs the chain-variable grid at the requested resolution and once more
    doubled; the reported value is the fine pass and stderr is the
    refinement disagreement.  Raises if the disagreement exceeds tol.  Any
    d is accepted; a call costs time linear in the number of chain levels
    (0.23 s at d = 16 and 0.66 s at d = 42 at the default resolution on one
    Intel Xeon core).  The resolutions ns, na and nr must be integers >= 1.
    A simplex with d <= 3 needs no grid: its value is the exact chain
    integral that closed_form_simplex_density also evaluates, with stderr
    1e-15.

    A wedge's planar radius (nr midpoint nodes) is contracted by a binomial
    series in the radial moments about half the squared domain radius, not
    node by node.  Its ratio q = max t^2 rho / (xi_1^2 + t^2 rho) is below 1
    for every configuration because xi_1 > 0, and the number of terms is
    the least whose tail bound is below 1e-17 of the value (12 to 20 terms
    for the canonical wedges); see _chain_grid_pass.
    """
    for name, value in (("ns", ns), ("na", na), ("nr", nr)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if config.is_simplex and config.d <= 3:
        value, err, n_cells = _exact_simplex_density(config.chain), 1e-15, 0
    else:
        coarse = _chain_grid_pass(config, ns, na, nr)
        fine = _chain_grid_pass(config, 2 * ns, 2 * na, 2 * nr)
        value = fine
        err = max(abs(fine - coarse), 1e-12)
        n_cells = 2 * ns * 2 * na
    if tol is not None and err > tol:
        raise RuntimeError(
            f"quadrature refinements disagree by {err:.3e} > tol {tol:.3e}"
        )
    return DensityEstimate(value=value, stderr=err, n=n_cells, seed=0, method="quadrature")


# ---------------------------------------------------------------------------
# packing consequences


@dataclass(frozen=True)
class ImprovementGap:
    """Paired measurement of the three densities and their separations.

    The wedge density is the area-weighted mean of its triangle part and its
    sector part, and the cone over the lifted triangle is exactly the
    canonical simplex cone.  Estimating both parts from shared chain draws
    (same join parameter and ordered tail, each domain's planar radius
    integrated out by its own radial-moment series) makes the differences

        gap        = sigma - sigma_hat = w_sector * (sigma - lam)
        lambda_gap = sigma - lam

    direct per-sample statistics, so their standard errors include the
    (large, positive) covariance and are far smaller than the individual
    uncertainties.  gap_stderr is the proper one-standard-error of gap.
    """

    d: int
    n: int
    seed: int
    sigma: DensityEstimate
    lam: DensityEstimate
    sigma_hat: DensityEstimate
    gap: float
    gap_stderr: float
    lambda_gap: float
    lambda_gap_stderr: float


def improvement_gap(d: int, n: int, seed: int) -> ImprovementGap:
    """Measure sigma, lambda, sigma_hat and the gaps between them at once."""
    if d < 4:
        raise ValueError(f"gap measurement needs d >= 4, got {d}")
    chain = canonical_chain(d, d - 2)
    tri = triangle_domain(d)
    sec = sector_domain(d)
    w_tri = tri.area / (tri.area + sec.area)
    w_sec = 1.0 - w_tri
    planar = [_planar_series(tri, chain), _planar_series(sec, chain)]
    values, cov = _cone_estimate(chain, False, planar, n, seed)
    t_val, s_val = float(values[0]), float(values[1])
    se_t = math.sqrt(max(cov[0, 0], 0.0))
    se_s = math.sqrt(max(cov[1, 1], 0.0))
    var_diff = max(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1], 0.0)
    combo = w_tri * t_val + w_sec * s_val
    se_combo = math.sqrt(
        max(w_tri**2 * cov[0, 0] + w_sec**2 * cov[1, 1] + 2 * w_tri * w_sec * cov[0, 1], 0.0)
    )
    return ImprovementGap(
        d=d,
        n=n,
        seed=seed,
        sigma=DensityEstimate(t_val, se_t, n, seed, "monte_carlo"),
        lam=DensityEstimate(s_val, se_s, n, seed, "monte_carlo"),
        sigma_hat=DensityEstimate(combo, se_combo, n, seed, "monte_carlo"),
        gap=w_sec * (t_val - s_val),
        gap_stderr=w_sec * math.sqrt(var_diff),
        lambda_gap=t_val - s_val,
        lambda_gap_stderr=math.sqrt(var_diff),
    )


def voronoi_bounds(d: int, sigma_hat: DensityEstimate) -> tuple[float, float]:
    """Per-cell lower bounds (volume, surface area) implied by a density bound."""
    if sigma_hat.value <= 0.0:
        raise ValueError("density bound must be positive")
    omega = unit_ball_volume(d)
    return omega / sigma_hat.value, d * omega / sigma_hat.value

