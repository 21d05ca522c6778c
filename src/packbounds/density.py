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

Each Monte-Carlo sample is one draw of the ordered chain from the shared
kernel geometry._ordered_chain: d - 1 uniforms sorted, whose columns are
the chain levels' coordinates.  The n samples come in 16 blocks, each from
its own PCG64 substream keyed by (seed, block) (streams.substream).  One
estimator, _cone_estimate, serves sigma, sigma_hat and lambda.  It runs the
blocks on one thread per usable core, at most 16, and adds their sums in one
fixed (chunk, then block) order, so results are reproducible bit for bit
and the same at any worker count, core layout or scheduling.  The kernel
makes no BLAS call at any width, so no BLAS thread pool spins against the
workers: the chain coordinates are never formed, and its contractions, the
squared chain norm (_chain_norm2), each chunk's sums of squares and adjacent
products (_partial) and a profile's weighted mean, are einsum loops.

The samples are post-stratified into 16 equal-probability strata of the
lead coordinate (the join parameter t of a wedge, the leading ordered
coordinate of a simplex), whose edges are the quantiles of its Beta law,
read off a lookup table over 4096 cells of [0, 1), so no inverse CDF is
drawn through.  No planar point is drawn: given the chain
draw, the mean over a wedge's planar domain is a one-dimensional integral
against the domain's radial law, which a binomial series in the domain's
radial moments evaluates exactly (conditional Monte Carlo, or
Rao-Blackwellisation: same mean, smaller variance).  The simplex is the
planar point mass at radius 0, so every estimate differs only in the
columns' series coefficients: the domain's for a wedge, the triangle's and
the sector's for the paired gap, and a point mass at radius 0 for the
simplex or at each fixed radius for the limiting profile.

Quadrature writes xi_1 s^(-d/2) as a Laplace transform in lambda (the
Gamma identity), sums it by the trapezoid rule in log lambda, and takes the
expectation of e^(-lambda s) level by level down the ordered chain, which
read top-down is a Markov chain: one Chebyshev averaging operator per
level, shared by every lambda, with the planar factor entering at the last
level through a radial rule: the domain's for a wedge, the point mass at
radius 0 for a simplex or at each radius of a profile.  The planar factor
M(mu) depends on mu = lambda x^2 alone.  A wedge's is tabulated once per
pass as a Chebyshev series in mu and evaluated by Clenshaw's recurrence
on every lambda row; the point mass is summed directly.  The
disagreement with a pass at doubled resolution is its error estimate.
quadrature_gap runs the same linear recursion on the triangle's minus the
sector's planar factor, so the gap comes out with no cancellation between
two densities, and floors its error at the planar factor's roundoff as the
recursion carries it.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .formulas import unit_ball_volume
from .geometry import (
    ChainSpec,
    WedgeConfig,
    _gauss_legendre,
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
    "limiting_density_profile",
    "quadrature_density",
    "quadrature_profile",
    "quadrature_gap",
    "voronoi_bounds",
]

_CHUNK = 1 << 17
_STRATA = 16
# cells of [0, 1) in a stratum lookup table (_stratum_table), at the least
_CELLS = 4096
# rows of g formed at once (_cone_kernel), so a thread holds two blocks, not every column
_ROWS = 128


@dataclass(frozen=True)
class DensityEstimate:
    """A measured density with one-standard-error uncertainty.

    method is monte_carlo or quadrature; for the latter, stderr carries the
    reported refinement error instead of a statistical error.
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

    values[j] estimates the limiting density at radii[j], var[j] is its
    variance and adjacent_cov[j] its covariance with values[j + 1];
    functional is the declared weighted mean's (value, stderr), or None.
    """

    radii: np.ndarray
    values: np.ndarray
    var: np.ndarray
    adjacent_cov: np.ndarray
    n: int
    seed: int
    functional: tuple[float, float] | None = None

    def stderr(self) -> np.ndarray:
        return np.sqrt(self.var)

    def diff_stderr(self, i: int, j: int) -> float:
        """Standard error of values[i] - values[j], for adjacent radii i and j."""
        if abs(i - j) != 1 or min(i, j) < 0 or max(i, j) >= len(self.radii):
            raise ValueError(f"diff_stderr needs adjacent indices of the radii, got ({i}, {j})")
        v = self.var[i] + self.var[j] - 2.0 * self.adjacent_cov[min(i, j)]
        return math.sqrt(max(v, 0.0))

    def mean_functional(self) -> tuple[float, float]:
        """The declared weighted average of the profile and its standard error."""
        if self.functional is None:
            raise ValueError("no weights were declared to limiting_density_profile")
        return self.functional


# ---------------------------------------------------------------------------
# post-stratified Monte-Carlo core


@functools.lru_cache(maxsize=None)
def _stratum_edges(d: int, r: int) -> np.ndarray:
    """The _STRATA - 1 interior k/_STRATA quantiles of Beta(r, d - r).

    That is the law of the r-th smallest of d - 1 uniforms, the lead of a
    chain draw.  Its CDF is the binomial tail P[Bin(d - 1, t) >= r], a
    finite sum of positive terms, which bisection inverts for all targets at
    once; 64 halvings of [0, 1] narrow each bracket below 1e-19, under the
    rounding of every edge.
    """
    n = d - 1
    j = np.arange(r, n + 1)
    comb = np.array([float(math.comb(n, i)) for i in j])
    target = np.arange(1, _STRATA) / _STRATA
    lo, hi = np.zeros_like(target), np.ones_like(target)
    for _ in range(64):
        t = 0.5 * (lo + hi)
        cdf = (comb * t[:, None] ** j * (1.0 - t[:, None]) ** (n - j)).sum(axis=1)
        below = cdf < target
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    edges = 0.5 * (lo + hi)
    edges.flags.writeable = False
    return edges


@functools.lru_cache(maxsize=None)
def _stratum_table(d: int, r: int):
    """(cells, lo, upper): the strata of _stratum_edges(d, r) as a lookup table.

    The table cuts [0, 1) into cells [k/cells, (k + 1)/cells).  lo[k]
    counts the edges below k/cells, so upper[lo[k]] is the first edge at or
    above it, upper being the edges followed by +inf.  A lead t lies in
    cell k = floor(t cells), exactly so as cells is a power of two, and
    lo[k] + (t > upper[lo[k]]) is its stratum, np.searchsorted(edges, t),
    exactly when no cell holds two edges.  _CELLS cells separate the edges
    of every d <= 64; cells doubles until they are separated.  lo is one
    byte a cell, 4 kB a table.
    """
    edges = _stratum_edges(d, r)
    cells = _CELLS
    while True:
        lo = np.searchsorted(edges, np.arange(cells) / cells).astype(np.uint8)
        if np.diff(lo, append=len(edges)).max() <= 1:
            break
        cells *= 2
    upper = np.append(edges, np.inf)
    lo.flags.writeable = False
    upper.flags.writeable = False
    return cells, lo, upper


def _strata(table, t: np.ndarray) -> np.ndarray:
    """Stratum of every lead in t, from a _stratum_table."""
    cells, lo, upper = table
    labels = lo[(t * cells).astype(np.intp)].astype(np.intp)
    labels += t > upper[labels]
    return labels


# relative truncation error allowed in the radial series
_SERIES_TOL = 1e-17


def _series_terms(q: float, p: float) -> int:
    """Number of terms M of the radial series for a ratio bound q < 1.

    Term m is bounded by |C(-p, m)| q^m times the leading term.  For p >= 1
    the ratio of consecutive bounds, q (p + m)/(m + 1), falls with m, so once
    it is below 1 the tail from m on is at most the m-th bound over one minus
    that ratio.  The sum is at least (1 + q)^-p times its leading term,
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


def _planar_series(domain, chain: ChainSpec):
    """Column (rho, coef) of a domain: its planar factor as a radial-moment series.

    Given the chain part s and t^2, the mean of (s + t^2 r^2)^-p, p = d/2, over
    a uniform point of the domain is, with rho = r_max^2 / 2, c = s + t^2 rho
    and y = t^2 rho / c,

        c^-p sum_m coef[m] y^m,   coef[m] = C(-p, m) nu_m / area,

    nu_m from PlanarDomain.radial_moments.  y <= q = rho / (xi_1^2 + rho) < 1
    because s >= xi_1^2 and t <= 1, and the term count is the least whose tail
    bound is below 1e-17 of the value (_series_terms).  The quadrature uses no
    radial-moment series: it sums e^(-mu r^2) over the domain's radial rule,
    once per pass at the Chebyshev points of its table (_planar_factor).
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


def _chain_weights(chain: ChainSpec) -> np.ndarray:
    """Coefficients of the squared chain draw's columns in its squared norm.

    Column j of a geometry._ordered_chain draw is level d - j, so a level's
    coefficient eta^2 sits at that column: the levels' coefficients
    reversed, after two zeros for a wedge's planar columns.
    """
    coeff = chain.eta_array[1:] ** 2
    return np.concatenate([np.zeros(chain.d - chain.k), coeff[::-1]])


def _chain_norm2(xi1, weights, v):
    """Squared norm s = xi_1^2 + sum_i eta_i^2 (y_i/eta_i)^2 of chain draws v.

    One contraction of the squared draw with _chain_weights, an einsum loop
    rather than a BLAS call (see the module docstring); every term is
    nonnegative, so nothing cancels.  v is squared in place.
    """
    v *= v
    s = np.einsum("ij,j->i", v, weights)
    s += xi1 * xi1
    return s


def _cone_kernel(chain: ChainSpec, planar, weights=None):
    """(integrand, chunk): the per-chunk kernel of _cone_estimate and its chunk size.

    integrand(rng, m) draws m samples from rng and returns (labels, columns).
    Every sample is one chain draw (geometry._ordered_chain), and planar
    holds one (rho, coef) pair per column.  Column j of a sample is the
    planar factor integrated out exactly given the draw's chain part s and
    lead t: with c = s + t^2 rho_j and y = t^2 rho_j / c,

        xi_1 c^(-d/2) sum_m coef_j[m] y^m,

    by Horner in y.  A domain's pair comes from _planar_series; a fixed
    planar radius r is the point mass rho = r^2, coef = [1.0], which is
    xi_1 (s + t^2 r^2)^(-d/2) exactly, and the simplex is the point mass at
    r = 0, xi_1 s^(-d/2).  labels holds the stratum of each sample's lead t
    (the r-th smallest uniform, r = d - 1 for a simplex chain, k = d, and
    3, the join, for a wedge chain) among the _STRATA equal-probability
    strata of its law (_strata).  columns yields g, one contiguous row per
    column, in blocks of at most _ROWS rows, and given weights one more row,
    the columns' weighted sum.  The chunk size is a pure function of d and
    the planar column count, so results stay deterministic in (seed, n).
    The kernel reads only what is bound here and calls nothing public, so it
    may run on any thread.
    """
    d = chain.d
    xi1 = chain.xi[0]
    levels = _chain_weights(chain)
    r = d - 1 if chain.k == d else 3
    table = _stratum_table(d, r)
    dim = len(planar)
    # the chunk shrinks with the draw's width and the column count to cap memory
    chunk = max(2048, _CHUNK // max(1, (d - 1) // 8, dim // 8))

    def integrand(rng, m):
        v = _ordered_chain(d, m, rng)
        labels = _strata(table, v[:, r - 1])
        s = _chain_norm2(xi1, levels, v)
        return labels, columns(s, v[:, r - 1], m)

    def columns(s, t2, m):
        mean = None if weights is None else np.zeros(m)
        for lo in range(0, dim, _ROWS):
            g = np.empty((min(_ROWS, dim - lo), m))
            for row, (rho, coef) in zip(g, planar[lo:]):
                lead_r = np.multiply(t2, rho, out=row)
                c = s + lead_r
                poly = coef[0]
                if len(coef) > 1:
                    y = np.divide(lead_r, c, out=lead_r)
                    poly = np.full(m, coef[-1])
                    for cm in coef[-2::-1]:
                        poly *= y
                        poly += cm
                np.power(c, -0.5 * d, out=row)
                # a point mass, coef = [1.0], skips the product
                if len(coef) > 1 or poly != 1.0:
                    row *= poly
            g *= xi1
            if weights is not None:
                mean += np.einsum("j,jk->k", weights[lo : lo + len(g)], g)
            yield g
        if weights is not None:
            yield mean[None]

    return integrand, chunk


def _blocks(n: int, seed: int):
    """(stream, sample count) of each of the _STRATA blocks, opened in block order."""
    if n < 2:
        raise ValueError("sample count must be >= 2, the least that gives an error estimate")
    return [(substream(seed, k), n // _STRATA + (1 if k < n % _STRATA else 0))
            for k in range(_STRATA)]


def _chunks(kernel, rng, size: int):
    """One block's chunks (labels, columns) from kernel = (integrand, chunk), in draw order."""
    integrand, chunk = kernel
    for lo in range(0, size, chunk):
        yield integrand(rng, min(chunk, size - lo))


def _partial(labels, columns):
    """One chunk's stratum counts, per-stratum column sums and band, from its g
    in blocks of rows: each column's sum of g_j^2, then each adjacent pair's
    sum of g_j g_(j+1) and a 0."""
    sums, band, last = [], [], None
    for g in columns:
        if band:  # the product across the boundary with the previous block
            band[-1][1, -1] = np.einsum("k,k->", last, g[0])
        sums += [np.bincount(labels, weights=row, minlength=_STRATA) for row in g]
        band.append(np.zeros((2, len(g))))
        np.einsum("ik,ik->i", g, g, out=band[-1][0])
        np.einsum("ik,ik->i", g[:-1], g[1:], out=band[-1][1, :-1])
        last = g[-1]
    return np.bincount(labels, minlength=_STRATA), np.array(sums).T, np.concatenate(band, axis=1)


def _add(totals, part):
    """Add a _partial (counts, per-stratum column sums, band) into totals, in place."""
    for acc, term in zip(totals, part):
        acc += term


def _workers() -> int:
    """Threads for one estimate: the cores this process may run on, at most _STRATA."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(_STRATA, cores)


def _cone_estimate(chain: ChainSpec, planar, n, seed, weights=None):
    """Post-stratified mean of the _cone_kernel columns, with their variances
    and adjacent covariances, as (value, var, adjacent_cov).

    Each sample falls in one of _STRATA equal-probability strata of its
    lead (post-stratification; Holt and Smith, JRSS A 142, 1979).  The value
    is the mean of the strata's means, and var_j and adjacent_cov_j are the
    entries (j, j) and (j, j + 1) of the pooled within-stratum covariance
    over n, the only entries any reader needs,

        (sum_i g_ij g_il - sum_k n_k mu_kj mu_kl) / ((n - _STRATA) n).

    With fewer than 16 samples per stratum on average (n < 256), or an
    empty stratum, it is the plain mean with the (n - 1) covariance instead.
    weights adds the columns' weighted sum as one more column.

    The calling thread opens every block's substream in block order, then it
    and W - 1 helpers, W = _workers(), run one loop.  Thread w starts on
    block w, so every thread draws a block whichever runs first.  A pass
    adds its block's chunk _partials in chunk order into the block's own
    zeroed arrays, hands the block's total in and claims the next unclaimed
    block.  Whoever hands in the lowest block not yet added to the totals
    adds it and every ready block after it, in block order.  One lock guards
    the next block, the handed-in totals and the count added, and is held
    only to hand in, add and claim, so no thread waits on another's draws,
    and a thread that stalls holds only the block it is drawing.  An
    exception on any thread goes in a list that also stops the others before
    their next chunk, so a failed estimate draws at most one more chunk per
    thread; the calling thread joins every helper it started and raises the
    first.  A block's draws depend on its stream alone and every sum is
    taken in (chunk, then block) order, so the result is bitwise the same
    for every W and every scheduling.
    """
    kernel = _cone_kernel(chain, planar, weights)
    blocks = _blocks(n, seed)
    dim = len(planar) + (weights is not None)
    workers = _workers()

    def zeros():
        return np.zeros(_STRATA), np.zeros((_STRATA, dim)), np.zeros((2, dim))

    counts, sums, band = totals = zeros()
    lock = threading.Lock()
    claimed, added = workers, 0
    ready = {}  # block -> its total, handed in but not yet added
    failed = []  # exceptions raised on any thread; nonempty stops every thread

    def work(k):
        nonlocal claimed, added
        try:
            while k < _STRATA and not failed:
                total = zeros()
                for chunk in _chunks(kernel, *blocks[k]):
                    _add(total, _partial(*chunk))
                    del chunk  # so two chunks' draws are never alive on one thread
                    if failed:  # the estimate has failed: draw no further chunk
                        return
                with lock:
                    ready[k] = total
                    while added in ready:
                        _add(totals, ready.pop(added))
                        added += 1
                    k = claimed
                    claimed += 1
        except BaseException as exc:  # raised by the calling thread once all are joined
            failed.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException as exc:  # a helper failed to start, so its block is not drawn
        failed.append(exc)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    if n >= 16 * _STRATA and counts.all():
        means = sums / counts[:, None]
        value = means.mean(axis=0)
        scaled, scale = means * counts[:, None], (n - _STRATA) * n
    else:
        value = sums.sum(axis=0) / n
        means, scaled, scale = value[None], n * value[None], (n - 1) * n
    var = (band[0] - np.einsum("kj,kj->j", scaled, means)) / scale
    adjacent_cov = (band[1, :-1] - np.einsum("kj,kj->j", scaled[:, :-1], means[:, 1:])) / scale
    return value, var, adjacent_cov


def surface_density(config: WedgeConfig, n: int, seed: int) -> DensityEstimate:
    """Monte-Carlo surface density of the unit sphere in the cone.

    Deterministic in (seed, n): draws come from per-block PCG64
    substreams keyed by (seed, block), at any worker count.
    """
    planar = (0.0, [1.0]) if config.is_simplex else _planar_series(config.domain, config.chain)
    value, var, _ = _cone_estimate(config.chain, [planar], n, seed)
    return DensityEstimate(
        value=float(value[0]),
        stderr=float(math.sqrt(max(var[0], 0.0))),
        n=n,
        seed=seed,
        method="monte_carlo",
    )


def simplex_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the canonical orthoscheme cone (sigma)."""
    return surface_density(canonical_simplex(d), n, seed)


def wedge_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the canonical wedge (sigma_hat)."""
    return surface_density(canonical_wedge(d), n, seed)


def sector_density(d: int, n: int, seed: int) -> DensityEstimate:
    """Density of the unit ball in the sector-only sub-wedge (lambda)."""
    return surface_density(sector_wedge(d), n, seed)


# ---------------------------------------------------------------------------
# limiting density at a point of the terminal plane


def _profile_radii(chain: ChainSpec, radii) -> np.ndarray:
    """A profile's radii as a float array, checked along with its chain."""
    if chain.k != chain.d - 2:
        raise ValueError("limiting density requires a chain with k = d - 2")
    if chain.d < 4:
        raise ValueError("limiting density requires d >= 4")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or len(r) == 0 or not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("radii must be a nonempty 1D array of finite nonnegative reals")
    return r


def limiting_density_profile(chain: ChainSpec, radii, n: int, seed: int,
                             weights=None) -> ProfileEstimate:
    """Limiting densities at several radii from shared samples.

    The limiting density at a terminal-plane point depends on the point
    through its local radius only, because the join collapses the planar
    factor onto the point and the chain part is orthogonal to the plane.
    Sharing samples across radii correlates the estimates, so differences
    between adjacent radii carry honest (and small) error bars.  weights,
    one per radius, declare a weighted mean of the profile, which the
    kernel carries as one more column for ProfileEstimate.mean_functional.
    """
    r = _profile_radii(chain, radii)
    planar = [(float(x * x), [1.0]) for x in r]
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != r.shape:
            raise ValueError(f"weights must match the {len(r)} radii, got shape {weights.shape}")
        if not (np.isfinite(weights).all() and 0.0 < weights.sum() < math.inf):
            raise ValueError("weights must be finite with a positive sum")
        weights = weights / weights.sum()
    values, var, cov = _cone_estimate(chain, planar, n, seed, weights)
    functional = None if weights is None else (float(values[-1]), math.sqrt(max(var[-1], 0.0)))
    return ProfileEstimate(radii=r, values=values[: len(r)], var=var[: len(r)],
                           adjacent_cov=cov[: len(r) - 1], n=n, seed=seed, functional=functional)


# ---------------------------------------------------------------------------
# quadrature oracle

# bytes of averaging operators kept, 128 MB, the least recently used evicted
# first.  An operator holds (n + 1) n doubles: the default resolution and its
# doubling for every a = 1..63, which keep all d <= 64 warm, take under 6 MB,
# and the largest call of a d = 8..42 sweep at ns = 256 holds 108 MB.  A pass
# whose operators exceed the budget builds them without caching any: cached,
# they would evict one another in cyclic order, each just before its next use
_OPERATOR_BYTES = 1 << 27
_operators: OrderedDict = OrderedDict()
# doubles in one row block of a blocked temporary, about 2 MB
_BLOCK = 1 << 18
# default resolution (ns, na, nr) of quadrature_density and quadrature_gap
_RESOLUTION = (48, 8, 64)
# relative bound on what the Laplace pass's dropped lambda rows may carry
_LAPLACE_TOL = 2.0**-60
# Chebyshev points at which _planar_factor first tabulates M; 64 resolve the
# canonical and truncated domains at d = 4..64 to roundoff with 7 to 31 terms
_TABLE_POINTS = 64


def _chebyshev_angles(n: int) -> np.ndarray:
    """theta_j of the Chebyshev-Gauss nodes x_j = (1 + cos theta_j)/2 of [0, 1]."""
    return (np.arange(n) + 0.5) * (math.pi / n)


def _averaging_operator(n: int, a: int) -> np.ndarray:
    """_build_operator(n, a), kept in a cache of at most _OPERATOR_BYTES bytes."""
    if (n, a) in _operators:
        _operators.move_to_end((n, a))
        return _operators[n, a]
    op = _operators[n, a] = _build_operator(n, a)
    kept = sum(x.nbytes for x in _operators.values())
    while kept > _OPERATOR_BYTES and len(_operators) > 1:
        kept -= _operators.popitem(last=False)[1].nbytes
    return op


def _build_operator(n: int, a: int) -> np.ndarray:
    """(A_a f)(x) = int_0^1 a w^(a-1) f(x w) dw as an (n + 1) x n matrix.

    Columns take f at the n Chebyshev-Gauss nodes x_j of [0, 1]; rows give
    A_a f at the same nodes and, in the last row, at x = 1.  The operator is
    exact on f's interpolant sum_j f_j l_j: l_j(x w) a w^(a-1) is a
    polynomial of degree n + a - 2 in w, which Gauss-Legendre with
    (n + a)/2 + 8 nodes integrates exactly.  l_j comes from the barycentric
    formula with weights (-1)^j sin theta_j, which gets each entry to a few
    ulp of itself; through Chebyshev coefficients every entry erred by a
    few ulp of 1, and the d = 64 density by 7e-8 relative against 5e-11.
    Rows are built in blocks of at most _BLOCK doubles (or one row).
    """
    theta = _chebyshev_angles(n)
    nodes = 0.5 * (1.0 + np.cos(theta))
    beta = np.sin(theta)
    beta[1::2] *= -1.0
    x = np.append(nodes, 1.0)
    g, gw = _gauss_legendre((n + a) // 2 + 8)
    w = 0.5 * (g + 1.0)
    omega = 0.5 * a * gw * w ** (a - 1)
    op = np.empty((n + 1, n))
    rows = max(1, _BLOCK // (len(w) * n))
    for lo in range(0, n + 1, rows):
        q = np.subtract.outer(np.multiply.outer(x[lo : lo + rows], w), nodes)
        # a point on a node takes that node's value
        q[q == 0.0] = np.finfo(float).tiny
        np.divide(beta, q, out=q)
        q /= q.sum(axis=2, keepdims=True)
        op[lo : lo + rows] = omega @ q
    return op


def _planar_sum(mu: np.ndarray, r2: np.ndarray, w: np.ndarray, fn=np.exp) -> np.ndarray:
    """sum_k w_k fn(-mu r2_k) for every entry of mu, in blocks of rows.

    With fn = exp this is M(mu).  Every block's terms are formed in one
    buffer allocated per call.
    """
    out = np.empty_like(mu)
    rows = max(1, _BLOCK // (mu.shape[1] * len(r2)))
    buf = np.empty((min(rows, len(mu)), mu.shape[1], len(r2)))
    neg_r2 = -r2
    for lo in range(0, len(mu), rows):
        block = mu[lo : lo + rows]
        e = buf[: len(block)]
        np.multiply(block[:, :, None], neg_r2, out=e)
        fn(e, out=e)
        np.matmul(e, w, out=out[lo : lo + len(block)])
    return out


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(t) at every entry of t, by Clenshaw's recurrence.

    Each step b_k = c_k - b_(k+2) + 2 t b_(k+1) takes three passes, two of
    them in place.  The product 2 t b_(k+1) goes to a temporary that the
    allocator recycles at every step: a third buffer held across the loop
    raised verify's peak RSS by 0.2 MB, for no measurable gain at d = 8.
    """
    b1, b2 = np.zeros_like(t), np.zeros_like(t)
    t2 = 2.0 * t
    for ck in c[:0:-1]:
        np.subtract(ck, b2, out=b2)
        b2 += t2 * b1
        b1, b2 = b2, b1
    b1 *= t
    b1 -= b2
    b1 += c[0]
    return b1


@functools.lru_cache(maxsize=None)
def _chebyshev_cosines(m: int) -> np.ndarray:
    """cos(k theta_j) for k, j < m, each angle reduced mod 2 pi in integers.

    Row k = 1 holds the Chebyshev-Gauss nodes cos theta_j.  Read-only, as
    every pass at m shares it.
    """
    k = np.arange(m)
    cosines = np.cos((np.multiply.outer(k, 2 * k + 1) % (4 * m)) * (math.pi / (2 * m)))
    cosines.flags.writeable = False
    return cosines


def _chebyshev_table(r2: np.ndarray, w: np.ndarray, mu_top: float):
    """Chopped Chebyshev coefficients of M on [0, mu_top], or None if unresolved.

    See _planar_factor.
    """
    m = _TABLE_POINTS
    while True:
        cosines = _chebyshev_cosines(m)
        nodes = 0.5 * mu_top * (1.0 + cosines[1])
        table = _planar_sum(nodes[:, None], r2, w, np.expm1)[:, 0] + w.sum()
        c = cosines @ table * (2.0 / m)
        c[0] *= 0.5
        tol = 4.0 * np.finfo(float).eps * np.abs(c).max()
        if np.abs(c[m // 2 :]).max() <= tol:
            return c[: np.flatnonzero(np.abs(c) >= tol)[-1] + 1]
        m *= 2
        if m >= len(r2):
            return None


def _planar_factor(mu: np.ndarray, r2: np.ndarray, w: np.ndarray, mu_top: float) -> np.ndarray:
    """M(mu) = sum_k w_k exp(-mu r2_k) for every entry of mu in [0, mu_top].

    M is entire in mu, so its Chebyshev series on [0, mu_top] converges
    faster than geometrically.  M is tabulated at m Chebyshev-Gauss points
    as sum_k w_k + sum_k w_k expm1(-mu r2_k), whose error shrinks with mu r2
    where the gap's signed weights cancel.  The coefficients come from the
    cosine sum, each angle k (2j + 1) pi / 2m reduced mod 2 pi in integers,
    which keeps their roundoff near eps instead of k eps.  The series is
    chopped after its last coefficient not below tol = 4 eps max_k |c_k|
    (after Aurentz and Trefethen, ACM TOMS 43, 2017).  m starts at
    _TABLE_POINTS and doubles until the upper half of the coefficients lies
    below tol, so the kept series has reached roundoff; Clenshaw's
    recurrence (Clenshaw, 1955) then evaluates it at every entry of mu.  A
    rule the table has not resolved once m reaches its node count is summed
    directly, as is the one-node point mass of a simplex or a profile
    radius, which is exact and costs one exponential per entry.
    """
    if len(r2) > 1:
        c = _chebyshev_table(r2, w, mu_top)
        if c is not None:
            return _clenshaw(c, mu * (2.0 / mu_top) - 1.0)
    return _planar_sum(mu, r2, w)


def _lambda_top(d: int) -> float:
    """The largest lambda of a Laplace pass's full trapezoid grid, before its cut."""
    return 80.0 + 3.0 * d


def _laplace_rows(chain: ChainSpec, r2_max: float, h: float):
    """Nodes lambda and trapezoid weights of the rows a Laplace pass keeps.

    The nodes u = log lambda run down from log(80 + 3d) in steps h while
    above -60/p - 5, with weights h exp(p u - lambda xi_1^2 - lgamma(p)).
    Leading and trailing rows are dropped while the weight they carry
    together at that end stays below _LAPLACE_TOL/2 s_max^(-p), with
    s_max = xi_1^2 + sum_(i>=2) eta_i^2 + r2_max the largest s.  Every row's
    expectation lies in [-1, 1] and the density is at least
    xi_1 s_max^(-p), so the cut moves it by at most _LAPLACE_TOL relative.
    """
    d = chain.d
    p = 0.5 * d
    xi1 = chain.xi[0]
    u = np.arange(math.log(_lambda_top(d)), -60.0 / p - 5.0, -h)
    lam = np.exp(u)
    weight = h * np.exp(p * u - lam * (xi1 * xi1) - math.lgamma(p))
    s_max = xi1 * xi1 + np.sum(chain.eta_array[1:] ** 2) + r2_max
    budget = 0.5 * _LAPLACE_TOL * s_max**-p
    lo = int(np.searchsorted(np.cumsum(weight), budget))
    hi = len(u) - int(np.searchsorted(np.cumsum(weight[::-1]), budget))
    return lam[lo:hi], weight[lo:hi]


def _laplace_pass(chain: ChainSpec, planar, n: int, h: float):
    """One evaluation of xi_1 E[s^(-p)], p = d/2, over the ordered chain.

    With the Gamma identity s^(-p) = Gamma(p)^-1 int lambda^(p-1) e^(-lambda s)
    dlambda, lambda = e^u and the trapezoid rule of step h in u over
    [-60/p - 5, log(80 + 3d)], the value is

        xi_1 sum_u h exp(p u - lambda xi_1^2 - lgamma(p)) E[e^(-lambda (s - xi_1^2))].

    Only the rows that _laplace_rows keeps are summed, each a node of that
    full grid: both ends are cut where the dropped weight stays below
    _LAPLACE_TOL/2 s_max^(-p) per end, which moves the value by at most
    _LAPLACE_TOL relative (a gap's by at most _LAPLACE_TOL of sigma).

    The expectation factorises over the chain levels, which read top-down
    form a Markov chain: x_1 = 1 and x_(i+1) = x_i w, with w of density
    a w^(a-1) on [0, 1] and a = d - i, for the simplex levels 2..d and for
    the wedge levels 2..d-2 alike (the join t = x_(d-2) carries the weight
    t^2 that makes its step a = 3).  With c_i = eta_i^2, F_last(x) =
    e^(-lambda c_last x^2) M(lambda x^2) and each level up F_i =
    e^(-lambda c_i x^2) (A_(d-i) F_(i+1)), every F in [0, 1] on n
    Chebyshev nodes per lambda row (_averaging_operator); the expectation is
    (A_(d-1) F_2)(1).  planar is (r2, w), squared radii and normalised
    weights of M(mu) = sum_k w_k e^(-mu r2_k), tabulated by _planar_factor on
    [0, lambda_top], lambda_top the full grid's top node whether or not the
    cut keeps it, so a cut and an uncut pass share one table; a simplex's
    is the point mass (r2, w) = ([0], [1]) of _point_mass, M = 1.  The
    pass's operators are cached only if all of them fit in _OPERATOR_BYTES.
    Returns (value, kept lambda rows times nodes).
    """
    d = chain.d
    xi1 = chain.xi[0]
    lam, weight = _laplace_rows(chain, float(planar[0].max()), h)
    x = 0.5 * (1.0 + np.cos(_chebyshev_angles(n)))
    mu = np.outer(lam, x * x)
    c = chain.eta_array[1:] ** 2
    cached = len(c) * (n + 1) * n * 8 <= _OPERATOR_BYTES
    operator = _averaging_operator if cached else _build_operator
    f = np.exp(-c[-1] * mu)
    f *= _planar_factor(mu, *planar, _lambda_top(d))
    for i in range(len(c), 1, -1):
        f = f @ operator(n, d - i)[:n].T
        f *= np.exp(-c[i - 2] * mu)
    value = xi1 * float(weight @ (f @ operator(n, d - 1)[n]))
    return value, int(len(lam) * n)


def _refined(chain: ChainSpec, planar, ns: int, na: int, nr: int):
    """(value, error, cells): the pass at doubled resolution and its disagreement.

    planar(nr) gives the planar factor's (r2, w).  The error is at least
    16 eps of the value, the passes' own roundoff: a pass lies within 3.5 eps
    of the exact d = 2, 3 values, and passes at different resolutions spread
    by up to 8 eps at d = 6 and 8.
    """
    coarse, _ = _laplace_pass(chain, planar(nr), ns, 1.0 / na)
    fine, cells = _laplace_pass(chain, planar(2 * nr), 2 * ns, 0.5 / na)
    return fine, float(max(abs(fine - coarse), 16.0 * np.finfo(float).eps * abs(fine))), cells


def _point_mass(nr: int, r2: float = 0.0):
    """The planar rule of the point mass at squared radius r2, at any nr."""
    return np.full(1, r2), np.ones(1)


def _normalised_rule(domain, nr: int):
    """Squared radii and weights of the domain's radial rule, weights summing to 1."""
    r, w = domain.radial_rule(nr)
    return r * r, w / w.sum()


def quadrature_density(
    config: WedgeConfig,
    ns: int = _RESOLUTION[0],
    na: int = _RESOLUTION[1],
    nr: int = _RESOLUTION[2],
) -> DensityEstimate:
    """Laplace-Chebyshev quadrature of the same integral, as an independent oracle.

    Sums the Gamma identity's Laplace transform by the trapezoid rule in
    log lambda and carries each lambda through the chain levels by one
    Chebyshev averaging operator per level (_laplace_pass).  Runs at the
    requested resolution and once more at doubled resolution; the reported
    value is the second pass and stderr is their disagreement, at least
    16 eps of the value.  The resolutions must be integers >= 1:

    - ns: Chebyshev nodes per chain level;
    - na: trapezoid nodes per unit of log lambda, a step h = 1/na; the
      error falls geometrically, from 2e-2 at na = 1 to 4e-14 at na = 4
      (canonical wedge, d = 8), so any na >= 1 gives a usable value;
    - nr: cosine-substituted Gauss-Legendre nodes per radial breakpoint
      piece of a wedge's planar domain (PlanarDomain.radial_rule); a
      simplex's planar factor is the point mass at radius 0 at every nr.

    At the defaults the refinement error of the canonical configurations
    is below 5e-14 relative at every d <= 42 and 3e-11 at d = 64, where
    roundoff, not ns, sets it.  On a 2-core Intel Xeon (OpenBLAS, 2
    threads) a call takes 1.2 to 4.5 ms for a simplex and 1.5 to 5 ms for
    the canonical wedge or the sector wedge at d = 8..64 once its operators
    are cached (best of 7); building them adds 0.07 s at d = 8 and 0.47 s
    at d = 42 to the first call.  Every d >= 2 takes the same recursion,
    so at d = 2 and 3 the value is checked against, not taken from, the
    elementary closed forms.  n counts the second pass's kept lambda rows
    times its Chebyshev nodes.
    """
    for name, value in (("ns", ns), ("na", na), ("nr", nr)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if config.is_simplex:
        planar = _point_mass
    else:
        planar = functools.partial(_normalised_rule, config.domain)
    value, err, n_cells = _refined(config.chain, planar, ns, na, nr)
    return DensityEstimate(value=value, stderr=err, n=n_cells, seed=0, method="quadrature")


def quadrature_profile(chain: ChainSpec, radii) -> tuple[np.ndarray, np.ndarray]:
    """limiting_density_profile's densities by quadrature, as (values, refinement
    errors): quadrature_density's passes with the point mass at each radius."""
    rows = [_refined(chain, functools.partial(_point_mass, r2=x * x), *_RESOLUTION)[:2]
            for x in _profile_radii(chain, radii)]
    return tuple(np.array(rows).T)


def quadrature_gap(d: int) -> tuple[float, float]:
    """sigma_d - sigma_hat_d by quadrature, as (value, error).

    The gap is w_sector (sigma - lambda), and the triangle wedge's cone is
    the simplex cone, so it is the canonical wedge chain's recursion with
    the planar factor M_triangle - M_sector: the recursion is linear in
    F_last, so the difference comes out directly, with no cancellation
    between two densities.  Same passes as quadrature_density at its
    default resolution.

    The error is the larger of their disagreement and a floor for the
    planar factor's roundoff as the recursion carries it.  The recursion is
    linear and positive in F_last, so an error of at most e in M moves the
    value by at most e D0, D0 the chain's pass with M = 1, the point mass
    at radius 0.  The floor is 4 eps D0, e = 2 eps sum_k |w_k| with
    sum_k |w_k| = 2, while M itself cancels to a few percent of the
    weights.  The floor is empirical, not a bound: the table is held to the
    direct sum within 16 eps sum_k |w_k| per entry (7.5 at most measured),
    which would give 32 eps D0.  Replacing the table by the direct sum
    moved the gap by at most 0.34 of the floor at every d = 4..64
    (test_quadrature_gap_error_covers_planar_roundoff); the disagreement
    alone fell short of that move at 23 of those d, by up to 740 times at
    d = 53.  At d = 42 the move is 1.2e-12 relative and the floor 3.3e-11.
    """
    tri, sec = triangle_domain(d), sector_domain(d)
    chain = canonical_chain(d, d - 2)

    def planar(nr):
        (r2_t, w_t), (r2_s, w_s) = _normalised_rule(tri, nr), _normalised_rule(sec, nr)
        return np.concatenate([r2_t, r2_s]), np.concatenate([w_t, -w_s])

    value, err, _ = _refined(chain, planar, *_RESOLUTION)
    ones, _ = _laplace_pass(chain, _point_mass(1), _RESOLUTION[0], 1.0 / _RESOLUTION[1])
    err = max(err, 4.0 * np.finfo(float).eps * ones)
    w_sec = sec.area / (tri.area + sec.area)
    return w_sec * value, float(w_sec * err)


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
    tri, sec = triangle_domain(d), sector_domain(d)
    chain = canonical_chain(d, d - 2)
    w_tri = tri.area / (tri.area + sec.area)
    w_sec = 1.0 - w_tri
    planar = [_planar_series(tri, chain), _planar_series(sec, chain)]
    values, var, cov = _cone_estimate(chain, planar, n, seed)
    t_val, s_val = float(values[0]), float(values[1])
    se_t = math.sqrt(max(var[0], 0.0))
    se_s = math.sqrt(max(var[1], 0.0))
    var_diff = max(var[0] + var[1] - 2.0 * cov[0], 0.0)
    combo = w_tri * t_val + w_sec * s_val
    se_combo = math.sqrt(
        max(w_tri**2 * var[0] + w_sec**2 * var[1] + 2 * w_tri * w_sec * cov[0], 0.0)
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

