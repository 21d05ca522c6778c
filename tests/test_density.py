import dataclasses
import math
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    direct_chain_grid_pass,
    direct_chain_mass_grid,
    direct_chain_moment,
    direct_planar_factor,
    full_covariance,
    low_dim_quad,
    planar_corner_density,
    sample_base,
    sampled_planar_estimate,
    tetrahedron_corner_density,
)
from packbounds import density as dn
from packbounds import formulas as fm
from packbounds import geometry as geo
from packbounds import streams
from packbounds import verify as vf
from packbounds.streams import spawn_key

SEED = 97531


def combined(a, b):
    return math.hypot(a.stderr, b.stderr)


def _serial_chunks(chain, planar, n, seed):
    """Every chunk (labels, g) that _cone_estimate reduces, drawn serially, in
    (block, chunk) order, with g's blocks of rows joined."""
    kernel = dn._cone_kernel(chain, planar)
    for rng, size in dn._blocks(n, seed):
        for labels, columns in dn._chunks(kernel, rng, size):
            yield labels, np.concatenate(list(columns))


# ---------------------------------------------------------------------------
# anchors


def test_planar_anchor():
    # 1D integral oracle for the d=2 value
    from scipy.integrate import quad

    oracle, _ = quad(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0 / math.sqrt(3.0))
    oracle *= math.sqrt(3.0)
    assert oracle == pytest.approx(math.pi / (2.0 * math.sqrt(3.0)), abs=1e-12)
    assert oracle == pytest.approx(planar_corner_density(), abs=1e-12)
    est = dn.simplex_density(2, 200_000, SEED)
    assert abs(est.value - oracle) <= 3.0 * est.stderr


def test_spatial_anchor():
    oracle = tetrahedron_corner_density()
    assert oracle == pytest.approx(0.7796356, abs=1e-7)
    est = dn.simplex_density(3, 200_000, SEED + 1)
    assert abs(est.value - oracle) <= 3.0 * est.stderr


def test_closed_forms():
    assert dn.closed_form_simplex_density(2).value == pytest.approx(
        0.9068997, abs=1e-7
    )
    assert dn.closed_form_simplex_density(3).value == pytest.approx(
        tetrahedron_corner_density(), abs=1e-15
    )
    assert dn.closed_form_simplex_density(3).method == "closed_form"
    with pytest.raises(ValueError):
        dn.closed_form_simplex_density(4)


def test_anchor_failure_rate_binomial():
    # 20 independent seeds per anchor; at three standard errors the expected
    # miss count is 20 * 2 * 0.0027, so three misses are already suspicious
    misses = 0
    for k in range(20):
        for d, oracle in ((2, planar_corner_density()), (3, tetrahedron_corner_density())):
            est = dn.simplex_density(d, 100_000, 1000 + k)
            if abs(est.value - oracle) > 3.0 * est.stderr:
                misses += 1
    assert misses <= 2


# ---------------------------------------------------------------------------
# estimator mechanics


def test_determinism_bit_identical():
    a = dn.wedge_density(8, 50_000, 42)
    b = dn.wedge_density(8, 50_000, 42)
    assert a.value == b.value and a.stderr == b.stderr
    c = dn.wedge_density(8, 50_000, 43)
    assert c.value != a.value


def test_substream_deterministic_and_distinct():
    from packbounds.streams import substream

    keys = [(SEED,), (SEED, 0), (SEED, 1), (SEED + 1, 0), (SEED, 0, 0), (SEED, 0, 1)]
    draws = [substream(*key).random(64) for key in keys]
    for key, x in zip(keys, draws):
        assert np.array_equal(substream(*key).random(64), x)
    for i in range(len(keys)):
        for j in range(i):
            assert not np.any(draws[i] == draws[j]), (keys[i], keys[j])


@pytest.mark.parametrize("simplex", [True, False], ids=["simplex", "wedge"])
@pytest.mark.parametrize("d", [4, 5, 8, 24, 42, 64])
def test_contracted_chain_norm_matches_coordinates(d, simplex):
    # the estimators never form the chain coordinates; build them here from
    # the same draw, level by level, and sum xi_1^2 + sum_i eta_i^2 coord_i^2
    from packbounds.streams import substream

    chain = (geo.canonical_simplex(d) if simplex else geo.canonical_wedge(d)).chain
    xi1 = 1.25  # away from the canonical 1, so the xi_1 term is tested too
    v = geo._ordered_chain(d, 4096, substream(SEED, d))
    coord = np.empty((len(v), chain.k - 1))
    for level in range(2, chain.k + 1):
        coord[:, level - 2] = v[:, d - level]
    if not simplex:
        # the join parameter is the third smallest uniform, at level d - 2
        assert np.array_equal(coord[:, -1], v[:, 2])
    eta2 = chain.eta_array[1:] ** 2
    expected = xi1 * xi1 + (coord * coord) @ eta2
    s = dn._chain_norm2(xi1, dn._chain_weights(chain), v)
    np.testing.assert_allclose(s, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["simplex", "wedge"])
@pytest.mark.parametrize("d", range(4, 65))
def test_stratum_edges_match_beta_quantile(d, kind):
    # the lead is the r-th smallest of d - 1 uniforms, a Beta(r, d - r) law
    from scipy.special import betaincinv

    r = d - 1 if kind == "simplex" else 3
    edges = dn._stratum_edges(d, r)
    expected = betaincinv(float(r), float(d - r), np.arange(1, 16) / 16)
    assert edges.shape == (15,)
    assert np.max(np.abs(edges - expected)) <= 1e-13
    assert np.all(np.diff(edges) > 0.0)


@pytest.mark.parametrize("kind", ["simplex", "wedge"])
@pytest.mark.parametrize("d", [5, 8, 42])
def test_post_stratum_counts_are_uniform(d, kind):
    # the strata are equal-probability, so the counts of one large draw
    # pass a chi-square test at the 0.999 level with 15 degrees of freedom
    from scipy.stats import chi2

    cfg = geo.canonical_simplex(d) if kind == "simplex" else geo.canonical_wedge(d)
    planar = [(0.0, [1.0]) if cfg.is_simplex else dn._planar_series(cfg.domain, cfg.chain)]
    n = 400_000
    counts = np.zeros(16)
    for labels, _ in _serial_chunks(cfg.chain, planar, n, SEED + d):
        counts += np.bincount(labels, minlength=16)
    assert counts.sum() == n
    stat = float(np.sum((counts - n / 16) ** 2 / (n / 16)))
    assert stat < chi2.ppf(0.999, 15)


@pytest.mark.parametrize("n", [2, 3, 17, 255])
def test_small_n_takes_the_plain_mean(n):
    # below 16 samples per stratum the estimate is the plain mean with the
    # (n - 1) covariance, whatever the strata's counts; the simplex and the
    # wedge share the estimator, the simplex as the point mass at radius 0
    for cfg in (geo.canonical_simplex(8), geo.canonical_wedge(8)):
        planar = [(0.0, [1.0]) if cfg.is_simplex else dn._planar_series(cfg.domain, cfg.chain)]
        rows = np.concatenate([g[0] for _, g in _serial_chunks(cfg.chain, planar, n, SEED)])
        assert len(rows) == n
        est = dn.surface_density(cfg, n, SEED)
        assert est.value == pytest.approx(rows.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(rows.std(ddof=1) / math.sqrt(n), rel=1e-9)
        assert math.isfinite(est.stderr) and est.stderr > 0.0
        assert dn.surface_density(cfg, n, SEED) == est


@pytest.mark.parametrize(
    "d,r",
    [(d, d - 1) for d in range(2, 65)] + [(d, 3) for d in range(4, 65)] + [(1000, 999), (1000, 3)],
)
def test_stratum_table_labels_match_searchsorted(d, r):
    # the lookup table's label is the binary search's wherever no cell holds
    # two edges, which _CELLS cells give for every lead the estimators use at
    # d <= 64 (simplex r = d - 1, wedge r = 3); at d = 1000 the cells double.
    # Checked at every edge and one ulp either side, at every cell boundary
    # and one ulp below it, and at random leads
    edges = dn._stratum_edges(d, r)
    table = dn._stratum_table(d, r)
    cells, lo, _ = table
    assert np.diff(lo, append=len(edges)).max() <= 1
    assert cells == dn._CELLS == 4096 if d <= 64 else cells > dn._CELLS
    bounds = np.arange(cells) / cells
    t = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        bounds, np.nextafter(bounds[1:], 0.0), np.random.default_rng(d * 65 + r).random(4096),
    ])
    assert np.array_equal(dn._strata(table, t), np.searchsorted(edges, t))


def _worker_cases():
    """Estimates that must not depend on the worker count, each as comparable values."""

    def profile(radii):
        p = dn.limiting_density_profile(geo.canonical_chain(8, 6), np.linspace(0.0, 0.3, radii),
                                        50_000, SEED, weights=np.arange(1.0, radii + 1))
        return p.values.tobytes(), p.var.tobytes(), p.adjacent_cov.tobytes(), p.mean_functional()

    return {
        # n % 16 != 0 and two chunks in every block
        "gap42": lambda: dataclasses.astuple(dn.improvement_gap(42, 600_001, SEED)),
        "simplex": lambda: dn.simplex_density(24, 100_003, SEED),
        "wedge": lambda: dn.wedge_density(24, 100_003, SEED),
        "profile": lambda: profile(24),
        # wider than _ROWS, so each chunk's band spans two blocks of rows
        "profile200": lambda: profile(200),
        "small_n": lambda: (dn.wedge_density(8, 200, SEED), dn.simplex_density(8, 17, SEED)),
    }


@pytest.mark.threading
@pytest.mark.parametrize("case", list(_worker_cases()))
def test_estimates_are_bitwise_the_same_for_every_worker_count(case):
    results = []
    for workers in (1, 2, 3):
        with mock.patch.object(dn, "_workers", return_value=workers):
            results.append(_worker_cases()[case]())
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.threading
def test_gap42_worker_case_takes_two_chunks_per_block():
    chain = geo.canonical_chain(42, 40)
    _, chunk = dn._cone_kernel(chain, [dn._planar_series(geo.triangle_domain(42), chain)] * 2)
    assert 600_001 % 16 != 0
    assert chunk < 600_001 // 16 <= 2 * chunk


@pytest.mark.threading
def test_partials_are_added_as_they_come_in_order():
    # a 200-radius profile at n = 5e4 has one chunk per block; on one worker
    # each chunk's partial is added before the next is drawn, so no more than
    # two of its bands are ever alive, not one per chunk
    alive, most = [0], [0]
    partial = dn._partial

    def counted(labels, g):
        out = partial(labels, g)
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(out[2], lambda: alive.__setitem__(0, alive[0] - 1))
        return out

    chain = geo.canonical_chain(8, 6)
    with mock.patch.object(dn, "_workers", return_value=1), \
            mock.patch.object(dn, "_partial", counted):
        dn.limiting_density_profile(chain, np.linspace(0.0, 0.3, 200), 50_000, SEED)
    assert alive[0] == 0
    assert most[0] <= 2


@pytest.mark.threading
def test_more_workers_than_cores_under_fast_switching():
    # the partials are added in (block, chunk) order whichever thread drew
    # them, so sixteen threads switching every microsecond still give the
    # one-worker result bit for bit
    with mock.patch.object(dn, "_workers", return_value=1):
        expected = dn.improvement_gap(24, 40_000, SEED)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(dn, "_workers", return_value=16):
            got = dn.improvement_gap(24, 40_000, SEED)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def _public_code():
    """Code objects of every public function and method of the instrumented modules."""
    code = set()
    for mod in (dn, geo, fm, streams):
        for name in mod.__all__:
            obj = getattr(mod, name)
            for fn in vars(obj).values() if isinstance(obj, type) else [obj]:
                fn = getattr(fn, "fget", fn)  # property
                fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                fn = getattr(fn, "__wrapped__", fn)  # lru_cache
                if hasattr(fn, "__code__"):
                    code.add(fn.__code__)
    return code


@pytest.mark.threading
def test_helper_threads_call_nothing_public():
    # the benchmark's spans wrap public functions around one shared call
    # stack, so the helper threads may run the private kernel only, and the
    # substreams are opened on the calling thread
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((threading.get_ident(), frame.f_code))

    with mock.patch.object(dn, "_workers", return_value=3):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            dn.improvement_gap(24, 20_000, SEED)
            dn.simplex_density(8, 20_000, SEED)
            dn.wedge_density(8, 20_000, SEED)
            dn.limiting_density_profile(geo.canonical_chain(8, 6), [0.0, 0.1], 20_000, SEED)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    caller = threading.get_ident()
    on_caller = {code for ident, code in calls if ident == caller}
    on_helpers = {code for ident, code in calls if ident != caller}
    assert geo._ordered_chain.__code__ in on_helpers
    assert streams.substream.__code__ in on_caller
    assert streams.substream.__code__ not in on_helpers
    assert not on_helpers & _public_code()


@pytest.mark.threading
@pytest.mark.parametrize("where", ["helper", "caller"])
def test_worker_exception_propagates_and_no_thread_outlives_it(where):
    caller = threading.get_ident()
    draw = dn._ordered_chain

    def failing(d, m, rng):
        if (threading.get_ident() == caller) == (where == "caller"):
            raise RuntimeError(f"draw failed on the {where}")
        return draw(d, m, rng)

    before = threading.active_count()
    with mock.patch.object(dn, "_workers", return_value=3), \
            mock.patch.object(dn, "_ordered_chain", failing):
        with pytest.raises(RuntimeError, match=f"on the {where}"):
            dn.wedge_density(8, 10_000, SEED)
    assert threading.active_count() == before


@pytest.mark.threading
def test_helper_exception_after_a_finished_block_reaches_the_caller():
    # on 3 workers each helper hands in its first block, then fails drawing
    # its second (one chunk per block); the calling thread sleeps on each
    # draw, so the helpers claim second blocks before it can take them all.
    # It must re-raise the failure, not wait on the failed block, so the
    # estimate runs on a daemon thread joined with a timeout
    config = geo.canonical_wedge(8)
    _, chunk = dn._cone_kernel(config.chain, [dn._planar_series(config.domain, config.chain)])
    assert chunk >= -(-10_000 // 16)
    draw = dn._ordered_chain
    draws, outcome = {}, []

    def failing(d, m, rng):
        # keyed by Thread object, since a finished helper's ident may be reused
        me = threading.current_thread()
        if me is not runner:
            draws[me] = draws.get(me, 0) + 1
            if draws[me] == 2:
                raise RuntimeError("second block failed")
        else:
            time.sleep(0.01)
        return draw(d, m, rng)

    def run():
        try:
            dn.wedge_density(8, 10_000, SEED)
        except RuntimeError as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    before = threading.active_count()
    with mock.patch.object(dn, "_workers", return_value=3), \
            mock.patch.object(dn, "_ordered_chain", failing):
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the helper's exception never reached the calling thread"
    assert [str(exc) for exc in outcome] == ["second block failed"]
    assert max(draws.values()) <= 2
    assert threading.active_count() == before


@pytest.mark.threading
def test_helper_stops_drawing_once_the_estimate_has_failed():
    # the calling thread fails on its first chunk; the helper must find the
    # failure in the estimate's failure list before its next chunk and
    # return, not draw the 16 blocks of 2 chunks before it is joined
    config = geo.canonical_simplex(8)
    _, chunk = dn._cone_kernel(config.chain, [(0.0, [1.0])])
    assert chunk < 4_000_000 // 16 <= 2 * chunk
    caller = threading.get_ident()
    draw = dn._ordered_chain
    helper_draws = []

    def failing(d, m, rng):
        if threading.get_ident() == caller:
            raise RuntimeError("draw failed on the caller")
        helper_draws.append(m)
        return draw(d, m, rng)

    before = threading.active_count()
    with mock.patch.object(dn, "_workers", return_value=2), \
            mock.patch.object(dn, "_ordered_chain", failing):
        with pytest.raises(RuntimeError, match="on the caller"):
            dn.simplex_density(8, 4_000_000, 1)
    assert threading.active_count() == before
    assert 1 <= len(helper_draws) <= 4


@pytest.mark.threading
def test_a_stalled_thread_does_not_hold_its_blocks():
    # on 2 workers a helper that sleeps on every draw keeps only the block it
    # is drawing: the calling thread claims the others (one chunk each at
    # n = 2e4), and the result is still the one-worker result bit for bit
    caller = threading.get_ident()
    draw = dn._ordered_chain
    caller_draws = []

    def stalling(d, m, rng):
        if threading.get_ident() == caller:
            caller_draws.append(m)
        else:
            time.sleep(0.2)
        return draw(d, m, rng)

    with mock.patch.object(dn, "_workers", return_value=1):
        expected = dn.simplex_density(8, 20_000, SEED)
    with mock.patch.object(dn, "_workers", return_value=2), \
            mock.patch.object(dn, "_ordered_chain", stalling):
        got = dn.simplex_density(8, 20_000, SEED)
    assert len(caller_draws) >= 12
    assert got == expected


@pytest.mark.threading
def test_keyboard_interrupt_on_the_calling_thread_stops_every_helper():
    # an interrupt raised in the calling thread's first draw propagates once
    # the helpers are joined, and each helper, with 2 chunks in every block,
    # begins at most one draw after it
    config = geo.canonical_simplex(8)
    _, chunk = dn._cone_kernel(config.chain, [(0.0, [1.0])])
    assert chunk < 4_000_000 // 16 <= 2 * chunk
    caller = threading.get_ident()
    draw = dn._ordered_chain
    interrupted = threading.Event()
    further = {}

    def interrupting(d, m, rng):
        me = threading.current_thread()
        if threading.get_ident() == caller:
            interrupted.set()
            raise KeyboardInterrupt
        if interrupted.is_set():
            further[me] = further.get(me, 0) + 1
        return draw(d, m, rng)

    before = threading.active_count()
    with mock.patch.object(dn, "_workers", return_value=3), \
            mock.patch.object(dn, "_ordered_chain", interrupting):
        with pytest.raises(KeyboardInterrupt):
            dn.simplex_density(8, 4_000_000, 1)
    assert threading.active_count() == before
    assert all(count <= 1 for count in further.values())


def _pinned_paths():
    """Fixed-seed Monte-Carlo paths, each returning a flat list of floats."""
    lo, mid, _ = fm.height_breakpoints(8)
    square = geo.truncated_wedge(8, lo + 0.3 * (mid - lo), "disc_cap_square")
    poly = geo.WedgeConfig(
        geo.canonical_chain(8, 6),
        geo.DiscPolygon(0.3, [(0.25, 0.0), (0.1, 0.3), (-0.25, 0.2), (-0.2, -0.25), (0.15, -0.28)]),
    )

    def surface(cfg, seed):
        est = dn.surface_density(cfg, 4000, seed)
        return [est.value, est.stderr]

    def gap(d):
        g = dn.improvement_gap(d, 4000, 203)
        return [g.sigma.value, g.sigma.stderr, g.lam.value, g.lam.stderr, g.gap, g.gap_stderr]

    def profile():
        p = dn.limiting_density_profile(geo.canonical_chain(8, 6), [0.0, 0.05, 0.2], 4000, 204)
        return [*p.values, *p.stderr(), p.diff_stderr(1, 2)]

    def base_digest(cfg):
        pts = sample_base(cfg, np.random.default_rng(205), 1000)
        return [*pts.sum(axis=0), float((pts * pts).sum())]

    return {
        "simplex": lambda: surface(geo.canonical_simplex(8), 201),
        "wedge": lambda: surface(geo.canonical_wedge(8), 201),
        "sector": lambda: surface(geo.sector_wedge(8), 201),
        "disc_cap_square": lambda: surface(square, 202),
        "disc_cap_polygon": lambda: surface(poly, 202),
        "profile": profile,
        "gap5": lambda: gap(5),
        "gap24": lambda: gap(24),
        "base_simplex": lambda: base_digest(geo.canonical_simplex(8)),
        "base_wedge": lambda: base_digest(geo.canonical_wedge(8)),
    }


# every pin was re-recorded when the chain draw became one sorted block of
# d - 1 uniforms, post-stratified on its lead, in place of a stratified
# inverse-CDF lead and a sorted tail, and again when the wedge's triangle,
# sector and union became disc-capped triangles on a Newton-polished radial
# rule (CHANGES.md lists the old and new values, within 3 se).  Three
# cancelling combinations, the profile's difference stderr, gap5's gap
# stderr and gap24's gap, were re-recorded at roundoff when the estimator's
# contractions left BLAS for einsum; the profile's difference stderr, now of
# an adjacent pair, and the gap stderrs were re-recorded again when the
# reducer kept only the band of variances and adjacent covariances.  1e-12
# relative leaves room for the summation order only
_PINNED = {
    "simplex": [0.25699775792204577, 0.0006465580072702997],
    "wedge": [0.2561857691528328, 0.0012711948168404618],
    "sector": [0.2553514454484536, 0.0012677904607865508],
    "disc_cap_square": [0.2554320975755491, 0.0012485767558130692],
    "disc_cap_polygon": [0.25507032666488105, 0.0012471781390377737],
    "profile": [
        0.2568289551221934, 0.25656764279105426, 0.2527111280683544,
        0.0012373231000118985, 0.001236261510691739, 0.001220632366092142,
        2.0739813376509763e-05,
    ],
    "gap5": [
        0.5248035181245055, 0.001205380421153057,
        0.5173789387700986, 0.0011925041754320981,
        0.0012657097144211412, 2.8387895566758942e-06,
    ],
    "gap24": [
        0.00249019196519094, 2.7602419278148663e-05,
        0.0024898393015789183, 2.759900207827904e-05,
        1.4122239493329769e-08, 1.8940008515252572e-10,
    ],
    "base_simplex": [
        1000.0, 506.2728085006854, 305.52237162146173, 196.74456749514385,
        128.11581703696515, 80.40606667861408, 46.66561467855722, 21.102243730422686,
        1428.585885719664,
    ],
    "base_wedge": [
        1000.0, 506.2728085006854, 305.52237162146173, 196.74456749514385,
        128.11581703696515, 80.40606667861408, 45.28758345246584, 22.87683277488786,
        1428.5918444250292,
    ],
}


def test_fixed_seed_values_pinned():
    paths = _pinned_paths()
    assert set(paths) == set(_PINNED)
    for name, run in paths.items():
        np.testing.assert_allclose(run(), _PINNED[name], rtol=1e-12, atol=0.0, err_msg=name)


def test_density_in_unit_interval_and_integrand_bounds():
    for d in (2, 5, 9, 16):
        est = dn.simplex_density(d, 20_000, SEED + d)
        assert 0.0 < est.value < 1.0
    # canonical integrand range pins the density between the extremes
    d = 8
    lo = (2.0 * d / (d + 1)) ** (-0.5 * d)
    est = dn.simplex_density(d, 50_000, SEED)
    assert lo < est.value < 1.0


def test_stderr_scales_like_inverse_sqrt_n():
    ns = [10**4, 10**5, 10**6]
    slopes = []
    for seed in range(3):
        ses = [dn.simplex_density(8, n, 500 + seed).stderr for n in ns]
        fit = np.polyfit(np.log(ns), np.log(ses), 1)
        slopes.append(fit[0])
    assert np.mean(slopes) == pytest.approx(-0.5, abs=0.05)


def test_surface_density_rejects_bad_n():
    with pytest.raises(ValueError):
        dn.simplex_density(8, 0, SEED)
    with pytest.raises(ValueError):
        dn.simplex_density(8, 1, SEED)  # one sample has no error estimate
    # the constructors' own messages: ChainSpec's for the simplex, the wedge
    # domains' for the rest, which are built before the wedge chain
    for d in (-1, 0, 1):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            dn.simplex_density(d, 100, SEED)
    for d in (-1, 0, 2, 3):
        for estimate in (dn.wedge_density, dn.sector_density, dn.improvement_gap):
            with pytest.raises(ValueError, match="d >= 4"):
                estimate(d, 100, SEED)
        for build in (dn.quadrature_gap, geo.canonical_wedge, geo.sector_wedge):
            with pytest.raises(ValueError, match="d >= 4"):
                build(d)


def _reference_configs():
    lo, mid, _ = fm.height_breakpoints(8)
    h = lo + 0.3 * (mid - lo)
    poly = geo.DiscPolygon(
        0.3, [(0.25, 0.0), (0.1, 0.3), (-0.25, 0.2), (-0.2, -0.25), (0.15, -0.28)]
    )
    return {
        "wedge": geo.canonical_wedge(8),
        "sector": geo.sector_wedge(8),
        "disc_cap_square": geo.truncated_wedge(8, h, "disc_cap_square"),
        "disc": geo.truncated_wedge(8, h, "disc"),
        "disc_cap_polygon": geo.WedgeConfig(geo.canonical_chain(8, 6), poly),
    }


@pytest.mark.parametrize("name", list(_reference_configs()))
def test_conditional_estimator_matches_sampled_planar(name):
    # one seed for both: at this n each block is one chunk, so both draw
    # the same chain samples and differ by the planar part alone, which
    # makes the combined-se band conservative but keeps the five cases from
    # sharing one chain-noise deviation
    cfg = _reference_configs()[name]
    n = 200_000
    est = dn.surface_density(cfg, n, SEED + 90)
    value, cov = sampled_planar_estimate(cfg.chain, [cfg.domain], n, SEED + 90)
    se = math.hypot(est.stderr, math.sqrt(cov[0, 0]))
    assert abs(est.value - value[0]) <= 4.0 * se


@pytest.mark.parametrize("d", [8, 24])
def test_conditional_gap_matches_sampled_planar(d):
    n = 200_000
    g = dn.improvement_gap(d, n, SEED + 92)
    tri, sec = geo.triangle_domain(d), geo.sector_domain(d)
    w_sec = sec.area / (tri.area + sec.area)
    value, cov = sampled_planar_estimate(geo.canonical_chain(d, d - 2), [tri, sec], n, SEED + 93)
    ref = w_sec * (value[0] - value[1])
    ref_se = w_sec * math.sqrt(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])
    # conditioning removes the planar variance, so the error bar only shrinks
    assert g.gap_stderr < ref_se
    assert abs(g.gap - ref) <= 4.0 * math.hypot(g.gap_stderr, ref_se)


def test_gap_stderr_matches_two_pass_variance_d64():
    # at d = 64 the gap's variance is a small difference of two nearly equal
    # column variances, so the one-pass pooled sums must still resolve it:
    # compare with a centred two-pass variance of the per-sample difference
    # column within each post-stratum
    d, n, seed = 64, 200_000, SEED + 94
    g = dn.improvement_gap(d, n, seed)
    chain = geo.canonical_chain(d, d - 2)
    tri, sec = geo.triangle_domain(d), geo.sector_domain(d)
    planar = [dn._planar_series(tri, chain), dn._planar_series(sec, chain)]
    chunks = list(_serial_chunks(chain, planar, n, seed))
    labels = np.concatenate([lab for lab, _ in chunks])
    diff = np.concatenate([rows[0] - rows[1] for _, rows in chunks])
    within = 0.0
    for k in range(16):
        x = diff[labels == k]
        dev = x - x.mean()
        within += float(dev @ dev)
    w_sec = sec.area / (tri.area + sec.area)
    two_pass = w_sec * math.sqrt(within / ((n - 16) * n))
    assert abs(g.gap_stderr - two_pass) <= 1e-4 * two_pass


# ---------------------------------------------------------------------------
# identities across configurations


def test_triangle_wedge_reproduces_simplex_density():
    # the cone over the lifted triangle is the canonical simplex cone
    d = 8
    tri_cfg = geo.WedgeConfig(geo.canonical_chain(d, d - 2), geo.triangle_domain(d))
    a = dn.surface_density(tri_cfg, 400_000, SEED + 5)
    b = dn.simplex_density(d, 400_000, SEED + 6)
    assert abs(a.value - b.value) <= 3.0 * combined(a, b)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_combination_identity(d):
    n = 400_000
    sig = dn.simplex_density(d, n, SEED + 10 + d)
    lam = dn.sector_density(d, n, SEED + 20 + d)
    hat = dn.wedge_density(d, n, SEED + 30 + d)
    tri = geo.triangle_domain(d)
    sec = geo.sector_domain(d)
    mix = (tri.area * sig.value + sec.area * lam.value) / (tri.area + sec.area)
    se = math.sqrt(
        (tri.area / (tri.area + sec.area) * sig.stderr) ** 2
        + (sec.area / (tri.area + sec.area) * lam.stderr) ** 2
        + hat.stderr**2
    )
    assert abs(hat.value - mix) <= 3.0 * se


def test_improvement_gap_consistency():
    g = dn.improvement_gap(8, 400_000, SEED + 40)
    # the paired sigma agrees with the independent simplex estimate
    ind = dn.simplex_density(8, 400_000, SEED + 41)
    assert abs(g.sigma.value - ind.value) <= 3.0 * combined(g.sigma, ind)
    # the combination equals the independent wedge estimate
    hat = dn.wedge_density(8, 400_000, SEED + 42)
    assert abs(g.sigma_hat.value - hat.value) <= 3.0 * combined(g.sigma_hat, hat)
    # internal identity is exact
    tri = geo.triangle_domain(8)
    sec = geo.sector_domain(8)
    w_tri = tri.area / (tri.area + sec.area)
    assert g.sigma_hat.value == pytest.approx(
        w_tri * g.sigma.value + (1 - w_tri) * g.lam.value, abs=1e-15
    )
    assert g.gap == pytest.approx(g.sigma.value - g.sigma_hat.value, abs=1e-15)
    assert g.gap > 0 and g.gap_stderr < g.sigma.stderr


def test_ordering_below_threshold_recorded_not_asserted():
    # below d = 8 the gaps are measured and reported, whatever their sign
    g = dn.improvement_gap(5, 100_000, SEED + 50)
    assert math.isfinite(g.gap) and g.gap_stderr > 0


# ---------------------------------------------------------------------------
# limiting density


def test_limiting_density_profile_monotone_and_bounded():
    chain = geo.canonical_chain(8, 6)
    radii = np.linspace(0.0, 0.5, 6)
    prof = dn.limiting_density_profile(chain, radii, 200_000, SEED + 62)
    assert np.all(prof.values < 1.0) and np.all(prof.values > 0.0)
    for i in range(5):
        drop = prof.values[i] - prof.values[i + 1]
        assert drop >= -3.0 * prof.diff_stderr(i, i + 1)
    # pointwise integrand is below one, so the value at the chain endpoint too
    at_zero = prof.values[0]
    assert at_zero < 1.0


def test_limiting_density_validation():
    chain = geo.canonical_chain(8, 6)
    with pytest.raises(ValueError):
        dn.limiting_density_profile(geo.canonical_chain(8, 8), [0.1], 1000, 1)
    with pytest.raises(ValueError):
        dn.limiting_density_profile(chain, [-0.1], 1000, 1)
    # a NaN radius would give NaN +- NaN and an infinite one 0 +- 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            dn.limiting_density_profile(chain, [0.1, bad], 1000, 1)


def test_quadrature_profile_is_linear_in_the_planar_rule():
    # the recursion is linear in the planar factor, so the radial rule's
    # weighted sum of point-mass profiles is the wedge's own quadrature
    r2, w = dn._normalised_rule(geo.wedge_domain(8), 16)
    values, errors = dn.quadrature_profile(geo.canonical_chain(8, 6), np.sqrt(r2))
    hat = dn.quadrature_density(geo.canonical_wedge(8))
    assert abs(w @ values - hat.value) <= w @ errors + hat.stderr


def test_quadrature_profile_matches_monte_carlo():
    # at profile-monotone's six radii, with the command's seed fixed in advance
    from packbounds.streams import DEFAULT_SEED

    chain = geo.canonical_chain(8, 6)
    radii = np.linspace(0.0, 2.0 * fm.sector_geometry(8).radius, 6)
    values, errors = dn.quadrature_profile(chain, radii)
    assert np.all(errors <= 1e-14 * values)
    prof = dn.limiting_density_profile(chain, radii, 2 * 10**5, DEFAULT_SEED)
    assert np.all(np.abs(prof.values - values) <= 3.0 * prof.stderr())


@pytest.mark.parametrize(
    "k,radii",
    [(8, [0.1]), (1, [0.1]), (6, [-0.1]), (6, []), (6, [[0.1]]), (6, [0.1, math.nan]),
     (6, [0.1, math.inf])],
)
def test_quadrature_profile_validation_matches_monte_carlo(k, radii):
    d = 3 if k == 1 else 8
    chain = geo.canonical_chain(d, k)
    with pytest.raises(ValueError) as mc:
        dn.limiting_density_profile(chain, radii, 1000, 1)
    with pytest.raises(ValueError) as quad:
        dn.quadrature_profile(chain, radii)
    assert str(quad.value) == str(mc.value)


def test_profile_mean_reproduces_wedge_density():
    # area-weighted average of the limiting profile over the base domain
    d = 8
    chain = geo.canonical_chain(d, d - 2)
    dom = geo.wedge_domain(d)
    nodes = np.linspace(0.0, dom.max_radius, 200)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    weights = dom.radial_mass(mids) * np.diff(nodes)
    prof = dn.limiting_density_profile(chain, mids, 300_000, SEED + 63, weights=weights)
    mean, se = prof.mean_functional()
    hat = dn.wedge_density(d, 300_000, SEED + 64)
    assert abs(mean - hat.value) <= 3.0 * math.hypot(se, hat.stderr) + 1e-5


def test_profile_mean_rejects_bad_weights():
    # weights summing to 0 gave (nan, nan); a wrong length, a non-finite
    # weight or a negative sum has no mean either
    chain = geo.canonical_chain(8, 6)
    radii = [0.0, 0.1, 0.2]
    for weights in ([1, -1, 0], [-1, 0, 0], [1, 1], [[1, 1, 1]], [1, math.nan, 1], [1, math.inf, 1]):
        with pytest.raises(ValueError, match="^weights must"):
            dn.limiting_density_profile(chain, radii, 1000, 1, weights=weights)
    with pytest.raises(ValueError, match="no weights"):
        dn.limiting_density_profile(chain, radii, 1000, 1).mean_functional()
    prof = dn.limiting_density_profile(chain, radii, 1000, 1, weights=[1, 0, 1])
    mean, se = prof.mean_functional()
    assert mean == pytest.approx(0.5 * (prof.values[0] + prof.values[2]), rel=1e-12)
    assert 0.0 < se < prof.stderr().max()


@pytest.mark.parametrize("width", [5, 2 * dn._ROWS + 3])
def test_profile_band_matches_the_full_covariance(width):
    # the band and the declared functional's variance are the diagonal, the
    # first superdiagonal and w^T C w of the pooled covariance C formed from
    # every chunk's full Gram matrix; the wide case spans three blocks of rows
    chain = geo.canonical_chain(8, 6)
    radii = np.linspace(0.0, 0.3, width)
    weights = np.random.default_rng(width).random(width)
    n = 40_003
    prof = dn.limiting_density_profile(chain, radii, n, SEED, weights=weights)
    planar = [(float(x * x), [1.0]) for x in radii]
    values, cov = full_covariance(_serial_chunks(chain, planar, n, SEED), n, len(radii))
    np.testing.assert_allclose(prof.values, values, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(prof.var, np.diag(cov), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(prof.adjacent_cov, np.diag(cov, 1), rtol=1e-12, atol=0.0)
    w = weights / weights.sum()
    mean, se = prof.mean_functional()
    assert mean == pytest.approx(w @ values, rel=1e-12)
    assert se**2 == pytest.approx(w @ cov @ w, rel=1e-12)


def test_profile_diff_stderr_takes_adjacent_radii_only():
    prof = dn.limiting_density_profile(geo.canonical_chain(8, 6), [0.0, 0.1, 0.2], 1000, 1)
    assert prof.diff_stderr(1, 0) == prof.diff_stderr(0, 1) > 0.0
    for i, j in ((-1, 0), (0, -1), (2, 3), (3, 2), (0, 2), (1, 1)):
        with pytest.raises(ValueError, match="adjacent"):
            prof.diff_stderr(i, j)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_anchors():
    # d = 2 and 3 run the same chain recursion as every other d, so the
    # closed forms check it rather than replace it
    for d in (2, 3):
        q = dn.quadrature_density(geo.canonical_simplex(d))
        exact = dn.closed_form_simplex_density(d).value
        assert abs(q.value - exact) <= 1e-13 * exact, d
        assert q.stderr <= 1e-13 * exact, d
        assert q.method == "quadrature" and q.n > 0


@pytest.mark.parametrize(
    "cfg_make,d",
    [(geo.canonical_simplex, 5), (geo.canonical_wedge, 5), (geo.canonical_wedge, 8),
     (geo.canonical_simplex, 16), (geo.canonical_wedge, 16),
     (geo.canonical_simplex, 24), (geo.canonical_wedge, 24)],
)
def test_quadrature_cross_oracle(cfg_make, d):
    # the quadrature's own error is near 1e-15, so the band is the MC's 3 se;
    # each case draws from its own keyed stream, so the simplex and wedge
    # cases of one d are independent
    q = dn.quadrature_density(cfg_make(d))
    m = dn.surface_density(cfg_make(d), 400_000,
                           spawn_key(SEED, d, cfg_make is geo.canonical_wedge))
    assert abs(q.value - m.value) <= 3.0 * math.hypot(q.stderr, m.stderr)


def assert_table_matches_direct(r2, w, d):
    # M against the direct exponential sum on two grids: 4000 points of the
    # pass's whole interval [0, lambda_top], and a grid shaped like a pass's,
    # mu = lambda x^2 on the fine pass's Chebyshev nodes with lambda rows
    # from 1e-3 to lambda_top.  A rule of more than one node takes the
    # Chebyshev table on every row, held within 16 eps sum_k |w_k| absolute:
    # its roundoff measured at most 7.5 of that over the canonical rules at
    # d = 4..64 and 120 truncated rules.  The one-node point mass is summed
    # directly
    top = dn._lambda_top(d)
    x = 0.5 * (1.0 + np.cos(dn._chebyshev_angles(96)))
    grids = (np.linspace(0.0, top, 4001)[:-1].reshape(40, 100),
             np.outer(np.geomspace(1e-3, top, 160), x * x))
    for mu in grids:
        with mock.patch.object(dn, "_clenshaw", wraps=dn._clenshaw) as clenshaw:
            got = dn._planar_factor(mu, r2, w, top)
        direct = direct_planar_factor(mu, r2, w)
        if len(r2) == 1:
            assert clenshaw.call_count == 0 and np.array_equal(got, direct)
            continue
        assert clenshaw.call_count == 1 and clenshaw.call_args.args[1].shape == mu.shape
        err = np.abs(got - direct).max()
        assert err <= 16 * np.finfo(float).eps * np.abs(w).sum()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["disc", "disc_cap_square", "disc_cap_polygon"]),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.sampled_from([64, 128]))
def test_planar_table_matches_direct_sum_truncated(shape, frac, seed, nr):
    d = 8
    lo, mid, hi = fm.height_breakpoints(d)
    if shape == "disc":
        dom = geo.truncation_domain(d, mid + frac * (hi - mid) * (1.0 - 1e-6), shape)
    else:
        h = lo + frac * (mid - lo) * (1.0 - 1e-9)
        quad = vf._random_admissible_quadrilateral(d, h, np.random.default_rng(seed))
        if shape == "disc_cap_square" or quad is None:
            dom = geo.truncation_domain(d, h, "disc_cap_square")
        else:
            dom = geo.truncation_domain(d, h, shape, vertices=quad)
    assert_table_matches_direct(*dn._normalised_rule(dom, nr), d)


@pytest.mark.parametrize("d", range(4, 65))
def test_planar_table_matches_direct_sum_canonical(d):
    tri, sec = geo.triangle_domain(d), geo.sector_domain(d)
    for nr in (64, 128):
        (r2_t, w_t), (r2_s, w_s) = dn._normalised_rule(tri, nr), dn._normalised_rule(sec, nr)
        assert_table_matches_direct(r2_t, w_t, d)
        assert_table_matches_direct(r2_s, w_s, d)
        # the gap's signed rule, whose values cancel to a few percent of its weights
        assert_table_matches_direct(np.concatenate([r2_t, r2_s]), np.concatenate([w_t, -w_s]), d)


def test_point_mass_planar_factor_is_the_direct_sum():
    # the point mass takes the direct sum, bit for bit, and no table: M = 1
    # for the simplex, and e^(-mu r^2) at a profile radius
    top = dn._lambda_top(8)
    mu = np.outer(np.geomspace(0.01, top, 300), np.linspace(0.0, 1.0, 96) ** 2)
    for r2, w in (dn._point_mass(64), dn._point_mass(64, r2=0.09)):
        with mock.patch.object(dn, "_chebyshev_table") as table, \
                mock.patch.object(dn, "_clenshaw") as clenshaw:
            got = dn._planar_factor(mu, r2, w, top)
        assert table.call_count == 0 and clenshaw.call_count == 0
        assert np.array_equal(got, direct_planar_factor(mu, r2, w))
    assert np.array_equal(dn._planar_factor(mu, *dn._point_mass(64), top), np.ones_like(mu))


@pytest.mark.parametrize(
    "cfg_make,d",
    [(geo.canonical_wedge, d) for d in range(4, 13)] + [(geo.sector_wedge, 8)],
)
def test_radial_series_matches_direct_contraction(cfg_make, d):
    # the Monte-Carlo estimator's radial-moment series and the quadrature's
    # radial rule, contracted term by term, give the same planar mean of
    # (s + t^2 r^2)^(-d/2) at every (chain norm, join) node of a 128 x 128 grid
    cfg = cfg_make(d)
    rho, coef = dn._planar_series(cfg.domain, cfg.chain)
    _, t, a = direct_chain_mass_grid(cfg, 128, 128)
    s = cfg.chain.xi[0] ** 2 + a[:, None]
    c = s + (t * t * rho)[None, :]
    series = c ** (-0.5 * d) * np.polynomial.polynomial.polyval((t * t * rho) / c, coef)
    r, w = cfg.domain.radial_rule(64)
    u = s[:, :, None] + np.multiply.outer(t * t, r * r)[None, :, :]
    direct = (u ** (-0.5 * d)) @ w / cfg.domain.area
    assert np.abs(series - direct).max() <= 1e-13 * np.abs(direct).max()
    assert np.all(np.abs(series - direct) <= 1e-13 * direct)


def inflated_chain_config(d):
    xi = tuple(fm.chain_floor(i) * 1.05 for i in range(1, d + 1))
    return geo.WedgeConfig(geo.ChainSpec(d=d, k=d, xi=xi))


@pytest.mark.parametrize(
    "cfg_make,d,ns,na",
    [(geo.canonical_simplex, d, 128, 128) for d in range(4, 13)]
    + [(geo.canonical_wedge, d, 128, 128) for d in range(4, 13)]
    + [
        (geo.sector_wedge, 8, 128, 128),
        (inflated_chain_config, 5, 128, 128),
        # 100 rows and 38 columns: a grid far from square
        (geo.canonical_wedge, 8, 100, 37),
        # offsets reach column na, so mass piles up in the last column
        (geo.canonical_simplex, 6, 50, 2),
    ],
)
def test_chain_mass_grid_matches_direct_propagation(cfg_make, d, ns, na):
    # the library's chain recursion with the point-mass planar factor M = 1
    # (the Chebyshev averaging operators alone) against the row-by-row propagated chain
    # mass, held within the grid's own refinement error: the grid is second
    # order, so its doubled pass lies closer to the true value than that
    cfg = cfg_make(d)
    W, _, _ = direct_chain_mass_grid(cfg, ns, na)
    assert (W >= 0.0).all()
    if na == 2:
        assert W[:, -1].sum() > 0.1 * W.sum()
    coarse = direct_chain_moment(cfg, ns, na)
    fine = direct_chain_moment(cfg, 2 * ns, 2 * na)
    value, err, _ = dn._refined(cfg.chain, dn._point_mass, *dn._RESOLUTION)
    assert err <= 1e-13 * value
    assert abs(value - fine) <= abs(fine - coarse)


def test_propagation_conserves_mass():
    # every level's averaging operator keeps a constant's mass, and maps
    # x^k to a/(a + k) x^k for k below the node count, at the default node
    # count and its doubling, for every a that d <= 64 uses; the bounds sit
    # above the Gauss-Legendre sum of a w^(a-1), which errs by up to 54 eps
    # (n = 96, a = 61), and every row inherits that error
    for n in (48, 96):
        x = np.append(0.5 * (1.0 + np.cos(dn._chebyshev_angles(n))), 1.0)
        for a in range(1, 64):
            op = dn._averaging_operator(n, a)
            assert op.shape == (n + 1, n)
            assert np.abs(op.sum(axis=1) - 1.0).max() <= 64 * np.finfo(float).eps, (n, a)
            k = np.arange(n)
            got = op @ x[:n, None] ** k
            want = x[:, None] ** k * (a / (a + k))
            assert np.abs(got - want).max() <= 2e-14, (n, a)


def test_operator_cache_is_bounded_by_bytes(monkeypatch):
    # with room for two operators of 65 x 64 doubles, a third evicts the
    # least recently used one, and rebuilt operators give the same values
    cfg = geo.canonical_wedge(6)
    before = dn.quadrature_density(cfg, ns=64).value
    monkeypatch.setattr(dn, "_operators", dn.OrderedDict())
    monkeypatch.setattr(dn, "_OPERATOR_BYTES", 2 * 65 * 64 * 8)
    first = dn._averaging_operator(64, 1)
    dn._averaging_operator(64, 2)
    dn._averaging_operator(64, 1)  # now the most recently used
    dn._averaging_operator(64, 3)
    assert list(dn._operators) == [(64, 1), (64, 3)]
    assert dn._averaging_operator(64, 1) is first
    assert sum(op.nbytes for op in dn._operators.values()) <= dn._OPERATOR_BYTES
    # each pass's three operators exceed the budget, so it builds them
    # uncached and leaves the cache as it was
    warm = list(dn._operators)
    assert dn.quadrature_density(cfg, ns=64).value == before
    assert list(dn._operators) == warm
    assert dn._averaging_operator(64, 1) is first


def test_oversized_pass_leaves_warm_operators(monkeypatch):
    # the budget holds the ns = 32 pass's three operators but not the
    # doubled pass's: the first stay cached and are reused by the next call,
    # the second are rebuilt each call, and the value never changes
    cfg = geo.canonical_wedge(6)
    before = dn.quadrature_density(cfg, ns=32).value
    monkeypatch.setattr(dn, "_operators", dn.OrderedDict())
    monkeypatch.setattr(dn, "_OPERATOR_BYTES", 3 * 33 * 32 * 8)
    assert dn.quadrature_density(cfg, ns=32).value == before
    warm = dict(dn._operators)
    assert list(warm) == [(32, 3), (32, 4), (32, 5)]
    assert dn.quadrature_density(cfg, ns=32).value == before
    assert list(dn._operators) == list(warm)
    assert all(dn._operators[key] is op for key, op in warm.items())


@pytest.mark.parametrize("d", range(8, 17))
def test_quadrature_within_grid_refinement(d):
    # the row-by-row grid converges at second order, so its doubled pass
    # lies within its own refinement error of the true value
    cfg = geo.canonical_wedge(d)
    coarse = direct_chain_grid_pass(cfg, 128, 128, 64)
    fine = direct_chain_grid_pass(cfg, 256, 256, 128)
    assert abs(dn.quadrature_density(cfg).value - fine) <= abs(fine - coarse)


@pytest.mark.parametrize("cfg_make", [geo.canonical_simplex, geo.canonical_wedge,
                                      geo.sector_wedge])
def test_quadrature_refinement_error_below_1e10(cfg_make):
    for d in range(4, 43):
        q = dn.quadrature_density(cfg_make(d))
        assert q.stderr <= 1e-10 * q.value, (d, q.value, q.stderr)


def test_triangle_wedge_equals_simplex():
    # the cone over the lifted triangle is the simplex cone, reached through
    # a different chain: levels 2..d-2 and the triangle's planar factor
    for d in range(4, 43):
        tri = geo.WedgeConfig(geo.canonical_chain(d, d - 2), geo.triangle_domain(d))
        wedge = dn.quadrature_density(tri).value
        simplex = dn.quadrature_density(geo.canonical_simplex(d)).value
        assert abs(wedge - simplex) <= 1e-13 * simplex, (d, wedge, simplex)


def test_laplace_cut_matches_full_range(monkeypatch):
    # _LAPLACE_TOL = 0 keeps every row of the trapezoid grid; the cut keeps
    # a contiguous run of its nodes, drops at most its stated budget of
    # weight at each end, and moves no value by more than roundoff
    dims = list(range(4, 43)) + [64]
    makes = (geo.canonical_simplex, geo.canonical_wedge, geo.sector_wedge)
    cut = {(make, d): dn.quadrature_density(make(d)) for make in makes for d in dims}
    gaps = {d: dn.quadrature_gap(d)[0] for d in dims if d >= 8}
    rows = {}
    for d in (8, 42, 64):
        cfg = geo.canonical_wedge(d)
        r2_max = dn._normalised_rule(cfg.domain, 128)[0].max()
        rows[d] = cfg.chain, r2_max, dn._laplace_rows(cfg.chain, r2_max, 1 / 16)
    monkeypatch.setattr(dn, "_LAPLACE_TOL", 0.0)
    for (make, d), q in cut.items():
        full = dn.quadrature_density(make(d))
        assert abs(q.value - full.value) <= 1e-15 * full.value, (make.__name__, d)
        assert q.n < full.n
    for d, gap in gaps.items():
        full = dn.quadrature_gap(d)[0]
        assert abs(gap - full) <= 1e-13 * full, d
    for d, (chain, r2_max, (lam, weight)) in rows.items():
        lam_full, weight_full = dn._laplace_rows(chain, r2_max, 1 / 16)
        lo = int(np.flatnonzero(lam_full == lam[0])[0])
        hi = lo + len(lam)
        assert np.array_equal(lam_full[lo:hi], lam) and np.array_equal(weight_full[lo:hi], weight)
        s_max = chain.xi[0] ** 2 + np.sum(chain.eta_array[1:] ** 2) + r2_max
        budget = 2.0**-61 * s_max ** (-0.5 * d)
        assert 0 < lo and hi < len(lam_full)
        assert weight_full[:lo].sum() < budget and weight_full[hi:].sum() < budget


def test_quadrature_gap_positive_and_resolved():
    for d in range(8, 43):
        gap, err = dn.quadrature_gap(d)
        assert gap > 0.0 and err < 0.01 * gap, (d, gap, err)
    with pytest.raises(ValueError, match="d >= 4"):
        dn.quadrature_gap(3)


def test_quadrature_gap_error_covers_planar_roundoff(monkeypatch):
    # the direct exponential sum in place of the planar factor's table
    # moves the gap by roundoff that the recursion amplifies; the stated
    # error covers that move at every d
    gaps = {d: dn.quadrature_gap(d) for d in range(4, 65)}
    monkeypatch.setattr(dn, "_planar_factor",
                        lambda mu, r2, w, top: direct_planar_factor(mu, r2, w))
    for d, (gap, err) in gaps.items():
        direct, _ = dn.quadrature_gap(d)
        assert abs(gap - direct) <= err, (d, gap, direct, err)
        assert err < 1e-9 * gap, d


@pytest.mark.parametrize("d", [8, 24, 42])
def test_quadrature_gap_matches_monte_carlo(d):
    gap, err = dn.quadrature_gap(d)
    mc = dn.improvement_gap(d, 10**6, SEED)
    assert abs(gap - mc.gap) <= 3.0 * math.hypot(err, mc.gap_stderr)


@pytest.mark.parametrize("p", [2, 3, 6])
@pytest.mark.parametrize("q", [Fraction(1, 100), Fraction(1, 8), Fraction(1, 2), Fraction(9, 10)])
def test_radial_series_term_count_bounds_tail(p, q):
    # at y = -q every term of sum_m C(-p, m) y^m is positive, so the exact
    # tail there is the largest any cell can leave; it must stay below the
    # tolerance relative to the smallest cell value, (1 + q)^-p
    n_terms = dn._series_terms(float(q), p)
    partial, binom = Fraction(0), Fraction(1)
    for m in range(n_terms):
        partial += binom * (-q) ** m
        binom *= Fraction(-p - m, m + 1)
    tail = (1 - q) ** -p - partial
    assert 0 < tail * (1 + q) ** p < Fraction(dn._SERIES_TOL)


def test_quadrature_guard_and_tolerance():
    bad = [("ns", 0), ("na", 0), ("nr", 0), ("ns", -4), ("ns", 2.5), ("na", 8.0), ("nr", "16"),
           ("nr", True)]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            dn.quadrature_density(geo.canonical_wedge(6), **{name: value})
    q = dn.quadrature_density(geo.canonical_wedge(6), ns=np.int64(32), na=1, nr=1)
    assert 0.0 < q.value < 1.0
    assert type(q.n) is int


def test_quadrature_errors_are_floats():
    # at d = 8 the wedge's error is the 16-eps floor, which numpy's eps makes a numpy scalar
    q = dn.quadrature_density(geo.canonical_wedge(8))
    assert q.stderr == 16.0 * np.finfo(float).eps * q.value
    assert type(q.value) is float and type(q.stderr) is float
    gap, err = dn.quadrature_gap(8)
    assert type(gap) is float and type(err) is float


@pytest.mark.parametrize(
    "xi",
    [tuple(f * x for x in geo.canonical_chain(d, d).xi) for d in (2, 3) for f in (1.05, 1.2, 1.5)]
    # nearly coincident norms, where a closed form as a plain difference of
    # arctangents loses 2e-12 to cancellation
    + [(1.2247, 1.22472, 1.22475)],
)
def test_exact_anchor_against_adaptive_quadrature(xi):
    cfg = geo.WedgeConfig(geo.ChainSpec(d=len(xi), k=len(xi), xi=xi))
    oracle, _ = low_dim_quad(cfg)
    assert abs(dn.quadrature_density(cfg).value - oracle) <= 1e-13


def test_quadrature_handles_general_chain():
    # inflated chain, both oracles agree
    cfg = inflated_chain_config(5)
    q = dn.quadrature_density(cfg)
    m = dn.surface_density(cfg, 300_000, SEED + 70)
    assert abs(q.value - m.value) <= 3.0 * math.hypot(q.stderr, m.stderr)


# ---------------------------------------------------------------------------
# packing consequences


def test_voronoi_bounds_exact_planar_case():
    vol, surf = dn.voronoi_bounds(2, dn.closed_form_simplex_density(2))
    assert vol == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert surf == pytest.approx(2.0 * vol, abs=1e-12)


def test_voronoi_bounds_d8():
    est = dn.DensityEstimate(0.25, 0.0, 0, 0, "closed_form")
    vol, surf = dn.voronoi_bounds(8, est)
    assert vol == pytest.approx(fm.unit_ball_volume(8) / 0.25, rel=1e-12)
    assert surf == pytest.approx(8.0 * vol, rel=1e-12)
    smaller = dn.DensityEstimate(0.2, 0.0, 0, 0, "closed_form")
    vol2, _ = dn.voronoi_bounds(8, smaller)
    assert vol2 > vol
    with pytest.raises(ValueError):
        dn.voronoi_bounds(8, dn.DensityEstimate(0.0, 0.0, 0, 0, "closed_form"))


def test_density_estimate_validation():
    with pytest.raises(ValueError):
        dn.DensityEstimate(1.5, 0.0, 0, 0, "closed_form")
    with pytest.raises(ValueError):
        dn.DensityEstimate(0.5, -1.0, 0, 0, "closed_form")


@pytest.mark.parametrize("stderr", [math.nan, math.inf])
def test_density_estimate_rejects_nonfinite_stderr(stderr):
    with pytest.raises(ValueError):
        dn.DensityEstimate(0.5, stderr, 10, 0, "monte_carlo")


def test_import_loads_no_scipy():
    # the package itself never imports scipy; the tests' oracles do
    src = str(Path(dn.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import packbounds; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    src = str(Path(dn.__file__).resolve().parents[1])
    code = f"""
import sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
from packbounds import cli, density as dn, geometry as geo
for d in (2, 3):
    exact = dn.closed_form_simplex_density(d).value
    quad = dn.quadrature_density(geo.canonical_simplex(d)).value
    assert abs(quad - exact) <= 1e-13 * exact
assert cli.main(["bounds", "--dmin", "8", "--dmax", "9", "--samples", "10000",
                 "--out", {str(tmp_path / "b.md")!r}]) == 0
assert cli.main(["records", "--samples", "10000", "--out", {str(tmp_path / "r.md")!r}]) == 0
"""
    subprocess.run([sys.executable, "-c", code], check=True)
    assert "sigma_hat" in (tmp_path / "b.md").read_text()
    assert "consistent" in (tmp_path / "r.md").read_text()
