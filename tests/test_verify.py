import functools
import json
import math
from unittest import mock

import numpy as np
import pytest

from packbounds import formulas as fm
from packbounds import verify as vf


def test_registry_complete():
    expected = {
        "floor-recursion",
        "tilt-extremum",
        "pair-separation",
        "reach-bound",
        "radius-ratio",
        "profile-monotone",
        "truncation-gain",
        "truncated-max",
        "square-cap-monotone",
        "chain-inflation",
    }
    assert set(vf.REGISTRY) == expected


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check 'bogus-name'"):
        vf.run_check("bogus-name")


def test_floor_recursion_check():
    r = vf.check_floor_recursion(i_max=100)
    assert r.passed
    assert r.witness["max_deviation"] < 1e-13


@pytest.mark.parametrize("d", [4, 8, 42])
def test_tilt_extremum_check(d):
    r = vf.check_tilt_extremum(d=d, grid=20_000)
    assert r.passed
    assert r.witness["cos_deviation"] <= 1e-8


def test_pair_separation_check_threshold():
    r8 = vf.check_pair_separation(d=8, grid=120)
    assert r8.passed
    r7 = vf.check_pair_separation(d=7, grid=120)
    assert r7.passed
    assert "expected-outside-domain" in r7.witness["notes"]
    assert r7.witness["corner_value"] > 4.0
    r4 = vf.check_pair_separation(d=4, grid=120)
    assert r4.passed  # partial slopes nonnegative already from d = 4


def test_reach_bound_check():
    r = vf.check_reach_bound(d_max=500)
    assert r.passed
    # the witness and the summary name the largest value's d, read from the values
    assert r.witness["at_d"] == 3 and r.witness["max_value"] == fm.reach_bound(3)
    assert r.summary.endswith(f"(max {fm.reach_bound(3):.7f} at d=3)")
    # d = 3 alone compares no pair, so "decreasing" passed having decided nothing
    with pytest.raises(ValueError, match="^d_max must be >= 4$"):
        vf.check_reach_bound(d_max=3)


@pytest.mark.parametrize("d", [8, 12])
def test_radius_ratio_check(d):
    r = vf.check_radius_ratio(d=d, grid=800)
    assert r.passed
    assert abs(r.witness["left_ratio"] - r.witness["left_expected"]) < 1e-9


def test_profile_monotone_check():
    r = vf.check_profile_monotone(d=8)
    assert r.passed
    assert r.witness["method"] == "quadrature"
    vals = r.witness["values"]
    assert len(vals) == 6


@pytest.mark.parametrize("name,grid,least", [("pair-separation", 1, 2), ("pair-separation", 0, 2),
                                             ("radius-ratio", 2, 3)])
def test_grid_checks_reject_too_few_points(name, grid, least):
    # pair-separation's one-point grid is tilt 0 alone, which passed without
    # reaching the corner; radius-ratio's two points leave no slope at all
    with pytest.raises(ValueError, match=f"^grid must be >= {least}$"):
        vf.run_check(name, grid=grid)
    r = vf.run_check(name, grid=least)
    assert r.passed and r.witness["grid"] == least


@pytest.mark.parametrize("name,key,least", [("reach-bound", "d_max", 4)])
@pytest.mark.parametrize("size", [0, 1])
def test_sweep_checks_reject_too_few_points(name, key, least, size):
    # a sweep ending below d = 4 compares no pair of dimensions, so it would decide nothing
    with pytest.raises(ValueError, match=f"^{key} must be >= {least}$"):
        vf.run_check(name, **{key: size})
    assert vf.run_check(name, **{key: least}).passed


def test_truncation_gain_check():
    r = vf.check_truncation_gain(d=8)
    assert r.passed
    assert [p["pair"] for p in r.witness["pairs"]] == ["square-2g0", "quadrilateral"]


def test_truncated_max_check_small():
    r = vf.check_truncated_max(d=8, trials=6)
    assert r.passed
    assert r.witness["crossover_area_deviation"] < 1e-12
    with pytest.raises(ValueError):
        vf.check_truncated_max(d=7)
    # no trial checks nothing: it must not pass with a worst excess of -inf
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            vf.check_truncated_max(d=8, trials=trials)


def test_square_cap_check_small():
    r = vf.check_square_cap(d=8)
    assert r.passed
    assert r.witness["anchor_deviation"] <= 5e-3
    # square half-width at the lowest height is the clearance radius there
    assert r.witness["clearance_at_lo"] == pytest.approx(math.sqrt(7.0) / 14.0, abs=1e-12)
    with pytest.raises(ValueError):
        vf.check_square_cap(d=6)


def test_chain_inflation_check():
    r = vf.check_chain_inflation(d=5)
    assert r.passed
    cases = {c["case"]: c for c in r.witness["cases"]}
    assert cases["uniform-1.1"]["separation"] > 0


def test_density_checks_oracle_matches_monte_carlo(monkeypatch):
    # every configuration the density checks hand the oracle, re-estimated by
    # Monte-Carlo at n = 1e5 from the default seed's keyed streams; one pooled
    # sum of z^2 against the chi-square 0.999 quantile, both fixed in advance
    from scipy.stats import chi2

    from packbounds.density import surface_density
    from packbounds.streams import DEFAULT_SEED, spawn_key

    seen = []
    oracle = vf.quadrature_density

    def recording(cfg):
        seen.append((cfg, oracle(cfg)))
        return seen[-1][1]

    monkeypatch.setattr(vf, "quadrature_density", recording)
    vf.check_truncation_gain()
    vf.check_truncated_max(trials=3)
    vf.check_square_cap()
    vf.check_chain_inflation()
    z2 = []
    for k, (cfg, q) in enumerate(seen):
        m = surface_density(cfg, 10**5, spawn_key(DEFAULT_SEED, k))
        z2.append(((m.value - q.value) / math.hypot(m.stderr, q.stderr)) ** 2)
    assert len(z2) == 21
    assert sum(z2) <= chi2.ppf(0.999, len(z2))


def test_run_checks_filters_overrides():
    results = vf.run_checks(["floor-recursion", "reach-bound"], d_max=200, i_max=50)
    assert [r.name for r in results] == ["floor-recursion", "reach-bound"]
    assert all(r.passed for r in results)
    assert results[0].witness["i_max"] == 50
    assert results[1].witness["d_max"] == 200


def test_run_checks_matches_the_command(tmp_path, capsys):
    # one default seed: the library and the command draw the same configurations
    from packbounds.cli import _round9, main

    out = tmp_path / "verify.json"
    names = ["profile-monotone", "truncation-gain", "chain-inflation"]
    assert main(["verify", *names, "--out", str(out)]) == 0
    capsys.readouterr()
    records = [_round9(r.to_dict()) for r in vf.run_checks(names)]
    assert records == json.loads(out.read_text())["checks"]


def test_run_checks_rejects_d_before_running(monkeypatch):
    # the library path checks every selected check's d range up front, as
    # the command does, so no partial result is computed and then lost
    ran = []

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(**kwargs):
            ran.append(name)
            return fn(**kwargs)

        return wrapper

    for name, fn in list(vf.REGISTRY.items()):
        monkeypatch.setitem(vf.REGISTRY, name, recording(name, fn))
    with pytest.raises(ValueError, match=r"^d = 6 is outside the range of truncated-max "
                       r"\(d >= 8\), square-cap-monotone \(d >= 8\)$"):
        vf.run_checks(d=6, grid=1000)
    assert ran == []
    (r,) = vf.run_checks(["tilt-extremum"], d=6, grid=1000)
    assert ran == ["tilt-extremum"] and r.passed and r.witness["d"] == 6


def test_run_checks_rejects_an_unknown_name_before_running():
    # a bad name late in the list stops the run before the good ones ahead of it
    ran = []
    spies = {name: lambda name=name, **kw: ran.append(name) for name in vf.REGISTRY}
    with mock.patch.dict(vf.REGISTRY, spies):
        with pytest.raises(ValueError, match=r"^unknown check 'nope'; known checks: "
                           r"chain-inflation, floor-recursion, "):
            vf.run_checks(["floor-recursion", "reach-bound", "nope"])
    assert ran == []


@pytest.mark.parametrize(
    "diff,strict,status",
    [
        # violated beyond the error: fails, strict or not
        (np.nextafter(-1.0, -2.0), False, "fail"),
        (np.nextafter(-1.0, -2.0), True, "fail"),
        # within the error: passes when non-strict, undecided when strict
        (-1.0, False, "pass"),
        (-1.0, True, "inconclusive"),
        (0.0, True, "inconclusive"),
        (1.0, True, "inconclusive"),
        # beyond the error: passes
        (np.nextafter(1.0, 2.0), True, "pass"),
        (np.nextafter(1.0, 2.0), False, "pass"),
    ],
)
def test_decide_boundaries(diff, strict, status):
    assert vf._decide(diff, 1.0, strict=strict) == status


def test_check_results_serialize():
    r = vf.check_floor_recursion(i_max=10)
    doc = r.to_dict()
    assert doc["name"] == "floor-recursion"
    assert doc["status"] in ("pass", "fail", "inconclusive")
    json.dumps(doc)
