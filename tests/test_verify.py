import functools
import inspect
import json
import math
from unittest import mock

import numpy as np
import pytest

from packbounds import formulas as fm
from packbounds import geometry as geo
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
    r = vf.check_floor_recursion()
    assert r.passed
    assert r.witness["max_deviation"] < 1e-13


@pytest.mark.parametrize("d", [4, 8, 42])
def test_tilt_extremum_check(d):
    r = vf.check_tilt_extremum(d=d, grid=20_000)
    assert r.passed
    assert r.witness["cos_deviation"] <= 1e-8


def test_pair_separation_check_threshold():
    r8 = vf.check_pair_separation(d=8)
    assert r8.passed
    r7 = vf.check_pair_separation(d=7)
    assert r7.passed
    assert "expected-outside-domain" in r7.witness["notes"]
    assert r7.witness["corner_value"] > 4.0
    r4 = vf.check_pair_separation(d=4)
    assert r4.passed  # partial slopes nonnegative already from d = 4


def test_reach_bound_check():
    r = vf.check_reach_bound()
    assert r.passed
    # the witness and the summary name the largest value's d, read from the values
    assert r.witness["at_d"] == 3 and r.witness["max_value"] == fm.reach_bound(3)
    assert r.summary.endswith(f"(max {fm.reach_bound(3):.7f} at d=3)")


@pytest.mark.parametrize("d", [8, 12])
def test_radius_ratio_check(d):
    r = vf.check_radius_ratio(d=d)
    assert r.passed
    assert abs(r.witness["left_ratio"] - r.witness["left_expected"]) < 1e-9


def test_profile_monotone_check():
    r = vf.check_profile_monotone(d=8)
    assert r.passed
    assert r.witness["method"] == "quadrature"
    vals = r.witness["values"]
    assert len(vals) == 6


def test_truncation_gain_check():
    r = vf.check_truncation_gain(d=8)
    assert r.passed
    assert [p["pair"] for p in r.witness["pairs"]] == ["square-2g0", "quadrilateral"]


def test_truncated_max_check_small():
    r = vf.check_truncated_max(d=8)
    assert r.passed
    assert r.witness["crossover_area_deviation"] < 1e-12
    with pytest.raises(ValueError):
        vf.check_truncated_max(d=7)


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
    vf.check_truncated_max()
    vf.check_square_cap()
    vf.check_chain_inflation()
    z2 = []
    for k, (cfg, q) in enumerate(seen):
        m = surface_density(cfg, 10**5, spawn_key(DEFAULT_SEED, k))
        z2.append(((m.value - q.value) / math.hypot(m.stderr, q.stderr)) ** 2)
    assert len(z2) == 115
    assert sum(z2) <= chi2.ppf(0.999, len(z2))


def test_run_checks_filters_overrides():
    # each check takes the overrides it has a parameter for: d, grid (tilt-extremum
    # alone) and seed; floor-recursion takes none
    names = ["floor-recursion", "tilt-extremum", "pair-separation", "radius-ratio",
             "truncation-gain"]
    results = vf.run_checks(names, d=9, grid=2000, seed=5)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)
    assert results[0].witness["i_max"] == 100
    assert [r.witness["d"] for r in results[1:]] == [9, 9, 9, 9]
    assert [r.witness["grid"] for r in results[1:4]] == [2000, 200, 1000]
    assert results[4].to_dict() == vf.check_truncation_gain(d=9, seed=5).to_dict()


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
    r = vf.check_floor_recursion()
    doc = r.to_dict()
    assert doc["name"] == "floor-recursion"
    assert doc["status"] in ("pass", "fail", "inconclusive")
    json.dumps(doc)


def test_numpy_integers_stay_out_of_records():
    # every chain and every record holds Python ints, so a numpy-integer d or
    # seed serialises as the int does
    d = np.int64(8)
    lo = fm.height_breakpoints(8)[0]
    assert type(geo.canonical_wedge(d).chain.d) is int
    assert type(geo.truncated_wedge(d, lo).chain.d) is int
    takes_d = [n for n, fn in vf.REGISTRY.items() if "d" in inspect.signature(fn).parameters]
    assert len(takes_d) == 8
    for name in takes_d:
        r = vf.run_check(name, d=d, seed=np.int64(5))
        json.dumps(r.to_dict())
        assert type(r.witness["d"]) is int, name
        assert type(r.witness.get("seed", 0)) is int, name
        assert all(type(p["d"]) is int for p in r.witness.get("pairs", [])), name
