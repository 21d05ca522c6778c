"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

from spans import Spans, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = (".calls", ".draws", ".points", ".samples", ".cells",
         "verify.pass", "verify.fail", "verify.inconclusive")


def traced_pass(name, workdir):
    wl = WORKLOADS[name](7, workdir, small=True)
    spans = Spans()
    with instrument(spans):
        out = wl.body()
    attempted, failed, _ = wl.check(out, spans, 0)
    metrics = layer_metrics(spans)
    return {k: v for k, v in metrics.items() if k.endswith(EXACT)}, attempted


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, attempted = traced_pass(name, tmp_path)
    second, _ = traced_pass(name, tmp_path)
    assert attempted > 0
    assert first == second
    assert sum(first.values()) > 0


def test_instrument_restores_every_binding(tmp_path):
    from packbounds import cli, density, geometry, verify

    before = (cli.improvement_gap, density.substream, geometry.DiscPolygon.sample,
              dict(verify.REGISTRY), cli.main)
    with instrument(Spans()):
        assert cli.improvement_gap is not before[0]
        assert verify.REGISTRY["truncated-max"] is not before[3]["truncated-max"]
    after = (cli.improvement_gap, density.substream, geometry.DiscPolygon.sample,
             dict(verify.REGISTRY), cli.main)
    assert after == before


def test_parent_links_and_self_time():
    from packbounds import density

    spans = Spans()
    with instrument(spans):
        density.simplex_density(8, 4096, 1)
    names = [spans.names[k] for k in spans.name]
    outer = names.index("density.simplex_density")
    inner = names.index("density.surface_density")
    assert spans.parent[outer] == -1 and spans.parent[inner] == outer
    metrics = layer_metrics(spans)
    assert metrics["density.mc.samples"] == 4096
    assert 0.0 < metrics["density.mc.self_s"] <= metrics["density.surface_density.s"]


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = list(layer_metrics(Spans())) + ["run.cpu_s", "trace.overhead_s",
                                             "gap_wnv", "quad_refine_err"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
