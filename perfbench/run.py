"""packbounds benchmark: end-to-end metrics of one workload, or one traced pass.

    python3 perfbench/run.py --workload bounds_table --seed 1 --seconds 30 --trace 0

Workloads: bounds_table, verify_suite, oracle_crosscheck (see DESIGN.md), or
``all`` to run the three in turn from one process.  With ``--trace 0`` the
body is repeated while another pass fits in ``--seconds`` and the medians are
reported; with ``--trace 1`` the body runs untraced, traced and untraced
again, and the per-layer metrics of the traced pass are reported.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and host facts are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Spans, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7

UNITS = {"setup_s": "s", "wall_s": "s", "op_max_s": "s", "peak_rss_mb": "MB",
         "gap_wnv": "s", "quad_refine_err": "1", "failed_frac": "1"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last.startswith("ns_per_"):
        return "ns"
    if last == "s" or last.endswith("_s") or name.startswith("density.gap_wnv."):
        return "s"
    if last == "accept_ratio":
        return "1"
    return "count"


def load_package():
    """Import packbounds from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "packbounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no packbounds sources under {src}")
    sys.path.insert(0, str(src))
    import packbounds

    if Path(packbounds.__file__).resolve().parent != (src / "packbounds").resolve():
        raise SystemExit(f"error: packbounds imported from {packbounds.__file__}, not {src}")


def blas_threads():
    """(library, thread count) of the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return Path(path).name, fn()
    return None, None


def host_facts() -> dict:
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = blas_threads()
    facts.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
    })
    return facts


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB.

    Read it before starting any child: a child forked from this process
    counts this process's resident set in its own peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def setup_time(workload: str, seed: int) -> list[float]:
    """Interpreter start to ready: import packbounds and build the inputs."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def one_pass(wl, spans, ops_only=None):
    """Run the body once inside ``instrument``; (output, wall s, cpu s, first span)."""
    lo = len(spans)
    with instrument(spans, ops_only):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = wl.body()
        except Exception:
            traceback.print_exc()
            out = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    return out, wall, cpu, lo


def judge(wl, out, spans, lo):
    if out is None:
        return wl.n_ops, wl.n_ops, {}
    return wl.check(out, spans, lo)


def slowest_op(op_times, walls) -> float:
    """The largest over operations of each operation's median time across passes.

    A pass runs the same operations in the same order; taking the median per
    operation first keeps a burst of load on one pass from setting the figure.
    """
    if any(len(t) != len(op_times[0]) for t in op_times) or not len(op_times[0]):
        return statistics.median(walls)
    return float(np.median(np.vstack(op_times), axis=0).max())


def run_e2e(wl, seconds: float):
    """Repeat the body while another pass fits in ``seconds``; medians of the passes."""
    spans = Spans()
    walls, op_times, extras = [], [], []
    attempted = failed = 0
    peak = None
    start = time.perf_counter()
    while True:
        out, wall, _, lo = one_pass(wl, spans, ops_only=wl.ops)
        if peak is None:
            peak = peak_rss_mb()
        op_times.append(spans.durations(lo))
        a, f, extra = judge(wl, out, spans, lo)
        attempted += a
        failed += f
        extras.append(extra)
        walls.append(wall)
        if time.perf_counter() - start + wall > seconds:
            break
    wall_s = statistics.median(walls)
    metrics = {"wall_s": wall_s, "op_max_s": slowest_op(op_times, walls), "peak_rss_mb": peak}
    terms = extras[-1].get("gap_wnv_terms")
    if terms:
        metrics["gap_wnv"] = statistics.fmean(terms) * wall_s
    if "quad_refine_err" in extras[-1]:
        metrics["quad_refine_err"] = extras[-1]["quad_refine_err"]
    detail = f"median of {len(walls)} passes, min {min(walls):.3f} s, max {max(walls):.3f} s"
    return metrics, attempted, failed, detail


def run_traced(wl, name: str):
    """Untraced, traced, untraced: per-layer metrics of the traced pass.

    The first pass pays the process's first-call costs (the allocator grows
    its heap on the first large arrays), so the traced pass is compared with
    the untraced pass that follows it.
    """
    attempted = failed = 0
    passes = []
    for traced in (False, True, False):
        spans = Spans()
        out, wall, cpu, lo = one_pass(wl, spans, ops_only=None if traced else wl.ops)
        a, f, extra = judge(wl, out, spans, lo)
        attempted += a
        failed += f
        passes.append((spans, wall, cpu, extra))
    spans, wall_t, _, _ = passes[1]
    _, wall_u, cpu_u, extra = passes[2]
    spans.write_tsv(OUT / f"spans-{name}.tsv")
    metrics = layer_metrics(spans)
    metrics["run.cpu_s"] = cpu_u
    metrics["trace.overhead_s"] = wall_t - wall_u
    terms = extra.get("gap_wnv_terms")
    metrics["gap_wnv"] = statistics.fmean(terms) * wall_u if terms else 0.0
    metrics["quad_refine_err"] = extra.get("quad_refine_err", 0.0)
    detail = (f"untraced passes {passes[0][1]:.3f} s and {wall_u:.3f} s, "
              f"traced pass {wall_t:.3f} s, {len(spans)} spans")
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of: {', '.join(WORKLOADS)}, all")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        WORKLOADS[names[0]](args.seed, OUT)
        print("ready", flush=True)
        return 0

    host = host_facts()
    print("host " + json.dumps(host))
    results = {}
    total_attempted = total_failed = 0
    for name in names:
        wl = WORKLOADS[name](args.seed, OUT)
        if args.trace:
            metrics, attempted, failed, detail = run_traced(wl, name)
        else:
            metrics, attempted, failed, detail = run_e2e(wl, args.seconds)
        results[name] = (metrics, attempted, failed, detail)
        total_attempted += attempted
        total_failed += failed
    if not args.trace:
        # probes run after every body, so the bodies' peak RSS excludes them
        for name in names:
            times = setup_time(name, args.seed)
            results[name][0]["setup_s"] = statistics.median(times)

    for name, (metrics, attempted, failed, detail) in results.items():
        metrics["failed_frac"] = failed / attempted
        print(f"{name}: {detail}; {failed} of {attempted} operations failed")
        for key in sorted(metrics):
            print(f"{name}: {key} = {metrics[key]:.9g} {unit_of(key)}")
    print("note: no layer queues work, so time waiting does not apply "
          "and no waiting metric is reported")
    if len(names) > 1:
        print("note: in one process the peak RSS of later workloads includes earlier ones")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    reported = {}
    for name, (metrics, *_) in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        reported.update({prefix + k: {"value": metrics[k], "unit": unit_of(k)} for k in listed})
    result = {
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": reported,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "seed": args.seed, "seconds": args.seconds, **result}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
