"""Command line interface: bound tables, proof checks, record comparison, plot data.

Subcommands
    bounds     per-dimension table of sigma, sigma_hat, lambda with cell bounds
    verify     run the inequality checks (all, or a named subset)
    records    compare a csv of record packing densities against the bounds
    plot-data  columnar data files for external plotting

Exit codes: 0 pass, 1 check failure, 2 usage or input error, 3 inconclusive
only.  Dimensions run from 2 (4 where a wedge is built) to D_MAX = 64, seeds
from 0 to 2^64 - 1.  Every output embeds the seed and sample count; numbers
carry nine significant digits.  The daniels and kl columns are asymptotic
reference curves, not certified finite-dimension bounds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

from . import __version__
from .density import improvement_gap, limiting_density_profile, simplex_density, voronoi_bounds
from .formulas import height_breakpoints, reference_bounds, sector_geometry, truncation_scalars
from .geometry import canonical_chain
from .streams import DEFAULT_SEED, spawn_key
from .verify import REGISTRY, run_checks

DEFAULT_SAMPLES = 10**6
D_MAX = 64


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _round9(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round9(v) for v in obj]
    return obj


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv(cols, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def _md(cols, rows) -> list[str]:
    """Lines of a markdown table; rows hold formatted cells."""
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join(["---"] * len(cols)) + "|"]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


def _check_dims(what: str, lo: int, **dims: int) -> None:
    """Raise ValueError unless lo <= the named dimensions <= D_MAX, in the
    given order.

    lo is 2 where only the simplex is built and 4 where a wedge is.  D_MAX
    is the range the tests cover and the quadrature oracle's stated errors
    stay small over (2.6e-11 relative for sigma at 64, 2.3e-8 at 80); the
    Monte-Carlo estimators' stratum edges build to d = 1030.
    """
    values = list(dims.values())
    if not all(a <= b for a, b in zip([lo, *values], [*values, D_MAX])):
        got = ", ".join(f"{k} = {v}" for k, v in dims.items())
        raise ValueError(f"{what} requires d >= {lo} and {' <= '.join(dims)} <= {D_MAX}; got {got}")


# ---------------------------------------------------------------------------
# bounds


def _bound_row(d, n, seed):
    """The bounds-table row of dimension d, from the paired gap keyed by (seed, d)."""
    gap = improvement_gap(d, n, spawn_key(seed, d))
    volume_lower, surface_lower = voronoi_bounds(d, gap.sigma_hat)
    ref = reference_bounds(d)
    return {
        "d": d,
        "sigma": {"value": gap.sigma.value, "stderr": gap.sigma.stderr},
        "sigma_hat": {"value": gap.sigma_hat.value, "stderr": gap.sigma_hat.stderr},
        "lambda": {"value": gap.lam.value, "stderr": gap.lam.stderr},
        "volume_lower": volume_lower,
        "surface_lower": surface_lower,
        "daniels": ref.daniels,
        "kl": ref.kl,
        "ball_lower": ref.ball_lower,
        "_gap": gap.gap,
        "_gap_stderr": gap.gap_stderr,
        "_improved": bool(d >= 8 and gap.gap > 3.0 * gap.gap_stderr),
    }


def _bounds_rows(d_min, d_max, n, seed):
    return [_bound_row(d, n, seed) for d in range(d_min, d_max + 1)]


def _bounds_json(rows, meta) -> str:
    clean = []
    for r in rows:
        clean.append({k: v for k, v in r.items() if not k.startswith("_")})
    doc = {"meta": meta, "rows": clean}
    return json.dumps(_round9(doc), indent=2) + "\n"


_BOUNDS_COLS = [
    "d", "sigma", "sigma_stderr", "sigma_hat", "sigma_hat_stderr",
    "lambda", "lambda_stderr", "volume_lower", "surface_lower",
    "daniels_asymptotic", "kl_asymptotic", "ball_lower", "improved",
]


def _bounds_flat(row):
    return [
        str(row["d"]),
        _fmt(row["sigma"]["value"]), _fmt(row["sigma"]["stderr"]),
        _fmt(row["sigma_hat"]["value"]), _fmt(row["sigma_hat"]["stderr"]),
        _fmt(row["lambda"]["value"]), _fmt(row["lambda"]["stderr"]),
        _fmt(row["volume_lower"]), _fmt(row["surface_lower"]),
        _fmt(row["daniels"]), _fmt(row["kl"]), _fmt(row["ball_lower"]),
        "yes" if row["_improved"] else "no",
    ]


def cmd_bounds(args) -> int:
    _check_dims("bounds", 4, dmin=args.dmin, dmax=args.dmax)
    if args.samples < 10**4:
        raise ValueError("bounds requires at least 1e4 samples")
    rows = _bounds_rows(args.dmin, args.dmax, args.samples, args.seed)
    meta = {"seed": args.seed, "n": args.samples, "version": __version__}
    flat = [_bounds_flat(r) for r in rows]
    if args.format == "json":
        text = _bounds_json(rows, meta)
    elif args.format == "csv":
        text = _csv(_BOUNDS_COLS, flat)
    else:
        lines = [
            f"Ball packing density bounds (n={meta['n']}, seed={meta['seed']}, "
            f"version {meta['version']})",
            "",
            *_md(_BOUNDS_COLS, flat),
            "",
            "daniels_asymptotic and kl_asymptotic are asymptotic reference curves, "
            "not certified bounds at finite d; 'improved' flags sigma_hat below "
            "sigma by more than three standard errors of the paired gap.",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.d is not None:
        _check_dims("verify", 4, d=args.d)
    results = run_checks(args.checks, d=args.d, grid=args.grid, seed=args.seed)
    for r in results:
        print(f"[{r.status:>12s}] {r.name}: {r.summary}", file=sys.stderr)
    report = {
        "meta": {"seed": args.seed, "version": __version__},
        "checks": [r.to_dict() for r in results],
    }
    _emit(json.dumps(_round9(report), indent=2) + "\n", args.out)
    if any(r.status == "fail" for r in results):
        return 1
    if any(r.status == "inconclusive" for r in results):
        return 3
    return 0


# ---------------------------------------------------------------------------
# records


CONTEXT_SOURCE = "other upper bound"


def bundled_records_path() -> str:
    return str(resources.files("packbounds").joinpath("data/records.csv"))


def _parse_records(path):
    rows = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return rows
        if [h.strip() for h in header] != ["d", "density", "name", "source"]:
            raise ValueError("line 1: header must be 'd,density,name,source'")
        seen = set()
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(rec)}")
            try:
                d = int(rec[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad dimension {rec[0]!r}") from None
            try:
                density = float(rec[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad density {rec[1]!r}") from None
            if not (0.0 < density <= 1.0):
                raise ValueError(f"line {lineno}: density {density} outside (0, 1]")
            if d < 2:
                raise ValueError(f"line {lineno}: dimension {d} below 2")
            key = (d, rec[2])
            if key in seen:
                raise ValueError(f"line {lineno}: duplicate row for {key}")
            seen.add(key)
            rows.append({"d": d, "density": density, "name": rec[2], "source": rec[3]})
    return rows


def cmd_records(args) -> int:
    _check_dims("records", 2, dmin=args.dmin, dmax=args.dmax)
    path = args.file or bundled_records_path()
    try:
        records = _parse_records(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"malformed records file: {exc}") from None
    bounds = {}
    for d in sorted({r["d"] for r in records}):
        if not (args.dmin <= d <= args.dmax):
            continue
        # the wedge bound is proven for d >= 8 only; below that sigma holds
        if d >= 8:
            bounds[d] = ("sigma_hat", _bound_row(d, args.samples, args.seed)["sigma_hat"])
        else:
            est = simplex_density(d, args.samples, spawn_key(args.seed, d))
            bounds[d] = ("sigma", {"value": est.value, "stderr": est.stderr})
    out_rows = []
    any_inconsistent = False
    for r in records:
        bound, kind, status = "", "", ""
        if r["d"] in bounds:
            kind, est = bounds[r["d"]]
            bound = _fmt(est["value"])
            if r["source"].strip() == CONTEXT_SOURCE:
                status = "context"
            elif r["density"] <= est["value"] + 3.0 * est["stderr"]:
                status = "consistent"
            else:
                status = "inconsistent"
                any_inconsistent = True
        out_rows.append(
            [str(r["d"]), _fmt(r["density"]), r["name"], r["source"], bound, kind, status]
        )
    cols = ["d", "density", "name", "source", "bound", "bound_kind", "status"]
    if args.format == "csv":
        text = _csv(cols, out_rows)
    else:
        text = "\n".join(_md(cols, out_rows)) + "\n"
    _emit(text, args.out)
    return 1 if any_inconsistent else 0


# ---------------------------------------------------------------------------
# plot data


def _tsv(header, rows) -> str:
    lines = ["#" + "\t".join(header)]
    for row in rows:
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def cmd_plot_data(args) -> int:
    kind = args.kind
    d = 8 if args.d is None else args.d
    if kind in ("sigma_vs_d", "gap_vs_d"):
        _check_dims(kind, 2 if kind == "sigma_vs_d" else 4, dmin=args.dmin, dmax=args.dmax)
    else:
        _check_dims(kind, 4, d=d)
    if kind == "sigma_vs_d":
        rows = []
        for d in range(args.dmin, args.dmax + 1):
            est = simplex_density(d, args.samples, spawn_key(args.seed, d))
            ref = reference_bounds(d)
            rows.append([str(d), _fmt(est.value), _fmt(est.stderr),
                         _fmt(ref.daniels), _fmt(ref.kl), _fmt(ref.ball_lower)])
        text = _tsv(
            ["d", "sigma", "sigma_stderr",
             "daniels_asymptotic", "kl_asymptotic", "ball_lower"],
            rows,
        )
    elif kind == "gap_vs_d":
        rows = [
            [str(r["d"]), _fmt(r["sigma"]["value"]), _fmt(r["sigma_hat"]["value"]),
             _fmt(r["_gap"]), _fmt(r["_gap_stderr"])]
            for r in _bounds_rows(args.dmin, args.dmax, args.samples, args.seed)
        ]
        text = _tsv(["d", "sigma", "sigma_hat", "gap", "gap_stderr"], rows)
    elif kind == "dlim_profile":
        chain = canonical_chain(d, d - 2)
        radii = [2.0 * sector_geometry(d).radius * k / 23.0 for k in range(24)]
        prof = limiting_density_profile(chain, radii, args.samples, args.seed)
        rows = []
        ok = True
        prev = math.inf
        for j, (r, se) in enumerate(zip(radii, prof.stderr())):
            v = float(prof.values[j])
            ok = ok and (v <= prev + 3.0 * (prof.diff_stderr(j - 1, j) if j else 0.0))
            prev = v
            rows.append([_fmt(r), _fmt(v), _fmt(float(se)), "1" if ok else "0"])
        text = _tsv(["r", "estimate", "stderr", "nonincreasing"], rows)
    else:  # g_ratio; argparse's choices admit no other kind
        lo, mid, _ = height_breakpoints(d)
        rows = []
        for k in range(200):
            h = lo + (mid - lo) * k / 200.0
            g0, g = truncation_scalars(d, h)
            rows.append([_fmt(h), _fmt(g0), _fmt(g), _fmt(g0 / g)])
        text = _tsv(["h", "g0", "g", "ratio"], rows)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packbounds",
        description="Ball packing density bounds: tables, proof checks, plot data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dmin=None, dmax=None, samples_help=None):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="an integer in [0, 2^64)")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=samples_help)
        p.add_argument("--out", type=str, default=None, help="write output to FILE")
        if dmin is not None:
            p.add_argument("--dmin", type=int, default=dmin)
            p.add_argument("--dmax", type=int, default=dmax)

    p_bounds = sub.add_parser("bounds", help="per-dimension bound table")
    common(p_bounds, dmin=8, dmax=16)
    p_bounds.add_argument("--format", choices=["csv", "json", "md"], default="md")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run inequality checks")
    p_verify.add_argument("checks", nargs="*", metavar="CHECK",
                          help=f"subset of: {', '.join(sorted(REGISTRY))}")
    common(p_verify, samples_help="ignored: no check draws Monte-Carlo samples")
    p_verify.add_argument("--d", type=int, default=None,
                          help="dimension of every check that takes one "
                               "(default: each check's own)")
    p_verify.add_argument("--grid", type=int, default=None,
                          help="points of tilt-extremum's grid, at least 1000 (default: 100000)")
    p_verify.set_defaults(func=cmd_verify)

    p_records = sub.add_parser("records", help="compare record densities to the bounds")
    p_records.add_argument("file", nargs="?", default=None,
                           help="csv with header d,density,name,source "
                                "(default: the bundled example table)")
    common(p_records, dmin=2, dmax=16)
    p_records.add_argument("--format", choices=["csv", "md"], default="md")
    p_records.set_defaults(func=cmd_records)

    p_plot = sub.add_parser("plot-data", help="columnar data for plotting")
    p_plot.add_argument("kind", choices=["sigma_vs_d", "gap_vs_d", "dlim_profile", "g_ratio"])
    common(p_plot, dmin=8, dmax=16)
    p_plot.add_argument("--d", type=int, default=None)
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # spawn_key rejects the same seeds, but only once a check or row draws;
        # this rejects them before any work
        if not 0 <= args.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {args.seed}")
        # one stat before the work, so that output with nowhere to go fails at once;
        # _emit, the only writer, reports any other error
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"cannot write {args.out}: no such directory")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
