"""The three benchmark workloads: inputs from a seed, a timed body, and a check.

Every workload builds its inputs in the constructor (that is part of the
measured set-up time), runs them in ``body`` (the timed part) and judges the
body's output in ``check``, outside the timing.  ``ops`` names the spans that
are single operations: one table row, one verification check, one quadrature
configuration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from packbounds import cli, density, geometry
from packbounds.streams import spawn_key

from spans import CHECKS

# one sample count at every d: about 6 s per table on a 2-core Xeon
BOUNDS_SAMPLES = 5 * 10**4
# the oracle's Monte-Carlo reference, as in the acceptance cross-check
REFERENCE_SAMPLES = 2 * 10**5


class BoundsTable:
    """The headline table: ``packbounds bounds --dmin 8 --dmax 42`` as JSON."""

    name = "bounds_table"
    ops = frozenset({"density.improvement_gap"})

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.dims = range(8, 11) if small else range(8, 43)
        samples = 10**4 if small else BOUNDS_SAMPLES
        self.out = workdir / "bounds.json"
        self.argv = [
            "bounds", "--dmin", str(self.dims[0]), "--dmax", str(self.dims[-1]),
            "--samples", str(samples), "--seed", str(seed),
            "--format", "json", "--out", str(self.out),
        ]
        self.n_ops = len(self.dims)

    def body(self):
        return cli.main(self.argv)

    def check(self, code, spans, lo):
        """Fixed schema, one finite row per d, sigma_hat < sigma, paired gap > 3 se.

        The paired gap's standard error is not part of the fixed JSON schema,
        so it is read from the improvement_gap results the op spans captured.
        """
        attempted = self.n_ops
        gaps = {}
        for i in spans.named("density.improvement_gap", lo):
            d, gap, se = spans.notes[i]
            gaps[d] = (gap, se)
        if code != 0:
            return attempted, attempted, {}
        doc = json.loads(self.out.read_text(encoding="utf-8"))
        rows = doc.get("rows", [])
        schema_ok = set(doc) == {"meta", "rows"} and set(doc["meta"]) == {"seed", "n", "version"}
        by_d = {row.get("d"): row for row in rows} if schema_ok else {}
        failed = 0
        wnv_terms = []
        for d in self.dims:
            row = by_d.get(d)
            if row is None or d not in gaps or not _row_ok(row, *gaps[d]):
                failed += 1
                continue
            gap, se = gaps[d]
            wnv_terms.append((se / gap) ** 2)
        failed += max(len(rows) - attempted, 0)
        return attempted, failed, {"gap_wnv_terms": wnv_terms}


_ROW_KEYS = {"d", "sigma", "sigma_hat", "lambda", "volume_lower", "surface_lower",
             "daniels", "kl", "ball_lower"}


def _row_ok(row, gap, gap_se) -> bool:
    if set(row) != _ROW_KEYS:
        return False
    ests = [row[k] for k in ("sigma", "sigma_hat", "lambda")]
    if any(set(e) != {"value", "stderr"} for e in ests):
        return False
    values = [e["value"] for e in ests] + [e["stderr"] for e in ests]
    values += [row[k] for k in ("volume_lower", "surface_lower", "daniels", "kl", "ball_lower")]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return False
    if any(e["stderr"] <= 0.0 for e in ests):
        return False
    sigma, sigma_hat = row["sigma"]["value"], row["sigma_hat"]["value"]
    # the printed values carry nine significant digits
    consistent = abs((sigma - sigma_hat) - gap) <= 1e-8
    return sigma_hat < sigma and consistent and gap > 3.0 * gap_se


class VerifySuite:
    """All ten registered checks through ``packbounds verify``.

    Every check keeps the command's default seed: the suite's statistical
    checks are fixed-seed tests with three-standard-error bands, so a new
    seed per run would turn each into a small chance of a spurious failure.
    The workload therefore has no seed-dependent input.
    """

    name = "verify_suite"
    ops = frozenset(f"verify.{key}" for key in CHECKS)

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        small_names = ["tilt-extremum", "profile-monotone", "truncation-gain"]
        self.names = small_names if small else list(CHECKS)
        self.n_ops = len(self.names)
        self.out = workdir / "verify.json"
        small_args = [*self.names, "--samples", "20000", "--grid", "2000"] if small else []
        self.argv = ["verify", *small_args, "--out", str(self.out)]

    def body(self):
        return cli.main(self.argv)

    def check(self, code, spans, lo):
        """Exit code 0, or 3 when the only non-passes are inconclusive."""
        attempted = self.n_ops
        statuses = {"pass": 0, "fail": 0, "inconclusive": 0}
        if code not in (0, 1, 3):
            return attempted, attempted, {}
        report = json.loads(self.out.read_text(encoding="utf-8"))
        by_name = {c["name"]: c["status"] for c in report.get("checks", [])}
        failed = 0
        for name in self.names:
            status = by_name.get(name)
            if status not in statuses:
                failed += 1
                continue
            statuses[status] += 1
            failed += status == "fail"
        expected = 1 if statuses["fail"] else 3 if statuses["inconclusive"] else 0
        if code != expected:
            failed = attempted
        return attempted, failed, {}


class OracleCrosscheck:
    """The grid quadrature on the canonical simplex and wedge, d = 8..12.

    The quadrature has no random input, so neither has the workload.  The
    Monte-Carlo reference each value is checked against uses fixed seeds and
    is computed once, outside the timed body.
    """

    name = "oracle_crosscheck"
    ops = frozenset({"density.quadrature_density"})

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        dims = [8] if small else range(8, 13)
        self.configs = [
            (d, kind, make(d))
            for d in dims
            for kind, make in (("simplex", geometry.canonical_simplex),
                               ("wedge", geometry.canonical_wedge))
        ]
        self.n_ops = len(self.configs)
        self.resolution = {"ns": 64, "na": 64, "nr": 32} if small else {}
        self.reference_samples = 2 * 10**4 if small else REFERENCE_SAMPLES
        self._reference = {}

    def body(self):
        return [density.quadrature_density(cfg, **self.resolution) for _, _, cfg in self.configs]

    def reference(self, d, kind, cfg):
        if (d, kind) not in self._reference:
            stream = spawn_key(cli.DEFAULT_SEED, d, kind == "wedge")
            self._reference[d, kind] = density.surface_density(cfg, self.reference_samples, stream)
        return self._reference[d, kind]

    def check(self, ests, spans, lo):
        """Each quadrature value within 3 combined se of its MC reference."""
        failed = 0
        for (d, kind, cfg), est in zip(self.configs, ests):
            ref = self.reference(d, kind, cfg)
            band = 3.0 * math.hypot(est.stderr, ref.stderr)
            if not (math.isfinite(est.value) and abs(est.value - ref.value) <= band):
                failed += 1
        return self.n_ops, failed, {"quad_refine_err": max(e.stderr for e in ests)}


WORKLOADS = {w.name: w for w in (BoundsTable, VerifySuite, OracleCrosscheck)}
