"""In-memory spans around calls into packbounds, recorded from outside the package.

A span is (name, start, end, parent) plus one integer count (samples drawn,
points sampled, grid cells, ...).  Spans live in flat arrays so that a traced
run with a few hundred thousand calls stays small, and are written out once
at the end.

``instrument`` replaces each target function by a recording wrapper in every
place it is bound: the module attribute of every loaded ``packbounds`` module
that holds it (``density`` imports ``lead_transform`` by name, ``cli`` and
``verify`` import the estimators by name, the package re-exports most of
them) and the ``verify.REGISTRY`` table.  Methods are wrapped on their class.
Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

# category bits: a span is "outer" in a category when no ancestor shares it
MC = 1  # Monte-Carlo estimators
CONFIG = 2  # building chains, domains and cone configurations
CONTAINS = 4
RADIAL = 8
FORMULAS = 16


class Spans:
    """Flat, append-only span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self.category: list[int] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("q")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def intern(self, name: str, category: int = 0) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.category.append(category)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def durations(self, lo: int = 0) -> np.ndarray:
        end = np.frombuffer(self.end, dtype=float)[lo:]
        return end - np.frombuffer(self.start, dtype=float)[lo:]

    def named(self, name: str, lo: int = 0) -> list[int]:
        """Indices of the spans called ``name`` recorded at or after ``lo``."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        hits = np.nonzero(np.frombuffer(self.name, dtype=np.int32)[lo:] == nid)[0]
        return [int(i) + lo for i in hits]

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tcount\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.count[i]}\n"
                )


def _wrap(spans: Spans, name: str, category: int, fn, measure=None):
    name_id = spans.intern(name, category)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = spans.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(idx)
        if measure is not None:
            measure(spans, idx, args, kwargs, result)
        return result

    return traced


def _arg(fn, name):
    """Reader for argument ``name`` of ``fn`` (positional or keyword, with defaults)."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _count_arg(fn, name, size=int):
    read = _arg(fn, name)

    def measure(spans, idx, args, kwargs, result):
        spans.count[idx] = size(read(args, kwargs))

    return measure


def _estimator_measure(fn):
    read_n = _arg(fn, "n")

    def measure(spans, idx, args, kwargs, result):
        spans.count[idx] = int(read_n(args, kwargs))
        if hasattr(result, "gap_stderr"):
            spans.notes[idx] = (result.d, result.gap, result.gap_stderr)

    return measure


def _check_measure(spans, idx, args, kwargs, result):
    spans.notes[idx] = result.status


def _quadrature_measure(spans, idx, args, kwargs, result):
    spans.count[idx] = int(result.n)


def _modules():
    return [m for k, m in sys.modules.items() if k == "packbounds" or k.startswith("packbounds.")]


MC_ESTIMATORS = (
    "improvement_gap", "surface_density", "simplex_density", "wedge_density",
    "sector_density", "limiting_density_profile", "limiting_surface_density", "bound_set",
)
CONFIG_FUNCTIONS = (
    "canonical_chain", "wedge_domain", "sector_domain", "triangle_domain",
    "truncation_domain", "canonical_simplex", "canonical_wedge", "sector_wedge",
    "truncated_wedge",
)


def targets(ops_only: frozenset | None = None):
    """(owner, attribute, span name, category, measure) for every wrapped callable.

    With ``ops_only`` only the functions whose span names it holds are
    returned; the untraced end-to-end runs use that to time single operations.
    """
    from packbounds import cli, density, formulas, geometry, streams, verify

    out = [(cli, "main", "cli.main", 0, None)]
    for mod, layer in ((density, "density"), (geometry, "geometry"),
                       (streams, "streams"), (formulas, "formulas")):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            category, measure = 0, None
            if layer == "formulas":
                category = FORMULAS
            elif attr in MC_ESTIMATORS:
                category, measure = MC, _estimator_measure(fn)
            elif attr in CONFIG_FUNCTIONS:
                category = CONFIG
            elif attr == "lead_transform":
                measure = _count_arg(fn, "u", np.size)
            elif attr == "quadrature_density":
                measure = _quadrature_measure
            out.append((mod, attr, f"{layer}.{attr}", category, measure))
    for key, fn in verify.REGISTRY.items():
        out.append((verify, fn.__name__, f"verify.{key}", 0, _check_measure))
    for attr in ("run_check", "run_checks"):
        out.append((verify, attr, f"verify.{attr}", 0, None))
    for cls in geometry.PlanarDomain.__subclasses__():
        kind = cls.kind
        out.append((cls, "__init__", f"geometry.config.{kind}", CONFIG, None))
        out.append((cls, "sample", f"geometry.sample.{kind}", 0,
                    _count_arg(cls.sample, "n")))
        out.append((cls, "contains", f"geometry.contains.{kind}", CONTAINS,
                    _count_arg(cls.contains, "pts", lambda p: len(np.atleast_2d(p)))))
        out.append((cls, "radial_mass", f"geometry.radial.{kind}", RADIAL, None))
    for cls in (geometry.ChainSpec, geometry.WedgeConfig):
        out.append((cls, "__post_init__", f"geometry.config.{cls.__name__}", CONFIG, None))
    if ops_only is not None:
        out = [t for t in out if t[2] in ops_only]
    return out


@contextlib.contextmanager
def instrument(spans: Spans, ops_only: frozenset | None = None):
    """Wrap the targets where they are bound; restore the originals on exit."""
    from packbounds import verify

    undo = []
    try:
        for owner, attr, name, category, measure in targets(ops_only):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(spans, name, category, original, measure))
                undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(spans, name, category, original, measure)
            for mod in _modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
            for key, value in list(verify.REGISTRY.items()):
                if value is original:
                    verify.REGISTRY[key] = wrapper
                    undo.append((verify.REGISTRY, key, original))
        yield spans
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


CHECKS = (
    "floor-recursion", "tilt-extremum", "pair-separation", "reach-bound", "radius-ratio",
    "profile-monotone", "truncation-gain", "truncated-max", "square-cap-monotone",
    "chain-inflation",
)
SAMPLE_KINDS = ("triangle", "sector", "disc", "disc_cap_square", "disc_cap_polygon")
GAP_DIMS = (8, 24, 42)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.

    A metric whose layer the pass never entered reads 0; a ratio with an
    empty denominator reads 0 as well (see DESIGN.md).
    """
    n = len(spans)
    dur = spans.durations()
    name = np.frombuffer(spans.name, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int64)
    count = np.frombuffer(spans.count, dtype=np.int64)
    cat_of_name = np.asarray(spans.category, dtype=np.int64)
    cat = cat_of_name[name] if n else np.zeros(0, dtype=np.int64)
    child = np.zeros(n)
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_time = dur - child
    # categories held by strict ancestors; a parent always precedes its
    # children, so one forward pass suffices
    above = np.zeros(n, dtype=np.int64)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            above[i] = above[p] | cat[p]

    def mask(span_name):
        return name == spans.intern(span_name)

    def outer(bit):
        return ((cat & bit) != 0) & ((above & bit) == 0)

    m: dict[str, float] = {}

    lead = mask("geometry.lead_transform")
    m["geometry.lead_transform.calls"] = int(lead.sum())
    m["geometry.lead_transform.draws"] = int(count[lead].sum())
    m["geometry.lead_transform.s"] = float(dur[lead].sum())
    m["geometry.lead_transform.ns_per_draw"] = _ratio(1e9 * dur[lead].sum(), count[lead].sum())

    for fn in ("improvement_gap", "surface_density", "limiting_density_profile"):
        sel = mask(f"density.{fn}")
        m[f"density.{fn}.calls"] = int(sel.sum())
        m[f"density.{fn}.s"] = float(dur[sel].sum())
    mc_outer = outer(MC)
    m["density.mc.samples"] = int(count[mc_outer].sum())
    m["density.mc.self_s"] = float(self_time[(cat & MC) != 0].sum())
    m["density.mc.ns_per_sample"] = _ratio(1e9 * dur[mc_outer].sum(), count[mc_outer].sum())
    gaps = [(i, *spans.notes[i]) for i in spans.named("density.improvement_gap")]
    for d in GAP_DIMS:
        wnv = [(se / gap) ** 2 * dur[i] for i, dd, gap, se in gaps if dd == d]
        m[f"density.gap_wnv.d{d}"] = float(np.mean(wnv)) if wnv else 0.0

    for kind in SAMPLE_KINDS:
        sel = mask(f"geometry.sample.{kind}")
        m[f"geometry.sample.{kind}.points"] = int(count[sel].sum())
        m[f"geometry.sample.{kind}.s"] = float(dur[sel].sum())
    contains_outer = outer(CONTAINS)
    m["geometry.contains.points"] = int(count[contains_outer].sum())
    poly = mask("geometry.sample.disc_cap_polygon")
    tested = ((cat & CONTAINS) != 0) & (parent >= 0)
    tested[tested] = poly[parent[tested]]
    m["geometry.polygon.accept_ratio"] = _ratio(count[poly].sum(), count[tested].sum())
    m["geometry.config.s"] = float(dur[outer(CONFIG)].sum())

    sub = mask("streams.substream")
    m["streams.substream.calls"] = int(sub.sum())
    m["streams.substream.s"] = float(dur[sub].sum())

    quad = mask("density.quadrature_density")
    m["density.quadrature_density.calls"] = int(quad.sum())
    m["density.quadrature_density.s"] = float(dur[quad].sum())
    m["density.quadrature.cells"] = int(count[quad].sum())
    m["density.quadrature.self_s"] = float(self_time[quad].sum())
    m["density.quadrature.ns_per_cell"] = _ratio(1e9 * dur[quad].sum(), count[quad].sum())
    m["geometry.radial.s"] = float(dur[outer(RADIAL)].sum())

    statuses = {"pass": 0, "fail": 0, "inconclusive": 0}
    for key in CHECKS:
        sel = spans.named(f"verify.{key}")
        m[f"verify.{key}.s"] = float(dur[sel].sum()) if sel else 0.0
        for i in sel:
            statuses[spans.notes[i]] += 1
    for status, k in statuses.items():
        m[f"verify.{status}"] = k

    main = mask("cli.main")
    m["cli.main.s"] = float(dur[main].sum())
    m["cli.self_s"] = float(self_time[main].sum())

    form = outer(FORMULAS)
    m["formulas.calls"] = int(form.sum())
    m["formulas.s"] = float(dur[form].sum())
    return m


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
