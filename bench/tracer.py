"""Span tracer for in-process CLI jobs, recorded from outside the library.

``Tracer.installed`` wraps the public functions named in ``FUNCTION_SPANS``
and the two ``Functional`` methods in ``METHOD_SPANS``.  A function is
patched under its name in every module of the package that holds it (the
defining module, ``cli``, ``estimator``, ``verify`` and the package itself),
so calls are seen whichever module makes them.  Everything patched is
restored when the block exits.

Each call becomes a :class:`Span`: name, start, end, parent span and job id,
plus the counters recorded at that boundary.  Spans stay in memory; a run
writes them out as JSONL at the end.  The time the tracer spends computing a
counter before the call is kept in ``overhead``: it lies inside the span's
interval, so it is not charged to the parent, and it is not charged to the
span either.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from types import ModuleType

import numpy as np

MODULES = ("measure", "functionals", "estimator", "verify", "cli")
ROOT_SPAN = "cli.main"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _noop_canonicalization(*args, **kwargs):
    """Input already sorted, duplicate-free and positive: canonicalizing it
    can only renormalize."""
    atoms = np.asarray(_arg(args, kwargs, 0, "atoms"), dtype=float)
    weights = np.asarray(_arg(args, kwargs, 1, "weights"), dtype=float)
    noop = (atoms.ndim == 1 and atoms.size > 0 and atoms.shape == weights.shape
            and bool(np.all(atoms[1:] > atoms[:-1])) and bool(np.all(weights > 0)))
    return {"noop": noop}


def _file_bytes(*args, **kwargs):
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except OSError:
        return {"bytes": 0}


def _grid_level(*args, **kwargs):
    level = _arg(args, kwargs, 2, "level")
    return {"level": int(getattr(level, "n", level))}


def _grid_result(est):
    return {"atoms": est.n_atoms, "failed": len(est.failed_atoms)}


def _points(*args, **kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 1, "xs")))}


def _measure_atoms(*args, **kwargs):
    return {"atoms": int(_arg(args, kwargs, 1, "mu").n_atoms)}


# span name -> (defining module, attribute, counters before the call,
#               counters from the result)
FUNCTION_SPANS = {
    "measure.make_measure": ("measure", "make_measure", _noop_canonicalization, None),
    "measure.law_of": ("measure", "law_of", None, None),
    "measure.dyadic_quantize": ("measure", "dyadic_quantize", None, None),
    "measure.wasserstein2": ("measure", "wasserstein2", None, None),
    "measure.read_sample_file": ("measure", "read_sample_file", _file_bytes, None),
    "estimator.lions_derivative_grid": ("estimator", "lions_derivative_grid",
                                        _grid_level, _grid_result),
    "estimator.lions_derivative_at_atom": ("estimator", "lions_derivative_at_atom",
                                           None, None),
    "estimator.atom_shift_quotients": ("estimator", "atom_shift_quotients", None, None),
    "estimator.g_tilde_values": ("estimator", "g_tilde_values", _points, None),
    "estimator.directional_derivative": ("estimator", "directional_derivative",
                                         None, None),
    "verify.check_structure": ("verify", "check_structure", None, None),
    "verify.check_law_invariance": ("verify", "check_law_invariance", None, None),
    "verify.check_mass_linearity": ("verify", "check_mass_linearity", None, None),
    "verify.check_against_oracle": ("verify", "check_against_oracle", None, None),
    "verify.convergence_study": ("verify", "convergence_study", None, None),
}

# span name -> (Functional attribute, counters before the call)
METHOD_SPANS = {
    "functionals.evaluate": ("__call__", _measure_atoms),
    "functionals.analytic_g": ("analytic_g", None),
}

# (metric, unit, better): the per-layer metrics a traced run reports.
LAYER_METRICS = (
    ("measure.make_measure.calls", "count", "lower"),
    ("measure.make_measure.busy_s", "s", "lower"),
    ("measure.make_measure.noop_ratio", "ratio", "lower"),
    ("measure.law_of.calls", "count", "lower"),
    ("measure.law_of.busy_s", "s", "lower"),
    ("measure.dyadic_quantize.calls", "count", "lower"),
    ("measure.dyadic_quantize.busy_s", "s", "lower"),
    ("measure.wasserstein2.calls", "count", "lower"),
    ("measure.wasserstein2.busy_s", "s", "lower"),
    ("measure.read_sample_file.calls", "count", "lower"),
    ("measure.read_sample_file.busy_s", "s", "lower"),
    ("measure.read_sample_file.bytes", "bytes", "lower"),
    ("functionals.evaluate.calls", "count", "lower"),
    ("functionals.evaluate.busy_s", "s", "lower"),
    ("functionals.evaluate.atom_sum", "count", "lower"),
    ("functionals.analytic_g.calls", "count", "lower"),
    ("functionals.analytic_g.busy_s", "s", "lower"),
    ("estimator.lions_derivative_grid.calls", "count", "lower"),
    ("estimator.lions_derivative_grid.atoms", "count", "lower"),
    ("estimator.lions_derivative_grid.busy_s", "s", "lower"),
    ("estimator.levels_visited", "count", "lower"),
    ("estimator.extrapolate_s", "s", "lower"),
    ("estimator.probe_self_s", "s", "lower"),
    ("estimator.failed_atoms", "count", "lower"),
    ("estimator.g_tilde_values.calls", "count", "lower"),
    ("estimator.g_tilde_values.points", "count", "lower"),
    ("estimator.g_tilde_values.busy_s", "s", "lower"),
    ("estimator.directional_derivative.calls", "count", "lower"),
    ("estimator.directional_derivative.busy_s", "s", "lower"),
    ("verify.check_structure.busy_s", "s", "lower"),
    ("verify.check_law_invariance.busy_s", "s", "lower"),
    ("verify.check_mass_linearity.busy_s", "s", "lower"),
    ("verify.check_against_oracle.busy_s", "s", "lower"),
    ("verify.convergence_study.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    overhead: float = 0.0
    attrs: dict | None = None

    @property
    def busy(self) -> float:
        """Time spent in the call itself, without the tracer's counters."""
        return self.end - self.start - self.overhead


def self_times(spans: list[Span]) -> list[float]:
    """Each span's busy time minus the intervals its child spans cover.

    Spans come from one thread, so children of a span never overlap and
    their covered time is the sum of their whole intervals.  ``spans[k].id``
    must be ``k``.
    """
    own = [s.busy for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Busy time per span name, counting a span nested in a span of the same
    name only once."""
    totals: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            totals[s.name] = totals.get(s.name, 0.0) + s.busy
    return totals


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced job, except the two the runner adds
    (``cli.output_bytes``, ``trace.overhead_ratio``)."""
    own = self_times(spans)
    busy = busy_by_name(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum((own[s.id] for s in by_name.get(name, ())), 0.0)

    def attr_sum(name, key):
        return sum((s.attrs[key] for s in by_name.get(name, ())), 0)

    m: dict[str, float] = {}
    for name in FUNCTION_SPANS.keys() | METHOD_SPANS.keys():
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    mm = "measure.make_measure"
    m[f"{mm}.noop_ratio"] = attr_sum(mm, "noop") / calls(mm) if calls(mm) else 0.0
    m["measure.read_sample_file.bytes"] = attr_sum("measure.read_sample_file", "bytes")
    m["functionals.evaluate.atom_sum"] = attr_sum("functionals.evaluate", "atoms")
    grid = "estimator.lions_derivative_grid"
    m[f"{grid}.atoms"] = attr_sum(grid, "atoms")
    m["estimator.failed_atoms"] = attr_sum(grid, "failed")
    m["estimator.levels_visited"] = len({s.attrs["level"] for s in by_name.get(grid, ())})
    m["estimator.extrapolate_s"] = self_s("estimator.lions_derivative_at_atom")
    m["estimator.probe_self_s"] = self_s("estimator.atom_shift_quotients")
    m["estimator.g_tilde_values.points"] = attr_sum("estimator.g_tilde_values", "points")
    m["verify.convergence_study.self_s"] = self_s("verify.convergence_study")
    m["cli.self_s"] = self_s(ROOT_SPAN)
    return m


def self_shares(spans: list[Span]) -> dict[str, float]:
    """Share of the root span's time that each span name spends in itself."""
    own = self_times(spans)
    total = sum(s.busy for s in spans if s.parent is None)
    shares: dict[str, float] = {}
    for s in spans:
        shares[s.name] = shares.get(s.name, 0.0) + own[s.id] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_jsonl(spans: list[Span], path) -> None:
    """One span per line; times in seconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            fh.write(json.dumps(row) + "\n")


def package_modules(package: ModuleType) -> list[ModuleType]:
    return [package] + [importlib.import_module(f"{package.__name__}.{m}")
                        for m in MODULES]


def snapshot(package: ModuleType) -> dict[tuple[str, str], object]:
    """Every name the tracer may patch, bound to its current object."""
    names = {attr for _, attr, _, _ in FUNCTION_SPANS.values()}
    modules = package_modules(package)
    snap = {(mod.__name__, n): mod.__dict__[n] for mod in modules for n in names
            if n in mod.__dict__}
    functional = modules[MODULES.index("functionals") + 1].Functional
    for attr, _ in METHOD_SPANS.values():
        snap[("Functional", attr)] = functional.__dict__[attr]
    return snap


class Tracer:
    """Records spans for one in-process job, numbered ``job``."""

    def __init__(self, job: int = 0):
        self.job = job
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, job = self.spans, self._stack, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_pre = perf_counter()
            attrs = before(*args, **kwargs) if before is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, t_pre, t1, parent, job, t0 - t_pre, attrs)
            if after is not None:
                spans[sid].attrs = {**(attrs or {}), **after(result)}
            return result

        return traced

    @contextmanager
    def installed(self, package: ModuleType):
        """Patch every traced name in ``package``; restore all on exit."""
        modules = package_modules(package)
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        saved: list[tuple[object, str, object]] = []
        try:
            for name, (home, attr, before, after) in FUNCTION_SPANS.items():
                original = getattr(by_short[home], attr)
                traced = self.wrap(name, original, before, after)
                for owner in modules:
                    if owner.__dict__.get(attr) is original:
                        saved.append((owner, attr, original))
                        setattr(owner, attr, traced)
            functional = by_short["functionals"].Functional
            for name, (attr, before) in METHOD_SPANS.items():
                original = functional.__dict__[attr]
                saved.append((functional, attr, original))
                setattr(functional, attr, self.wrap(name, original, before))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
