"""Spans around calls into mmplab's layers, recorded from outside the package.

Wrappers are installed at the names the callers look up (module globals and
class attributes), so the package source is never edited.  A wrapper records
one span per call: name, start, end, parent span and run id, plus counts
measured at the same boundary (scalar transforms and bytes for FFT calls,
radial nodes for radial builds, file bytes for snapshots).  Spans stay in
memory until the run ends.

Two layers have only private entry points today and are wrapped there:
``mmplab.solver._step_arrays`` (one time step) and ``mmplab.solver._norm_row``
(one norm row).  Installing a wrapper on a name that no longer exists raises,
so a refactor cannot silently zero a metric.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np

MIB = 1024.0 * 1024.0


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; the current run id tags every new span."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.run_id = 0

    def call(self, name, fn, args, kwargs, attrs_of=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)
        if attrs_of is not None:
            self.spans[index].attrs = attrs_of(args, kwargs, result)
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _fft_attrs(args, kwargs, result):
    arr = args[0]
    return {"transforms": int(np.prod(arr.shape[:-3], dtype=np.int64)),
            "bytes": int(arr.nbytes + result.nbytes)}


def _apply_kind(args, kwargs):
    # GridPropagator.apply(self, uhat, what, bhat, t, kind="exp")
    return kwargs.get("kind", args[5] if len(args) > 5 else "exp")


def _radial_attrs(args, kwargs, result):
    return {"nodes": int(result.radii.size)}


def _snapshot_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _simulate_attrs(args, kwargs, result):
    return {"cfl_halvings": result.diagnostics["cfl_halvings"]}


def _build_attrs(args, kwargs, result):
    # read while tracemalloc (which numpy reports its buffers to) still runs
    return {"peak_bytes": tracemalloc.get_traced_memory()[1]}


# (module[:class], attribute, span name, counts taken at the boundary)
TARGETS = (
    ("mmplab.grid", "forward", "grid.fft", _fft_attrs),
    ("mmplab.grid", "inverse", "grid.fft", _fft_attrs),
    ("mmplab.solver", "forward", "grid.fft", _fft_attrs),
    ("mmplab.solver", "simulate", "solver.simulate", _simulate_attrs),
    ("mmplab.harness", "simulate", "solver.simulate", _simulate_attrs),
    ("mmplab.solver", "nonlinear_rhs", "solver.nonlinear_rhs", None),
    ("mmplab.solver", "_step_arrays", "solver.step", None),
    ("mmplab.solver", "_norm_row", "solver.norm_row", None),
    ("mmplab.solver", "leray_project", "fields.leray_project", None),
    ("mmplab.decay_character", "leray_project", "fields.leray_project", None),
    ("mmplab.fields", "spectrum_norm_sq", "fields.norm", None),
    ("mmplab.solver", "spectrum_norm_sq", "fields.norm", None),
    ("mmplab.analysis", "spectrum_norm_sq", "fields.norm", None),
    ("mmplab.solver", "get_propagator", "propagator.lookup", None),
    ("mmplab.propagator:GridPropagator", "__init__", "propagator.build", _build_attrs),
    ("mmplab.propagator:GridPropagator", "apply", "propagator.apply", None),
    ("mmplab.decay_character", "generate_data_with_character",
     "decay_character.generate", None),
    ("mmplab.harness", "generate_data_with_character",
     "decay_character.generate", None),
    ("mmplab.linear", "make_radial_state", "linear.make_radial_state", _radial_attrs),
    ("mmplab.linear:RadialLinearState", "norms_at", "linear.norms_at", None),
    ("mmplab.linear:RadialLinearState", "ball_mass_at", "linear.ball_mass_at", None),
    ("mmplab.harness", "write_snapshot", "snapshots.write", _snapshot_attrs),
    ("mmplab.harness", "write_series_csv", "harness.write_series_csv", None),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class MissingTarget(RuntimeError):
    """A wrapped name is gone from mmplab; its metrics would read 0."""


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for path, attr, name, attrs_of in TARGETS:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError) as exc:
                raise MissingTarget(f"traced name {path}.{attr} is missing") from exc
            if attr not in vars(owner):
                raise MissingTarget(f"traced name {path}.{attr} is missing")
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, attrs_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapper(tracer, name, fn, attrs_of):
    if name == "propagator.build":
        @functools.wraps(fn)
        def traced_build(*args, **kwargs):
            tracemalloc.start()
            try:
                return tracer.call(name, fn, args, kwargs, attrs_of)
            finally:
                tracemalloc.stop()
        return traced_build

    if name == "propagator.apply":
        @functools.wraps(fn)
        def traced_apply(*args, **kwargs):
            return tracer.call(f"{name}.{_apply_kind(args, kwargs)}", fn, args, kwargs)
        return traced_apply

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs_of)
    return traced


# ------------------------------------------------------------------ metrics

def layer_metrics(tracer: Tracer, setup_run: int, runs: list[int]) -> dict[str, float]:
    """Per-layer metrics from one traced set-up and the traced runs.

    Set-up layers (propagator build, data generation) are reported for the
    traced set-up; every other layer is reported per run, averaged over the
    traced runs, so counts repeat exactly from run to run.
    """
    spans = tracer.spans
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration

    run_set = set(runs)
    n_runs = len(runs)
    in_runs = [(i, s) for i, s in enumerate(spans) if s.run_id in run_set]
    in_setup = [s for s in spans if s.run_id == setup_run]

    def per_run(name):
        sel = [(i, s) for i, s in in_runs if s.name == name]
        calls = len(sel) / n_runs
        total = sum(s.duration for _, s in sel) / n_runs
        self_s = sum(s.duration - children.get(i, 0.0) for i, s in sel) / n_runs
        return sel, calls, total, self_s

    m: dict[str, float] = {}
    fft, m["grid.fft.calls"], m["grid.fft.s"], _ = per_run("grid.fft")
    m["grid.fft.transforms"] = sum(s.attrs["transforms"] for _, s in fft) / n_runs
    m["grid.fft.bytes_computed"] = sum(s.attrs["bytes"] for _, s in fft) / n_runs

    _, m["solver.nonlinear_rhs.calls"], m["solver.nonlinear_rhs.s"], \
        m["solver.nonlinear_rhs.self_s"] = per_run("solver.nonlinear_rhs")
    steps, m["solver.step.calls"], _, _ = per_run("solver.step")
    step_ms = [1e3 * s.duration for _, s in steps]
    m["solver.step.p50_ms"] = float(np.percentile(step_ms, 50)) if step_ms else 0.0
    m["solver.step.p90_ms"] = float(np.percentile(step_ms, 90)) if step_ms else 0.0
    _, m["solver.norm_row.calls"], m["solver.norm_row.s"], _ = per_run("solver.norm_row")
    simulations, _, _, _ = per_run("solver.simulate")
    m["solver.cfl_halvings"] = sum(s.attrs["cfl_halvings"] for _, s in simulations) / n_runs

    _, m["fields.leray_project.calls"], m["fields.leray_project.s"], _ = \
        per_run("fields.leray_project")
    _, m["fields.norm.calls"], m["fields.norm.s"], _ = per_run("fields.norm")

    builds = [s for s in in_setup if s.name == "propagator.build"]
    m["propagator.build.calls"] = float(len(builds))
    m["propagator.build.s"] = sum(s.duration for s in builds)
    m["propagator.build.peak_mib"] = max(
        (s.attrs["peak_bytes"] for s in builds), default=0) / MIB
    lookups = [i for i, s in in_runs if s.name == "propagator.lookup"]
    built = {s.parent for _, s in in_runs if s.name == "propagator.build"}
    hits = sum(1 for i in lookups if i not in built)
    m["propagator.cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    for kind in ("exp", "phi1", "phi2"):
        _, m[f"propagator.apply.{kind}.calls"], m[f"propagator.apply.{kind}.s"], _ = \
            per_run(f"propagator.apply.{kind}")

    m["decay_character.generate.s"] = sum(
        s.duration for s in in_setup if s.name == "decay_character.generate")

    radial, m["linear.make_radial_state.calls"], m["linear.make_radial_state.s"], _ = \
        per_run("linear.make_radial_state")
    m["linear.radial_nodes"] = sum(s.attrs["nodes"] for _, s in radial) / n_runs
    _, m["linear.norms_at.calls"], m["linear.norms_at.s"], _ = per_run("linear.norms_at")
    _, m["linear.ball_mass_at.calls"], m["linear.ball_mass_at.s"], _ = \
        per_run("linear.ball_mass_at")

    snaps, m["snapshots.write.calls"], m["snapshots.write.s"], _ = per_run("snapshots.write")
    m["snapshots.write.bytes"] = sum(s.attrs["bytes"] for _, s in snaps) / n_runs
    _, _, m["harness.write_series_csv.s"], _ = per_run("harness.write_series_csv")
    return m


def counts_per_run(tracer: Tracer, runs: list[int], name: str,
                   count: str | None = None) -> list[int]:
    """Calls of one span name (or the sum of one of its counts) in each run."""
    totals = dict.fromkeys(runs, 0)
    for span in tracer.spans:
        if span.name == name and span.run_id in totals:
            totals[span.run_id] += span.attrs[count] if count else 1
    return [totals[run] for run in runs]


def fft_seconds_per_transform(tracer: Tracer, runs: list[int]) -> float:
    run_set = set(runs)
    fft = [s for s in tracer.spans if s.name == "grid.fft" and s.run_id in run_set]
    transforms = sum(s.attrs["transforms"] for s in fft)
    return sum(s.duration for s in fft) / transforms if transforms else 0.0
