"""Measurement loop, metrics and the environment record behind run.py."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import spans
from mmplab import propagator
from workloads import REFERENCE_SEED, WORKLOADS, reference_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"
PERTURBATION = 1e-8


class Loop:
    """Runs of one workload, each timed and gated; counts attempts and failures."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run_once(self, tracer=None) -> tuple[float, int]:
        """One timed and gated run; returns (run seconds, run id)."""
        self.attempted += 1
        if tracer is not None:
            tracer.run_id = self.attempted
        t0 = time.perf_counter()
        elapsed = None
        try:
            outcome = self.workload.run()
            elapsed = time.perf_counter() - t0
            problems = self.workload.check(outcome, self.reference)
        except Exception:  # a run or a check that raises counts as failed
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: {problems[0]}", file=sys.stderr)
        if elapsed is None:
            elapsed = time.perf_counter() - t0
        return elapsed, self.attempted


def load_reference(name: str, seed: int, smoke: bool, perturb: bool):
    if seed != REFERENCE_SEED:
        if perturb:
            raise SystemExit(f"--perturb-reference needs --seed {REFERENCE_SEED}")
        return None
    with open(REFERENCE_FILE) as fh:
        rows = json.load(fh).get(reference_key(name, smoke))
    if not perturb:
        return rows
    if rows is None:
        raise SystemExit(f"--perturb-reference: no reference rows for {name}")
    return [{k: v * (1.0 + PERTURBATION) for k, v in row.items()} for row in rows]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int, threads: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mmplab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        **threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def timed_setup(workload, build) -> float:
    t0 = time.perf_counter()
    workload.setup(build)
    return time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict]:
    """Runs for `seconds` after a warm-up, each run followed by a set-up, so
    set-up samples span the same stretch of host load as the runs.  A host
    probe after every run and every set-up gauges the host's speed over that
    stretch, and the times are reported at the reference host speed
    (hostspeed.py): the median set-up and the mean run.  The run time is a
    mean because the probes average over the same stretch as the runs; over
    ten invocations it spreads less than the median does.  The wall-clock
    figures are returned alongside."""
    workload = loop.workload
    setup = [timed_setup(workload, propagator.get_propagator)]  # fills the cache
    loop.run_once()  # warm-up: first touch of the run's memory, gated but not timed
    times, probes = [], [hostspeed.probe()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(loop.run_once()[0])
        probes.append(hostspeed.probe())
        setup.append(timed_setup(workload, propagator.GridPropagator))
        probes.append(hostspeed.probe())
        if len(times) == 1:
            # Later runs creep the peak up by allocator fragmentation, and
            # how many of them fit into `seconds` depends on the host's speed.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = hostspeed.REFERENCE_S / statistics.mean(probes)
    metrics = {
        "setup_s": metric(statistics.median(setup) * scale, "s"),
        "run_s": metric(statistics.mean(times) * scale, "s"),
        "peak_rss_mib": metric(peak_rss, "MiB"),
    }
    wall = {"setup_wall_s": statistics.median(setup), "run_wall_s": statistics.mean(times),
            "run_wall_median_s": statistics.median(times),
            "runs": len(times), "probe_mean_s": statistics.mean(probes),
            "samples": {"run_wall_s": times, "setup_wall_s": setup, "probe_s": probes}}
    return metrics, wall


def per_layer(loop: Loop, seconds: float, spans_path) -> dict:
    """After a warm-up run, rounds of one untraced run, one traced run and,
    where the workload transforms, one traced run with a single FFT thread,
    so overhead and thread speedup compare runs made under the same load."""
    workload = loop.workload
    workload.setup(propagator.get_propagator)
    loop.run_once()  # warm-up, as in end_to_end
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.setup(propagator.GridPropagator)  # traced as run 0

    default_threads = os.environ["MMP_THREADS"]

    def traced_run(fft_threads):
        os.environ["MMP_THREADS"] = fft_threads
        try:
            with spans.installed(tracer):
                return loop.run_once(tracer)
        finally:
            os.environ["MMP_THREADS"] = default_threads

    uses_fft = "grid.fft.calls" in workload.busy_metrics
    untraced, traced, runs, single = [], [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        untraced.append(loop.run_once()[0])
        elapsed, run_id = traced_run(default_threads)
        traced.append(elapsed)
        runs.append(run_id)
        if uses_fft:
            single.append(traced_run("1")[1])
    tracer.write(spans_path)

    layers = spans.layer_metrics(tracer, 0, runs)
    layers["grid.fft.thread_speedup"] = (
        spans.fft_seconds_per_transform(tracer, single)
        / spans.fft_seconds_per_transform(tracer, runs) if uses_fft else 0.0)
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    check_busy_and_bypass(workload, tracer, runs, layers)
    return {name: metric(value, UNITS[name]) for name, value in layers.items()}


def check_busy_and_bypass(workload, tracer, runs, layers) -> None:
    """Fail loudly when a layer that must be idle works, or a busy one idles,
    or a count that must repeat exactly from run to run does not."""
    bad = [f"{name} = {layers[name]} (expected 0)"
           for name in workload.zero_metrics if layers[name] != 0]
    bad += [f"{name} = 0 (expected > 0)"
            for name in workload.busy_metrics if layers[name] == 0]
    for name, count in (("grid.fft", "transforms"), ("solver.step", None)):
        per_run = spans.counts_per_run(tracer, runs, name, count)
        if len(set(per_run)) > 1:
            bad.append(f"{name} {count or 'calls'} differ between runs: {per_run}")
    if bad:
        raise AssertionError("busy/bypass assertions failed: " + "; ".join(bad))


UNITS = {
    "grid.fft.calls": "count", "grid.fft.transforms": "count", "grid.fft.s": "s",
    "grid.fft.bytes_computed": "B", "grid.fft.thread_speedup": "ratio",
    "solver.nonlinear_rhs.calls": "count", "solver.nonlinear_rhs.s": "s",
    "solver.nonlinear_rhs.self_s": "s", "solver.step.calls": "count",
    "solver.step.p50_ms": "ms", "solver.step.p90_ms": "ms",
    "solver.norm_row.calls": "count", "solver.norm_row.s": "s",
    "solver.cfl_halvings": "count",
    "fields.leray_project.calls": "count", "fields.leray_project.s": "s",
    "fields.norm.calls": "count", "fields.norm.s": "s",
    "propagator.build.calls": "count", "propagator.build.s": "s",
    "propagator.build.peak_mib": "MiB", "propagator.cache.hit_ratio": "ratio",
    **{f"propagator.apply.{k}.{m}": u for k in ("exp", "phi1", "phi2")
       for m, u in (("calls", "count"), ("s", "s"))},
    "decay_character.generate.s": "s",
    "linear.make_radial_state.calls": "count", "linear.make_radial_state.s": "s",
    "linear.radial_nodes": "count", "linear.norms_at.calls": "count",
    "linear.norms_at.s": "s", "linear.ball_mass_at.calls": "count",
    "linear.ball_mass_at.s": "s",
    "snapshots.write.calls": "count", "snapshots.write.bytes": "B",
    "snapshots.write.s": "s", "harness.write_series_csv.s": "s",
    "trace.overhead_frac": "ratio",
}


def main(args, threads: dict) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    reference = load_reference(args.workload, args.seed, args.smoke, args.perturb_reference)
    loop = Loop(WORKLOADS[args.workload](args.seed, args.smoke, workdir), reference)
    wall = None
    try:
        if args.trace:
            metrics = per_layer(loop, args.seconds, OUT / f"spans-{stem}.jsonl")
        else:
            metrics, wall = end_to_end(loop, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, threads)
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "smoke": args.smoke,
                   "environment": env, "wall": wall, **result}, fh, indent=2)
    if wall is not None:
        wall = {k: v for k, v in wall.items() if k != "samples"}
    print(json.dumps({"environment": env, "wall": wall}))
    print(json.dumps(result))
    return 0
