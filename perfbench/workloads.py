"""The benchmark's workloads: inputs from the seed, one run, its correctness gate.

Every workload uses the canonical parameters mu = gamma = nu = 1, chi = 0.5
and calls mmplab only through module attributes looked up at call time, so
the wrappers in spans.py see every call.  A workload's ``setup(build)``
generates its input and builds what the first run would otherwise build;
``run()`` is one closed-loop request; ``check(outcome, reference)`` returns
the list of problems that make the run count as failed.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from mmplab import analysis, decay_character, harness, linear, snapshots, solver
from mmplab.fields import Grid, PhysParams

CANONICAL = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)
# Seed whose norm rows are committed in reference.json; other seeds are
# checked against invariants only.
REFERENCE_SEED = 10
REFERENCE_RTOL = 1e-10
DIVERGENCE_TOL = 1e-10


def _rows_close(rows: list[dict], reference: list[dict]) -> list[str]:
    if len(rows) != len(reference):
        return [f"{len(rows)} norm rows, reference has {len(reference)}"]
    problems = []
    for row, ref in zip(rows, reference):
        for key, want in ref.items():
            got = row[key]
            if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                problems.append(f"t={row['t']:g} {key}={got!r}, reference {want!r}")
    return problems


def _torus_invariants(traj) -> list[str]:
    problems = []
    values = [v for row in traj.norm_rows for v in row.values() if v is not None]
    if not np.all(np.isfinite(values)):
        problems.append("non-finite norm recorded")
    if not traj.diagnostics["max_divergence"] < DIVERGENCE_TOL:
        problems.append(f"max_divergence {traj.diagnostics['max_divergence']:.3e}")
    if not np.all(np.diff(traj.column("l2_z_sq")) < 0):
        problems.append("energy not monotone")
    return problems


def reference_rows(traj) -> list[dict]:
    """The recorded norms of a run, as committed in reference.json."""
    return [{k: v for k, v in row.items() if v is not None} for row in traj.norm_rows]


class TorusEtd:
    """Criterion-6 configuration through solver.simulate, cut to 8 steps."""

    name = "torus-etd"
    zero_metrics = ("linear.make_radial_state.calls", "linear.norms_at.calls",
                    "linear.ball_mass_at.calls")
    busy_metrics = ("grid.fft.calls", "propagator.apply.phi2.calls")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.grid = Grid(8 if smoke else 32, 64 * np.pi)
        self.config = solver.SolverConfig(grid=self.grid, params=CANONICAL, dt=1.0,
                                          t_end=8.0, output_every=4)

    def setup(self, build) -> None:
        self.z0 = decay_character.generate_data_with_character(
            self.grid, 0.0, seed=self.seed, amplitude=1e-2)
        build(self.grid, CANONICAL)

    def run(self):
        return solver.simulate(self.config, self.z0)

    def check(self, traj, reference) -> list[str]:
        problems = _torus_invariants(traj)
        if reference is not None:
            problems += _rows_close(traj.norm_rows, reference)
        return problems


class TorusPaired:
    """The compare-linear path at n = 64, IF-RK4, one step, with snapshots."""

    name = "torus-paired"
    zero_metrics = ("linear.make_radial_state.calls", "linear.norms_at.calls",
                    "linear.ball_mass_at.calls", "propagator.apply.phi1.calls",
                    "propagator.apply.phi2.calls")
    busy_metrics = ("grid.fft.calls", "propagator.apply.exp.calls",
                    "snapshots.write.calls")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.workdir = workdir
        self.config = harness.RunConfig.from_text(f"""
[grid]
n = {8 if smoke else 64}
[init]
kind = power
r_star = 0.0
seed = {seed}
amplitude = 0.01
[time]
dt = 0.05
t_end = 0.05
output_every = 1
scheme = if-rk4
[output]
save_snapshots = true
""")
        self.grid = self.config.grid()

    def setup(self, build) -> None:
        # execute_run regenerates this datum from the config on every run
        decay_character.generate_data_with_character(
            self.grid, self.config.getfloat("init", "r_star"),
            seed=self.config.getint("init", "seed"),
            amplitude=self.config.getfloat("init", "amplitude"))
        build(self.grid, self.config.params())

    def run(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        return harness.execute_run(self.config, self.workdir, pair_linear=True)

    def check(self, outcome, reference) -> list[str]:
        out, traj = outcome
        problems = _torus_invariants(traj)
        if reference is not None:
            problems += _rows_close(traj.norm_rows, reference)
        written = harness.read_series_csv(out / "series.csv")
        if not np.array_equal(written["l2_z_sq"], traj.column("l2_z_sq")):
            problems.append("series.csv does not read back the recorded norms")
        last = snapshots.read_snapshot(out / "snapshots" / f"state_{traj.times[-1]:012.5f}.snap")
        for got, want in zip(last.components(), traj.snapshots[-1].components()):
            if not np.array_equal(got, want.astype(np.complex64)):
                problems.append("last snapshot does not read back the final state")
                break
        shutil.rmtree(out, ignore_errors=True)
        return problems


class RadialSweep:
    """Criterion-4 radial sweeps, each followed by a Fourier-splitting series."""

    name = "radial-sweep"
    zero_metrics = ("grid.fft.calls", "propagator.build.calls",
                    "propagator.apply.exp.calls", "solver.step.calls")
    busy_metrics = ("linear.make_radial_state.calls", "linear.norms_at.calls",
                    "linear.ball_mass_at.calls")
    times = np.geomspace(1e2, 1e4, 25)
    ball_every = 4  # splitting-ball series at every 4th sweep time
    exponent_tol = 0.1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # The seed scales the datum; the node count, and so the cost, stays fixed.
        self.amplitude = float(np.random.Generator(np.random.Philox(seed)).uniform(0.5, 2.0))
        self.cases = ((0.0, 1e-4),) if smoke else ((-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4))

    def setup(self, build) -> None:
        self.states = [
            linear.make_radial_state(
                decay_character.SpectralProfile.power_law(r_star, amplitude=self.amplitude),
                CANONICAL, rho_min=rho_min)
            for r_star, rho_min in self.cases]

    def run(self):
        out = []
        for (r_star, rho_min), state in zip(self.cases, self.states):
            series = linear.radial_linear_decay(state.profile, self.times, CANONICAL,
                                                rho_min=rho_min, check_convergence=True)
            balls = [state.ball_mass_at(t, analysis.fourier_split_radius(t, 1.0))
                     for t in self.times[::self.ball_every]]
            out.append((r_star, series, np.array(balls)))
        return out

    def check(self, outcome, reference) -> list[str]:
        problems = []
        window = (self.times[0], self.times[-1])
        for r_star, series, balls in outcome:
            exponent, _ = analysis.fit_decay_exponent(series["l2_z_sq"], window)
            if not abs(exponent + 1.5 + r_star) <= self.exponent_tol:
                problems.append(f"r*={r_star:g}: z exponent {exponent:.4f}")
            total = series["l2_z_sq"].values[::self.ball_every]
            if not (np.all(balls > 0) and np.all(balls <= total)
                    and np.all(np.diff(balls) < 0)):
                problems.append(f"r*={r_star:g}: splitting-ball masses out of order")
        return problems


WORKLOADS = {cls.name: cls for cls in (TorusEtd, TorusPaired, RadialSweep)}


def reference_key(name: str, smoke: bool) -> str:
    return f"{name}-smoke" if smoke else name
