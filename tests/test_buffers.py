"""Transform outputs, the right-hand side's work arrays and cached
sector-kernel weights.

The right-hand side makes its own work arrays on every call, and the
stepper's applies take their weights from tables cached per (t, kind) on
the kernel.  Neither may change a bit: these tests pin the out= forward
and the inverse to scipy.fft, the two 9-row forward batches to one batch
of 18, the right-hand side's 9-row product spectrum to one contraction of
all 18 products, the stepper's in-place stages to the textbook step, a
cached apply to a fresh kernel's, a run to the same run on a fresh Grid and
concurrent runs on one Grid to serial ones, and check that a run leaves
only derived arrays on its Grid, that a returned increment is never
overwritten, and the memory a right-hand side and a held BlowupError keep.
"""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pytest
import scipy.fft as sfft

from mmplab import solver
from mmplab.decay_character import generate_data_with_character
from mmplab.fields import (ContractViolation, Grid, PhysParams, StateField, curl_at,
                           leray_project)
from mmplab.grid import forward, inverse
from mmplab.harness import RunConfig, execute_run
from mmplab.propagator import SectorKernel, get_propagator
from mmplab.solver import BlowupError, SolverConfig, nonlinear_rhs, simulate

from conftest import random_state

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)
KINDS = ("exp", "phi1", "phi2")


def trajectory_bits(traj):
    return (traj.times, repr(traj.norm_rows), repr(traj.diagnostics),
            [snap.z.tobytes() for snap in traj.snapshots])


def holds_only_derived_arrays(value):
    """The instance dict of a Grid or a Modes has its fields and cached
    properties only."""
    cls = type(value)
    cached = {name for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
    return set(vars(value)) <= cached | {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize("n", [8, 12, 32])
def test_out_transforms_equal_scipy_bitwise(n, monkeypatch):
    # 5 rows in two unequal groups, forward's work made per call
    monkeypatch.setenv("MMP_THREADS", "2")
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n)).normal(size=(5, n, n, n))
    want = grid.truncate(sfft.rfftn(phys, axes=(-3, -2, -1), norm="forward", workers=2))
    out = np.empty(want.shape, dtype=complex)
    assert forward(phys, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert forward(phys).tobytes() == want.tobytes()

    back = sfft.irfftn(grid.pad(want), s=(n, n, n), axes=(-3, -2, -1), norm="forward",
                       workers=2)
    blocks = want.copy()
    assert inverse(blocks, grid).tobytes() == back.tobytes()
    assert blocks.tobytes() == want.tobytes()  # the input is left as it was


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_two_batches_of_nine_equal_one_batch_of_18(n, monkeypatch):
    # nonlinear_rhs writes its two 9-row batches into halves of one array
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n)).normal(size=(18, n, n, n))
    for threads in ("1", "2"):
        monkeypatch.setenv("MMP_THREADS", threads)
        want = forward(phys)
        got = np.empty_like(want)
        work = np.empty((int(threads),) + grid.spectral_shape, dtype=complex)
        for rows in (slice(0, 9), slice(9, 18)):
            forward(phys[rows], out=got[rows], work=work)
        assert got.tobytes() == want.tobytes()


def rhs_of_18_products(grid, z):
    """N of nonlinear_rhs as one 18-row forward batch of the products,
    contracted, curled and projected once it is whole."""
    u, w, b = np.split(inverse(z, grid), 3)
    stress = [u[i] * u[j] - b[i] * b[j] for i, j in solver._SYM_PAIRS]
    induction = [u[i] * b[j] - b[i] * u[j] for i, j in ((1, 2), (2, 0), (0, 1))]
    spec = forward(np.stack(stress + induction + [u[i] * w[j] for i in range(3)
                                                  for j in range(3)]))
    xi = grid.retained.xi_odd
    N = np.empty(z.shape, dtype=complex)
    for i in range(3):
        T = [spec[solver._SYM_INDEX[i][j]] for j in range(3)]
        N[i] = xi[0] * T[0] + xi[1] * T[1] + xi[2] * T[2]
        N[3 + i] = xi[0] * spec[9 + i] + xi[1] * spec[12 + i] + xi[2] * spec[15 + i]
    N[0:6] *= -1j
    N[6:9] = curl_at(xi, spec[6:9])
    leray_project(grid.retained, N[0:3], out=N[0:3])
    return N


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [16, 64])
def test_nine_row_rhs_equals_one_contraction_of_18_rows(n, threads, monkeypatch):
    # nonlinear_rhs contracts each 9-row batch as soon as it is written
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    assert nonlinear_rhs(grid, z)[0].tobytes() == rhs_of_18_products(grid, z).tobytes()


def textbook_step(prop, z, N, dt, scheme):
    """The step of _step_arrays as whole-array expressions of fresh applies
    and right-hand sides."""
    def E(v, t, kind="exp"):
        return prop.apply(v, t, kind=kind)

    def rhs(v):
        return nonlinear_rhs(prop.grid, v)[0]

    if scheme == "etd-rk2":
        a = E(z, dt) + dt * E(N, dt, "phi1")
        return a + dt * E(rhs(a) - N, dt, "phi2")
    k2 = rhs(E(z + (dt / 2) * N, dt / 2))
    k3 = rhs(E(z, dt / 2) + (dt / 2) * k2)
    k4 = rhs(E(z, dt) + dt * E(k3, dt / 2))
    return E(z, dt) + (dt / 6.0) * (E(N, dt) + 2.0 * (E(k2, dt / 2) + E(k3, dt / 2)) + k4)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("scheme", solver.SCHEMES)
def test_in_place_stages_equal_the_textbook_step(scheme, n, threads, monkeypatch):
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    N = nonlinear_rhs(grid, z)[0]
    kept = z.tobytes(), N.tobytes()
    prop = get_propagator(grid, PARAMS)
    got = solver._step_arrays(prop, z, N, 0.05, scheme)
    assert (z.tobytes(), N.tobytes()) == kept  # the step's inputs are left as they were
    assert got.tobytes() == textbook_step(prop, z, N, 0.05, scheme).tobytes()


# tracemalloc peak of one n = 64 right-hand side and its work arrays on
# one thread: 31.0 MiB with six whole-grid fields, w inverted into b's
# once the first batch and the speed are done with them (12.6 MiB of it),
# and 37.0 MiB with nine (18.9 MiB; the bound was 44.4 MiB then), both
# with a 9-row product spectrum, each batch contracted as soon as it is
# written; 42.6 MiB with an 18-row one contracted once (the bound was
# 50 MiB then), all with one row of padded spectra, products and spectra
# per worker, made per call; 44.6 MiB with those rows held by the caller,
# 93.6 MiB with nine rows of each and whole-grid speed scratch, 130 MiB
# with 18-row products
RHS_PEAK_MIB_64 = 38.4


def test_rhs_peak_memory_at_n64(monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "1")  # whole arrays: the largest temporaries
    grid = Grid(64, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(64))).z)
    nonlinear_rhs(grid, z)  # the per-mode arrays and transform plans stay warm
    tracemalloc.start()
    try:
        nonlinear_rhs(grid, z)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < RHS_PEAK_MIB_64, f"right-hand side peaked at {peak:.1f} MiB"


@pytest.mark.parametrize("n, threads", [(16, "1"), (64, "2")])
def test_cached_apply_equals_fresh_kernel(n, threads, monkeypatch):
    # n = 64 runs the applies in slabs on two workers
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    rng = np.random.Generator(np.random.Philox(n))
    z1, z2 = (random_state(grid, rng).z for _ in range(2))
    modes = grid.half_modes()
    kernel = SectorKernel(modes.xi_odd, modes.xi_sq, PARAMS)
    for kind in KINDS:
        for t in (0.05, 3.0):
            miss = kernel.apply(z1, t, kind, cache=True)
            hit = kernel.apply(z2, t, kind, cache=True)
            fresh = SectorKernel(modes.xi_odd, modes.xi_sq, PARAMS)
            assert miss.tobytes() == fresh.apply(z1, t, kind).tobytes()
            assert hit.tobytes() == fresh.apply(z2, t, kind).tobytes()
            assert not fresh.tables
    assert sorted(kernel.tables) == sorted((t, kind) for kind in KINDS for t in (0.05, 3.0))


def test_array_times_and_uncached_applies_bypass_the_cache():
    nodes = np.array([[0.0, 0.3, 1.0, 20.0], [0.1, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 5.0]])
    kernel = SectorKernel(nodes[:, None], (nodes ** 2).sum(axis=0)[None], PARAMS)
    v = np.random.Generator(np.random.Philox(3)).normal(size=(9, 1, 4)).astype(complex)
    times = np.geomspace(1e-3, 10.0, 5)
    for kind in KINDS:
        block = kernel.apply(v, times[:, None], kind=kind, cache=True)
        stacked = np.concatenate([kernel.apply(v, t, kind=kind) for t in times], axis=1)
        assert np.array_equal(block, stacked), kind
    assert kernel.tables == {}


@pytest.mark.parametrize("scheme, kept", [("etd-rk2", lambda dt: {(dt, k) for k in KINDS}),
                                          ("if-rk4", lambda dt: {(dt, "exp"), (dt / 2, "exp")})])
def test_table_count_stays_bounded_across_halving_and_pairing(scheme, kept, monkeypatch):
    props = []

    def capture(grid, params):
        props.append(get_propagator(grid, params))
        return props[-1]

    monkeypatch.setattr(solver, "get_propagator", capture)
    grid = Grid(8, 2 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=7, amplitude=10.0)
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=4.0, t_end=8.0, output_every=1,
                       scheme=scheme)
    traj = simulate(cfg, z0, pair_linear=True)
    assert traj.diagnostics["cfl_halvings"] >= 1
    (prop,) = props
    # only the final step size's tables are left: the halvings dropped the
    # others, and the paired run's applies at the output times kept none
    assert set(prop.tables) == kept(traj.diagnostics["dt_final"])


def test_returned_increment_is_not_overwritten():
    grid = Grid(16, 2 * np.pi)
    rng = np.random.Generator(np.random.Philox(16))
    first, second = (grid.truncate(random_state(grid, rng).z) for _ in range(2))
    N, speed = nonlinear_rhs(grid, first)
    kept = N.copy()
    N2, _ = nonlinear_rhs(grid, second)
    assert N.tobytes() == kept.tobytes()
    assert not np.shares_memory(N, N2)
    assert nonlinear_rhs(grid, first)[0].tobytes() == kept.tobytes()


def test_run_grid_keeps_no_half_spectrum_array(tmp_path):
    # the datum's draw and check build the half spectrum's per-mode arrays
    # and drop them; the run's Grid keeps only block-sized arrays, its
    # retained Modes among them with every array the run read
    config = RunConfig.from_text("""
[grid]
n = 16
[init]
kind = power
r_star = 0.0
seed = 3
amplitude = 0.5
[time]
dt = 0.05
t_end = 0.1
output_every = 1
[output]
save_snapshots = true
""")
    _, traj = execute_run(config, tmp_path / "run", pair_linear=True, record_tensor=True)
    grid = traj.snapshots[0].grid  # the t = 0 snapshot holds the datum on the run's Grid
    assert grid == config.grid() and holds_only_derived_arrays(grid)
    assert holds_only_derived_arrays(grid.retained)
    arrays = [(name, value) for name, value in vars(grid).items()
              if isinstance(value, np.ndarray)]
    for name, value in vars(grid.retained).items():
        arrays += [(f"retained.{name}", value) for value in
                   (value if isinstance(value, tuple) else (value,))]
    assert {name for name, _ in arrays} == {
        "k_int", "multiplicity", "retained.axes", "retained.odd_axes", "retained.multiplicity",
        "retained.xi_odd", "retained.xi_sq", "retained.xi_mag", "retained._leray"}
    for name, value in arrays:
        assert value.shape[-3:] != grid.spectral_shape, name
        assert value.size < np.prod(grid.spectral_shape), name


def test_runs_on_alternating_grids_are_identical():
    def run(grid):
        z0 = generate_data_with_character(grid, 0.0, seed=5, amplitude=0.5)
        cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.05, t_end=0.2, output_every=2)
        return trajectory_bits(simulate(cfg, z0, pair_linear=True, save_snapshots=True))

    grid_a, grid_b = Grid(16, 2 * np.pi), Grid(8, 2 * np.pi)
    first = run(grid_a)
    run(grid_b)
    assert run(grid_a) == first
    assert holds_only_derived_arrays(grid_a) and holds_only_derived_arrays(grid_b)


def test_run_after_failed_runs_equals_a_run_on_a_fresh_grid():
    grid = Grid(8, 2 * np.pi)
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.1, t_end=0.5)
    z = StateField.zero(grid).z.copy()
    z[0, 1, 0, 0] = np.nan
    with pytest.raises(BlowupError):
        simulate(cfg, StateField(grid, z))
    bad = random_state(grid, np.random.Generator(np.random.Philox(8)), solenoidal=False)
    with pytest.raises(ContractViolation):
        simulate(cfg, bad)
    assert holds_only_derived_arrays(grid)

    # the next run on this grid gives the bits of a run on a fresh grid
    z0 = generate_data_with_character(grid, 0.0, seed=2, amplitude=0.5)
    fresh = Grid(8, 2 * np.pi)
    want = simulate(SolverConfig(grid=fresh, params=PARAMS, dt=0.1, t_end=0.5),
                    StateField(fresh, z0.z), save_snapshots=True)
    assert trajectory_bits(simulate(cfg, z0, save_snapshots=True)) == trajectory_bits(want)


# tracemalloc's live memory while the BlowupError of an n = 32 run is held:
# 1.8 MiB, as the right-hand side's work arrays end with its call; more
# than their 9.3 MiB if the error's traceback kept them
HELD_BLOWUP_MIB_32 = 4.0


def test_held_blowup_error_keeps_no_work_arrays(monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "1")
    grid = Grid(32, 2 * np.pi)
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.1, t_end=0.5)
    z = StateField.zero(grid).z.copy()
    z[0, 1, 0, 0] = np.nan
    datum = StateField(grid, z)
    with pytest.raises(BlowupError):
        simulate(cfg, datum)  # the per-mode arrays and transform plans stay warm
    tracemalloc.start()
    try:
        with pytest.raises(BlowupError) as held:
            simulate(cfg, datum)
        live = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert held.value.t == 0.1
    assert live <= HELD_BLOWUP_MIB_32, f"a held BlowupError keeps {live:.1f} MiB"


def test_concurrent_runs_on_one_grid_equal_serial_runs():
    grid = Grid(32, 64 * np.pi)
    seeds = (1, 2)
    data = {seed: generate_data_with_character(grid, 0.0, seed=seed, amplitude=1e-2)
            for seed in seeds}
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=1.0, t_end=4.0, output_every=2)

    def rhs_bits(seed):
        z = grid.truncate(data[seed].z)
        return [nonlinear_rhs(grid, z)[0].tobytes() for _ in range(10)]

    def run_bits(seed):
        return trajectory_bits(simulate(cfg, data[seed], save_snapshots=True))

    for job in (rhs_bits, run_bits):
        serial = {seed: job(seed) for seed in seeds}
        start = threading.Barrier(len(seeds))

        def together(seed):
            start.wait(timeout=60)
            return job(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two callers finely
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                concurrent = dict(zip(seeds, pool.map(together, seeds, timeout=300)))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial, job.__name__
    assert holds_only_derived_arrays(grid)
