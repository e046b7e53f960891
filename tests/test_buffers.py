"""Reused transform buffers and cached sector-kernel weights.

The right-hand side writes its transforms into Grid.buffers, and the
stepper's applies take their weights from tables cached per (t, kind) on
the kernel.  Neither may change a bit: these tests pin the out= transforms
to scipy.fft, the two 9-row product batches to one batch of 18, a cached
apply to a fresh kernel's, and a run to the same run on a fresh Grid, and
check that no run leaves buffers behind and that the buffers stay at one
group of nine products.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from mmplab import solver
from mmplab.decay_character import generate_data_with_character
from mmplab.fields import ContractViolation, Grid, PhysParams, StateField
from mmplab.grid import forward, inverse
from mmplab.propagator import SectorKernel, get_propagator
from mmplab.solver import BlowupError, SolverConfig, nonlinear_rhs, simulate

from conftest import random_state

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)
KINDS = ("exp", "phi1", "phi2")


def trajectory_bits(traj):
    return (traj.times, repr(traj.norm_rows), repr(traj.diagnostics),
            [snap.z.tobytes() for snap in traj.snapshots])


@pytest.mark.parametrize("n", [8, 12, 32])
def test_out_transforms_equal_scipy_bitwise(n, monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "2")
    phys = np.random.Generator(np.random.Philox(n)).normal(size=(5, n, n, n))
    want = sfft.rfftn(phys, axes=(-3, -2, -1), norm="forward", workers=2)
    out = np.empty(want.shape, dtype=complex)
    assert forward(phys, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert forward(phys).tobytes() == want.tobytes()

    back = sfft.irfftn(want, s=(n, n, n), axes=(-3, -2, -1), norm="forward", workers=2)
    out = np.empty(back.shape)
    spec = want.copy()
    assert inverse(spec, out=out) is out
    assert out.tobytes() == back.tobytes()
    assert inverse(spec).tobytes() == back.tobytes()
    assert spec.tobytes() == want.tobytes()  # the input is left as it was


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_two_batches_of_nine_equal_one_batch_of_18(n, monkeypatch):
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n)).normal(size=(18, n, n, n))
    half = np.empty((9,) + grid.spectral_shape, dtype=complex)
    for threads in ("1", "2"):
        monkeypatch.setenv("MMP_THREADS", threads)
        want = grid.truncate(forward(phys))
        got = np.empty_like(want)
        for rows in (slice(0, 9), slice(9, 18)):
            grid.truncate(forward(phys[rows], out=half), out=got[rows])
        assert got.tobytes() == want.tobytes()


def test_buffers_hold_one_group_of_nine_products():
    grid = Grid(16, 2 * np.pi)
    buffers = grid.buffers
    assert buffers.padded.shape == (9,) + grid.spectral_shape
    assert buffers.fields.shape == buffers.products.shape == (9, 16, 16, 16)
    assert buffers.spectra.shape == (9,) + grid.spectral_shape


# tracemalloc peak of one n = 64 right-hand side that makes its buffers:
# 93.6 MiB measured with 9-row products (76.7 MiB of buffers, the 18-row
# retained spectra and N), 130 MiB with 18-row ones
RHS_PEAK_MIB_64 = 105.0


def test_rhs_peak_memory_at_n64(monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "1")  # whole arrays: the largest temporaries
    grid = Grid(64, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(64))).z)
    nonlinear_rhs(grid, z)  # the per-mode arrays and transform plans stay warm
    grid.release_buffers()  # as simulate does before every output row
    tracemalloc.start()
    try:
        nonlinear_rhs(grid, z)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
        grid.release_buffers()
    assert peak < RHS_PEAK_MIB_64, f"right-hand side peaked at {peak:.1f} MiB"


@pytest.mark.parametrize("n, threads", [(16, "1"), (64, "2")])
def test_cached_apply_equals_fresh_kernel(n, threads, monkeypatch):
    # n = 64 runs the applies in slabs on two workers
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    rng = np.random.Generator(np.random.Philox(n))
    z1, z2 = (random_state(grid, rng).z for _ in range(2))
    kernel = SectorKernel(grid.xi_odd, grid.xi_sq, PARAMS)
    for kind in KINDS:
        for t in (0.05, 3.0):
            miss = kernel.apply(z1, t, kind, cache=True)
            hit = kernel.apply(z2, t, kind, cache=True)
            fresh = SectorKernel(grid.xi_odd, grid.xi_sq, PARAMS)
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
    assert set(prop.retained_kernel.tables) == kept(traj.diagnostics["dt_final"])


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


def test_runs_on_alternating_grids_are_identical():
    def run(grid):
        z0 = generate_data_with_character(grid, 0.0, seed=5, amplitude=0.5)
        cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.05, t_end=0.2, output_every=2)
        return trajectory_bits(simulate(cfg, z0, pair_linear=True, save_snapshots=True))

    grid_a, grid_b = Grid(16, 2 * np.pi), Grid(8, 2 * np.pi)
    first = run(grid_a)
    run(grid_b)
    assert run(grid_a) == first
    assert "buffers" not in vars(grid_a) and "buffers" not in vars(grid_b)


def test_failed_runs_leave_no_buffers():
    grid = Grid(8, 2 * np.pi)
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.1, t_end=0.5)
    z = StateField.zero(grid).z.copy()
    z[0, 1, 0, 0] = np.nan
    with pytest.raises(BlowupError):
        simulate(cfg, StateField(grid, z))
    assert "buffers" not in vars(grid)

    bad = random_state(grid, np.random.Generator(np.random.Philox(8)), solenoidal=False)
    nonlinear_rhs(grid, grid.truncate(bad.z))  # the grid now holds its buffers
    assert "buffers" in vars(grid)
    with pytest.raises(ContractViolation):
        simulate(cfg, bad)
    assert "buffers" not in vars(grid)

    # the next run on this grid gives the bits of a run on a fresh grid
    z0 = generate_data_with_character(grid, 0.0, seed=2, amplitude=0.5)
    fresh = Grid(8, 2 * np.pi)
    want = simulate(SolverConfig(grid=fresh, params=PARAMS, dt=0.1, t_end=0.5),
                    StateField(fresh, z0.z), save_snapshots=True)
    assert trajectory_bits(simulate(cfg, z0, save_snapshots=True)) == trajectory_bits(want)
