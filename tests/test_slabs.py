"""Slab-parallel element-wise stages: the same bits at any thread count.

Grids above n = 32 run the sector-kernel apply, the products and the
post-transform stage of the nonlinear term, and the Leray projection in
grid.SLABS planes on the MMP_THREADS workers; these tests run at n = 64,
where the slab path is taken, and check that n = 32 never takes it.
"""

import os
import sys

import numpy as np
import pytest

from mmplab import grid as grid_module
from mmplab.decay_character import SpectralProfile
from mmplab.fields import Grid, PhysParams, leray_project
from mmplab.grid import forward
from mmplab.harness import RunConfig, execute_run
from mmplab.linear import make_radial_state
from mmplab.propagator import SectorKernel
from mmplab.solver import (Buffers, SolverConfig, advective_products, nonlinear_rhs,
                           simulate)

from conftest import padded_rhs, random_state

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


@pytest.fixture(scope="module")
def grid64():
    return Grid(64, 2 * np.pi)


@pytest.fixture(scope="module")
def state64(grid64):
    return random_state(grid64, np.random.Generator(np.random.Philox(64)))


@pytest.fixture
def pool_uses(monkeypatch):
    """Count the pool lookups of grid.slab_map, one per slab-parallel stage."""
    uses = []
    real = grid_module._slab_pool
    monkeypatch.setattr(grid_module, "_slab_pool", lambda workers: uses.append(workers)
                        or real(workers))
    return uses


class TestSlabMap:
    def test_covers_every_plane_once_in_order(self, monkeypatch):
        shape = (64, 64, 33)
        monkeypatch.setenv("MMP_THREADS", "2")
        slabs = grid_module.slab_map(lambda sl: np.arange(64)[sl], shape)
        assert len(slabs) == grid_module.SLABS
        assert np.array_equal(np.concatenate(slabs), np.arange(64))
        monkeypatch.setenv("MMP_THREADS", "1")
        assert grid_module.slab_map(lambda sl: sl, shape) == [...]

    def test_small_arrays_run_whole(self, monkeypatch):
        monkeypatch.setenv("MMP_THREADS", "2")
        assert grid_module.slab_map(lambda sl: sl, (32, 32, 17)) == [...]

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setenv("MMP_THREADS", "2")
        ones, zeros = np.ones(64), np.zeros(64)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                grid_module.slab_map(lambda sl: ones[sl] / zeros[sl], (64, 64, 33))


class TestWorkerCount:
    def test_default_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("MMP_THREADS", raising=False)
        assert grid_module.worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("MMP_THREADS", " ")
        assert grid_module.worker_count() == len(os.sched_getaffinity(0))

    def test_default_without_affinity_call(self, monkeypatch):
        monkeypatch.delenv("MMP_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert grid_module.worker_count() == (os.cpu_count() or 1)

    def test_positive_integer_is_taken(self, monkeypatch):
        monkeypatch.setenv("MMP_THREADS", " 3 ")
        assert grid_module.worker_count() == 3

    @pytest.mark.parametrize("value", ["two", "2.5", "0", "-3"])
    def test_rejects_malformed_or_nonpositive(self, monkeypatch, value):
        monkeypatch.setenv("MMP_THREADS", value)
        with pytest.raises(ValueError, match="MMP_THREADS must be a positive integer"):
            grid_module.worker_count()


@pytest.mark.parametrize("kind", ["exp", "phi1", "phi2"])
@pytest.mark.parametrize("t, taylor", [(1e-5, "all"), (0.05, "some")])
def test_kernel_apply_equals_serial_plane_kernels(grid64, state64, pool_uses,
                                                  monkeypatch, kind, t, taylor):
    # kernels built on 8-plane slices are below the slab size and run serially
    monkeypatch.setenv("MMP_THREADS", "2")
    kernel = SectorKernel(grid64.xi_odd, grid64.xi_sq, PARAMS)
    small = np.abs(t * kernel.lam_lo) < 0.2  # the Taylor switch of the divided differences
    assert small.all() if taylor == "all" else small.any() and not small.all()
    whole = kernel.apply(state64.z, t, kind=kind)
    assert pool_uses == [2]
    planes = [SectorKernel(grid64.xi_odd[:, i:i + 8], grid64.xi_sq[i:i + 8], PARAMS)
              .apply(state64.z[:, i:i + 8], t, kind=kind) for i in range(0, 64, 8)]
    assert pool_uses == [2]
    assert np.array_equal(whole, np.concatenate(planes, axis=1))


def test_nonlinear_rhs_independent_of_thread_count(grid64, state64, pool_uses,
                                                   monkeypatch):
    outputs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the slab threads finely
    try:
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("MMP_THREADS", threads)
            outputs[threads] = padded_rhs(grid64, state64.z)
    finally:
        sys.setswitchinterval(interval)
    # the two groups of products, increments and projection at 2 and at 4 workers
    assert pool_uses == [2, 2, 2, 2, 4, 4, 4, 4]
    N, speed = outputs["1"]
    for threads in ("2", "4"):
        assert outputs[threads][0].tobytes() == N.tobytes()
        assert outputs[threads][1] == speed
    u, _, b = np.split(grid_module.inverse(grid64.pad(grid64.truncate(state64.z))), 3)
    assert speed == (np.sqrt((u ** 2).sum(axis=0)) + np.sqrt((b ** 2).sum(axis=0))).max()
    adv = advective_products(state64)
    oracle = (leray_project(grid64, adv["b", "b"] - adv["u", "u"]), -adv["u", "w"],
              adv["b", "u"] - adv["u", "b"])
    for got, want in zip((N[0:3], N[3:6], N[6:9]), oracle):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [16, 64])
def test_leray_in_place_matches_new_array(monkeypatch, n):
    monkeypatch.setenv("MMP_THREADS", "2")
    grid = Grid(n, 2 * np.pi)
    vhat = forward(np.random.Generator(np.random.Philox(n)).normal(size=(3, n, n, n)))
    vhat[:, 0, 0, 0] = complex(-0.0, -0.0)  # a mode the projection passes through
    projected = leray_project(grid, vhat)
    in_place = vhat.copy()
    assert leray_project(grid, in_place, out=in_place) is in_place
    assert in_place.tobytes() == projected.tobytes()
    assert in_place[:, 0, 0, 0].tobytes() == vhat[:, 0, 0, 0].tobytes()


@pytest.mark.parametrize("scheme", ["etd-rk2", "if-rk4"])
def test_one_step_run_bytes_independent_of_thread_count(tmp_path, monkeypatch, scheme):
    config = RunConfig.from_text(f"""
[grid]
n = 64
[init]
kind = power
r_star = 0.0
seed = 5
amplitude = 0.01
[time]
dt = 0.05
t_end = 0.05
output_every = 1
scheme = {scheme}
[output]
save_snapshots = true
""")
    files = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MMP_THREADS", threads)
        out, traj = execute_run(config, tmp_path / threads, pair_linear=True)
        assert len(traj.times) == 2
        files[threads] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.suffix in (".csv", ".snap")}
    assert len(files["1"]) == 4  # series, extra series and two snapshots
    assert files["1"] == files["2"]


def test_small_grids_and_radial_kernels_never_use_the_pool(monkeypatch):
    def refuse(workers):
        raise AssertionError("slab pool used")

    monkeypatch.setenv("MMP_THREADS", "2")
    monkeypatch.setattr(grid_module, "_slab_pool", refuse)
    grid = Grid(32, 2 * np.pi)
    state = random_state(grid, np.random.Generator(np.random.Philox(32)))
    nonlinear_rhs(grid, grid.truncate(state.z), Buffers(grid))
    kernel = SectorKernel(grid.xi_odd, grid.xi_sq, PARAMS)
    for kind in ("exp", "phi1", "phi2"):
        kernel.apply(state.z, 0.05, kind=kind)
    simulate(SolverConfig(grid=grid, params=PARAMS, dt=0.05, t_end=0.05), state)
    radial = make_radial_state(SpectralProfile.power_law(0.0), PARAMS)
    radial.norms_at(1.0)
    radial.norms_at(np.geomspace(1.0, 1e4, 200))
    radial.ball_mass_at(10.0, 0.3)
    # the same patch bites at n = 64
    with pytest.raises(AssertionError, match="slab pool used"):
        leray_project(Grid(64, 2 * np.pi), np.zeros((3, 64, 64, 33), dtype=complex))
