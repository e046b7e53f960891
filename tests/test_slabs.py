"""The pool's one splitting policy and split FFT batches: the same bits
at any thread count.

Work on the MMP_THREADS pool is split one way (grid._split): one
contiguous group of rows per worker, the first on the calling thread.
FFT batches of two or more arrays split so at every grid size; these
tests compare them with scipy.fft bit for bit up to n = 64, and check
that a group's error is raised and that a transform in a group on a
pool thread runs whole.  Arrays of grid.SLAB_MIN_SIZE points or more
(the retained block from n = 64, a half spectrum from n = 44) run the
sector-kernel apply, the post-transform stage of the nonlinear term and
the Leray projection split the same way (grid.slab_map, with the row
bounds of a batch); these tests run at n = 64, where the split is taken,
pin those first sizes and check that n = 32 never takes it.  forward's
form, which makes the right-hand side's products row by row inside those
groups, each group on its own scratch index, is checked for coverage,
order, errors and errstate, and the right-hand side for its bits at 1 to
9 workers; slab_map and run_beside on a pool thread must run there.
"""

import math
import os
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mmplab import grid as grid_module
from mmplab import solver as solver_module
from mmplab.decay_character import SpectralProfile, generate_data_with_character
from mmplab.fields import Grid, PhysParams, leray_project
from mmplab.grid import forward, inverse
from mmplab.harness import RunConfig, execute_run
from mmplab.linear import make_radial_state
from mmplab.propagator import SectorKernel
from mmplab.solver import SolverConfig, advective_products, nonlinear_rhs, simulate

from conftest import irfft3, padded_rhs, random_state, rfft3

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


@pytest.fixture(scope="module")
def grid64():
    return Grid(64, 2 * np.pi)


@pytest.fixture(scope="module")
def state64(grid64):
    return random_state(grid64, np.random.Generator(np.random.Philox(64)))


@pytest.fixture
def pool_uses(monkeypatch):
    """Count the pool lookups, one per split batch or slab stage."""
    uses = []
    real = grid_module._slab_pool
    monkeypatch.setattr(grid_module, "_slab_pool", lambda workers: uses.append(workers)
                        or real(workers))
    return uses


@pytest.fixture
def no_pool_on_pool(monkeypatch):
    """Fail at once when a pool thread looks up the pool, where a task that
    waited on it could wait forever; _in_daemon_thread bounds the rest."""
    pool = grid_module._slab_pool

    def lookup(workers):
        assert not grid_module._on_pool_thread(), "a pool thread looked up the pool"
        return pool(workers)

    monkeypatch.setattr(grid_module, "_slab_pool", lookup)


def _in_daemon_thread(fn):
    """fn() on a daemon thread joined for at most 30 s: a call that waits
    on the pool forever fails the test instead of hanging it."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "a call on a pool thread waited on the pool"
    result, = outcome
    if isinstance(result, Exception):
        raise result
    return result


def _calls(fn):
    """fn wrapped to append (sl, whether on a pool thread) to its .seen, a
    list filled from any thread, on each call."""
    seen = []

    def call(sl):
        seen.append((sl, grid_module._on_pool_thread()))
        return fn(sl)

    call.seen = seen
    return call


class TestSlabMap:
    def test_covers_every_plane_once_in_order(self, monkeypatch):
        shape = (64, 64, 33)
        monkeypatch.setenv("MMP_THREADS", "2")
        planes = np.zeros(64, dtype=int)

        @_calls
        def fn(sl):
            planes[sl] += 1

        assert grid_module.slab_map(fn, shape) is None
        assert sorted(fn.seen, key=lambda call: call[0].start) == [
            (slice(0, 32), False), (slice(32, 64), True)]
        assert (planes == 1).all()
        monkeypatch.setenv("MMP_THREADS", "1")
        fn = _calls(lambda sl: None)
        grid_module.slab_map(fn, shape)
        assert fn.seen == [(slice(None), False)]

    def test_small_arrays_run_whole(self, monkeypatch, pool_uses):
        monkeypatch.setenv("MMP_THREADS", "2")
        fn = _calls(lambda sl: None)
        grid_module.slab_map(fn, (32, 32, 17))
        assert fn.seen == [(slice(None), False)] and pool_uses == []

    def test_first_splitting_sizes(self, monkeypatch):
        # SLAB_MIN_SIZE points per component: the retained block reaches it
        # from n = 64 (40,678 points; 35,301 at n = 62), a half spectrum
        # from n = 44 (44,528; 38,808 at n = 42)
        monkeypatch.setenv("MMP_THREADS", "2")

        def first_split(shape_of):
            for n in range(8, 130, 2):
                fn = _calls(lambda sl: None)
                grid_module.slab_map(fn, shape_of(Grid(n, 2 * np.pi)))
                if len(fn.seen) > 1:
                    return n

        assert first_split(lambda grid: grid.retained_shape) == 64
        assert first_split(lambda grid: grid.spectral_shape) == 44

    @pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
    def test_groups_are_those_of_a_batch(self, monkeypatch, threads):
        # slab_map's groups of 64 planes are forward's groups of 64 rows,
        # whose scratch indices count them in order, and the first runs on
        # the calling thread
        monkeypatch.setenv("MMP_THREADS", threads)
        caller = threading.current_thread()
        slabs, rows = [], {}
        grid_module.slab_map(lambda sl: slabs.append(
            (range(64)[sl], threading.current_thread() is caller)), (64, 64, 33))

        def form(k, group):
            rows.setdefault(group, []).append((k, threading.current_thread() is caller))
            return np.zeros((8, 8, 8))

        forward(np.zeros((64, 8, 8, 8)), work=np.empty((int(threads), 8, 8, 5), dtype=complex),
                form=form)
        slabs.sort(key=lambda slab: slab[0].start)
        groups = [rows[group] for group in range(len(rows))]
        assert [(range(group[0][0], group[-1][0] + 1), group[0][1]) for group in groups] == slabs
        assert len(slabs) == int(threads)
        assert [on_caller for rows, on_caller in slabs] == [True] + [False] * (len(slabs) - 1)
        assert [k for group in groups for k, _ in group] == list(range(64))
        assert all(len({on for _, on in group}) == 1 for group in groups)

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
    modes = grid64.half_modes()
    kernel = SectorKernel(modes.xi_odd, modes.xi_sq, PARAMS)
    small = np.abs(t * kernel.lam_lo) < 0.2  # the Taylor switch of the divided differences
    assert small.all() if taylor == "all" else small.any() and not small.all()
    whole = kernel.apply(state64.z, t, kind=kind)
    assert pool_uses == [2]
    planes = [SectorKernel(modes.xi_odd[:, i:i + 8], modes.xi_sq[i:i + 8], PARAMS)
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
    # the inverse batch of u and b, the first forward batch and its slab
    # stage, the inverse batch of w, the second forward batch and its slab
    # stage (which also projects): six uses at 2 and at 4 workers
    assert pool_uses == [2] * 6 + [4] * 6
    N, speed = outputs["1"]
    for threads in ("2", "4"):
        assert outputs[threads][0].tobytes() == N.tobytes()
        assert outputs[threads][1] == speed
    u, _, b = np.split(irfft3(grid64.pad(grid64.truncate(state64.z))), 3)
    assert speed == (np.sqrt((u ** 2).sum(axis=0)) + np.sqrt((b ** 2).sum(axis=0))).max()
    adv = advective_products(grid64, grid64.truncate(state64.z))
    oracle = (leray_project(grid64.retained, adv["b", "b"] - adv["u", "u"]), -adv["u", "w"],
              adv["b", "u"] - adv["u", "b"])
    for got, want in zip(np.split(grid64.truncate(N), 3), oracle):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [16, 64])
def test_leray_in_place_matches_new_array(monkeypatch, n):
    monkeypatch.setenv("MMP_THREADS", "2")
    grid = Grid(n, 2 * np.pi)
    vhat = rfft3(np.random.Generator(np.random.Philox(n)).normal(size=(3, n, n, n)))
    vhat[:, 0, 0, 0] = complex(-0.0, -0.0)  # a mode the projection passes through
    projected = leray_project(grid.half_modes(), vhat)
    in_place = vhat.copy()
    assert leray_project(grid.half_modes(), in_place, out=in_place) is in_place
    assert in_place.tobytes() == projected.tobytes()
    assert in_place[:, 0, 0, 0].tobytes() == vhat[:, 0, 0, 0].tobytes()


def _leray_formula(modes, v):
    """The projection as one array formula, (xi . v) by .sum(axis=0)."""
    dot = (modes.xi_odd * v).sum(axis=0)
    out = v - modes.xi_odd * (dot / modes.leray_divisor)[None]
    out[:, modes.leray_fixed] = v[:, modes.leray_fixed]
    return out


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("n", [16, 64])
def test_leray_bits_equal_the_array_formula(monkeypatch, threads, block, n):
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    vhat = rfft3(np.random.Generator(np.random.Philox(n)).normal(size=(3, n, n, n)))
    modes = grid.retained if block else grid.half_modes()
    if block:
        vhat = grid.truncate(vhat)
    assert leray_project(modes, vhat).tobytes() == _leray_formula(modes, vhat).tobytes()


def test_leray_peak_memory(monkeypatch):
    # the 3-component output and two 1-component scratch arrays: 10.4 MiB
    monkeypatch.setenv("MMP_THREADS", "1")
    grid = Grid(64, 2 * np.pi)
    vhat = rfft3(np.random.Generator(np.random.Philox(5)).normal(size=(3, 64, 64, 64)))
    modes = grid.half_modes()  # held by the caller, as the data generator holds them
    leray_project(modes, vhat)
    tracemalloc.start()
    try:
        leray_project(modes, vhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_divergence_check_peak_memory():
    # the half spectrum's xi_odd and one scratch array: 10.3 MiB; the check
    # builds no other per-mode array
    grid = Grid(64, 2 * np.pi)
    state = generate_data_with_character(grid, 0.0, seed=5, amplitude=0.5)
    tracemalloc.start()
    try:
        state.divergence_error()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2 ** 20


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
    # 3 and 4 workers cut the 9-row batches into groups of unequal sizes
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("MMP_THREADS", threads)
        out, traj = execute_run(config, tmp_path / threads, pair_linear=True)
        assert len(traj.times) == 2
        files[threads] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.suffix in (".csv", ".snap")}
    assert len(files["1"]) == 4  # series, extra series and two snapshots
    for threads in ("2", "3", "4"):
        assert files[threads] == files["1"]


def test_split_transform_run_bytes_independent_of_thread_count(tmp_path, monkeypatch):
    # the torus-etd run at n = 32, where every transform batch is split
    config = RunConfig.from_text(f"""
[grid]
n = 32
length = {64 * np.pi!r}
[init]
kind = power
r_star = 0.0
seed = 10
amplitude = 0.01
[time]
dt = 1.0
t_end = 8.0
output_every = 4
scheme = etd-rk2
[output]
save_snapshots = true
""")
    files = {}
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("MMP_THREADS", threads)
        out, _ = execute_run(config, tmp_path / threads, pair_linear=True)
        files[threads] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.suffix in (".csv", ".snap")}
    assert len(files["1"]) == 5  # series, extra series and three snapshots
    for threads in ("2", "3", "4"):
        assert files[threads] == files["1"]


def test_small_grid_pool_use_is_the_transform_batches(pool_uses, monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "2")
    grid = Grid(32, 2 * np.pi)
    state = random_state(grid, np.random.Generator(np.random.Philox(32)))
    pool_uses.clear()  # the datum's three forward batches
    nonlinear_rhs(grid, grid.truncate(state.z))
    # the inverse batches of u and b and of w and two forward batches of
    # nine products; the slab stages between them run whole
    assert pool_uses == [2, 2, 2, 2]
    modes = grid.half_modes()
    kernel = SectorKernel(modes.xi_odd, modes.xi_sq, PARAMS)
    for kind in ("exp", "phi1", "phi2"):
        kernel.apply(state.z, 0.05, kind=kind)
    radial = make_radial_state(SpectralProfile.power_law(0.0), PARAMS)
    radial.norms_at(1.0)
    radial.norms_at(np.geomspace(1.0, 1e4, 200))
    radial.ball_mass_at(10.0, 0.3)
    assert pool_uses == [2, 2, 2, 2]
    # a run looks the pool up for its right-hand sides' batches only
    pool_uses.clear()
    rhs_calls = []
    monkeypatch.setattr(solver_module, "nonlinear_rhs",
                        lambda *args: rhs_calls.append(True) or nonlinear_rhs(*args))
    simulate(SolverConfig(grid=grid, params=PARAMS, dt=0.05, t_end=0.05), state)
    assert rhs_calls and pool_uses == [2] * (4 * len(rhs_calls))
    # the slab stages take the pool at n = 64
    pool_uses.clear()
    leray_project(Grid(64, 2 * np.pi).half_modes(), np.zeros((3, 64, 64, 33), dtype=complex))
    assert pool_uses == [2]


def _scipy_pair(grid, phys):
    """scipy.fft's retained blocks of phys and the fields of those blocks."""
    block = grid.truncate(rfft3(phys))
    return block, irfft3(grid.pad(block))


class TestSplitBatches:
    @pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("rows", [9, 18])
    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    def test_bitwise_equal_to_scipy(self, pool_uses, monkeypatch, threads, rows, n):
        # 3 and 4 workers cut 9 and 18 rows into groups of unequal sizes
        monkeypatch.setenv("MMP_THREADS", threads)
        grid = Grid(n, 2 * np.pi)
        phys = np.random.Generator(np.random.Philox(n * rows)).normal(size=(rows, n, n, n))
        block, back = _scipy_pair(grid, phys)
        assert forward(phys).tobytes() == block.tobytes()
        out = np.empty_like(block)
        assert forward(phys, out=out) is out and out.tobytes() == block.tobytes()
        assert inverse(block, grid).tobytes() == back.tobytes()
        assert pool_uses == ([] if threads == "1" else [int(threads)] * 3)

    def test_single_arrays_run_whole(self, pool_uses, monkeypatch):
        # a batch of one row
        monkeypatch.setenv("MMP_THREADS", "2")
        rng = np.random.Generator(np.random.Philox(1))
        for n in (16, 48, 64):
            grid = Grid(n, 2 * np.pi)
            phys = rng.normal(size=(1, n, n, n))
            block, back = _scipy_pair(grid, phys)
            assert forward(phys).tobytes() == block.tobytes()
            assert inverse(block, grid).tobytes() == back.tobytes()
        assert pool_uses == []

    @pytest.mark.parametrize("threads", ["2", "3"])
    @pytest.mark.parametrize("failing", ["pool", "caller"])
    @pytest.mark.parametrize("transform", ["forward", "inverse"])
    def test_group_error_is_raised_after_every_group_ends(self, monkeypatch, threads,
                                                          failing, transform):
        monkeypatch.setenv("MMP_THREADS", threads)
        grid = Grid(16, 2 * np.pi)
        phys = np.random.Generator(np.random.Philox(2)).normal(size=(9, 16, 16, 16))
        args = (phys,) if transform == "forward" else (forward(phys), grid)
        # pocketfft calls per group: the passes on each row in turn, 4 per
        # row (forward: z, x and y on two sets of x rows; inverse: x on two
        # sets of y rows, y and z)
        sizes = np.diff([9 * i // int(threads) for i in range(int(threads) + 1)])
        calls = [4 * size for size in sizes]
        started, ended = [], []
        real = grid_module._pocketfft

        def group(name):
            def call(*args):
                started.append(True)
                try:
                    in_pool = threading.current_thread().name.startswith("mmplab-slab")
                    if in_pool == (failing == "pool"):
                        raise RuntimeError("group failed")
                    time.sleep(0.05)  # the groups that succeed outlast the failing one
                    return getattr(real, name)(*args)
                finally:
                    ended.append(True)
            return call

        monkeypatch.setattr(grid_module, "_pocketfft", SimpleNamespace(
            r2c=group("r2c"), c2r=group("c2r"), c2c=group("c2c")))
        with pytest.raises(RuntimeError, match="group failed"):
            getattr(grid_module, transform)(*args)
        # a failing group stops at its first call, the others make all theirs
        failed = [0] if failing == "caller" else range(1, int(threads))
        want = sum(1 if i in failed else count for i, count in enumerate(calls))
        assert len(started) == len(ended) == want

    @pytest.mark.parametrize("n", [16, 64])
    def test_transform_in_a_slab_runs_whole(self, monkeypatch, no_pool_on_pool, n):
        # The group on a pool thread must transform its batch whole: were
        # it split there, a pool thread would wait on the pool.  The
        # calling thread's group splits its batch as any caller does.
        monkeypatch.setenv("MMP_THREADS", "2")
        phys = np.random.Generator(np.random.Philox(3)).normal(size=(9, n, n, n))
        block, _ = _scipy_pair(Grid(n, 2 * np.pi), phys)
        same = []
        fn = _calls(lambda sl: same.append(forward(phys).tobytes() == block.tobytes()))
        _in_daemon_thread(lambda: grid_module.slab_map(fn, (64, 64, 33)))
        assert sorted(on_pool for _, on_pool in fn.seen) == [False, True]
        assert same == [True, True]


class TestPoolThreadGuard:
    def test_slab_map_in_a_slab_runs_whole(self, monkeypatch, no_pool_on_pool):
        # A slab_map call in the group on a pool thread runs whole there;
        # the one in the calling thread's group splits as any caller does.
        monkeypatch.setenv("MMP_THREADS", "2")
        shape = (64, 64, 33)
        inner = []

        def outer(sl):
            on_pool = grid_module._on_pool_thread()
            fn = _calls(lambda inner_sl: None)
            grid_module.slab_map(fn, shape)
            inner.append((on_pool, sorted(fn.seen, key=lambda call: call[0].start or 0)))

        _in_daemon_thread(lambda: grid_module.slab_map(outer, shape))
        assert sorted(inner) == [
            (False, [(slice(0, 32), False), (slice(32, 64), True)]),
            (True, [(slice(None), True)])]

    def test_run_beside_in_a_slab_runs_here(self, monkeypatch, no_pool_on_pool):
        monkeypatch.setenv("MMP_THREADS", "2")
        pairs = []

        def slab(sl):
            future = grid_module.run_beside(lambda: threading.current_thread().name)
            if grid_module._on_pool_thread():
                assert future.done()
            pairs.append((threading.current_thread().name, future.result()))

        _in_daemon_thread(lambda: grid_module.slab_map(slab, (64, 64, 33)))
        on_pool = [(outer, inner) for outer, inner in pairs if outer.startswith("mmplab-slab")]
        assert len(pairs) == 2 and len(on_pool) == 1
        assert all(inner == outer for outer, inner in on_pool)


@pytest.fixture
def group_rows(monkeypatch):
    """The rows of each group of every batch of nonlinear_rhs's forward
    batches, as (group, rows it formed in turn, whether all on one thread)."""
    seen = []
    real = solver_module.forward

    def spy(phys, out=None, *, work, form):
        rows = {}

        def record(k, group):
            rows.setdefault(group, []).append((k, threading.current_thread()))
            return form(k, group)

        try:
            return real(phys, out=out, work=work, form=record)
        finally:
            seen.extend((group, [k for k, _ in rows[group]],
                         len({thread for _, thread in rows[group]}) == 1) for group in rows)

    monkeypatch.setattr(solver_module, "forward", spy)
    return seen


class TestFusedRhs:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bits_independent_of_thread_count(self, monkeypatch, group_rows, n):
        grid = Grid(n, 2 * np.pi)
        z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
        outputs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the groups' threads finely
        try:
            for threads in ("1", "2", "3", "4", "9"):
                monkeypatch.setenv("MMP_THREADS", threads)
                group_rows.clear()
                outputs[threads] = nonlinear_rhs(grid, z)
                # each of the two batches forms rows 0..8 once, in one group
                # per worker, each group its own rows in turn on one thread;
                # at 9 workers row 0's group is row 0
                groups = min(int(threads), 9)
                assert sorted(group for group, _, _ in group_rows) == sorted(2 * list(range(groups)))
                covered = sorted(k for _, rows, _ in group_rows for k in rows)
                assert covered == sorted(2 * list(range(9)))
                assert all(rows == sorted(rows) and one for _, rows, one in group_rows)
                assert [rows for group, rows, _ in group_rows if group == 0] \
                    == 2 * [list(range(9 // groups))]
        finally:
            sys.setswitchinterval(interval)
        N, speed = outputs["1"]
        for threads, (got, got_speed) in outputs.items():
            assert got.tobytes() == N.tobytes(), threads
            assert np.float64(got_speed).tobytes() == np.float64(speed).tobytes(), threads

    @pytest.mark.parametrize("n", [16, 64])
    def test_one_nan_point_gives_a_nan_speed(self, monkeypatch, n):
        # a NaN at the last point of b_y, in the batch of u's and b's fields
        real = grid_module.inverse

        def inverse(blocks, grid, out=None):
            phys = real(blocks, grid, out=out)
            if phys.shape[:-3] == (2, 3):
                phys[1, 1, -1, -1, -1] = np.nan
            return phys

        monkeypatch.setattr(grid_module, "inverse", inverse)
        grid = Grid(n, 2 * np.pi)
        z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
        for threads in ("1", "2", "3", "4", "9"):
            monkeypatch.setenv("MMP_THREADS", threads)
            _, speed = nonlinear_rhs(grid, z)
            assert math.isnan(speed), threads


class TestForwardForm:
    @pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("shape", [(9, 16, 16, 16), (9, 48, 48, 48), (1, 16, 16, 16)])
    def test_each_row_once_in_its_group(self, monkeypatch, threads, shape):
        # form makes each row in its group's own scratch, once, with the
        # rows of a group in turn on one thread: the block has scipy's bits,
        # and the same as without form
        monkeypatch.setenv("MMP_THREADS", threads)
        data = np.random.Generator(np.random.Philox(4)).normal(size=shape)
        grid = Grid(shape[-1], 2 * np.pi)
        want = _scipy_pair(grid, data)[0]
        groups = min(int(threads), shape[0])
        work = np.empty((groups,) + grid.spectral_shape, dtype=complex)
        assert forward(data, work=work).tobytes() == want.tobytes()
        scratch = np.full((groups,) + shape[1:], np.nan)
        formed = []

        def form(k, group):
            formed.append((group, k, threading.current_thread()))
            scratch[group] = data[k]
            return scratch[group]

        out = np.full_like(want, np.nan)
        assert forward(np.full_like(data, np.nan), out=out, work=work, form=form) is out
        assert out.tobytes() == want.tobytes()
        assert sorted(k for _, k, _ in formed) == list(range(shape[0]))
        by_group = [[(k, thread) for g, k, thread in formed if g == group]
                    for group in range(groups)]
        bounds = [shape[0] * i // groups for i in range(groups + 1)]
        assert [[k for k, _ in rows] for rows in by_group] == [
            list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert all(len({thread for _, thread in rows}) == 1 for rows in by_group)

    @pytest.mark.parametrize("threads", ["2", "3"])
    @pytest.mark.parametrize("failing", ["pool", "caller"])
    @pytest.mark.parametrize("hook", ["form", "slab_map"])
    def test_hook_error_is_raised_after_every_group_ends(self, monkeypatch, threads,
                                                         failing, hook):
        monkeypatch.setenv("MMP_THREADS", threads)
        phys = np.random.Generator(np.random.Philox(2)).normal(size=(9, 16, 16, 16))
        started, ended = [], []

        def fn(*args):
            started.append(True)
            try:
                if grid_module._on_pool_thread() == (failing == "pool"):
                    raise RuntimeError("hook failed")
                time.sleep(0.05)  # the groups that succeed outlast the failing one
            finally:
                ended.append(True)
            return phys[args[0]] if hook == "form" else None

        with pytest.raises(RuntimeError, match="hook failed"):
            if hook == "slab_map":
                grid_module.slab_map(fn, (64, 64, 33))
            else:
                forward(phys, work=np.empty((int(threads), 16, 16, 9), dtype=complex), form=fn)
        # a failing group stops at its first row, the others form all theirs
        sizes = [1] * int(threads) if hook == "slab_map" else list(
            np.diff([9 * i // int(threads) for i in range(int(threads) + 1)]))
        failed = [0] if failing == "caller" else range(1, int(threads))
        want = sum(1 if i in failed else size for i, size in enumerate(sizes))
        assert len(started) == len(ended) == want

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_pool_groups_see_the_callers_errstate(self, monkeypatch, threads):
        monkeypatch.setenv("MMP_THREADS", threads)
        phys = np.zeros((9, 16, 16, 16))

        def form(k, group):
            if grid_module._on_pool_thread():
                np.ones(1) / np.zeros(1)
            return phys[k]

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                forward(phys, work=np.empty((int(threads), 16, 16, 9), dtype=complex),
                        form=form)
