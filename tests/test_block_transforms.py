"""The right-hand side's pruned transforms: the same bits on the block.

nonlinear_rhs calls grid.inverse and grid.forward with block_only, which
skip the lines that carry only zeros in and the lines that feed only modes
outside the 2/3-rule block out.  These tests compare them with one 3-axis
pocketfft call (scipy.fft) bit for bit, in split and unsplit row groups;
check that the inverse leaves its input +0 outside the block, that a
reused Buffers gives the bits of a fresh one, and that a right-hand side
makes one inverse and two 9-row forward batches.
"""

import numpy as np
import pytest
import scipy.fft

from mmplab import grid as grid_module
from mmplab import solver as solver_module
from mmplab.fields import Grid
from mmplab.grid import forward, inverse
from mmplab.solver import Buffers, nonlinear_rhs

from conftest import random_state

AXES = (-3, -2, -1)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("rows", [9, 1])
@pytest.mark.parametrize("n", [8, 10, 16, 24, 32, 48, 64])
def test_block_bits_equal_one_3_axis_call(monkeypatch, threads, rows, n):
    # 2 and 3 workers split the 9-row batches; 1 row runs whole
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n * rows)).normal(size=(rows, n, n, n))
    want = grid.truncate(scipy.fft.rfftn(phys, axes=AXES, norm="forward"))
    out = np.full((rows,) + grid.spectral_shape, np.nan, dtype=complex)
    assert forward(phys, out=out, block_only=True) is out
    assert grid.truncate(out).tobytes() == want.tobytes()

    padded = grid.pad(want)
    back = scipy.fft.irfftn(padded, s=(n, n, n), axes=AXES, norm="forward")
    assert inverse(padded, block_only=True).tobytes() == back.tobytes()
    # the input is +0 outside the block, so pad(out=) can reuse it
    assert grid.pad(np.zeros_like(want), out=padded).tobytes() == bytes(padded.nbytes)
    out = np.empty_like(back)
    assert inverse(grid.pad(want, out=padded), out=out, block_only=True) is out
    assert out.tobytes() == back.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", [16, 32, 48])
def test_reused_buffers_give_the_bits_of_fresh_ones(monkeypatch, threads, n):
    # the second state differs from the first, so a line left over from the
    # first call would show in the second
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    rng = np.random.Generator(np.random.Philox(n))
    states = [grid.truncate(random_state(grid, rng).z) for _ in range(2)]
    work = Buffers(grid)
    for z in states:
        N, speed = nonlinear_rhs(grid, z, work)
        fresh, fresh_speed = nonlinear_rhs(grid, z, Buffers(grid))
        assert N.tobytes() == fresh.tobytes()
        assert np.float64(speed).tobytes() == np.float64(fresh_speed).tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_one_inverse_and_two_forward_batches_of_nine(monkeypatch, n):
    # perfbench's traced grid.fft counts look up these module attributes
    calls = []

    def spy(name, real):
        def call(arr, *args, **kw):
            calls.append((name, arr.shape[0], kw.get("block_only")))
            return real(arr, *args, **kw)
        return call

    monkeypatch.setattr(grid_module, "inverse", spy("grid.inverse", grid_module.inverse))
    monkeypatch.setattr(grid_module, "forward", spy("grid.forward", grid_module.forward))
    monkeypatch.setattr(solver_module, "forward", spy("solver.forward", solver_module.forward))
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    calls.clear()
    nonlinear_rhs(grid, z, Buffers(grid))
    assert calls == [("grid.inverse", 9, True), ("solver.forward", 9, True),
                     ("solver.forward", 9, True)]
