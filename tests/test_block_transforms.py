"""The right-hand side's pruned transforms: the same bits on the block.

nonlinear_rhs calls grid.inverse and grid.forward with work, one scratch
row per row group: each group pads, transforms and truncates its rows one
at a time, and skips the lines that carry only zeros in and the lines that
feed only modes outside the 2/3-rule block out.  These tests compare them
with one 3-axis pocketfft call (scipy.fft) bit for bit, in split and
unsplit row groups; check that the inverse leaves its scratch +0 outside
the block, and that a right-hand side makes one inverse and two 9-row
forward batches.
"""

import numpy as np
import pytest
import scipy.fft

from mmplab import grid as grid_module
from mmplab import solver as solver_module
from mmplab.fields import Grid
from mmplab.grid import forward, inverse
from mmplab.solver import nonlinear_rhs

from conftest import random_state

AXES = (-3, -2, -1)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("rows", [9, 1])
@pytest.mark.parametrize("n", [8, 10, 16, 24, 32, 48, 64])
def test_block_bits_equal_one_3_axis_call(monkeypatch, threads, rows, n):
    # 2 and 3 workers split the 9-row batches, each group on its own row of
    # work; 1 row runs whole
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n * rows)).normal(size=(rows, n, n, n))
    want = grid.truncate(scipy.fft.rfftn(phys, axes=AXES, norm="forward"))
    groups = min(int(threads), rows)
    # only the block of a row of work is read back, so NaN elsewhere stays unseen
    work = np.full((groups,) + grid.spectral_shape, np.nan, dtype=complex)
    out = np.empty_like(want)
    assert forward(phys, out=out, work=work) is out
    assert out.tobytes() == want.tobytes()
    assert forward(phys, work=work).tobytes() == want.tobytes()

    back = scipy.fft.irfftn(grid.pad(want), s=(n, n, n), axes=AXES, norm="forward")
    padded = np.zeros((groups,) + grid.spectral_shape, dtype=complex)
    assert inverse(want, work=padded).tobytes() == back.tobytes()
    # the scratch is +0 outside the block again, so a row's pad writes only the block
    zeros = np.zeros((groups,) + grid.retained_shape, dtype=complex)
    assert grid.pad(zeros, out=padded).tobytes() == bytes(padded.nbytes)
    out = np.empty_like(back)
    assert inverse(want, out=out, work=padded) is out
    assert out.tobytes() == back.tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_one_inverse_and_two_forward_batches_of_nine(monkeypatch, n):
    # perfbench's traced grid.fft counts look up these module attributes
    calls = []

    def spy(name, real):
        def call(arr, *args, **kw):
            calls.append((name, arr.shape[0], kw.get("work") is not None))
            return real(arr, *args, **kw)
        return call

    monkeypatch.setattr(grid_module, "inverse", spy("grid.inverse", grid_module.inverse))
    monkeypatch.setattr(grid_module, "forward", spy("grid.forward", grid_module.forward))
    monkeypatch.setattr(solver_module, "forward", spy("solver.forward", solver_module.forward))
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    calls.clear()
    nonlinear_rhs(grid, z)
    assert calls == [("grid.inverse", 9, True), ("solver.forward", 9, True),
                     ("solver.forward", 9, True)]
