"""The block transforms: the bits of one 3-axis call on the block.

grid.forward and grid.inverse transform batches of rows, each group of
rows one row at a time on its own scratch row: they pad, transform and
truncate, and skip the lines that carry only zeros in and the lines that
feed only modes outside the 2/3-rule block out.  These tests compare
them with one 3-axis pocketfft call (scipy.fft) bit for bit, in split
and unsplit row groups, where every group but a 1-row batch's inverts
rows after its first on scratch that the row before it used; and check
that a right-hand side makes two inverse batches, of u and b and then of
w, and two 9-row forward batches.
"""

import numpy as np
import pytest

from mmplab import grid as grid_module
from mmplab import solver as solver_module
from mmplab.fields import Grid
from mmplab.grid import forward, inverse
from mmplab.solver import nonlinear_rhs

from conftest import irfft3, random_state, rfft3


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("rows", [9, 1])
@pytest.mark.parametrize("n", [8, 10, 16, 24, 32, 48, 64])
def test_block_bits_equal_one_3_axis_call(monkeypatch, threads, rows, n):
    # 2 and 3 workers split the 9-row batches, each group on its own row of
    # work; 1 row runs whole
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    phys = np.random.Generator(np.random.Philox(n * rows)).normal(size=(rows, n, n, n))
    want = grid.truncate(rfft3(phys))
    groups = min(int(threads), rows)
    # only the block of a row of work is read back, so NaN elsewhere stays unseen
    work = np.full((groups,) + grid.spectral_shape, np.nan, dtype=complex)
    out = np.empty_like(want)
    assert forward(phys, out=out, work=work) is out
    assert out.tobytes() == want.tobytes()
    assert forward(phys).tobytes() == want.tobytes()

    back = irfft3(grid.pad(want))
    blocks = want.copy()
    got = inverse(blocks, grid)
    assert got.dtype == np.float64 and got.tobytes() == back.tobytes()
    assert blocks.tobytes() == want.tobytes()  # the input is left as it was


@pytest.mark.parametrize("shape", [(2, 13, 13, 7), (2, 11, 11, 9), (11, 11, 6)])
def test_inverse_rejects_blocks_of_another_grid(shape):
    # n = 16 has the block (11, 11, 6) and n = 18 (13, 13, 7); the last is one
    # block without its batch axis
    with pytest.raises(ValueError, match=r"retained blocks of shape \(11, 11, 6\) for n = 16"):
        inverse(np.zeros(shape, dtype=complex), Grid(16, 2 * np.pi))


@pytest.mark.parametrize("shape", [(16, 16, 16), (2, 16, 16, 9), (2, 16, 8, 16)])
def test_forward_rejects_arrays_that_are_not_a_batch(shape):
    # the first is one field without its batch axis
    with pytest.raises(ValueError, match=r"batch of real fields \(rows, n, n, n\)"):
        forward(np.zeros(shape))


@pytest.mark.parametrize("threads", ["1", "2", "4"])
@pytest.mark.parametrize("n", [8, 32])
def test_inverse_into_out_from_a_strided_batch(monkeypatch, threads, n):
    # nonlinear_rhs inverts u's and b's rows of a state as one (2, 3, ...)
    # view into its six fields, then w's rows into b's fields; 4 workers
    # cut the six rows across the view's first axis
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    kept = z.tobytes()
    out = np.full((6, n, n, n), np.nan)
    view = out.reshape((2, 3, n, n, n))
    assert inverse(z.reshape((3, 3) + z.shape[1:])[::2], grid, out=view) is view
    assert out.tobytes() == irfft3(grid.pad(z[[0, 1, 2, 6, 7, 8]])).tobytes()
    assert inverse(z[3:6], grid, out=out[3:6]).tobytes() == irfft3(grid.pad(z[3:6])).tobytes()
    assert z.tobytes() == kept


@pytest.mark.parametrize("n", [16, 64])
def test_two_inverse_and_two_forward_batches_of_nine(monkeypatch, n):
    # perfbench's traced grid.fft counts look up these module attributes
    calls = []

    def spy(name, real):
        def call(arr, *args, **kw):
            calls.append((name, int(np.prod(arr.shape[:-3])), kw.get("work") is not None,
                          kw.get("out") is not None))
            return real(arr, *args, **kw)
        return call

    monkeypatch.setattr(grid_module, "inverse", spy("grid.inverse", grid_module.inverse))
    monkeypatch.setattr(grid_module, "forward", spy("grid.forward", grid_module.forward))
    monkeypatch.setattr(solver_module, "forward", spy("solver.forward", solver_module.forward))
    grid = Grid(n, 2 * np.pi)
    z = grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(n))).z)
    calls.clear()
    nonlinear_rhs(grid, z)
    # u and b go out into the six fields, then w into b's; the inverses
    # make their own scratch, the forward batches share the caller's
    assert calls == [("grid.inverse", 6, False, True), ("solver.forward", 9, True, True),
                     ("grid.inverse", 3, False, True), ("solver.forward", 9, True, True)]
