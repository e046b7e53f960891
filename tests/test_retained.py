"""The retained block: the 2/3-rule modes the time stepper advances.

simulate steps the (9, 2c + 1, 2c + 1, c + 1) block of the modes with
every |k_i| <= c = n // 3 and pads it to half spectra only for the inverse
transform and at outputs.  These tests pin that layout to the half-spectrum
one: the same bits on every retained mode, zeros elsewhere.
"""

import numpy as np
import pytest

from mmplab.decay_character import generate_data_with_character
from mmplab.fields import Grid, PhysParams, StateField
from mmplab.propagator import get_propagator
from mmplab.solver import _step_arrays, nonlinear_rhs

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


def complex_noise(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_retained_block_is_the_dealias_mask(n):
    grid = Grid(n, 2 * np.pi)
    c = n // 3
    assert grid.retained_shape == (2 * c + 1, 2 * c + 1, c + 1)
    assert np.prod(grid.retained_shape) == grid.dealias_mask.sum()
    z = complex_noise((9,) + grid.spectral_shape, n)
    block = grid.truncate(z)
    assert block.shape == (9,) + grid.retained_shape
    out = np.empty((18,) + grid.retained_shape, dtype=complex)[9:18]
    assert grid.truncate(z, out=out) is out
    assert out.tobytes() == block.tobytes()
    assert np.array_equal(grid.pad(block), z * grid.dealias_mask)
    assert np.array_equal(grid.truncate(grid.pad(block)), block)
    # the block keeps FFT order per axis: k = 0 .. c, then -c .. -1
    k = grid.truncate(grid.xi_odd)[0, :, 0, 0] / grid.fundamental
    assert np.array_equal(k, np.r_[0:c + 1, -c:0])


def test_retained_modes_are_the_truncated_arrays():
    grid = Grid(16, 2 * np.pi)
    for name in ("xi_odd", "xi_sq", "leray_divisor", "leray_fixed"):
        assert np.array_equal(getattr(grid.retained, name),
                              grid.truncate(getattr(grid, name)))
    # no Nyquist mode is retained, so only the mean mode is fixed
    assert grid.retained.leray_fixed.sum() == 1


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", ["exp", "phi1", "phi2"])
@pytest.mark.parametrize("t, taylor", [(1e-5, "all"), (0.05, "some")])
def test_retained_apply_equals_truncated_full_apply(n, kind, t, taylor):
    grid = Grid(n, 2 * np.pi)
    prop = get_propagator(grid, PARAMS)
    small = np.abs(t * prop.retained_kernel.lam_lo) < 0.2  # the Taylor switch
    assert small.all() if taylor == "all" else small.any() and not small.all()
    z = complex_noise((9,) + grid.spectral_shape, n)
    full = prop.apply(z, t, kind=kind)
    block = prop.apply(grid.truncate(z), t, kind=kind)
    assert block.shape == (9,) + grid.retained_shape
    assert block.tobytes() == grid.truncate(full).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n, dt", [(16, 0.05), (64, 0.02)])
@pytest.mark.parametrize("scheme", ["etd-rk2", "if-rk4"])
def test_retained_step_equals_full_layout_step(monkeypatch, threads, n, dt, scheme):
    monkeypatch.setenv("MMP_THREADS", threads)
    grid = Grid(n, 2 * np.pi)
    z = generate_data_with_character(grid, 0.0, seed=n, amplitude=0.5).z
    prop = get_propagator(grid, PARAMS)
    N_full = nonlinear_rhs(StateField(grid, z), check_solenoidal=False)[0]
    N = nonlinear_rhs(grid.truncate(z), grid=grid)[0]
    assert N.tobytes() == grid.truncate(N_full).tobytes()
    full = _step_arrays(prop, z, N_full, grid, dt, scheme)
    block = _step_arrays(prop, grid.truncate(z), N, grid, dt, scheme)
    assert block.shape == (9,) + grid.retained_shape
    assert block.tobytes() == grid.truncate(full).tobytes()
    assert np.abs(block).max() > 0
    assert not full[:, ~grid.dealias_mask].any()
