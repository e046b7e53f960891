"""The retained block: the 2/3-rule modes the time stepper advances.

simulate steps the (9, 2c + 1, 2c + 1, c + 1) block of the modes with
every |k_i| <= c = n // 3 and pads it to half spectra only for the inverse
transform and at outputs.  These tests pin that layout to the half-spectrum
one, written out here with a sector kernel on the grid's wavevectors: the
same bits on every retained mode, zeros elsewhere.  The propagator, the
right-hand side and the projection on blocks take no other layout.  The
output rows are taken from the block too, with the values of its padded
half spectra; only the t = 0 snapshot and the datum's divergence check
read the datum as given.
"""

import numpy as np
import pytest

from mmplab import grid as grid_module
from mmplab.decay_character import generate_data_with_character
from mmplab.fields import (ContractViolation, Grid, PhysParams, StateField, divergence_error,
                           leray_project, spectrum_norm_sq)
from mmplab.propagator import SectorKernel, get_propagator
from mmplab.solver import SolverConfig, _norm_row, _step_arrays, nonlinear_rhs, simulate

from conftest import padded_rhs, random_state

PARAMS = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


def complex_noise(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def half_spectrum_kernel(grid):
    # dissipation weights are even and keep the full wavevector; the
    # rotational coupling and grad-div terms carry signs and use the
    # Nyquist-zeroed copy so realness survives the semigroup
    return SectorKernel(grid.xi_odd, grid.xi_sq, PARAMS)


def half_spectrum_step(grid, z, N, dt, scheme):
    """_step_arrays on half spectra z with N = N(z): the same stages, with
    the all-mode kernel and nonlinear_rhs on the truncated half spectra,
    padded; the modes outside the block move linearly."""
    kernel = half_spectrum_kernel(grid)

    def rhs(arr):
        return padded_rhs(grid, arr)[0]

    def apply(arr, t, kind):
        return kernel.apply(arr, t, kind=kind)

    if scheme == "etd-rk2":
        a = apply(z, dt, "exp")
        a += dt * apply(N, dt, "phi1")
        dN = rhs(a)
        dN -= N
        return a + dt * apply(dN, dt, "phi2")
    stage = apply(z, dt / 2, "exp")
    k2 = rhs(apply(z + (dt / 2) * N, dt / 2, "exp"))
    stage += (dt / 2) * k2
    k3 = rhs(stage)
    Ez = apply(z, dt, "exp")
    k3 = apply(k3, dt / 2, "exp")
    k4 = rhs(Ez + dt * k3)
    k2 = apply(k2, dt / 2, "exp")
    k2 += k3
    return Ez + (dt / 6.0) * (apply(N, dt, "exp") + 2.0 * k2 + k4)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_retained_block_is_the_dealias_mask(n):
    grid = Grid(n, 2 * np.pi)
    c = n // 3
    assert grid.retained_shape == (2 * c + 1, 2 * c + 1, c + 1)
    assert np.prod(grid.retained_shape) == grid.dealias_mask.sum()
    z = complex_noise((9,) + grid.spectral_shape, n)
    block = grid.truncate(z)
    assert block.shape == (9,) + grid.retained_shape
    assert np.array_equal(grid.pad(block), z * grid.dealias_mask)
    assert np.array_equal(grid.truncate(grid.pad(block)), block)
    # the block keeps FFT order per axis: k = 0 .. c, then -c .. -1
    k = grid.truncate(grid.xi_odd)[0, :, 0, 0] / grid.fundamental
    assert np.array_equal(k, np.r_[0:c + 1, -c:0])


def test_retained_modes_are_the_truncated_arrays():
    grid = Grid(16, 2 * np.pi)
    for name in ("xi_odd", "xi_sq", "xi_mag", "leray_divisor", "leray_fixed"):
        assert np.array_equal(getattr(grid.retained, name),
                              grid.truncate(getattr(grid, name)))
    assert np.array_equal(grid.retained.multiplicity, [1.0] + [2.0] * (16 // 3))
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
    full = half_spectrum_kernel(grid).apply(z, t, kind=kind)
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
    N = nonlinear_rhs(grid, grid.truncate(z))[0]
    full = half_spectrum_step(grid, z, grid.pad(N), dt, scheme)
    block = _step_arrays(prop, grid.truncate(z), N, dt, scheme)
    assert block.shape == (9,) + grid.retained_shape
    assert block.tobytes() == grid.truncate(full).tobytes()
    assert np.abs(block).max() > 0
    assert not full[:, ~grid.dealias_mask].any()


def test_half_spectra_as_a_bare_array_fail_before_any_work(monkeypatch):
    grid = Grid(16, 2 * np.pi)
    z = generate_data_with_character(grid, 0.0, seed=3, amplitude=0.5).z
    calls = []
    monkeypatch.setattr(grid_module, "inverse", lambda *args, **kw: calls.append(args))
    with pytest.raises(ContractViolation, match=r"retained block of shape \(9, 11, 11, 6\)"):
        nonlinear_rhs(grid, z)
    assert calls == []  # the right-hand side's first work is its inverse


@pytest.mark.parametrize("n", [16, 64])
def test_projection_takes_the_layout_its_caller_names(n):
    grid = Grid(n, 2 * np.pi)
    half = complex_noise((3,) + grid.spectral_shape, n)
    block = grid.truncate(half)
    got = leray_project(grid.retained, block)
    assert got.tobytes() == grid.truncate(leray_project(grid, half)).tobytes()
    assert np.abs(got).max() > 0
    for modes, arr in ((grid, block), (grid.retained, half)):
        with pytest.raises(ContractViolation, match="expected shape"):
            leray_project(modes, arr)


@pytest.mark.parametrize("shape", [(9, 16, 16, 9), (9, 11, 11, 5), (3, 11, 11, 6)])
def test_propagator_takes_only_the_retained_block(shape):
    grid = Grid(16, 2 * np.pi)
    prop = get_propagator(grid, PARAMS)
    with pytest.raises(ContractViolation, match=r"retained block of shape \(9, 11, 11, 6\)"):
        prop.apply(complex_noise(shape, 1), 0.05, kind="phi1", cache=True)
    assert prop.retained_kernel.tables == {}  # no weights were computed


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_block_rows_match_the_padded_half_spectra(n):
    # a paired state with energy on the kz = 0 plane, and a splitting ball
    # of radius c fundamentals, which cuts through the block
    grid = Grid(n, 2 * np.pi)
    c, t = n // 3, 0.5
    z = grid.truncate(generate_data_with_character(grid, 0.0, seed=n, amplitude=0.5).z)
    z_lin = get_propagator(grid, PARAMS).apply(z, t, kind="exp")
    A = (1 + t) * (c * grid.fundamental) ** 2
    inside = grid.retained.xi_mag <= c * grid.fundamental
    assert np.abs(z[..., 0]).max() > 0 and inside.any() and not inside.all()
    row = _norm_row(grid, z, t, A, z_lin)

    half, diff = grid.pad(z), grid.pad(z - z_lin)
    u, w, b = half[0:3], half[3:6], half[6:9]
    du, dw, db = diff[0:3], diff[3:6], diff[6:9]
    xi_sq = grid.xi_sq
    want = {
        "l2_z_sq": spectrum_norm_sq(grid, u, w, b),
        "l2_u_sq": spectrum_norm_sq(grid, u),
        "l2_w_sq": spectrum_norm_sq(grid, w),
        "l2_b_sq": spectrum_norm_sq(grid, b),
        "h1_z_sq": spectrum_norm_sq(grid, u, w, b, weight=xi_sq),
        "h1_w_sq": spectrum_norm_sq(grid, w, weight=xi_sq),
        "h2_z_sq": spectrum_norm_sq(grid, u, w, b, weight=xi_sq ** 2),
        "ball_integral": spectrum_norm_sq(
            grid, u, w, b, weight=(grid.xi_mag <= np.sqrt(A / (1 + t))).astype(float)),
        "l2_diff_z_sq": spectrum_norm_sq(grid, du, dw, db),
        "l2_diff_w_sq": spectrum_norm_sq(grid, dw),
        "h1_diff_z_sq": spectrum_norm_sq(grid, du, dw, db, weight=xi_sq),
    }
    assert row.keys() == want.keys() | {"t"} and row["t"] == t
    for key, val in want.items():
        assert 0 < val and abs(row[key] - val) <= 1e-14 * val, key
    for block in (z, complex_noise(z.shape, n)):
        assert (divergence_error(grid, block, grid.retained)
                == StateField(grid, grid.pad(block)).divergence_error())


def test_rows_and_max_divergence_come_from_the_block():
    # a datum with modes outside the block: its t = 0 row is its block's,
    # its t = 0 snapshot keeps every mode, and max_divergence is the
    # largest divergence of the padded blocks
    grid = Grid(16, 2 * np.pi)
    z0 = random_state(grid, np.random.default_rng(5))
    assert z0.z[:, ~grid.dealias_mask].any()
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.01, t_end=0.02, ball_A=30.0)
    traj = simulate(cfg, z0, pair_linear=True, save_snapshots=True)
    block = grid.truncate(z0.z)
    assert traj.norm_rows[0] == _norm_row(grid, block, 0.0, cfg.ball_A, block)
    assert traj.norm_rows[0]["l2_z_sq"] < spectrum_norm_sq(grid, z0.z[0:3], z0.z[3:6], z0.z[6:9])
    assert traj.snapshots[0].z.tobytes() == z0.z.tobytes()
    assert not traj.snapshots[1].z[:, ~grid.dealias_mask].any()
    divergences = [StateField(grid, grid.pad(grid.truncate(snap.z))).divergence_error()
                   for snap in traj.snapshots]
    assert traj.diagnostics["max_divergence"] == max(divergences) > 0


def test_divergence_outside_the_block_rejects_the_datum():
    grid = Grid(8, 2 * np.pi)
    c = grid.n // 3
    z = np.zeros((9,) + grid.spectral_shape, dtype=complex)
    z[1, 1, 0, 0] = z[1, -1, 0, 0] = 1.0  # u_y ~ cos x: solenoidal, retained
    z[0, c + 1, 0, 0] = z[0, -c - 1, 0, 0] = 1.0  # u_x ~ cos (c + 1) x: outside
    assert divergence_error(grid, grid.truncate(z), grid.retained) == 0.0
    cfg = SolverConfig(grid=grid, params=PARAMS, dt=0.1, t_end=0.1)
    with pytest.raises(ContractViolation, match="z0: u or b not solenoidal"):
        simulate(cfg, StateField(grid, z))
