"""Closed-form sector kernel: exp, phi1 and phi2 of tM against expm oracles.

phi1(A) and phi2(A) are the top-right blocks of expm([[A, I], [0, 0]]) and
expm([[A, I, 0], [0, 0, I], [0, 0, 0]]).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mmplab.decay_character import SpectralProfile, generate_data_with_character
from mmplab.fields import Grid, PhysParams
from mmplab.linear import _AXIS, make_radial_state
from mmplab.propagator import SectorKernel, get_propagator
from mmplab.solver import SolverConfig, simulate
from mmplab.symbol import assemble_entries

KINDS = ("exp", "phi1", "phi2")


def mode_matrix(coupling, xi_sq, params):
    """9x9 symbol with the coupling and grad-div terms taken from `coupling`
    and the dissipation from |xi|^2 = xi_sq, as on a Nyquist plane."""
    M = assemble_entries(coupling, params)
    rates = np.repeat([params.mu + params.chi, params.gamma, params.nu], 3)
    return M - np.diag(rates * (xi_sq - coupling @ coupling))


def oracle(A, kind):
    if kind == "exp":
        return expm(A)
    m = A.shape[0]
    k = {"phi1": 1, "phi2": 2}[kind]
    big = np.zeros(((k + 1) * m, (k + 1) * m), dtype=complex)
    big[:m, :m] = A
    for j in range(k):
        big[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = np.eye(m)
    return expm(big)[:m, k * m:]


# the zero mode, Nyquist planes, edges and corner, and interior modes of Grid(8)
MODES = ((0, 0, 0), (4, 0, 0), (0, 4, 3), (4, 4, 1), (4, 4, 4), (1, 2, 3), (7, 5, 2))


def grid_errors(grid, params, t, rng):
    """Largest |kernel - oracle| / |v| over MODES of the grid."""
    shape = (3,) + grid.spectral_shape
    v = np.concatenate([rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)])
    modes = grid.half_modes()
    kernel = SectorKernel(modes.xi_odd, modes.xi_sq, params)
    worst = {}
    for kind in KINDS:
        out = kernel.apply(v, t, kind=kind)
        errs = []
        for idx in MODES:
            at = (slice(None),) + idx
            A = t * mode_matrix(modes.xi_odd[at], modes.xi_sq[idx], params)
            errs.append(np.abs(oracle(A, kind) @ v[at] - out[at]).max() / np.abs(v[at]).max())
        worst[kind] = max(errs)
    return worst


def test_exactly_degenerate_nyquist_mode(rng):
    # at k = (-4, 0, 0) the coupling vanishes and a = b = 17 exactly
    grid = Grid(8, 2 * np.pi)
    params = PhysParams(mu=0.5625, gamma=1.0, chi=0.5, nu=1.0)
    modes = grid.half_modes()
    kernel = SectorKernel(modes.xi_odd, modes.xi_sq, params)
    idx = (4, 0, 0)
    assert np.all(modes.xi_odd[(slice(None),) + idx] == 0)
    assert kernel.a[idx] == kernel.b[idx] == 17.0
    assert kernel.lam_hi[idx] == kernel.lam_lo[idx]
    for kind, err in grid_errors(grid, params, 0.7, rng).items():
        assert err <= 1e-12, kind


def test_chi_zero_equal_viscosities(rng):
    # no coupling and mu + chi = gamma: the transverse gap vanishes on every mode
    params = PhysParams(mu=0.8, gamma=0.8, chi=0.0, nu=1.3)
    for kind, err in grid_errors(Grid(8, 2 * np.pi), params, 1.3, rng).items():
        assert err <= 1e-12, kind


def test_radial_state_at_long_time():
    params = PhysParams()
    state = make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=16)
    t = 1e4
    got = state.coeffs_at(t)
    assert np.all(np.isfinite(got))
    assert got.shape == (9, state.radii.size)
    worst = 0.0
    for r, v in enumerate(state.coeffs.T):
        if not np.abs(v).max() > 0:
            continue
        ref = expm(t * assemble_entries(state.radii[r] * _AXIS, params)) @ v
        worst = max(worst, np.abs(ref - got[:, r]).max() / np.abs(v).max())
    assert worst <= 1e-12


def test_time_array_matches_scalar_applies(rng):
    # nodes on a leading time axis; |t lam-| falls on both sides of the
    # 0.2 switch to the Taylor series of the divided differences
    radii = np.geomspace(1e-3, 10.0, 40)
    kernel = SectorKernel(_AXIS[:, None, None] * radii, radii[None] ** 2, PhysParams())
    times = np.array([0.0, 1e-3, 0.05, 1.0, 30.0])
    lo = np.abs(times[:, None] * kernel.lam_lo)
    assert np.any((lo > 0) & (lo < 0.2)) and np.any(lo > 0.2)
    v = rng.normal(size=(9, 1, radii.size)) + 1j * rng.normal(size=(9, 1, radii.size))
    for kind in KINDS:
        block = kernel.apply(v, times[:, None], kind=kind)
        assert block.shape == (9, times.size, radii.size)
        stacked = np.concatenate([kernel.apply(v, t, kind=kind) for t in times], axis=1)
        assert np.array_equal(block, stacked), kind


viscosity = st.floats(0.01, 3.0)
coupling_strength = st.one_of(st.just(0.0), st.floats(1e-4, 0.02), st.floats(0.02, 2.0))


@settings(max_examples=200, deadline=None)
@given(mu=viscosity, gamma=viscosity, nu=viscosity, chi=coupling_strength,
       xi=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
       nyquist=st.lists(st.booleans(), min_size=3, max_size=3),
       t=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_expm_oracle(mu, gamma, nu, chi, xi, nyquist, t, seed):
    params = PhysParams(mu=mu, gamma=gamma, chi=chi, nu=nu)
    xi = np.array(xi)
    coupling = np.where(nyquist, 0.0, xi)
    kernel = SectorKernel(coupling[:, None], np.array([xi @ xi]), params)
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    A = t * mode_matrix(coupling, xi @ xi, params)
    for kind in KINDS:
        out = kernel.apply(v[:, None], t, kind=kind)[:, 0]
        assert np.abs(out - oracle(A, kind) @ v).max() <= 1e-12 * np.abs(v).max(), kind


# the transverse, the longitudinal w and the magnetic rate each set the
# radius on the retained block
RADIUS_PARAMS = (PhysParams(mu=3.0, gamma=0.5, chi=0.1, nu=1.0), PhysParams(),
                 PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=5.0))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_dt_lambda_max_without_the_half_spectrum_kernel(n, monkeypatch):
    built = []
    real_init = SectorKernel.__init__

    def record(self, coupling, xi_sq, params):
        built.append(xi_sq.shape)
        real_init(self, coupling, xi_sq, params)

    grid = Grid(n, 2 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=n, amplitude=0.1)
    monkeypatch.setattr(SectorKernel, "__init__", record)
    dt_lambda = []
    for params in RADIUS_PARAMS:
        # one step at n = 16: the stepper and the paired run build no
        # half-spectrum kernel either
        cfg = SolverConfig(grid=grid, params=params, dt=0.01, t_end=0.01 if n == 16 else 0.0)
        dt_lambda.append(simulate(cfg, z0, pair_linear=True).diagnostics["dt_lambda_max"])
    assert built and grid.spectral_shape not in built
    monkeypatch.undo()
    # dt times the largest rate of the block kernel the run builds
    for which, (params, got) in enumerate(zip(RADIUS_PARAMS, dt_lambda)):
        kernel = SectorKernel(grid.retained.xi_odd, grid.retained.xi_sq, params)
        rates = (-kernel.lam_lo.min(), -kernel.lam_w_long.min(), -kernel.lam_mag.min())
        assert np.argmax(rates) == which
        assert got == 0.01 * float(max(rates))
        assert get_propagator(grid, params).spectral_radius == float(max(rates))
