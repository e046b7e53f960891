"""Nonlinear solver: advection terms, exponential steps, full runs."""

import warnings

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from mmplab.decay_character import generate_data_with_character
from mmplab.analysis import fourier_split_integral
from mmplab.fields import (ContractViolation, Grid, PhysParams, StateField,
                           leray_project, spectrum_norm_sq)
from mmplab.grid import full_spectrum
from mmplab.propagator import get_propagator, phi1, phi2
from mmplab.solver import (BlowupError, SolverConfig, _norm_row, _step_arrays,
                           advective_products, energy_balance_check,
                           nonlinear_rhs, simulate, tensor_bound_report)

from conftest import irfft3, padded_rhs, random_state, reality_error


def two_mode_state(grid, k1, c1, k2, c2):
    """u with two solenoidal modes (plus conjugates); w = b = 0.  A mode is
    stored where its kz index lies in the half spectrum."""
    spec = np.zeros((3,) + grid.spectral_shape, dtype=complex)
    for k, c in ((k1, c1), (k2, c2)):
        for kk, cc in ((np.asarray(k), c), (-np.asarray(k), np.conj(c))):
            idx = tuple(kk % grid.n)
            if idx[2] <= grid.n // 2:
                spec[(slice(None),) + idx] = cc
    zero = np.zeros_like(spec)
    return StateField(grid, np.concatenate([spec, zero, zero]))


class TestNonlinearRHS:
    def test_zero_state(self, grid8):
        N, speed = nonlinear_rhs(grid8, np.zeros((9,) + grid8.retained_shape, dtype=complex))
        assert N.shape == (9,) + grid8.retained_shape
        assert np.abs(N).max() == 0.0
        assert speed == 0.0

    def test_single_solenoidal_mode_self_advection_vanishes(self, grid8):
        # (u . grad) u = 0 for one transverse mode: the quadratic output at
        # 2k carries i (xi . c) c and the mean carries the conjugate pairing
        k = np.array([1, 0, 0])
        c = np.array([0.0, 1.0, 0.5j])  # xi . c = 0
        state = two_mode_state(grid8, k, c, np.array([0, 2, 0]),
                               np.zeros(3, complex))
        N, _ = padded_rhs(grid8, state.z)
        assert np.abs(N[0:3]).max() < 1e-15

    def test_two_mode_triad_closed_form(self, grid8):
        # output of -(u.grad)u at k1 + k2 is -i[(xi2.c1)c2 + (xi1.c2)c1],
        # Leray-projected at xi(k1+k2)
        k1, k2 = np.array([1, 0, 0]), np.array([0, 2, 1])
        c1 = np.array([0.0, 0.3, -0.2j])        # xi1 . c1 = 0
        c2 = np.array([0.5j, 0.1, -0.2])        # xi2 . c2 = 0
        state = two_mode_state(grid8, k1, c1, k2, c2)
        Nu = padded_rhs(grid8, state.z)[0][0:3]

        dk = state.grid.fundamental
        xi1, xi2 = dk * k1.astype(float), dk * k2.astype(float)
        raw = -1j * ((xi2 @ c1) * c2 + (xi1 @ c2) * c1)
        xi_out = xi1 + xi2
        s2 = xi_out @ xi_out
        expected = raw - xi_out * (xi_out @ raw) / s2
        idx = tuple((k1 + k2) % 8)
        assert np.abs(Nu[(slice(None),) + idx] - expected).max() < 1e-14

    def test_dealiased_evaluation_matches_convolution_oracle(self, grid8, rng):
        # direct triad sum over the dealiased mode set, O(n^6), exact
        state = generate_data_with_character(grid8, 0.0, seed=2, amplitude=1.0)
        N, _ = padded_rhs(grid8, state.z)
        Nu, Nw, Nb = N[0:3], N[3:6], N[6:9]
        oNu, oNw, oNb = convolution_oracle(state)
        scale = max(np.abs(oNu).max(), np.abs(oNw).max(), np.abs(oNb).max())
        assert np.abs(Nu - oNu).max() < 1e-12 * scale
        assert np.abs(Nw - oNw).max() < 1e-12 * scale
        assert np.abs(Nb - oNb).max() < 1e-12 * scale

    def test_w_increment_not_projected(self, grid8, rng):
        # (u.grad)w generally has divergence; it must be kept
        state = random_state(grid8, rng)
        z = state.z.copy()
        z[3:6] = random_state(grid8, rng, solenoidal=False).what
        N, _ = padded_rhs(grid8, z)
        Nu, Nw, Nb = N[0:3], N[3:6], N[6:9]
        xi = grid8.xi_odd
        div_w = np.abs((xi * Nw).sum(axis=0)).max()
        div_u = np.abs((xi * Nu).sum(axis=0)).max()
        div_b = np.abs((xi * Nb).sum(axis=0)).max()
        assert div_w > 1e3 * max(div_u, div_b)

    def test_solenoidal_increments(self, grid16, rng):
        state = random_state(grid16, rng)
        N, _ = padded_rhs(grid16, state.z)
        Nu, Nb = N[0:3], N[6:9]
        xi = grid16.xi_odd
        scale = np.abs(Nu).max() * grid16.xi_mag.max()
        assert np.abs((xi * Nu).sum(axis=0)).max() < 1e-11 * scale
        assert np.abs((xi * Nb).sum(axis=0)).max() < 1e-11 * scale

    def test_reality_preserved(self, grid16, rng):
        state = random_state(grid16, rng)
        N, _ = padded_rhs(grid16, state.z)
        for arr in (N[0:3], N[3:6], N[6:9]):
            assert reality_error(arr) < 1e-14

    @pytest.mark.parametrize("n", [16, 32])
    def test_divergence_form_matches_advective_form(self, n, rng):
        # the dealiased divergence/curl form equals the advective products
        # on random solenoidal states
        grid = Grid(n, 2 * np.pi)
        state = random_state(grid, rng)
        z = grid.truncate(state.z)
        N, speed = nonlinear_rhs(grid, z)
        Nu, Nw, Nb = N[0:3], N[3:6], N[6:9]
        adv = advective_products(grid, z)
        oNu = leray_project(grid.retained, adv["b", "b"] - adv["u", "u"])
        oNw = -adv["u", "w"]
        oNb = leray_project(grid.retained, adv["b", "u"] - adv["u", "b"])
        for got, want in ((Nu, oNu), (Nw, oNw), (Nb, oNb)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        u = irfft3(state.uhat * grid.dealias_mask)
        b = irfft3(state.bhat * grid.dealias_mask)
        assert speed == (np.sqrt((u ** 2).sum(axis=0)) + np.sqrt((b ** 2).sum(axis=0))).max()

    def test_bytes_independent_of_thread_count(self, grid16, rng, monkeypatch):
        state = random_state(grid16, rng)
        outputs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("MMP_THREADS", threads)
            outputs[threads] = padded_rhs(grid16, state.z)
        assert outputs["1"][0].tobytes() == outputs["4"][0].tobytes()
        assert outputs["1"][1] == outputs["4"][1]

    def test_tensor_bound(self, grid16, rng):
        state = random_state(grid16, rng)
        rep = tensor_bound_report(grid16, grid16.truncate(state.z))
        assert rep["bound_holds"]
        assert rep["max_constant"] <= 1.0 + 1e-10
        assert rep["max_constant"] > 0
        # the audit takes only the block, as nonlinear_rhs does
        with pytest.raises(ContractViolation, match="retained block"):
            tensor_bound_report(grid16, state.z)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e))
def test_nonlinear_term_transfers_no_energy_on_the_block(n, seed, amplitude):
    # the 2/3-rule truncation is a Galerkin system, so <z, N(z)> vanishes to
    # rounding, and so does its w part <w, -(u.grad)w>; at most 3.5e-17
    # relative in a sample of seeds at 1e-2, 1 and 10
    grid = Grid(n, 2 * np.pi)
    z = amplitude * grid.truncate(random_state(grid, np.random.Generator(np.random.Philox(seed))).z)
    N, _ = nonlinear_rhs(grid, z)
    weight = grid.retained.multiplicity
    for rows in (slice(0, 9), slice(3, 6)):
        transfer = (weight * (np.conj(z[rows]) * N[rows]).real).sum()
        z_norm, N_norm = (np.sqrt((weight * np.abs(a[rows]) ** 2).sum()) for a in (z, N))
        assert abs(transfer) <= 1e-14 * z_norm * N_norm, rows


def convolution_oracle(state):
    """Direct convolution sums for the three increments (n = 8 scale), over
    the full spectra of the state, returned as half spectra."""
    grid = state.grid
    n = grid.n
    k_int = grid.k_int
    keep = np.abs(k_int) <= n // 3
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    uh = full_spectrum(state.uhat) * mask
    wh = full_spectrum(state.what) * mask
    bh = full_spectrum(state.bhat) * mask
    dk = grid.fundamental
    active = {}
    for name, arr in (("u", uh), ("w", wh), ("b", bh)):
        idxs = np.argwhere(np.abs(arr).max(axis=0) > 0)
        active[name] = [(tuple(i), np.array([k_int[j] for j in i]), arr[(slice(None),) + tuple(i)])
                        for i in idxs]

    def conv(F_name, G_name):
        out = np.zeros((3, n, n, n), dtype=complex)
        for _, km, cF in active[F_name]:
            for _, kp, cG in active[G_name]:
                ks = km + kp
                if np.any(ks < -n // 2) or np.any(ks >= n // 2):
                    continue
                idx = tuple(ks % n)
                out[(slice(None),) + idx] += 1j * (cF @ (dk * kp)) * cG
        return (out * mask)[..., :n // 2 + 1]

    Nu = leray_project(grid, conv("b", "b") - conv("u", "u"))
    Nw = -conv("u", "w")
    Nb = leray_project(grid, conv("b", "u") - conv("u", "b"))
    return Nu, Nw, Nb


def etd_step(state, params, dt):
    """One ETD-RK2 step of the retained block of state, padded."""
    grid = state.grid
    z = grid.truncate(state.z)
    N, _ = nonlinear_rhs(grid, z)
    return grid.pad(_step_arrays(get_propagator(grid, params), z, N, dt, "etd-rk2"))


def advance_block(z0, params, scheme, dt, t_end):
    """The retained block of z0 after t_end / dt steps of the scheme."""
    grid = z0.grid
    prop = get_propagator(grid, params)
    z = grid.truncate(z0.z)
    for _ in range(int(round(t_end / dt))):
        z = _step_arrays(prop, z, nonlinear_rhs(grid, z)[0], dt, scheme)
    return z


class TestStep:
    def test_pure_semigroup_when_nonlinearity_vanishes(self, grid8, params):
        # a single transverse u mode self-advects to zero, so one step must
        # equal the exact linear propagator
        k = np.array([1, 0, 0])
        c = np.array([0.0, 0.4, 0.2j])
        state = two_mode_state(grid8, k, c, np.array([0, 2, 0]),
                               np.zeros(3, complex))
        dt = 0.3
        stepped = etd_step(state, params, dt)
        linear = grid8.pad(get_propagator(grid8, params).apply(grid8.truncate(state.z), dt))
        assert np.abs(stepped - linear).max() < 1e-13

    def test_etdrk2_richardson_order(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=4, amplitude=0.5)
        z1, z2, z3 = (advance_block(z0, params, "etd-rk2", dt, 0.8)
                      for dt in (0.1, 0.05, 0.025))
        d1 = np.abs(z1 - z2).max()
        d2 = np.abs(z2 - z3).max()
        order = np.log2(d1 / d2)
        assert 1.5 <= order <= 2.5

    def test_ifrk4_more_accurate_than_etdrk2(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=4, amplitude=0.5)
        ref = advance_block(z0, params, "if-rk4", 0.0125, 0.4)
        err2 = np.abs(advance_block(z0, params, "etd-rk2", 0.1, 0.4) - ref).max()
        err4 = np.abs(advance_block(z0, params, "if-rk4", 0.1, 0.4) - ref).max()
        assert err4 < err2 / 10

    def test_navier_stokes_reduction_reference_step(self):
        # chi = 0, w = b = 0: compare one step against an independent
        # scalar-exponential spectral Navier-Stokes implementation
        grid = Grid(16, 2 * np.pi)
        params0 = PhysParams(mu=1.0, gamma=1.0, chi=0.0, nu=1.0)
        z0 = generate_data_with_character(grid, 0.0, seed=9, amplitude=0.5)
        zero = np.zeros_like(z0.uhat)
        state = StateField(grid, np.concatenate([z0.uhat, zero, zero]))
        dt = 0.05
        got = etd_step(state, params0, dt)
        ref = ns_reference_step(grid, z0.uhat, dt, mu=1.0)
        assert np.abs(got[0:3] - ref).max() < 1e-9 * np.abs(ref).max()
        assert np.abs(got[3:6]).max() == 0.0
        assert np.abs(got[6:9]).max() == 0.0


def ns_reference_step(grid, uhat, dt, mu):
    """Independent incompressible Navier-Stokes ETD2RK step on the full
    spectrum of the half-spectrum input; returns the half spectrum."""
    n = grid.n
    uhat = full_spectrum(uhat)
    ki = np.fft.fftfreq(n, 1.0 / n)
    ki_odd = ki.copy()
    ki_odd[n // 2] = 0.0
    scale = 2 * np.pi / grid.length
    KX = np.stack(np.meshgrid(ki_odd, ki_odd, ki_odd, indexing="ij")) * scale
    K2 = (np.stack(np.meshgrid(ki, ki, ki, indexing="ij")) * scale) ** 2
    K2 = K2.sum(0)
    cut = n // 3
    keep = np.abs(ki) <= cut
    dm = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]

    def project(v):
        K2o = (KX ** 2).sum(0)
        s2 = np.where(K2o == 0, 1.0, K2o)
        d = (KX * v).sum(0)
        out = v - KX * (d / s2)[None]
        out[:, K2o == 0] = v[:, K2o == 0]
        return out

    def NL(uh):
        uh = uh * dm
        u = np.real(sfft.ifftn(uh, axes=(-3, -2, -1))) * n ** 3
        gradu = np.real(sfft.ifftn(1j * KX[None, :] * uh[:, None],
                                   axes=(-3, -2, -1))) * n ** 3
        adv = np.einsum("jabc,ijabc->iabc", u, gradu)
        return project(-(sfft.fftn(adv, axes=(-3, -2, -1)) / n ** 3) * dm)

    lam = -mu * K2
    E = np.exp(dt * lam)[None]
    P1 = phi1(dt * lam)[None]
    P2 = phi2(dt * lam)[None]
    N0 = NL(uhat)
    a = E * uhat + dt * P1 * N0
    return (a + dt * P2 * (NL(a) - N0))[..., :n // 2 + 1]


class TestSimulate:
    def test_zero_data(self, grid8, params):
        cfg = SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.5)
        traj = simulate(cfg, StateField.zero(grid8))
        assert traj.column("l2_z_sq").max() == 0.0
        assert traj.column("h2_z_sq").max() == 0.0

    def test_small_data_monotone_energy(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=3, amplitude=1e-2)
        cfg = SolverConfig(grid=grid, params=params, dt=0.05, t_end=2.0,
                           output_every=4)
        traj = simulate(cfg, z0, save_snapshots=True)
        E = traj.column("l2_z_sq")
        assert np.all(np.diff(E) < 0)
        assert traj.diagnostics["max_divergence"] < 1e-10
        # the final state survives forward(inverse(z)): it is still the half
        # spectrum of real fields
        for comp in traj.snapshots[-1].components():
            assert reality_error(comp) <= 1e-14

    def test_determinism(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=3, amplitude=1e-2)
        cfg = SolverConfig(grid=grid, params=params, dt=0.1, t_end=0.5)
        a = simulate(cfg, z0)
        b = simulate(cfg, z0)
        assert a.norm_rows == b.norm_rows

    def test_two_rhs_evaluations_per_etdrk2_step(self, params, monkeypatch):
        # each step's CFL speed comes with its first stage N(z_n), so no
        # evaluation or inverse transform is spent on the speed alone
        import mmplab.grid
        import mmplab.solver as solver
        calls, inverses = [], []
        real = solver.nonlinear_rhs
        monkeypatch.setattr(solver, "nonlinear_rhs",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        real_inverse = mmplab.grid.inverse
        monkeypatch.setattr(mmplab.grid, "inverse",
                            lambda *a, **kw: inverses.append(1) or real_inverse(*a, **kw))
        grid = Grid(8, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=3, amplitude=1e-2)
        cfg = SolverConfig(grid=grid, params=params, dt=0.1, t_end=0.6,
                           output_every=2)
        traj = simulate(cfg, z0)
        assert traj.diagnostics["cfl_halvings"] == 0
        assert len(calls) == 2 * 6
        assert len(inverses) == 2 * 6

    def test_magnetic_zero_stays_zero(self, params):
        grid = Grid(16, 2 * np.pi)
        full = generate_data_with_character(grid, 0.0, seed=3, amplitude=0.5)
        zero = np.zeros_like(full.bhat)
        z0 = StateField(grid, np.concatenate([full.uhat, full.what, zero]))
        cfg = SolverConfig(grid=grid, params=params, dt=0.05, t_end=0.5)
        traj = simulate(cfg, z0)
        assert traj.column("l2_b_sq").max() == 0.0

    def test_paired_linear_difference_columns(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=3, amplitude=1e-2)
        cfg = SolverConfig(grid=grid, params=params, dt=0.05, t_end=1.0,
                           output_every=5)
        traj = simulate(cfg, z0, pair_linear=True)
        diff = traj.column("l2_diff_z_sq")
        assert diff[0] == 0.0
        assert np.all(diff[1:] > 0)
        assert np.all(diff[1:] < traj.column("l2_z_sq")[1:])

    def test_norm_row_equals_per_component_sums(self, grid16, rng):
        # one state_norms pass on the retained block gives the bits of the
        # per-component spectrum_norm_sq sums over the block
        modes = grid16.retained
        z = grid16.truncate(random_state(grid16, rng).z)
        z_lin = grid16.truncate(random_state(grid16, rng).z)
        t = 0.5
        row = _norm_row(grid16, z, t, 4.0, z_lin)
        u, w, b = z[0:3], z[3:6], z[6:9]
        diff = z - z_lin
        du, dw, db = diff[0:3], diff[3:6], diff[6:9]
        xi_sq = modes.xi_sq

        def norm(*arrays, weight=None):
            return spectrum_norm_sq(grid16, *arrays, weight=weight, modes=modes)

        want = {
            "t": t,
            "l2_z_sq": norm(u, w, b),
            "l2_u_sq": norm(u),
            "l2_w_sq": norm(w),
            "l2_b_sq": norm(b),
            "h1_z_sq": norm(u, w, b, weight=xi_sq),
            "h1_w_sq": norm(w, weight=xi_sq),
            "h2_z_sq": norm(u, w, b, weight=xi_sq ** 2),
            "ball_integral": fourier_split_integral(grid16, z, t, 4.0, modes),
            "l2_diff_z_sq": norm(du, dw, db),
            "l2_diff_w_sq": norm(dw),
            "h1_diff_z_sq": norm(du, dw, db, weight=xi_sq),
        }
        assert row["ball_integral"] > 0
        assert row == want

    def test_blowup_detection(self, grid8, params):
        z = np.zeros((9,) + grid8.spectral_shape, dtype=complex)
        z[0, 1, 0, 0] = np.nan
        bad = StateField(grid8, z)
        cfg = SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.5)
        with pytest.raises(BlowupError) as err:
            simulate(cfg, bad)
        assert err.value.t > 0
        # partial rows ride along for the harness to persist
        assert err.value.trajectory is not None
        assert err.value.trajectory.times[0] == 0.0

    def test_rejects_nonsolenoidal_datum(self, grid8, params, rng):
        # nonlinear_rhs checks no divergence, so simulate checks z0
        bad = random_state(grid8, rng, solenoidal=False)
        assert bad.divergence_error() > 0.1
        cfg = SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.5)
        with pytest.raises(ContractViolation, match="z0"):
            simulate(cfg, bad)

    def test_cfl_halving_keeps_output_times(self, params):
        grid = Grid(8, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=7, amplitude=10.0)
        cfg = SolverConfig(grid=grid, params=params, dt=4.0, t_end=8.0,
                           output_every=1)
        traj = simulate(cfg, z0)
        assert traj.diagnostics["cfl_halvings"] >= 1
        assert traj.times == [0.0, 4.0, 8.0]
        assert traj.diagnostics["dt_final"] < 4.0

    def test_cfl_counts_the_magnetic_field(self):
        # u = w = 0 at t = 0 with a strong b: the Lorentz force spins u up
        # within one output interval.  A check on max|u| at output
        # boundaries saw u = 0 and blew up at t = 0.5; the Elsasser speed
        # max(|u| + |b|), checked before every step, halves dt in time.
        # Started at CFL 0.49, the second step begins above CFL_LIMIT, which
        # a check on the speed of the previous step's state misses.
        grid = Grid(16, 2 * np.pi)
        params = PhysParams(mu=0.01, gamma=0.01, chi=0.5, nu=0.01)
        full = generate_data_with_character(grid, 0.0, seed=1, amplitude=1000.0)
        z0 = StateField(grid, np.concatenate(
            [np.zeros_like(full.uhat), np.zeros_like(full.what), full.bhat]))
        dt_049 = 0.49 * grid.length / (grid.n * padded_rhs(grid, z0.z)[1])
        for dt, output_every, times in ((0.05, 10, [0.0, 0.5, 1.0]),
                                        (dt_049, 2, [0.0, 2 * dt_049])):
            cfg = SolverConfig(grid=grid, params=params, dt=dt, t_end=times[-1],
                               output_every=output_every)
            traj = simulate(cfg, z0)
            assert traj.times == times
            assert traj.diagnostics["cfl_halvings"] >= 1
            assert all(np.isfinite(v) for row in traj.norm_rows
                       for v in row.values() if v is not None)

    @pytest.mark.parametrize("p", [PhysParams(chi=0.0),
                                   PhysParams(mu=0.05, gamma=0.05, chi=0.05, nu=1.0)],
                             ids=["chi-0", "small-chi"])
    def test_no_warning_where_the_four_way_minimum_is_not_positive(self, grid8, p):
        # 32 chi (mu+chi+gamma) <= 1 at both; the rates rest on the Young
        # bound, which needs no condition
        cfg = SolverConfig(grid=grid8, params=p, dt=0.1, t_end=0.2)
        z0 = generate_data_with_character(grid8, 0.0, seed=3, amplitude=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(cfg, z0, pair_linear=True)
        assert "bound_valid" not in traj.diagnostics

    def test_config_validation(self, grid8, params):
        with pytest.raises(ValueError):
            SolverConfig(grid=grid8, params=params, dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(grid=grid8, params=params, dt=0.1, t_end=1.0,
                         scheme="euler")
        for name, value in (("dt", np.inf), ("dt", np.nan), ("t_end", np.inf),
                            ("t_end", np.nan), ("ball_A", 0.0), ("ball_A", np.nan)):
            config = {"grid": grid8, "params": params, "dt": 0.1, "t_end": 1.0, name: value}
            with pytest.raises(ValueError, match=f"{name} must be .*, got {value!r}"):
                SolverConfig(**config)
        with pytest.raises(ValueError, match="box side"):
            Grid(8, np.inf)

    def test_t_end_must_be_whole_outputs(self, grid8, params):
        # 1.0 / (0.15 * 2) = 3.33 outputs used to be rounded to 3 silently
        with pytest.raises(ValueError, match="multiple"):
            SolverConfig(grid=grid8, params=params, dt=0.15, t_end=1.0,
                         output_every=2)
        # a t_end that rounds to no output used to run zero steps
        for dt, output_every in ((1e300, 1), (1e300, 10 ** 10)):
            with pytest.raises(ValueError, match="multiple"):
                SolverConfig(grid=grid8, params=params, dt=dt, t_end=1.0,
                             output_every=output_every)
        # floating-point quotients within 1e-9 of a whole count are accepted
        cfg = SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.3)
        assert simulate(cfg, StateField.zero(grid8)).times[-1] == pytest.approx(0.3)
        SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.0)


class TestEnergyBalance:
    def test_heat_identity(self):
        # b-only data in the linear regime: d/dt ||b||^2 = -2 nu ||grad b||^2
        grid = Grid(16, 2 * np.pi)
        params = PhysParams(nu=0.7)
        full = generate_data_with_character(grid, 0.0, seed=6, amplitude=1e-3)
        zero = np.zeros_like(full.uhat)
        b_only = StateField(grid, np.concatenate([zero, zero, full.bhat]))
        cfg = SolverConfig(grid=grid, params=params, dt=0.02, t_end=0.4)
        rep = energy_balance_check(simulate(cfg, b_only))
        assert rep["monotone"]
        assert rep["admissible_c"] == pytest.approx(2 * params.nu, rel=0.02)

    def test_zero_data_vacuous(self, grid8, params):
        cfg = SolverConfig(grid=grid8, params=params, dt=0.1, t_end=0.3)
        rep = energy_balance_check(simulate(cfg, StateField.zero(grid8)))
        assert rep["monotone"]
        assert rep["admissible_c"] is None

    def test_generic_small_run_dissipates(self, params):
        grid = Grid(16, 2 * np.pi)
        z0 = generate_data_with_character(grid, 0.0, seed=8, amplitude=1e-2)
        cfg = SolverConfig(grid=grid, params=params, dt=0.05, t_end=1.0)
        rep = energy_balance_check(simulate(cfg, z0))
        assert rep["monotone"]
        assert rep["admissible_c"] > 0
