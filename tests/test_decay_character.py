"""Ball masses, decay character estimation and shaped data."""

import time

import numpy as np
import pytest

from mmplab import decay_character
from mmplab.decay_character import (ShellProfile, SpectralProfile,
                                    combine_profiles, estimate_decay_character,
                                    _draw_normals,
                                    generate_data_with_character,
                                    min_rule_check)
from mmplab.fields import Grid, leray_project, spectrum_norm_sq
from mmplab.grid import full_spectrum

from conftest import full_xi_mag, hermitian_symmetrize, random_state, reality_error

FOUR_PI = 4.0 * np.pi


def full_spectrum_datum(grid, r, seed, amplitude):
    """Oracle for generate_data_with_character: the same draws, symmetrized
    on the full (3, n, n, n) spectrum and sliced to the stored half."""
    sigma = grid.n * np.pi / (4.0 * grid.length)
    mag = np.zeros_like(grid.xi_sq)
    nonzero = grid.xi_sq > 0
    mag[nonzero] = grid.xi_mag[nonzero] ** r * np.exp(-grid.xi_sq[nonzero] / (2.0 * sigma ** 2))
    mag *= grid.dealias_mask
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (3, grid.n, grid.n, grid.n)

    def shaped_noise():
        noise = hermitian_symmetrize(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        noise = noise[..., :grid.n // 2 + 1]
        amp = np.abs(noise)
        return np.divide(noise, amp, out=np.ones_like(noise), where=amp > 0) * mag[None]

    def project_rescaled(vhat):
        proj = leray_project(grid, vhat)
        amp = np.sqrt((np.abs(proj) ** 2).sum(axis=0))
        scale = np.divide(np.sqrt(3.0) * mag, amp, out=np.zeros_like(mag), where=amp > 0)
        return proj * scale[None]

    z = np.concatenate([project_rescaled(shaped_noise()), shaped_noise(),
                        project_rescaled(shaped_noise())])
    z *= amplitude / np.sqrt(spectrum_norm_sq(grid, z[0:3], z[3:6], z[6:9]))
    return z


class TestBallMass:
    def test_flat_profile(self):
        # |v0hat|^2 = 1: E(rho) = (4 pi / 3) rho^3 exactly
        prof = SpectralProfile.power_law(0.0)
        for rho in (0.01, 0.1, 0.9):
            assert prof.ball_mass(rho) == pytest.approx(FOUR_PI / 3.0 * rho ** 3, rel=1e-9)

    def test_quadratic_profile(self):
        # |v0hat|^2 = rho^2: E(rho) = (4 pi / 5) rho^5
        prof = SpectralProfile.power_law(1.0)
        assert prof.ball_mass(0.3) == pytest.approx(FOUR_PI / 5.0 * 0.3 ** 5, rel=1e-9)


class TestEstimator:
    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 1.0, 2.0])
    def test_power_law_recovery(self, r):
        est = estimate_decay_character(SpectralProfile.power_law(r))
        assert not est.boundary
        assert abs(est.r_star - r) < 0.05

    def test_flat_spectrum_is_integrable_datum(self):
        # continuous nonzero spectral density at the origin: r* = 0
        def density(rho):
            return FOUR_PI * rho ** 2 * (1.0 + rho) if rho <= 1 else 0.0
        prof = SpectralProfile(density, support_radius=1.0)
        est = estimate_decay_character(prof)
        assert abs(est.r_star - 0.0) < 0.05

    def test_scaling_invariance(self):
        a = estimate_decay_character(SpectralProfile.power_law(0.5, amplitude=1.0))
        b = estimate_decay_character(SpectralProfile.power_law(0.5, amplitude=137.0))
        assert a.slope == pytest.approx(b.slope, abs=1e-12)

    def test_oscillatory_mass_classified_boundary(self):
        # E(rho) = rho^3 (1 + sin^2 log rho) has no scaling limit
        def density(rho):
            lr = np.log(rho)
            return rho ** 2 * (3.0 * (1.0 + np.sin(lr) ** 2) + np.sin(2 * lr))
        prof = SpectralProfile(density, support_radius=1.0)
        est = estimate_decay_character(prof)
        assert est.boundary
        assert est.r_star is None
        assert est.fit_residual > 0.1

    def test_window_validation(self):
        prof = SpectralProfile.power_law(0.0)
        with pytest.raises(ValueError):
            estimate_decay_character(prof, rho_window=(0.1, 0.01))

    @pytest.mark.parametrize("cutoff, window", [("hard", (1.0, 5.0)), ("hard", (2.0, 5.0)),
                                                ("gauss", (8.0, 20.0))])
    def test_window_beyond_the_support_is_rejected(self, cutoff, window):
        # E(rho) is flat there, which used to fit r* = -3/2 with no boundary flag
        prof = SpectralProfile.power_law(0.0, cutoff=cutoff)
        with pytest.raises(ValueError, match="at or above the profile's support radius"):
            estimate_decay_character(prof, rho_window=window)
        assert estimate_decay_character(prof, rho_window=(1e-3, 1e-1)).r_star \
            == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_power_law_rejects_non_finite_r(self, r):
        with pytest.raises(ValueError, match="decay character r must be finite"):
            SpectralProfile.power_law(r)

    def test_indicator_table_near_constant_at_r_star(self):
        est = estimate_decay_character(SpectralProfile.power_law(1.0))
        values = np.array([p for _, p in est.P_r_values])
        assert values.max() / values.min() < 1.5


class TestMinRule:
    def test_distinct_characters(self):
        rep = min_rule_check(SpectralProfile.power_law(0.0),
                             SpectralProfile.power_law(1.0),
                             SpectralProfile.power_law(2.0))
        assert rep["passed"]
        assert abs(rep["combined_r_star"] - 0.0) < 0.1

    def test_identical_profiles(self):
        p = SpectralProfile.power_law(0.7)
        rep = min_rule_check(p, p, p)
        assert rep["passed"]
        assert abs(rep["combined_r_star"] - 0.7) < 0.05

    def test_negative_minimum(self):
        rep = min_rule_check(SpectralProfile.power_law(-1.0),
                             SpectralProfile.power_law(-1.0),
                             SpectralProfile.power_law(3.0))
        assert rep["passed"]
        assert abs(rep["combined_r_star"] + 1.0) < 0.1

    def test_random_triples(self):
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(20):
            rs = rng.uniform(-1.4, 3.0, size=3)
            rep = min_rule_check(*(SpectralProfile.power_law(float(r)) for r in rs))
            assert rep["passed"], f"min rule failed for {rs}: {rep}"

    def test_combined_profile_mass_adds(self):
        a = SpectralProfile.power_law(0.0)
        b = SpectralProfile.power_law(1.0)
        c = combine_profiles(a, b)
        assert c.ball_mass(0.5) == pytest.approx(
            a.ball_mass(0.5) + b.ball_mass(0.5), rel=1e-10)


class TestGenerator:
    def test_determinism(self):
        grid = Grid(16)
        a = generate_data_with_character(grid, 0.5, seed=42)
        b = generate_data_with_character(grid, 0.5, seed=42)
        for x, y in zip(a.components(), b.components()):
            assert x.tobytes() == y.tobytes()

    def test_zero_amplitude(self):
        grid = Grid(16)
        state = generate_data_with_character(grid, 0.0, seed=1, amplitude=0.0)
        assert spectrum_norm_sq(grid, *state.components()) == 0.0

    def test_amplitude_normalization(self):
        grid = Grid(16)
        state = generate_data_with_character(grid, 0.0, seed=1, amplitude=0.37)
        assert np.sqrt(spectrum_norm_sq(grid, *state.components())) == pytest.approx(
            0.37, rel=1e-12)

    def test_structure(self):
        grid = Grid(16)
        state = generate_data_with_character(grid, 1.0, seed=3)
        assert all(reality_error(comp) < 1e-14 for comp in state.components())
        assert state.divergence_error() < 1e-12
        for comp in state.components():
            assert np.abs(comp[:, 0, 0, 0]).max() == 0.0  # zero mean
            assert np.abs(comp * ~grid.dealias_mask).max() == 0.0

    # inline draws at one worker, draws beside the shaping at the default
    # count and at four
    @pytest.mark.parametrize("threads", [None, "1", "4"])
    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    @pytest.mark.parametrize("r, seed", [(-1.0, 1), (0.0, 2), (1.5, 3)])
    def test_half_spectrum_pairing_matches_full_construction(self, n, r, seed, threads,
                                                             monkeypatch):
        if threads is not None:
            monkeypatch.setenv("MMP_THREADS", threads)
        grid = Grid(n, 2 * np.pi)
        got = generate_data_with_character(grid, r, seed=seed, amplitude=0.7)
        assert got.z.tobytes() == full_spectrum_datum(grid, r, seed, 0.7).tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_draw_error_propagates_and_no_draw_is_left(self, failing, threads, monkeypatch):
        monkeypatch.setenv("MMP_THREADS", threads)
        calls, running = [], []

        def draw(rng, draws):
            calls.append(len(calls) + 1)
            running.append(True)
            try:
                if calls[-1] == failing:
                    raise RuntimeError("draw failed")
                _draw_normals(rng, draws)
            finally:
                running.pop()

        monkeypatch.setattr(decay_character, "_draw_normals", draw)
        with pytest.raises(RuntimeError, match="draw failed"):
            generate_data_with_character(Grid(16), 0.0, seed=1)
        assert calls == list(range(1, failing + 1)) and running == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shaping_error_waits_for_the_draw_in_flight(self, threads, monkeypatch):
        monkeypatch.setenv("MMP_THREADS", threads)
        finished = []

        def slow_draw(rng, draws):
            time.sleep(0.05)
            _draw_normals(rng, draws)
            finished.append(True)

        def failing_projection(grid, vhat):
            raise ArithmeticError("projection failed")

        monkeypatch.setattr(decay_character, "_draw_normals", slow_draw)
        monkeypatch.setattr(decay_character, "leray_project", failing_projection)
        with pytest.raises(ArithmeticError, match="projection failed"):
            generate_data_with_character(Grid(16), 0.0, seed=1)
        # the u group's projection fails while the w group's draws run
        assert finished == [True, True]

    def test_range_validation(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            generate_data_with_character(grid, -1.5, seed=1)
        with pytest.raises(ValueError):
            generate_data_with_character(grid, 6.0, seed=1)
        with pytest.raises(ValueError):
            generate_data_with_character(grid, np.nan, seed=1)
        for amplitude in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="amplitude must be finite"):
                generate_data_with_character(grid, 0.0, seed=1, amplitude=amplitude)

    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0])
    def test_estimator_self_consistency(self, r):
        # cutoff placed above the fit window so the envelope does not bend
        # the shell slope; defaults put the envelope inside the window and
        # widen the error to the documented +-0.2
        grid = Grid(64, 2 * np.pi)
        state = generate_data_with_character(grid, r, seed=5, amplitude=1.0,
                                             sigma=32.0)
        est = estimate_decay_character(ShellProfile.from_state(state))
        assert not est.boundary
        assert abs(est.r_star - r) < 0.1

    @pytest.mark.parametrize("component", ["z", "u", "w"])
    def test_shell_masses_match_full_spectrum(self, component):
        grid = Grid(16, 3.0)
        state = random_state(grid, np.random.Generator(np.random.Philox(4)))
        profile = ShellProfile.from_state(state, component)
        arrays = {"z": state.components(), "u": (state.uhat,), "w": (state.what,)}[component]
        shell = np.ceil(full_xi_mag(grid) / grid.fundamental - 1e-9).astype(int)
        want = np.zeros(shell.max() + 1)
        for arr in arrays:
            np.add.at(want, shell, (np.abs(full_spectrum(arr)) ** 2).sum(axis=0))
        want *= grid.volume
        assert profile.shell_masses.shape == want.shape
        assert np.allclose(profile.shell_masses, want, rtol=1e-13, atol=0)

    def test_leray_shell_factor(self):
        # projection of an isotropically shaped random field scales shell
        # masses by an angular factor in [1/3, 1] and leaves r* in place
        grid = Grid(32, 2 * np.pi)
        rng = np.random.Generator(np.random.Philox(8))
        mag = np.where(grid.xi_sq > 0, np.exp(-grid.xi_sq / (2 * 81.0)), 0.0)
        mag *= grid.dealias_mask
        noise = rng.normal(size=(3, 32, 32, 32)) + 1j * rng.normal(size=(3, 32, 32, 32))
        # shape white noise on the full spectrum (mag is even in k), keep the half
        full_mag = full_spectrum(mag).real
        vhat = hermitian_symmetrize(noise * full_mag[None])[..., :17]
        proj = leray_project(grid, vhat)
        before = ShellProfile.from_spectral_array(grid, vhat)
        after = ShellProfile.from_spectral_array(grid, proj)
        ratio = after.shell_masses[1:11] / before.shell_masses[1:11]
        assert np.all(ratio >= 1.0 / 3.0 - 1e-12)
        assert np.all(ratio <= 1.0 + 1e-12)
        est_before = estimate_decay_character(before)
        est_after = estimate_decay_character(after)
        assert abs(est_before.slope - est_after.slope) / 2.0 < 0.05
