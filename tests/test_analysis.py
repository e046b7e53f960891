"""Rate fitting, Fourier-splitting integrals, prediction tables, reports."""

import numpy as np
import pytest

from mmplab.analysis import (NormSeries, fit_decay_exponent,
                             fourier_split_integral, fourier_split_radius,
                             predicted_exponents, theorem_report)
from mmplab.decay_character import SpectralProfile
from mmplab.fields import Grid, PhysParams, spectrum_norm_sq
from mmplab.linear import make_radial_state

from mmplab.grid import full_spectrum

from conftest import full_xi_mag, random_state


class TestFit:
    def test_exact_power_law(self):
        t = np.linspace(0.0, 200.0, 80)
        vals = (1.0 + t) ** -1.5
        exponent, residual = fit_decay_exponent(NormSeries("power", t, vals), (0.0, 200.0))
        assert abs(exponent + 1.5) < 1e-10
        assert residual < 1e-10

    def test_modulated_power_law(self):
        t = np.linspace(0.0, 500.0, 400)
        vals = 3.0 * (1.0 + t) ** -2.5 * (1.0 + 0.01 * np.sin(t))
        exponent, _ = fit_decay_exponent(NormSeries("modulated", t, vals), (0.0, 500.0))
        assert abs(exponent + 2.5) < 0.02

    def test_constant_series(self):
        t = np.linspace(0.0, 50.0, 30)
        series = NormSeries("constant", t, np.full_like(t, 2.0))
        exponent, residual = fit_decay_exponent(series, (0.0, 50.0))
        assert abs(exponent) < 1e-12
        assert residual < 1e-12

    def test_insufficient_samples(self):
        t = np.linspace(0.0, 10.0, 5)
        with pytest.raises(ValueError, match="at least"):
            fit_decay_exponent(NormSeries("short", t, np.exp(-t)), (0.0, 10.0))

    @pytest.mark.parametrize("window, shown", [
        ((4.0, 1.0), "[4, 1]"), ((np.nan, 4.0), "[nan, 4]"), ((1.0, np.nan), "[1, nan]"),
        ((-1.0, 4.0), "[-1, 4]"), ((2.0, 2.0), "[2, 2]"), ((0.0, np.inf), "[0, inf]")],
        ids=["reversed", "nan-lo", "nan-hi", "negative", "empty", "infinite"])
    def test_window_must_be_ordered_and_finite(self, window, shown):
        # rejected as such, not as a window with too few samples
        t = np.linspace(0.0, 10.0, 40)
        with pytest.raises(ValueError) as exc:
            fit_decay_exponent(NormSeries("w", t, (1.0 + t) ** -1.0), window)
        assert str(exc.value) == f"fit window {shown} must satisfy 0 <= lo < hi < inf"

    @pytest.mark.parametrize("bad", [0.0, -0.2, np.inf, np.nan])
    def test_values_must_be_finite_and_positive(self, bad):
        t = np.linspace(0.0, 10.0, 20)
        vals = (1.0 + t) ** -1.0
        vals[7] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            fit_decay_exponent(NormSeries("bad", t, vals), (0.0, 10.0))

    def test_norm_series_fitted_copy(self):
        t = np.linspace(0.0, 100.0, 40)
        series = NormSeries("demo", t, (1.0 + t) ** -2.0)
        exponent, _ = fit_decay_exponent(series, (0.0, 100.0))
        assert exponent == pytest.approx(-2.0, abs=1e-10)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            NormSeries("bad", np.array([0.0, 1.0, 1.0]), np.ones(3))


class TestFourierSplit:
    def test_ball_radius_law(self):
        assert fourier_split_radius(0.0, 4.0) == 2.0
        assert fourier_split_radius(3.0, 4.0) == 1.0
        with pytest.raises(ValueError):
            fourier_split_radius(-1.0, 4.0)
        with pytest.raises(ValueError):
            fourier_split_radius(1.0, 0.0)

    def test_full_ball_equals_norm(self, grid8, rng):
        state = random_state(grid8, rng)
        # g(0) = sqrt(A); choose A beyond the largest resolved mode
        A = (grid8.half_modes().xi_mag.max() + 1.0) ** 2
        assert fourier_split_integral(grid8, state.z, 0.0, A) == pytest.approx(
            spectrum_norm_sq(grid8, *state.components()), rel=1e-12)

    def test_upper_bound_and_monotone_in_A(self, grid16, rng):
        state = random_state(grid16, rng)
        t = 2.0
        values = [fourier_split_integral(grid16, state.z, t, A) for A in (4.0, 16.0, 64.0, 400.0)]
        assert np.all(np.diff(values) >= 0)
        assert values[-1] <= spectrum_norm_sq(grid16, *state.components()) * (1 + 1e-12)

    def test_half_spectrum_matches_full_spectrum(self, grid16, rng):
        # multiplicity-weighted half sums equal the sums over the expanded state
        state = random_state(grid16, rng)
        mag = full_xi_mag(grid16)
        for t, A in ((0.0, 4.0), (1.0, 30.0), (3.0, 200.0)):
            inside = mag <= fourier_split_radius(t, A)
            want = grid16.volume * sum(float((np.abs(full_spectrum(c)) ** 2 * inside).sum())
                                       for c in state.components())
            assert fourier_split_integral(grid16, state.z, t, A) == pytest.approx(want, rel=1e-13)

    def test_sub_fundamental_ball_warns_and_returns_zero(self, rng):
        grid = Grid(8, 0.5)  # fundamental = 4 pi
        state = random_state(grid, rng)
        with pytest.warns(UserWarning, match="fundamental"):
            out = fourier_split_integral(grid, state.z, 100.0, 1.0)
        assert out == 0.0

    def test_zero_state(self, grid8):
        from mmplab.fields import StateField
        assert fourier_split_integral(grid8, StateField.zero(grid8).z, 1.0, 9.0) == 0.0

    def test_continuum_heat_ball_closed_form(self):
        # magnetic heat flow on the radial path: ball mass has an
        # incomplete-Gaussian closed form via quadrature oracle
        import scipy.integrate as si
        params = PhysParams()
        prof = SpectralProfile.power_law(0.0)
        state = make_radial_state(prof, params, component_weights=(0, 0, 1))
        t, A = 10.0, 4.0
        g = fourier_split_radius(t, A)
        measured = state.ball_mass_at(t, g)
        exact, _ = si.quad(lambda rho: np.exp(-2 * params.nu * t * rho ** 2)
                           * 4 * np.pi * rho ** 2, 0.0, g, epsrel=1e-12)
        assert measured == pytest.approx(exact, rel=1e-6)


class TestPredictions:
    def test_saturation_at_large_character(self):
        pred = predicted_exponents(2.0)
        assert pred["z"] == -2.5
        assert pred["w"] == -3.5

    def test_linear_regime_below_saturation(self):
        for r in (-1.0, 0.0, 0.5, 1.0):
            pred = predicted_exponents(r)
            assert pred["z"] == pytest.approx(-(1.5 + r))
            assert pred["w"] - pred["z"] == pytest.approx(-1.0)

    def test_monotone_until_saturation(self):
        rs = np.linspace(-1.4, 3.0, 45)
        for key in ("z", "w", "diff_z", "diff_w", "grad_z", "grad_w",
                    "d2_z", "grad_diff"):
            vals = [predicted_exponents(r)[key] for r in rs]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_difference_saturations(self):
        pred = predicted_exponents(0.0)
        assert pred["diff_z"] == -2.5   # min(3.5, 2.5)
        assert pred["diff_w"] == -3.5   # min(4.5, 3.5)
        assert pred["grad_diff"] == -1.75
        pred_neg = predicted_exponents(-1.0)
        assert pred_neg["diff_z"] == -1.5
        assert pred_neg["grad_diff"] == -0.25

    def test_lower_bound_range_flag(self):
        assert theorem_report({}, 0.5, (1.0, 100.0))["z_lower_bound_range"]
        assert not theorem_report({}, 1.5, (1.0, 100.0))["z_lower_bound_range"]


class TestTheoremReport:
    def _series(self, exponent, t):
        return NormSeries("s", t, (1.0 + t) ** exponent)

    def test_quantitative_rows_pass_on_exact_series(self):
        t = np.geomspace(1e2, 1e4, 40)
        series_map = {
            "l2_z_sq": NormSeries("l2_z_sq", t, (1 + t) ** -1.5),
            "l2_w_sq": NormSeries("l2_w_sq", t, (1 + t) ** -2.5),
        }
        report = theorem_report(series_map, r_star=0.0, window=(1e2, 1e4),
                                quantitative=True)
        assert report["overall_pass"]
        assert all(row["pass"] for row in report["rows"])
        gap = report["gap_rows"][0]
        assert gap["measured"] == pytest.approx(-1.0, abs=1e-9)

    def test_torus_mode_marks_rows_indicative(self):
        t = np.geomspace(1.0, 1e3, 40)
        series_map = {
            "l2_z_sq": NormSeries("l2_z_sq", t, (1 + t) ** -1.7),
            "l2_w_sq": NormSeries("l2_w_sq", t, (1 + t) ** -2.6),
        }
        report = theorem_report(series_map, r_star=0.0, window=(1.0, 1e3),
                                quantitative=False)
        for row in report["rows"]:
            assert row["mode"] == "windowed/indicative"
            assert row["pass"] is None
        # exponent gap is the binding check and tolerates truncation bias
        assert report["gap_rows"][0]["pass"]
        assert report["overall_pass"]

    def test_non_finite_sample_gives_an_error_row(self):
        t = np.geomspace(1.0, 100.0, 20)
        vals = (1.0 + t) ** -1.5
        vals[5] = np.inf
        report = theorem_report({"l2_z_sq": NormSeries("l2_z_sq", t, vals)},
                                r_star=0.0, window=(1.0, 100.0))
        (row,) = report["rows"]
        assert row["prediction"] == "z" and "finite and positive" in row["error"]
        assert "measured_exponent" not in row and report["overall_pass"] is None

    def test_unknown_series_ignored(self):
        t = np.geomspace(1.0, 100.0, 20)
        report = theorem_report({"mystery": self._series(-1.0, t)},
                                r_star=0.0, window=(1.0, 100.0))
        assert report["rows"] == []
        assert report["overall_pass"] is None
