"""Linear evolution: the grid propagator on the retained block, and the
continuum radial path."""

import numpy as np
import pytest
import scipy.integrate as si

from mmplab.analysis import fit_decay_exponent, theorem_report
from mmplab.decay_character import QuadratureError, SpectralProfile
from mmplab.fields import Grid, PhysParams, StateField, spectrum_norm_sq, state_norms
from mmplab.linear import _polarization, make_radial_state, radial_linear_decay
from mmplab.propagator import get_propagator
from mmplab.selftest import sphere_rule_26, sphere_rule_norms
from mmplab.symbol import assemble_symbol, semigroup_apply

from conftest import random_state, reality_error


def evolve(state, params, t):
    """The retained block of state advanced by e^{tM} (GridPropagator), the
    torus linear path of simulate's pair_linear."""
    grid = state.grid
    return get_propagator(grid, params).apply(grid.truncate(state.z), t)


def realize_profile_on_grid(grid, profile):
    """Deterministic grid field with the equal-weight polarization of
    linear._polarization at every mode, for grid-versus-continuum
    comparisons.

    The transverse frame is even in the direction, so real shaped
    magnitudes give a conjugate-symmetric (real) field, which is built
    directly on the stored half spectrum.  Support is restricted to the
    dealiased mode set, the retained block.
    """
    z = np.zeros((9,) + grid.spectral_shape, dtype=complex)
    mags = grid.xi_mag
    # One lattice cell covers d^3 xi = (2 pi / L)^3, and the package norm is
    # volume * sum |c_k|^2, so continuum intensity psi maps to coefficients
    # |c_k|^2 = psi(xi_k) (2 pi / L)^3 / volume.
    cell = grid.fundamental ** 3 / grid.volume
    dens = {}
    for i1, i2, i3 in np.argwhere(grid.dealias_mask & (mags > 0)):
        rho = mags[i1, i2, i3]
        if rho not in dens:
            dens[rho] = profile.radial_density(rho) / (4.0 * np.pi * rho ** 2)
        if dens[rho] <= 0:
            continue
        z[:, i1, i2, i3] = np.sqrt(dens[rho] * cell) * _polarization(
            grid.xi[:, i1, i2, i3] / rho, (1/3, 1/3, 1/3))
    return StateField(grid, z)


class TestGridEvolution:
    def test_identity_at_zero(self, grid16, params, rng):
        state = random_state(grid16, rng)
        out = evolve(state, params, 0.0)
        assert np.abs(out - grid16.truncate(state.z)).max() < 1e-12

    def test_magnetic_block_pure_heat(self, grid16, params, rng):
        state = random_state(grid16, rng)
        zero = np.zeros_like(state.bhat)
        b_only = StateField(grid16, np.concatenate([zero, zero, state.bhat]))
        t = 0.4
        out = evolve(b_only, params, t)
        factor = np.exp(-params.nu * grid16.retained.xi_sq * t)
        assert np.abs(out[6:9] - factor[None] * grid16.truncate(state.bhat)).max() < 1e-12
        assert np.abs(out[0:3]).max() < 1e-14
        assert np.abs(out[3:6]).max() < 1e-14

    def test_navier_stokes_reduction_heat_flow(self, grid16, rng):
        # chi = 0, w0 = b0 = 0: u follows plain heat flow with viscosity mu
        params = PhysParams(mu=0.7, gamma=1.0, chi=0.0, nu=1.0)
        state = random_state(grid16, rng)
        zero = np.zeros_like(state.uhat)
        u_only = StateField(grid16, np.concatenate([state.uhat, zero, zero]))
        t = 0.8
        out = evolve(u_only, params, t)
        factor = np.exp(-params.mu * grid16.retained.xi_sq * t)
        assert np.abs(out[0:3] - factor[None] * grid16.truncate(state.uhat)).max() < 1e-12

    def test_semigroup_composition(self, grid16, params, rng):
        state = random_state(grid16, rng)
        one = evolve(state, params, 0.9)
        two = get_propagator(grid16, params).apply(evolve(state, params, 0.4), 0.5)
        assert np.abs(one - two).max() < 1e-10

    def test_norm_nonincreasing(self, grid16, params, rng):
        state = random_state(grid16, rng)
        norms = [spectrum_norm_sq(grid16, grid16.pad(evolve(state, params, t)))
                 for t in (0.0, 0.1, 0.5, 2.0)]
        assert np.all(np.diff(norms) <= 0)

    def test_matches_per_mode_symbol(self, grid8, params, rng):
        state = random_state(grid8, rng)
        t = 0.3
        z, out = grid8.truncate(state.z), evolve(state, params, t)
        # block index 4 holds k_x = -1
        for idx in ((1, 2, 1), (0, 0, 1), (4, 1, 2)):
            sl = (slice(None),) + idx
            ref = semigroup_apply(assemble_symbol(grid8.retained.xi_odd[sl], params), t, z[sl])
            assert np.abs(ref - out[sl]).max() < 1e-11

    def test_reality_preserved(self, grid16, params, rng):
        state = random_state(grid16, rng)
        out = grid16.pad(evolve(state, params, 0.7))
        for comp in np.split(out, 3):
            assert reality_error(comp) < 1e-14

    def test_negative_time_rejected(self, grid8, params):
        with pytest.raises(ValueError):
            evolve(StateField.zero(grid8), params, -1.0)


class TestSphereRule:
    def test_weights(self):
        points, weights = sphere_rule_26()
        assert points.shape == (26, 3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-14

    def test_second_moment_exact(self):
        points, weights = sphere_rule_26()
        moment = np.einsum("d,di,dj->ij", weights, points, points)
        assert np.abs(moment - np.eye(3) / 3.0).max() < 1e-14


def total_mass(state):
    """The L2 mass of a radial datum, from its node coefficients."""
    return state_norms(state.coeffs, state.weights, state.radii ** 2)["l2_z_sq"]


class TestRadialState:
    def test_mass_consistency(self, params):
        prof = SpectralProfile.power_law(0.0)
        state = make_radial_state(prof, params)
        exact, _ = si.quad(prof.radial_density, 0, 1, epsrel=1e-12, epsabs=0)
        assert abs(total_mass(state) - exact) / exact < 1e-6

    def test_infrared_tail_needs_smaller_rho_min(self, params):
        # r = -1 leaves rho_min of relative mass below the cutoff radius
        prof = SpectralProfile.power_law(-1.0)
        state = make_radial_state(prof, params, rho_min=1e-7)
        exact, _ = si.quad(prof.radial_density, 0, 1, epsrel=1e-12, epsabs=0)
        assert abs(total_mass(state) - exact) / exact < 1e-6

    def test_direction_contributions_identical(self, params):
        # rotational equivariance: every direction contributes equally
        state = make_radial_state(SpectralProfile.power_law(0.0), params)
        per_direction = sphere_rule_norms(state, 0.8)["l2_z_sq"]
        spread = per_direction.max() - per_direction.min()
        assert spread < 1e-12 * per_direction.max()

    @pytest.mark.parametrize("r_star, rho_min", [(-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4)])
    @pytest.mark.parametrize("phys", [
        PhysParams(), PhysParams(mu=0.3, gamma=0.8, chi=0.7, nu=0.4),
        PhysParams(mu=0.7, gamma=1.0, chi=0.0, nu=1.0)], ids=["canonical", "mixed", "chi0"])
    def test_one_direction_matches_sphere_rule(self, r_star, rho_min, phys):
        # the 26-direction rule is the oracle for the one-direction reduction
        state = make_radial_state(SpectralProfile.power_law(r_star), phys,
                                  rho_min=rho_min)
        weights = sphere_rule_26()[1]
        for t in (0.0, 0.8, 1e2, 1e3, 1e4):
            got = state.norms_at(t)
            for key, rows in sphere_rule_norms(state, t).items():
                want = weights @ rows
                assert abs(got[key] - want) <= 1e-12 * want, (key, t)

    def test_norms_at_zero_match_initial(self, params):
        prof = SpectralProfile.power_law(0.0)
        state = make_radial_state(prof, params)
        row = state.norms_at(0.0)
        assert row["l2_z_sq"] == pytest.approx(total_mass(state), rel=1e-12)


    def test_kernel_built_once_per_state(self, params, monkeypatch):
        import mmplab.linear as linear
        builds = []

        class CountingKernel(linear.SectorKernel):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(linear, "SectorKernel", CountingKernel)
        state = make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=16)
        first = state.norms_at(1e2)
        for t in (1e2, 1e3, 1e4):
            state.norms_at(t)
        assert state.norms_at(1e2) == first
        assert len(builds) == 1

    @pytest.mark.parametrize("r_star, rho_min", [(-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4)])
    @pytest.mark.parametrize("phys", [
        PhysParams(), PhysParams(mu=0.7, gamma=1.0, chi=0.0, nu=1.0)], ids=["canonical", "chi0"])
    def test_time_blocks_match_scalar_calls(self, r_star, rho_min, phys):
        import mmplab.linear as linear
        state = make_radial_state(SpectralProfile.power_law(r_star), phys, rho_min=rho_min)
        times = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 22)])
        # the last block is partial
        assert times.size % (linear._BLOCK // state.radii.size) != 0
        block = state.norms_at(times)
        rows = [state.norms_at(t) for t in times]
        assert all(type(v) is float for v in rows[0].values())
        assert block.keys() == rows[0].keys()
        for key, vals in block.items():
            assert vals.shape == times.shape
            assert np.array_equal(vals, [row[key] for row in rows]), key

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_time_rejected(self, params, t):
        state = make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=16)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            state.norms_at(t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            state.norms_at(np.array([0.0, 1.0, t]))

    def test_two_dimensional_times_rejected(self, params):
        state = make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=16)
        for call in (state.coeffs_at, state.norms_at):
            with pytest.raises(ValueError, match="scalar or 1-D"):
                call(np.ones((2, 3)))

    def test_ball_mass_rejects_negative_time(self, params):
        state = make_radial_state(SpectralProfile.power_law(0.0), params)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            state.ball_mass_at(-1.0, 0.5)

    @pytest.mark.parametrize("t", [-1.0, np.nan])
    def test_ball_mass_checks_time_below_first_node(self, params, t):
        # a radius at or below the first node holds no mass at any valid time
        state = make_radial_state(SpectralProfile.power_law(0.0), params)
        for radius in (1e-9, state.radii[0]):
            assert state.ball_mass_at(1.0, radius) == 0.0
            with pytest.raises(ValueError, match="finite and nonnegative"):
                state.ball_mass_at(t, radius)


class TestRadialDecay:
    def test_heat_block_closed_form(self, params):
        prof = SpectralProfile.power_law(0.0)
        state = make_radial_state(prof, params, component_weights=(0, 0, 1))
        for t in (0.5, 3.0, 20.0):
            norms = state.norms_at(t)
            # l2_b_sq, h1_z_sq and h2_z_sq carry |xi|^0, |xi|^2 and |xi|^4
            for key, power in (("l2_b_sq", 0), ("h1_z_sq", 2), ("h2_z_sq", 4)):
                exact, _ = si.quad(
                    lambda rho: rho ** power * np.exp(-2 * params.nu * t * rho ** 2)
                    * 4 * np.pi * rho ** 2, 0, 1, epsrel=1e-12)
                assert abs(norms[key] - exact) / exact < 1e-6, key

    def test_sharp_rate_for_flat_datum(self, params):
        times = np.geomspace(1e2, 1e4, 20)
        series = radial_linear_decay(SpectralProfile.power_law(0.0),
                                     times, params)
        exponent, _ = fit_decay_exponent(series["l2_z_sq"], (1e2, 1e4))
        assert abs(exponent + 1.5) < 0.05

    def test_enhanced_micro_rotation_rate(self, params):
        times = np.geomspace(1e2, 1e4, 20)
        series = radial_linear_decay(SpectralProfile.power_law(0.0),
                                     times, params)
        exponent, _ = fit_decay_exponent(series["l2_w_sq"], (1e2, 1e4))
        assert exponent <= -2.5 + 0.15

    @pytest.mark.parametrize("r_star, rho_min", [(-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4)])
    def test_derivative_rates_quantitative(self, params, r_star, rho_min):
        # the criterion-4 cases; the gradient and second-derivative rows
        # bind the paper's derivative rates at the radial tolerance
        times = np.geomspace(1e2, 1e4, 25)
        series = radial_linear_decay(SpectralProfile.power_law(r_star), times, params,
                                     rho_min=rho_min, check_convergence=True)
        report = theorem_report(series, r_star, (1e2, 1e4), quantitative=True)
        assert [row["series"] for row in report["rows"]] == [
            "l2_z_sq", "l2_w_sq", "h1_z_sq", "h1_w_sq", "h2_z_sq"]
        assert all(row["pass"] for row in report["rows"]), report["rows"]
        assert report["overall_pass"]

    def test_node_doubling_convergence_gate(self, params):
        times = np.geomspace(1e2, 1e3, 12)
        radial_linear_decay(SpectralProfile.power_law(0.0), times, params,
                            check_convergence=True)

    def test_gate_that_cannot_fail_raises(self, params):
        # one 8-node panel at per_decade 1 and at its doubling: no check
        with pytest.raises(QuadratureError, match="keeps 8 nodes"):
            radial_linear_decay(SpectralProfile.power_law(0.0), [1e2, 1e3], params,
                                per_decade=1, check_convergence=True)

    @pytest.mark.parametrize("per_decade", [0, -5])
    def test_per_decade_below_one_rejected(self, params, per_decade):
        with pytest.raises(ValueError, match="per_decade must be at least 1"):
            make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=per_decade)

    def test_time_monotonicity_validation(self, params):
        with pytest.raises(ValueError):
            radial_linear_decay(SpectralProfile.power_law(0.0),
                                [1.0, 1.0, 2.0], params)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            radial_linear_decay(SpectralProfile.power_law(0.0), [-5.0, 0.0, 1.0], params)

    @pytest.mark.parametrize("check", [False, True])
    def test_empty_times_keep_every_key(self, params, check):
        series = radial_linear_decay(SpectralProfile.power_law(0.0), np.array([]), params,
                                     per_decade=16, check_convergence=check)
        assert list(series) == ["l2_z_sq", "l2_u_sq", "l2_w_sq", "l2_b_sq",
                                "h1_z_sq", "h1_w_sq", "h2_z_sq"]
        assert all(s.values.shape == (0,) for s in series.values())

    def test_one_kernel_apply_per_quadrature(self, params, monkeypatch):
        # a per-time loop would make 25 applies per quadrature
        import mmplab.linear as linear
        applies, builds = [], []
        real_apply, real_make = linear.SectorKernel.apply, linear.make_radial_state
        monkeypatch.setattr(linear.SectorKernel, "apply",
                            lambda *a, **kw: applies.append(1) or real_apply(*a, **kw))
        monkeypatch.setattr(linear, "make_radial_state",
                            lambda *a, **kw: builds.append(1) or real_make(*a, **kw))
        times = np.geomspace(1e2, 1e4, 25)
        # 64 and 128 nodes: each quadrature's 25 times fit in one block
        radial_linear_decay(SpectralProfile.power_law(0.0), times, params,
                            per_decade=16, rho_min=1e-2, check_convergence=True)
        assert len(applies) == 2
        assert len(builds) == 2


class TestGridVersusRadial:
    def test_consistency_within_truncation_budget(self, params):
        grid = Grid(32, 32 * np.pi)
        prof = SpectralProfile.power_law(0.0, cutoff_radius=0.2, cutoff="gauss")
        state = realize_profile_on_grid(grid, prof)
        for comp in state.components():
            assert reality_error(comp) < 1e-14
        assert state.divergence_error() < 1e-13
        radial = make_radial_state(prof, params, rho_min=1e-4, rho_max=3.0)
        for t in (0.0, 1.0, 5.0, 10.0):
            g = spectrum_norm_sq(grid, grid.pad(evolve(state, params, t)))
            r = radial.norms_at(t)["l2_z_sq"]
            assert abs(g - r) / r < 0.03

