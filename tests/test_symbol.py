"""Symbol matrix tests: assembly, eigenvalue bounds, semigroup."""

import numpy as np
import pytest
import scipy.linalg as sla

from mmplab.fields import PhysParams
from mmplab.symbol import (BoundInvalidError, assemble_entries_batch,
                           assemble_symbol, rayleigh_basis,
                           rayleigh_basis_check, rotation_symbol,
                           sample_wavevectors, sector_lambda_max,
                           semigroup_apply, spectral_bound,
                           spectral_bound_radii, verify_eigenvalue_bound)


def transcription_oracle(xi, p):
    """Independent entrywise construction of the 9x9 symbol."""
    xi = np.asarray(xi, float)
    s2 = xi @ xi
    M = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        M[i, i] = -(p.mu + p.chi) * s2
        M[3 + i, 3 + i] = -(p.gamma * s2 + 2 * p.chi)
        M[6 + i, 6 + i] = -p.nu * s2
        for j in range(3):
            M[3 + i, 3 + j] += -xi[i] * xi[j]
    R = [[0.0, xi[2], -xi[1]], [-xi[2], 0.0, xi[0]], [xi[1], -xi[0], 0.0]]
    for i in range(3):
        for j in range(3):
            M[i, 3 + j] = 1j * p.chi * R[i][j]
            M[3 + i, j] = 1j * p.chi * R[i][j]
    return M


class TestRotationSymbol:
    def test_unit_axis_spectrum(self):
        lam = np.linalg.eigvalsh(rotation_symbol([0.0, 0.0, 1.0]))
        assert np.abs(lam - [-1.0, 0.0, 1.0]).max() < 1e-14

    def test_zero(self):
        assert np.abs(rotation_symbol([0.0, 0.0, 0.0])).max() == 0.0

    def test_general_vector_spectrum(self):
        lam = np.linalg.eigvalsh(rotation_symbol([3.0, 4.0, 0.0]))
        assert np.abs(lam - [-5.0, 0.0, 5.0]).max() < 1e-13

    def test_hermitian(self, rng):
        xi = rng.normal(size=3)
        A = rotation_symbol(xi)
        assert np.abs(A - A.conj().T).max() == 0.0


class TestAssembleSymbol:
    def test_zero_wavevector(self, params):
        M = assemble_symbol([0.0, 0.0, 0.0], params).entries
        expected = np.diag([0, 0, 0, -1.0, -1.0, -1.0, 0, 0, 0])
        assert np.abs(M - expected).max() < 1e-15

    def test_magnetic_block(self, params, rng):
        xi = rng.normal(size=3) * 3
        M = assemble_symbol(xi, params).entries
        s2 = xi @ xi
        assert np.abs(M[6:9, 6:9] + params.nu * s2 * np.eye(3)).max() < 1e-13
        assert np.abs(M[6:9, 0:6]).max() == 0.0
        assert np.abs(M[0:6, 6:9]).max() == 0.0

    def test_matches_transcription_oracle(self, params, rng):
        for _ in range(20):
            xi = rng.normal(size=3) * 2
            M = assemble_symbol(xi, params).entries
            assert np.abs(M - transcription_oracle(xi, params)).max() < 1e-14

    def test_hermiticity_sweep(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = PhysParams(mu=rng.uniform(0.1, 3), gamma=rng.uniform(0.1, 3),
                           chi=rng.uniform(0.0, 2), nu=rng.uniform(0.1, 3))
            xi = rng.normal(size=3) * 10 ** rng.uniform(-2, 2)
            M = assemble_symbol(xi, p)
            worst = max(worst, M.hermiticity_error())
        assert worst < 1e-14

    def test_batch_assembly_matches(self, params, rng):
        xis = rng.normal(size=(40, 3)) * 2
        batch = assemble_entries_batch(xis, params)
        for i, xi in enumerate(xis):
            assert np.abs(batch[i] - assemble_symbol(xi, params).entries).max() < 1e-14

    def test_eigen_bundle(self, params, rng):
        xi = rng.normal(size=3)
        M = assemble_symbol(xi, params)
        bundle = M.eigen
        U = bundle.unitary
        assert np.abs(U @ U.conj().T - np.eye(9)).max() < 1e-12
        rec = (U * bundle.eigenvalues) @ U.conj().T
        assert np.abs(rec - M.entries).max() < 1e-11 * np.abs(M.entries).max()
        assert np.all(np.diff(bundle.eigenvalues) <= 1e-14)


class TestSpectralBound:
    def test_reference_value(self, params):
        # min{2.5 - 0.5 + 1, 1.5, 2, 2} at |xi| = 1
        assert spectral_bound(1.0, params) == pytest.approx(1.5, abs=1e-15)

    def test_vanishes_quadratically(self, params):
        for s in (1e-2, 1e-3, 1e-4):
            b = spectral_bound(s, params)
            assert b == pytest.approx(min(params.mu + params.chi,
                                          2 * params.nu) * s * s, rel=1e-6)

    def test_invalid_parameter_gate(self):
        p = PhysParams(mu=0.05, gamma=0.05, chi=0.05, nu=1.0)
        assert not p.bound_valid
        with pytest.raises(BoundInvalidError):
            spectral_bound(1.0, p)

    def test_positive_for_nonzero_xi(self, params):
        s = np.geomspace(1e-3, 1e2, 200)
        assert np.all(spectral_bound_radii(s, params) > 0)


class TestSectorSpectrum:
    def test_matches_dense_eigensolver(self, params):
        xis = sample_wavevectors(300, seed=3)
        Ms = assemble_entries_batch(xis, params)
        lam = np.linalg.eigvalsh(Ms)[:, -1]
        radii = np.linalg.norm(xis, axis=1)
        closed = sector_lambda_max(radii, params)
        assert np.abs(lam - closed).max() < 1e-10


class TestVerifyEigenvalueBound:
    def test_quadratic_decay_certified(self, params):
        xis = sample_wavevectors(2000, seed=5)
        report = verify_eigenvalue_bound(params, xis)
        assert report["quadratic_decay_holds"]
        assert report["empirical_C_true"] > 0
        assert report["empirical_C"] > 0

    def test_four_way_minimum_is_not_an_upper_bound(self, params):
        # The magnetic sector decays at exactly nu |xi|^2 while the bound's
        # fourth entry is 2 nu |xi|^2, so positive violations are a theorem,
        # not a numerical artifact.  Pin the honest behaviour.
        xis = sample_wavevectors(2000, seed=5)
        report = verify_eigenvalue_bound(params, xis)
        assert not report["bound_holds"]
        assert report["max_violation"] > 0.1
        # the halved bound does hold for these parameters
        radii = np.linalg.norm(xis, axis=1)
        lam = np.linalg.eigvalsh(assemble_entries_batch(xis, params))[:, -1]
        half = 0.5 * spectral_bound_radii(radii, params)
        assert np.max(lam + half) <= 1e-10

    @pytest.mark.parametrize("p", [PhysParams(), PhysParams(mu=1.0, gamma=0.1, chi=0.05, nu=2.0)])
    def test_young_excess_matches_independent_eigvalsh(self, p):
        xis = sample_wavevectors(300, seed=6)
        report = verify_eigenvalue_bound(p, xis)
        lam = np.array([sla.eigvalsh(transcription_oracle(xi, p))[-1] for xi in xis])
        s2 = (xis ** 2).sum(axis=1)
        young = np.minimum(np.minimum(p.mu * s2, p.gamma * s2 + p.chi), p.nu * s2)
        assert report["young_max_excess"] == pytest.approx((lam + young).max(), abs=1e-12)
        assert report["young_max_excess"] <= 1e-10
        assert report["young_bound_holds"]


class TestRayleighBasis:
    def test_gram_identity(self, params):
        B = rayleigh_basis([0.0, 0.0, 1.0])
        assert np.abs(B.conj().T @ B - np.eye(9)).max() < 1e-12

    def test_zero_eigendirection_coupling_vanishes(self, params):
        rep = rayleigh_basis_check([0.0, 0.0, 1.0], params)
        # basis columns 2, 3 hold the rotation-kernel mixed vectors
        coupling = rep["quotients_coupling_part"]
        assert abs(coupling[2]) < 1e-12
        assert abs(coupling[3]) < 1e-12

    def test_projector_part_nonpositive(self, params, rng):
        xi = rng.normal(size=3) * 2
        rep = rayleigh_basis_check(xi, params)
        assert rep["projector_part_nonpositive"]

    def test_quotients_match_direct_evaluation(self, params, rng):
        xi = rng.normal(size=3)
        B = rayleigh_basis(xi)
        M = assemble_symbol(xi, params).entries
        rep = rayleigh_basis_check(xi, params)
        for k in range(9):
            direct = float(np.real(B[:, k].conj() @ M @ B[:, k]))
            assert abs(direct - rep["quotients"][k]) < 1e-12

    def test_young_excess_matches_direct_evaluation(self, params, rng):
        xi = rng.normal(size=3) * 2
        rep = rayleigh_basis_check(xi, params)
        s2 = xi @ xi
        young = min(params.mu * s2, params.gamma * s2 + params.chi, params.nu * s2)
        assert rep["young_max_excess"] == pytest.approx(max(rep["quotients"]) + young,
                                                        abs=1e-12)
        assert rep["young_bound_holds"]

    def test_quotients_dominated_by_lambda_max(self, params, rng):
        xi = rng.normal(size=3) * 2
        rep = rayleigh_basis_check(xi, params)
        lam_max = assemble_symbol(xi, params).lambda_max
        assert rep["max_quotient"] <= lam_max + 1e-10

    def test_zero_xi_rejected(self, params):
        with pytest.raises(ValueError):
            rayleigh_basis_check([0.0, 0.0, 0.0], params)


class TestSemigroup:
    def test_identity_at_zero_time(self, params, rng):
        M = assemble_symbol(rng.normal(size=3), params)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.abs(semigroup_apply(M, 0.0, v) - v).max() < 1e-13

    def test_magnetic_block_is_pure_heat(self, params, rng):
        xi = rng.normal(size=3)
        M = assemble_symbol(xi, params)
        v = np.zeros(9, dtype=complex)
        v[6:9] = rng.normal(size=3) + 1j * rng.normal(size=3)
        t = 0.9
        out = semigroup_apply(M, t, v)
        factor = np.exp(-params.nu * (xi @ xi) * t)
        assert np.abs(out[6:9] - factor * v[6:9]).max() < 1e-12
        assert np.abs(out[0:6]).max() < 1e-13

    def test_against_expm_oracle(self, params, rng):
        worst = 0.0
        for _ in range(100):
            xi = rng.normal(size=3) * 10 ** rng.uniform(-1.5, 1)
            t = rng.uniform(0, 2)
            v = rng.normal(size=9) + 1j * rng.normal(size=9)
            M = assemble_symbol(xi, params)
            ref = sla.expm(t * M.entries) @ v
            got = semigroup_apply(M, t, v)
            worst = max(worst, np.abs(ref - got).max() / np.abs(ref).max())
        assert worst < 1e-11

    def test_norm_nonincreasing_and_composition(self, params, rng):
        xi = rng.normal(size=3)
        M = assemble_symbol(xi, params)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        n0 = np.linalg.norm(v)
        one = semigroup_apply(M, 0.8, v)
        assert np.linalg.norm(one) <= n0 * (1 + 1e-13)
        two = semigroup_apply(M, 0.3, semigroup_apply(M, 0.5, v))
        assert np.abs(one - two).max() < 1e-11

    def test_contraction_rate_at_true_spectrum(self, params, rng):
        # ||e^{tM} v|| <= e^{lambda_max t} ||v||, the exact sector rate
        xi = rng.normal(size=3)
        M = assemble_symbol(xi, params)
        t = 1.3
        bound = np.exp(t * M.lambda_max)
        for _ in range(20):
            v = rng.normal(size=9) + 1j * rng.normal(size=9)
            ratio = np.linalg.norm(semigroup_apply(M, t, v)) / np.linalg.norm(v)
            assert ratio <= bound * (1 + 1e-12)

    def test_negative_time_rejected(self, params):
        M = assemble_symbol([1.0, 0.0, 0.0], params)
        with pytest.raises(ValueError):
            semigroup_apply(M, -0.1, np.ones(9))

    def test_zero_xi_kernel_structure(self, params):
        # at xi = 0 the u and b blocks are the kernel and w decays at 2 chi
        M = assemble_symbol([0.0, 0.0, 0.0], params)
        v = np.arange(1.0, 10.0).astype(complex)
        out = semigroup_apply(M, 2.0, v)
        assert np.abs(out[0:3] - v[0:3]).max() < 1e-13
        assert np.abs(out[6:9] - v[6:9]).max() < 1e-13
        assert np.abs(out[3:6] - np.exp(-2 * params.chi * 2.0) * v[3:6]).max() < 1e-13
