"""Field-core tests: transforms, Leray projection, norms, operators."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmplab.fields import (ContractViolation, Grid, PhysParams, StateField, curl_at,
                           leray_project, physical_norm_sq, spectrum_norm_sq,
                           state_norms)
from mmplab.grid import forward, full_spectrum, inverse

from conftest import (conjugate_flip, dealias_mask, full_band_half, full_spectrum_oracle,
                      hermitian_symmetrize, irfft3, random_state, reality_error, rfft3)


def dft_oracle(phys):
    """Direct O(n^6) DFT sum with the package normalization."""
    n = phys.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    x = np.arange(n)
    phase = np.exp(-2j * np.pi * np.outer(k, x) / n)
    return np.einsum("Ka,Lb,Mc,abc->KLM", phase, phase, phase, phys) / n ** 3


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(7)
        with pytest.raises(ValueError):
            Grid(4)
        with pytest.raises(ValueError):
            Grid(8, 0.0)

    @pytest.mark.parametrize("n", [8.0, np.float64(8.0), 8.5, "8", None])
    def test_non_integral_size_is_rejected(self, n):
        # 8.0 passed the parity and size checks, and its first array build
        # failed inside numpy
        with pytest.raises(ValueError, match=re.escape(f"grid size must be an integer, got n={n!r}")):
            Grid(n)

    def test_numpy_integer_size_is_taken(self):
        grid = Grid(np.int64(8))
        assert grid == Grid(8) and grid.spectral_shape == (8, 8, 5)
        assert grid.retained.xi_odd.shape == (3, 5, 5, 3)

    def test_wavevector_antisymmetry(self):
        grid = Grid(8, 3.0)
        k, xi = grid.k_int, grid.half_modes().xi_odd
        # every representable pair (k, -k); the Nyquist mode has no partner
        for i, ki in enumerate(k):
            if ki == -grid.n // 2:
                continue
            j = int(np.where(k == -ki)[0][0])
            assert xi[0][i, 0, 0] == -xi[0][j, 0, 0]

    @pytest.mark.parametrize("n", [8, 10])
    def test_half_arrays_are_full_slices(self, n):
        # every per-mode array holds the kz = 0 .. n/2 planes of its full
        # FFT-ordered counterpart
        grid = Grid(n, 3.0)
        k = grid.k_int
        KX, KY, KZ = np.meshgrid(k, k, k, indexing="ij")
        xi = grid.fundamental * np.stack([KX, KY, KZ]).astype(float)
        odd = np.where(np.stack([KX, KY, KZ]) == -n // 2, 0.0, xi)
        keep = (np.abs(np.stack([KX, KY, KZ])) <= n // 3).all(axis=0)
        half = (Ellipsis, slice(0, n // 2 + 1))
        assert grid.spectral_shape == (n, n, n // 2 + 1)
        modes = grid.half_modes()
        assert np.array_equal(modes.xi_mag, np.sqrt((xi ** 2).sum(axis=0))[half])
        assert np.array_equal(modes.xi_odd, odd[half])
        assert np.array_equal(modes.xi_sq, (xi ** 2).sum(axis=0)[half])
        assert np.array_equal(dealias_mask(grid), keep[half])
        assert grid.multiplicity.tolist() == [1.0] + [2.0] * (n // 2 - 1) + [1.0]


class TestPhysParams:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu", "gamma", "chi", "nu"])
    def test_rejects_non_finite(self, name, value):
        # NaN compares False against every bound, so it needs its own check
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
            PhysParams(**{name: value})


class TestTransforms:
    """forward and inverse on retained blocks, against a direct DFT."""

    def test_single_mode_roundtrip(self, grid16):
        spec = np.zeros((3, 16, 16, 9), dtype=complex)
        spec[0, 1, 0, 0] = 1.0
        spec[0, -1 % 16, 0, 0] = 1.0  # conjugate partner
        state = StateField(grid16, np.concatenate([spec, np.zeros_like(spec), np.zeros_like(spec)]))
        rt = forward(inverse(grid16.truncate(state.z), grid16))
        assert np.abs(rt[0:3] - grid16.truncate(spec)).max() < 1e-14

    def test_zero_field(self, grid16):
        state = StateField.zero(grid16)
        rt = forward(inverse(grid16.truncate(state.z), grid16))
        assert np.abs(rt[0:3]).max() == 0.0

    def test_random_roundtrip(self, grid16, rng):
        z = grid16.truncate(random_state(grid16, rng).z)
        assert np.abs(forward(inverse(z, grid16)) - z).max() < 1e-12

    def test_against_direct_dft(self, grid8, rng):
        phys = rng.normal(size=(8, 8, 8))
        want = grid8.truncate(dft_oracle(phys)[..., :5])
        assert np.abs(forward(phys[None])[0] - want).max() < 1e-13

    def test_real_field_conjugate_symmetry(self, grid8, rng):
        # the expanded half spectrum is the full, conjugate-symmetric DFT
        phys = rng.normal(size=(8, 8, 8))
        assert np.abs(full_spectrum(rfft3(phys)) - dft_oracle(phys)).max() < 1e-13

    def test_inverse_is_real(self, grid8, rng):
        # fields whose modes all lie in the block come back from their blocks
        phys = irfft3(grid8.pad(grid8.truncate(rfft3(rng.normal(size=(2, 8, 8, 8))))))
        back = inverse(forward(phys), grid8)
        assert back.dtype == np.float64 and back.shape == phys.shape
        assert np.abs(back - phys).max() < 1e-14

    def test_shape_contract(self, grid8):
        with pytest.raises(ContractViolation):
            StateField(grid8, np.zeros((9, 4, 4, 4), dtype=complex))
        with pytest.raises(ContractViolation):  # a full spectrum is rejected
            StateField(grid8, np.zeros((9, 8, 8, 8), dtype=complex))
        with pytest.raises(ContractViolation):  # so is one 3-component field
            StateField(grid8, np.zeros((3, 8, 8, 5), dtype=complex))


def leray_oracle(grid, vhat):
    """Independent componentwise projection formula, plain loops."""
    out = np.array(vhat, dtype=complex)
    xi_odd = grid.half_modes().xi_odd
    for i1, i2, i3 in np.ndindex(grid.spectral_shape):
        xi = np.array([xi_odd[a][i1, i2, i3] for a in range(3)])
        s2 = xi @ xi
        if s2 == 0:
            continue
        v = vhat[:, i1, i2, i3]
        out[:, i1, i2, i3] = v - xi * (xi @ v) / s2
    return out


class TestLeray:
    def test_annihilates_gradients(self, grid16, rng):
        ghat = rfft3(rng.normal(size=(16, 16, 16)))
        grad = 1j * grid16.half_modes().xi_odd * ghat[None]
        proj = leray_project(grid16.half_modes(), grad)
        assert np.abs(proj).max() < 1e-13 * np.abs(grad).max()

    def test_divergence_free_unchanged(self, grid16, rng):
        vhat = leray_project(grid16.half_modes(), rfft3(rng.normal(size=(3, 16, 16, 16))))
        again = leray_project(grid16.half_modes(), vhat)
        assert np.abs(again - vhat).max() < 1e-14

    def test_output_divergence_and_idempotence(self, grid16, rng):
        vhat = rfft3(rng.normal(size=(3, 16, 16, 16)))
        proj = leray_project(grid16.half_modes(), vhat)
        div = (grid16.half_modes().xi_odd * proj).sum(axis=0)
        assert np.abs(div).max() < 1e-12
        assert np.abs(leray_project(grid16.half_modes(), proj) - proj).max() < 1e-13

    def test_matches_componentwise_oracle(self, grid8, rng):
        vhat = rfft3(rng.normal(size=(3, 8, 8, 8)))
        assert np.abs(leray_project(grid8.half_modes(), vhat) -
                      leray_oracle(grid8, vhat)).max() < 1e-14

    def test_zero_mode_passthrough(self, grid8):
        vhat = np.zeros((3, 8, 8, 5), dtype=complex)
        vhat[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        proj = leray_project(grid8.half_modes(), vhat)
        assert np.array_equal(proj[:, 0, 0, 0], vhat[:, 0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([8, 10, 12, 14, 16]), length=st.floats(0.5, 100.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_projector_properties(self, n, length, seed):
        grid = Grid(n, length)
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (3,) + grid.spectral_shape
        vhat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        proj = leray_project(grid.half_modes(), vhat)
        size = np.sqrt((np.abs(vhat) ** 2).sum(axis=0))
        div = np.abs((grid.half_modes().xi_odd * proj).sum(axis=0))
        assert np.all(div <= 1e-12 * size)
        again = np.sqrt((np.abs(leray_project(grid.half_modes(), proj) - proj) ** 2).sum(axis=0))
        assert np.all(again <= 1e-13 * size)
        # the zero mode and the pure-Nyquist modes (each index 0 or n/2)
        # have xi_odd = 0 and pass through
        fixed = ~grid.half_modes().xi_odd.any(axis=0)
        assert fixed.sum() == 8
        assert np.array_equal(proj[:, fixed], vhat[:, fixed])

    def test_pythagoras(self, grid16, rng):
        vhat = rfft3(rng.normal(size=(3, 16, 16, 16)))
        proj = leray_project(grid16.half_modes(), vhat)
        rest = vhat - proj
        total = spectrum_norm_sq(grid16, vhat)
        split = spectrum_norm_sq(grid16, proj) + spectrum_norm_sq(grid16, rest)
        assert abs(total - split) / total < 1e-10


class TestNorms:
    def test_zero(self, grid8):
        assert spectrum_norm_sq(grid8, *StateField.zero(grid8).components()) == 0.0

    def test_single_mode_pairing_factor(self, grid8):
        # one real mode occupies k and -k; norm is 2 V |a|^2
        spec = np.zeros((3, 8, 8, 5), dtype=complex)
        a = 0.3 + 0.4j
        spec[0, 2, 0, 0] = a
        spec[0, -2 % 8, 0, 0] = np.conj(a)
        val = spectrum_norm_sq(grid8, spec)
        assert abs(val - 2.0 * grid8.volume * abs(a) ** 2) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_parseval(self, n, rng):
        grid = Grid(n)
        phys = rng.normal(size=(n, n, n))
        a = physical_norm_sq(grid, phys)
        b = spectrum_norm_sq(grid, rfft3(phys))
        assert abs(a - b) / a < 1e-10

    def test_single_interior_mode_counts_twice(self, grid8):
        # kz = 2 is stored, its partner at kz = -2 is not: multiplicity 2
        spec = np.zeros((3, 8, 8, 5), dtype=complex)
        a = 0.3 - 0.1j
        spec[1, 3, 5, 2] = a
        assert spectrum_norm_sq(grid8, spec) == pytest.approx(
            2.0 * grid8.volume * abs(a) ** 2, rel=1e-15)

    @pytest.mark.parametrize("n", [8, 16])
    def test_half_spectrum_parseval_self_conjugate_planes(self, n, rng):
        # energy on the kz = 0 and kz = n/2 planes, which count once
        grid = Grid(n, 3.0)
        phys = rng.normal(size=(3, n, n, n))
        phys += 2.0 * rng.normal(size=(3, n, n, 1))
        phys += 2.0 * rng.normal(size=(3, n, n, 1)) * (-1.0) ** np.arange(n)
        spec = rfft3(phys)
        a = physical_norm_sq(grid, phys)
        for plane in (0, n // 2):
            share = grid.volume * (np.abs(spec[..., plane]) ** 2).sum() / a
            assert share > 0.3
        assert abs(spectrum_norm_sq(grid, spec) - a) / a < 1e-13

    def test_gradient_single_mode(self):
        grid = Grid(8, 2 * np.pi)  # |xi| = 1 for the fundamental
        z = np.zeros((9, 8, 8, 5), dtype=complex)
        z[0, 0, 1, 0] = 0.5
        z[0, 0, -1 % 8, 0] = 0.5
        norms = state_norms(z, grid.multiplicity, grid.half_modes().xi_sq)
        assert abs(grid.volume * norms["h1_z_sq"] - spectrum_norm_sq(grid, z[0:3])) < 1e-13

    def test_constant_field_gradient(self, grid8):
        z = np.zeros((9, 8, 8, 5), dtype=complex)
        z[0:3, 0, 0, 0] = 1.0
        assert state_norms(z, grid8.multiplicity, grid8.half_modes().xi_sq)["h1_z_sq"] == 0.0

    def test_second_derivative_weight(self, grid8, rng):
        state = random_state(grid8, rng)
        direct = spectrum_norm_sq(grid8, *state.components(),
                                  weight=grid8.half_modes().xi_sq ** 2)
        norms = state_norms(state.z, grid8.multiplicity, grid8.half_modes().xi_sq)
        assert abs(grid8.volume * norms["h2_z_sq"] - direct) < 1e-12


class TestOperators:
    def test_curl_of_gradient_vanishes(self, grid16, rng):
        ghat = rfft3(rng.normal(size=(16, 16, 16)))
        xi = grid16.half_modes().xi_odd
        grad = 1j * xi * ghat[None]
        c = curl_at(xi, grad)
        assert np.abs(c).max() < 1e-13 * max(np.abs(grad).max(), 1.0)

    def test_divergence_of_curl_vanishes(self, grid16, rng):
        vhat = rfft3(rng.normal(size=(3, 16, 16, 16)))
        xi = grid16.half_modes().xi_odd
        d = 1j * (xi * curl_at(xi, vhat)).sum(axis=0)
        assert np.abs(d).max() < 1e-12 * np.abs(vhat).max()

    def test_reality_preserved(self, grid16, rng):
        state = random_state(grid16, rng)
        proj = leray_project(grid16.half_modes(), state.uhat)
        assert reality_error(proj) < 1e-14
        assert reality_error(curl_at(grid16.half_modes().xi_odd, state.what)) < 1e-14


class TestHermitianSymmetrize:
    def test_projection_property(self, rng):
        spec = rng.normal(size=(8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8))
        sym = hermitian_symmetrize(spec)
        assert np.abs(sym - conjugate_flip(sym)).max() < 1e-14
        half = sym[..., :5]
        phys = irfft3(half)
        assert np.abs(rfft3(phys) - half).max() < 1e-13

    def test_full_spectrum_inverts_slicing(self, rng):
        spec = rng.normal(size=(2, 8, 8, 8)) + 1j * rng.normal(size=(2, 8, 8, 8))
        sym = hermitian_symmetrize(spec)
        assert np.array_equal(full_spectrum(sym[..., :5]), sym)


class TestFullSpectrum:
    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_equals_roll_oracle_bitwise(self, n):
        # full-band data: nonzero Nyquist planes, and signed zeros whose
        # signs the conjugation flips
        half = full_band_half(np.random.Generator(np.random.Philox(n)), (2, n, n, n // 2 + 1))
        want = full_spectrum_oracle(half)
        assert full_spectrum(half).tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan, dtype=complex)
        assert full_spectrum(half, out=out) is out
        assert out.tobytes() == want.tobytes()
        # into complex64: casting, then conjugating, as conjugating, then casting
        out64 = np.empty(want.shape[1:], dtype=np.complex64)
        for comp, full in zip(half, want):
            full_spectrum(comp, out=out64)
            assert out64.tobytes() == full.astype(np.complex64).tobytes()

