import os
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from mmplab.fields import Grid, PhysParams


SRC = str(Path(__file__).resolve().parent.parent / "src")


def subprocess_env(**extra) -> dict:
    """os.environ with the repository's src first on PYTHONPATH, plus
    extra: a `python -m mmplab...` child imports the package from this
    checkout, as the tests do, whether or not PYTHONPATH names it."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""), **extra)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(12345))


@pytest.fixture
def grid8():
    return Grid(8, 2 * np.pi)


@pytest.fixture
def grid16():
    return Grid(16, 2 * np.pi)


@pytest.fixture
def params():
    return PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


def rfft3(phys):
    """Half spectra of real fields over the last three axes, carrying 1/n^3:
    scipy.fft's reference for the package's transforms."""
    return scipy.fft.rfftn(phys, axes=(-3, -2, -1), norm="forward")


def irfft3(spec):
    """Real fields of half spectra (..., n, n, n//2 + 1), the inverse of rfft3."""
    n = spec.shape[-2]
    return scipy.fft.irfftn(spec, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def reality_error(spec):
    """Largest change of a half spectrum under inverse-then-forward transform,
    relative to its largest coefficient.  It vanishes up to roundoff exactly
    when the array is the half spectrum of a real field, i.e. when the
    self-conjugate kz = 0 and kz = n/2 planes are conjugate-symmetric."""
    scale = np.abs(spec).max()
    return float(np.abs(rfft3(irfft3(spec)) - spec).max() / scale) if scale > 0 else 0.0


def conjugate_flip(spec):
    """conj(a(-k)) on the full FFT index grid (last three axes), by reversing
    every axis and rolling it by one."""
    rev = spec[..., ::-1, ::-1, ::-1]
    return np.conj(np.roll(rev, 1, axis=(-3, -2, -1)))


def full_spectrum_oracle(half):
    """The roll-based expansion of half spectra (..., n, n, n//2 + 1) to
    full complex128 spectra, which grid.full_spectrum must match bit for
    bit: zeros, then the stored planes, then conj(a(-k)) on the rest."""
    n = half.shape[-2]
    full = np.zeros(half.shape[:-1] + (n,), dtype=complex)
    full[..., :n // 2 + 1] = half
    full[..., n // 2 + 1:] = conjugate_flip(full)[..., n // 2 + 1:]
    return full


def full_band_half(rng, shape):
    """Random complex half spectra of this shape on every mode, the Nyquist
    planes included, with about a tenth of the real and of the imaginary
    parts set to +0.0 and another tenth to -0.0."""
    half = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (half.real, half.imag):
        pick = rng.random(shape)
        part[pick < 0.1] = 0.0
        part[(pick >= 0.1) & (pick < 0.2)] = -0.0
    return half


def hermitian_symmetrize(spec):
    """Project a full FFT-ordered spectrum onto its conjugate-symmetric part:
    the full-spectrum construction the data generator's half-spectrum
    pairing is checked against."""
    return 0.5 * (spec + conjugate_flip(spec))


def full_xi_mag(grid):
    """|xi| on the full FFT-ordered grid, shape (n, n, n), from k_int alone."""
    k = grid.fundamental * grid.k_int.astype(float)
    return np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)


def dealias_mask(grid):
    """The 2/3 rule on half spectra, from k_int alone: True on the modes
    with every |k_i| <= n // 3."""
    keep = np.abs(grid.k_int) <= grid.n // 3
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :grid.n // 2 + 1]


def random_state(grid, rng, solenoidal=True):
    """Random StateField of real fields, optionally projected."""
    from mmplab.fields import StateField, leray_project

    def comp():
        return rfft3(rng.normal(size=(3, grid.n, grid.n, grid.n)))

    u, w, b = comp(), comp(), comp()
    if solenoidal:
        u = leray_project(grid.half_modes(), u)
        b = leray_project(grid.half_modes(), b)
    return StateField(grid, np.concatenate([u, w, b]))


def padded_rhs(grid, z):
    """nonlinear_rhs on the retained block of half spectra z, padded back:
    N as half spectra, +0 outside the block, and the Elsasser speed."""
    from mmplab.solver import nonlinear_rhs
    N, speed = nonlinear_rhs(grid, grid.truncate(z))
    return grid.pad(N), speed
