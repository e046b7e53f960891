import numpy as np
import pytest

from mmplab.fields import Grid, PhysParams


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


def reality_error(spec):
    """Largest change of a half spectrum under inverse-then-forward transform,
    relative to its largest coefficient.  It vanishes up to roundoff exactly
    when the array is the half spectrum of a real field, i.e. when the
    self-conjugate kz = 0 and kz = n/2 planes are conjugate-symmetric."""
    from mmplab.grid import forward, inverse
    scale = np.abs(spec).max()
    return float(np.abs(forward(inverse(spec)) - spec).max() / scale) if scale > 0 else 0.0


def hermitian_symmetrize(spec):
    """Project a full FFT-ordered spectrum onto its conjugate-symmetric part:
    the full-spectrum construction the data generator's half-spectrum
    pairing is checked against."""
    from mmplab.grid import conjugate_flip
    return 0.5 * (spec + conjugate_flip(spec))


def full_xi_mag(grid):
    """|xi| on the full FFT-ordered grid, shape (n, n, n), from k_int alone."""
    k = grid.fundamental * grid.k_int.astype(float)
    return np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)


def random_state(grid, rng, solenoidal=True):
    """Random StateField of real fields, optionally projected."""
    from mmplab.fields import StateField, leray_project
    from mmplab.grid import forward

    def comp():
        return forward(rng.normal(size=(3, grid.n, grid.n, grid.n)))

    u, w, b = comp(), comp(), comp()
    if solenoidal:
        u = leray_project(grid, u)
        b = leray_project(grid, b)
    return StateField(grid, np.concatenate([u, w, b]))


def padded_rhs(grid, z):
    """nonlinear_rhs on the retained block of half spectra z, padded back:
    N as half spectra, +0 outside the block, and the Elsasser speed."""
    from mmplab.solver import nonlinear_rhs
    N, speed = nonlinear_rhs(grid, grid.truncate(z))
    return grid.pad(N), speed
