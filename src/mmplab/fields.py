"""Nine-component spectral state, its Leray projection and its norms.

The state z = (u, w, b) couples an incompressible velocity u, a
micro-rotational field w and a solenoidal magnetic field b.  Fields live in
spectral space (see :mod:`mmplab.grid` for the normalization); physical
space is only visited transiently when forming products.  The whole state
is one array of half spectra of real fields, shape (9, n, n, n//2 + 1),
whose rows 0:3, 3:6 and 6:9 are u, w and b.  :func:`state_norms` is the
one definition of the norms, for torus rows (weighting the kz planes by the
grid's Parseval multiplicity) and radial nodes alike; it holds two arrays
of |z|^2 size at a time, the weighted energies and one scratch array for
their |xi|^2 and |xi|^4 weights.  The Leray projection
implemented here is what removes the pressure gradient from the velocity
equation: taking divergence of the momentum equation determines the
pressure, and subtracting its gradient is exactly the projection
vhat - xi (xi . vhat) / |xi|^2 per mode, of half spectra or retained blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import grid as _grid
from .grid import Grid, Modes

SOLENOIDAL_TOL = 1e-8


class ContractViolation(ValueError):
    """An input violated a documented precondition."""


def check_retained(grid: Grid, z: np.ndarray) -> np.ndarray:
    """z, if it has the shape (9, 2c + 1, 2c + 1, c + 1) of grid's retained
    block (Grid.truncate); raises ContractViolation otherwise."""
    shape = (9,) + grid.retained_shape
    if z.shape != shape:
        raise ContractViolation(f"expected a retained block of shape {shape}, got {z.shape}")
    return z


@dataclass(frozen=True)
class PhysParams:
    """Viscosity parameters of the coupled system.

    mu     kinematic viscosity (velocity diffusion enters as (mu + chi))
    gamma  angular viscosity of the micro-rotational field
    chi    micro-rotational (vortex) viscosity; couples u and w and damps w
    nu     inverse magnetic Reynolds number (magnetic diffusivity)
    """

    mu: float = 1.0
    gamma: float = 1.0
    chi: float = 0.5
    nu: float = 1.0

    def __post_init__(self):
        for name in ("mu", "gamma", "chi", "nu"):
            if not np.isfinite(getattr(self, name)):  # NaN passes the comparisons below
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.mu, self.gamma, self.nu) <= 0:
            raise ValueError("mu, gamma, nu must be positive")
        if self.chi < 0:
            raise ValueError("chi must be nonnegative")

    @property
    def bound_valid(self) -> bool:
        """Whether 32 chi (mu + chi + gamma) > 1 holds.

        Under this condition the quadratic s -> (mu+chi+gamma) s^2 - s/2 + 2 chi
        has no real root, so the four-way minimum of
        :func:`mmplab.symbol.spectral_bound` is positive for xi != 0.  It is
        only that positivity condition: the minimum is not an eigenvalue
        bound, and the valid bound lambda_max <= -min{mu|xi|^2,
        gamma|xi|^2 + chi, nu|xi|^2} needs no condition.
        """
        return 32.0 * self.chi * (self.mu + self.chi + self.gamma) > 1.0


def param_defaults() -> dict[str, float]:
    """PhysParams' field defaults by name, in field order: the one source of
    the run config's params.* defaults and the CLI's parameter flags."""
    return asdict(PhysParams())


@dataclass(frozen=True)
class StateField:
    """Spectral coefficients of z = (u, w, b) on a periodic grid.

    z is one half spectrum of shape (9, n, n, n//2 + 1) in FFT mode order;
    uhat, what and bhat are read-only views of its rows 0:3, 3:6 and 6:9.
    Instances are immutable values; every operation returns a new
    StateField.
    """

    grid: Grid
    z: np.ndarray

    def __post_init__(self):
        shape = (9,) + self.grid.spectral_shape
        if self.z.shape != shape:
            raise ContractViolation(f"z has shape {self.z.shape}, expected {shape}")

    @classmethod
    def zero(cls, grid: Grid) -> "StateField":
        return cls(grid, np.zeros((9,) + grid.spectral_shape, dtype=complex))

    uhat = property(lambda self: _read_only(self.z[0:3]))
    what = property(lambda self: _read_only(self.z[3:6]))
    bhat = property(lambda self: _read_only(self.z[6:9]))

    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.uhat, self.what, self.bhat

    def divergence_error(self) -> float:
        """Max relative |xi . vhat| over u and b (solenoidality residual)."""
        return divergence_error(self.grid, self.z)


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def divergence_error(grid: Grid, z: np.ndarray, modes: Grid | Modes | None = None) -> float:
    """Max relative |xi . vhat| over the u and b rows of a (9, ...) state z
    (solenoidality residual): half spectra of grid, or with modes
    Grid.retained a retained block.  Either way the scale is the largest
    |xi| of the half spectrum, so a block has the bits of its padded half
    spectra."""
    modes = grid if modes is None else modes
    xi_max = grid.xi_mag.max()
    return max(_div_residual(modes.xi_odd, xi_max, z[0:3]),
               _div_residual(modes.xi_odd, xi_max, z[6:9]))


def _div_residual(xi: np.ndarray, xi_max: float, vhat: np.ndarray) -> float:
    # xi . vhat accumulated in one array, in the order of .sum(axis=0)
    term = np.empty(vhat.shape[1:], dtype=complex)
    div = np.multiply(xi[0], vhat[0])
    for i in (1, 2):
        div += np.multiply(xi[i], vhat[i], out=term)
    scale = xi_max * np.abs(vhat).max()
    return float(np.abs(div).max() / scale) if scale > 0 else 0.0


def leray_project(modes: Grid | Modes, vhat: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Remove the gradient part: vhat - xi (xi . vhat) / |xi|^2.

    The zero mode passes through unchanged (the projector formula is
    singular there and the mean flow carries no gradient part).  modes is
    a Grid for half spectra vhat, or Grid.retained for a retained block;
    another shape raises ContractViolation.  The result goes to out when
    it is given, which may be vhat itself, and to a new array otherwise.
    The first axis of modes is split across the workers (grid.slab_map).
    """
    shape = (3,) + modes.xi_sq.shape
    if vhat.shape != shape:
        raise ContractViolation(f"expected shape {shape}, got {vhat.shape}")
    if out is None:
        out = np.empty(shape, dtype=np.result_type(vhat, float))
    _grid.slab_map(lambda sl: project_planes(modes, vhat, out, sl), shape[1:])
    return out


def project_planes(modes: Grid | Modes, vhat: np.ndarray, out: np.ndarray, sl) -> None:
    """The Leray projection of leray_project on the planes sl of the first
    axis of modes, from vhat into out (which may be vhat)."""
    xi, v, o = modes.xi_odd[:, sl], vhat[:, sl], out[:, sl]
    # the mean mode and pure-Nyquist modes carry no representable gradient
    fixed = modes.leray_fixed[sl]
    kept = v[:, fixed]
    # xi . v summed in the order of .sum(axis=0), one component at a time
    dot = np.multiply(xi[0], v[0])
    scratch = np.empty_like(dot)
    for i in (1, 2):
        dot += np.multiply(xi[i], v[i], out=scratch)
    dot /= modes.leray_divisor[sl]
    for i in range(3):
        np.subtract(v[i], np.multiply(xi[i], dot, out=scratch), out=o[i])
    o[:, fixed] = kept


def curl_at(xi: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    """i xi x vhat at the wavevectors xi, shape (3, ...) like vhat: the curl
    on any slab of modes."""
    return 1j * np.stack([
        xi[1] * vhat[2] - xi[2] * vhat[1],
        xi[2] * vhat[0] - xi[0] * vhat[2],
        xi[0] * vhat[1] - xi[1] * vhat[0],
    ])


def spectrum_norm_sq(grid: Grid, *spectral_arrays: np.ndarray,
                     weight: np.ndarray | None = None,
                     modes: Grid | Modes | None = None) -> float:
    """L2 norm squared, volume * sum of |coefficients|^2, optionally weighted.

    The arrays are half spectra of grid, or with modes Grid.retained
    retained blocks.  The sum runs over the full spectrum: each stored
    mode counts with its Parseval multiplicity.  Accumulation order is
    fixed (numpy pairwise sum over C-ordered arrays), so results are
    bit-stable across worker counts.
    """
    multiplicity = (grid if modes is None else modes).multiplicity
    total = 0.0
    for arr in spectral_arrays:
        mag = (arr.real ** 2 + arr.imag ** 2) * multiplicity
        if weight is not None:
            mag = mag * weight
        total += float(mag.sum())
    return grid.volume * total


def state_norms(z: np.ndarray, weight, xi_sq) -> dict:
    """The norms of the paper's estimates as weighted coefficient sums.

    z is any (9, ...) coefficient array, a torus half spectrum (weight
    Grid.multiplicity; the torus scales each sum by Grid.volume) or the
    radial nodes (weight the d^3 xi node weights); xi_sq is |xi|^2 there.
    With e = |z|^2 weight, returns the u, w and b block sums of e
    (l2_*_sq), e |xi|^2 (h1_z_sq, h1_w_sq) and e |xi|^4 (h2_z_sq); every
    z total adds the u, w and b sums in that order.  The sums run over the
    trailing axes that xi_sq spans; axes of z between the leading 9 and
    those (a time axis, say) become axes of array results, and without
    them every norm is a float.
    """
    batch = z.shape[1:z.ndim - np.ndim(xi_sq)]
    row = 3 * int(np.prod(z.shape[1 + len(batch):]))
    # e is laid out with the 9 rows after the batch axes, so each u, w and b
    # block is one contiguous row per batch index, and its sum has the bits
    # of a separate sum over that block
    z = np.moveaxis(z, 0, len(batch))
    e = np.square(z.real, order="C")
    # one scratch array holds z.imag ** 2, then e |xi|^2, then e |xi|^4: the
    # arrays of e * xi_sq and e * xi_sq ** 2, so their sums keep their bits
    scratch = np.square(z.imag, order="C")
    e += scratch
    e *= weight

    def block_sums(f):
        s = f.reshape(batch + (3, row)).sum(axis=-1)
        return s[..., 0], s[..., 1], s[..., 2]

    lu, lw, lb = block_sums(e)
    hu, hw, hb = block_sums(np.multiply(e, xi_sq, out=scratch))
    su, sw, sb = block_sums(np.multiply(e, xi_sq ** 2, out=scratch))
    norms = {"l2_z_sq": lu + lw + lb, "l2_u_sq": lu, "l2_w_sq": lw, "l2_b_sq": lb,
             "h1_z_sq": hu + hw + hb, "h1_w_sq": hw, "h2_z_sq": su + sw + sb}
    return norms if batch else {key: float(val) for key, val in norms.items()}


def physical_norm_sq(grid: Grid, phys: np.ndarray) -> float:
    """Quadrature of |f|^2 on the periodic grid (oracle for Parseval)."""
    return float((np.asarray(phys) ** 2).sum()) * grid.spacing ** 3
