"""Decay character estimation and shaped initial data.

The decay character r* of an L2 datum v0 is the unique exponent for which
the scaled ball integral rho^{-2r-3} int_{|xi|<rho} |v0hat|^2 dxi has a
finite positive limit as rho -> 0.  The limit itself is not computable on
finite data, so the estimator replaces it by the slope of log E(rho)
against log rho over a window of small radii: E(rho) ~ rho^{2r*+3} means
r* = (slope - 3)/2.  Profiles whose mass oscillates (no limit exists) are
classified as boundary cases and no r* is asserted.

Profiles come as two types.  A SpectralProfile carries a callable shell
density dE/drho and is integrated adaptively; it is the authoritative path
for quantitative work.  A ShellProfile bins a gridded field into shells at
the fundamental wavenumber; only a handful of shells are usable at
desk-scale resolution, so grid estimates carry roughly +-0.2 uncertainty.
Both offer ball_mass, default_window, sample_radii and boundary_residual.
"""

from __future__ import annotations

import itertools
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
from scipy import integrate

from . import grid as _grid
from .fields import Grid, StateField, leray_project, spectrum_norm_sq


class QuadratureError(RuntimeError):
    """Adaptive integration of a shell density failed to converge."""


@dataclass(frozen=True)
class SpectralProfile:
    """Analytic radial description of the spectral mass of an initial datum.

    radial_density  dE/drho, a scalar callable (quad needs the scalar contract)
    support_radius  radius beyond which the density is (numerically) zero
    description     free-form label used in reports
    """

    radial_density: Callable[[float], float]
    support_radius: float = np.inf
    description: str = ""

    kind: ClassVar[str] = "analytic"
    # Analytic profiles follow power laws to quadrature accuracy, so any
    # sizable residual signals genuinely oscillatory mass (no limit).
    boundary_residual: ClassVar[float] = 0.1

    @classmethod
    def power_law(cls, r: float, cutoff_radius: float = 1.0,
                  cutoff: str = "hard", amplitude: float = 1.0) -> "SpectralProfile":
        """|v0hat|^2 = amplitude * rho^{2r} up to the cutoff.

        The shell density includes the 4 pi rho^2 surface factor, so
        dE/drho = 4 pi amplitude rho^{2r+2} inside the support.  Raises
        ValueError unless r is finite and 0 < cutoff_radius < inf.
        """
        if not np.isfinite(r):
            raise ValueError(f"decay character r must be finite, got {r!r}")
        if not 0 < cutoff_radius < np.inf:
            raise ValueError(f"--cutoff-radius must be positive and finite, "
                             f"got {cutoff_radius!r}")
        if cutoff not in ("hard", "gauss"):
            raise ValueError(f"unknown cutoff kind {cutoff!r}")
        four_pi = 4.0 * np.pi

        if cutoff == "hard":
            def density(rho):
                rho = float(rho)
                if rho <= 0 or rho > cutoff_radius:
                    return 0.0
                return four_pi * amplitude * rho ** (2 * r + 2)
            support = cutoff_radius
        else:
            def density(rho):
                rho = float(rho)
                if rho <= 0:
                    return 0.0
                return (four_pi * amplitude * rho ** (2 * r + 2)
                        * np.exp(-(rho / cutoff_radius) ** 2))
            support = 8.0 * cutoff_radius
        return cls(density, support_radius=support,
                   description=f"power r={r:g} cutoff={cutoff}")

    def ball_mass(self, rho: float) -> float:
        """E(rho) = integral of the shell density over [0, rho]."""
        rho = float(rho)
        if rho <= 0:
            return 0.0
        upper = min(rho, self.support_radius)
        val, err, info, *rest = integrate.quad(
            self.radial_density, 0.0, upper, epsabs=0.0, epsrel=1e-10,
            limit=200, full_output=1)
        if rest:
            raise QuadratureError(
                f"shell integration failed at rho={rho:g}: {rest[0]}")
        if val != 0 and err > 1e-6 * abs(val):
            raise QuadratureError(
                f"shell integration did not converge at rho={rho:g} "
                f"(estimate {val:g}, error {err:g})")
        return val

    def default_window(self) -> tuple[float, float]:
        hi = min(1e-1, 0.5 * self.support_radius)
        return (1e-2 * hi, hi)

    def sample_radii(self, lo: float, hi: float) -> np.ndarray:
        return np.geomspace(lo, hi, 24)


@dataclass(frozen=True)
class ShellProfile:
    """Shell-binned spectral mass of a gridded field.

    rho_edges     shell edges (ascending, from 0)
    shell_masses  mass per shell
    description   free-form label used in reports
    """

    rho_edges: np.ndarray
    shell_masses: np.ndarray
    description: str

    kind: ClassVar[str] = "sampled"
    # Grid shells wobble from lattice counting alone, hence the looser gate.
    boundary_residual: ClassVar[float] = 0.3

    @classmethod
    def from_spectral_array(cls, grid: Grid, *spectral_arrays: np.ndarray,
                            description: str = "") -> "ShellProfile":
        """Shell-binned profile of gridded coefficients (bin = fundamental).

        Shell j collects modes with (j-1) dk < |xi| <= j dk, so the ball
        mass at an edge radius j dk is the inclusive closed-ball sum.  The
        arrays are half spectra; each mode counts with its Parseval
        multiplicity, so the masses are those of the full spectrum.
        """
        dk = grid.fundamental
        shell_index = np.ceil(grid.xi_mag / dk - 1e-9).astype(int)
        n_shells = int(shell_index.max()) + 1
        masses = np.zeros(n_shells)
        for arr in spectral_arrays:
            mag = (np.abs(arr) ** 2).sum(axis=0) if arr.ndim == 4 else np.abs(arr) ** 2
            np.add.at(masses, shell_index, mag * grid.multiplicity)
        masses *= grid.volume
        return cls(dk * np.arange(n_shells), masses, description)

    @classmethod
    def from_state(cls, state: StateField, component: str = "z") -> "ShellProfile":
        arrays = {"z": state.components(), "u": (state.uhat,),
                  "w": (state.what,), "b": (state.bhat,)}[component]
        return cls.from_spectral_array(state.grid, *arrays,
                                       description=f"grid field, component {component}")

    def ball_mass(self, rho: float) -> float:
        """E(rho): the summed masses of every shell whose edge is <= rho."""
        rho = float(rho)
        if rho <= 0:
            return 0.0
        cum = np.cumsum(self.shell_masses)
        idx = int(np.searchsorted(self.rho_edges, rho * (1 + 1e-12), side="right")) - 1
        if idx < 0:
            return 0.0
        return float(cum[min(idx, cum.size - 1)])

    def default_window(self) -> tuple[float, float]:
        # Skip the first shell: its handful of modes carries the worst
        # lattice-count irregularity and poisons the slope.
        dk = float(self.rho_edges[1])
        top = min(12, len(self.rho_edges) - 1)
        return (2.0 * dk, top * dk)

    def sample_radii(self, lo: float, hi: float) -> np.ndarray:
        edges = self.rho_edges
        rhos = edges[(edges >= lo * (1 - 1e-12)) & (edges <= hi * (1 + 1e-12))]
        return rhos[rhos > 0]


@dataclass(frozen=True)
class DecayCharacterEstimate:
    """Fitted decay character with diagnostics.

    r_star is None when the fit residual exceeds the profile's boundary
    residual, meaning the data do not follow a power law over the window
    and no decay character is asserted.
    """

    r_star: float | None
    slope: float
    rho_window: tuple[float, float]
    fit_residual: float
    P_r_values: list[tuple[float, float]]
    boundary: bool
    kind: str


def estimate_decay_character(profile: SpectralProfile | ShellProfile,
                             rho_window: tuple[float, float] | None = None
                             ) -> DecayCharacterEstimate:
    """Least-squares slope of log E(rho) vs log rho at the profile's sample
    radii; r* = (slope - 3)/2.  Raises ValueError for a window outside
    0 < lo < hi and for an analytic profile's window that starts at or
    above its support radius, where E(rho) is flat and would read as
    r* = -3/2."""
    if rho_window is None:
        rho_window = profile.default_window()
    lo, hi = rho_window
    if not 0 < lo < hi:
        raise ValueError(f"invalid window {rho_window}")
    if isinstance(profile, SpectralProfile) and lo >= profile.support_radius:
        raise ValueError(f"window starts at {lo:g}, at or above the profile's "
                         f"support radius {profile.support_radius:g}")

    rhos = profile.sample_radii(lo, hi)
    if rhos.size < 8:
        raise ValueError(f"need at least 8 sample radii in window, got {rhos.size}")

    masses = np.array([profile.ball_mass(rho) for rho in rhos])
    if np.any(masses <= 0):
        raise ValueError("ball mass vanishes inside the fit window")

    log_rho = np.log(rhos)
    log_mass = np.log(masses)
    slope, intercept = np.polyfit(log_rho, log_mass, 1)
    residual = float(np.abs(log_mass - (slope * log_rho + intercept)).max())

    r_star = (slope - 3.0) / 2.0
    boundary = residual > profile.boundary_residual
    p_table = [(float(rho), float(rho ** (-2 * r_star - 3) * m))
               for rho, m in zip(rhos, masses)]
    return DecayCharacterEstimate(
        r_star=None if boundary else float(r_star),
        slope=float(slope),
        rho_window=(float(lo), float(hi)),
        fit_residual=residual,
        P_r_values=p_table,
        boundary=boundary,
        kind=profile.kind,
    )


def combine_profiles(*profiles: SpectralProfile) -> SpectralProfile:
    """Profile of the concatenated datum: shell masses add."""
    if not all(isinstance(p, SpectralProfile) for p in profiles):
        raise ValueError("combine_profiles expects analytic profiles")
    densities = tuple(p.radial_density for p in profiles)

    def density(rho):
        return sum(d(rho) for d in densities)

    return SpectralProfile(density, support_radius=max(p.support_radius for p in profiles),
                           description=" + ".join(p.description for p in profiles))


def min_rule_check(u_profile: SpectralProfile, w_profile: SpectralProfile,
                   b_profile: SpectralProfile) -> dict:
    """Check r*(z0) = min over components on concatenated profiles, each
    fitted over its default window; passes within 0.1."""
    parts = {}
    for name, prof in (("u", u_profile), ("w", w_profile), ("b", b_profile)):
        est = estimate_decay_character(prof)
        if est.boundary:
            raise ValueError(f"component {name} classified as boundary case")
        parts[name] = est.r_star
    combined = estimate_decay_character(combine_profiles(u_profile, w_profile, b_profile))
    if combined.boundary:
        raise ValueError("combined profile classified as boundary case")
    expected = min(parts.values())
    deviation = abs(combined.r_star - expected)
    return {
        "component_r_star": parts,
        "combined_r_star": combined.r_star,
        "expected_min": expected,
        "deviation": deviation,
        "passed": bool(deviation <= 0.1),
    }


def generate_data_with_character(grid: Grid, r: float, seed: int,
                                 amplitude: float = 1.0,
                                 sigma: float | None = None) -> StateField:
    """Random state whose spectral magnitudes follow |xi|^r exp(-|xi|^2/2s^2).

    Phases come from a counter-based generator, so equal seeds give
    bit-identical fields.  The noise is drawn on the full spectrum and
    symmetrized on the stored half only, each mode k paired with the draw
    at -k (:func:`_pair_with_minus_k`).  The u and b components are
    Leray-projected after shaping (an angular factor that leaves r*
    unchanged), all means vanish, spectral support is restricted to the
    dealiased mode set, and the total L2 norm is scaled to `amplitude`.

    The u, w and b groups are drawn in that order into one buffer.  Each
    group's draws run on a slab-pool worker (grid.run_beside) while this
    thread computes the magnitudes or shapes the group before, and start
    once the pairing has read the group before from the buffer, so the
    generator's stream is read in the same order at any worker count.  An
    error in a draw is raised here, and no draw outlives the call.  Raises
    ValueError unless -3/2 < r < 6 and amplitude is finite.
    """
    if not -1.5 < r < 6.0:
        raise ValueError(f"decay character target {r} outside resolvable (-3/2, 6)")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    if sigma is None:
        sigma = grid.n * np.pi / (4.0 * grid.length)

    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.empty((2, 3, grid.n, grid.n, grid.n))
    pending = _grid.run_beside(_draw_normals, rng, draws)
    try:
        mag = np.zeros_like(grid.xi_sq)
        nonzero = grid.xi_sq > 0
        mag[nonzero] = (grid.xi_mag[nonzero] ** r
                        * np.exp(-grid.xi_sq[nonzero] / (2.0 * sigma ** 2)))
        mag *= grid.dealias_mask

        def shaped_noise(next_draw: bool):
            # Conjugate-symmetric random phases with exactly the target
            # magnitude law (symmetrizing white noise and keeping only its
            # phase preserves the law without shot noise on shell masses).
            # a = re + i im becomes (a(k) + conj(a(-k))) / 2, part by part.
            nonlocal pending
            pending.result()
            re, im = draws
            noise = np.empty((3,) + grid.spectral_shape, dtype=complex)
            _pair_with_minus_k(np.add, re, noise.real)
            _pair_with_minus_k(np.subtract, im, noise.imag)
            if next_draw:
                pending = _grid.run_beside(_draw_normals, rng, draws)
            noise *= 0.5
            amp = np.abs(noise)
            phase = np.divide(noise, amp, out=np.ones_like(noise), where=amp > 0)
            phase *= mag
            return phase

        def project_rescaled(vhat):
            # Projection preserves solenoidality direction; rescaling each
            # mode back to the target vector magnitude keeps the law exact
            # and the mode transverse, so r* is untouched.
            proj = leray_project(grid, vhat)
            amp = np.sqrt((np.abs(proj) ** 2).sum(axis=0))
            target = np.sqrt(3.0) * mag
            scale = np.divide(target, amp, out=np.zeros_like(mag), where=amp > 0)
            return proj * scale[None]

        z = np.empty((9,) + grid.spectral_shape, dtype=complex)
        z[0:3] = project_rescaled(shaped_noise(next_draw=True))
        z[3:6] = shaped_noise(next_draw=True)
        z[6:9] = project_rescaled(shaped_noise(next_draw=False))
    finally:
        wait((pending,))

    norm = np.sqrt(spectrum_norm_sq(grid, z[0:3], z[3:6], z[6:9]))
    scale = amplitude / norm if norm > 0 and amplitude != 0 else 0.0
    z *= scale
    return StateField(grid, z)


def _draw_normals(rng: np.random.Generator, draws: np.ndarray) -> None:
    """Fill draws[0] and then draws[1] with standard normals from rng."""
    for part in draws:
        rng.standard_normal(out=part)


def _pair_with_minus_k(op, full: np.ndarray, out: np.ndarray) -> None:
    """out = op(a(k), a(-k)) for k on the stored half of out, from an
    array a on the full FFT index grid (last three axes).  Per axis, index
    0 pairs with itself and i > 0 with n - i, so eight slice views of a
    cover every pair."""
    n, half = full.shape[-1], out.shape[-1]
    axis = ((slice(0, 1), slice(0, 1)), (slice(1, n), slice(n - 1, 0, -1)))
    kz = ((slice(0, 1), slice(0, 1)), (slice(1, half), slice(n - 1, n - half, -1)))
    for (x, mx), (y, my), (z, mz) in itertools.product(axis, axis, kz):
        op(full[..., x, y, z], full[..., mx, my, mz], out=out[..., x, y, z])
