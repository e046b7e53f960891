"""Exact evolution of the linear system on a continuum radial quadrature.

The torus has its own linear path: simulate's pair_linear advances the
retained block of the datum by the exact semigroup (GridPropagator) for
comparisons against nonlinear runs.  That path cannot reproduce
whole-space algebraic decay at late times: once the shrinking dominant
band falls below the fundamental wavenumber the lattice forces
exponential decay.  The continuum radial path here therefore evaluates
the semigroup on log-radial Gauss-Legendre nodes of Fourier space, which
sustains the algebraic rates and is the quantitative reference for all
rate measurements.  Both paths evaluate the semigroup with the
closed-form sector kernel of propagator.py.

The radial nodes lie on one fixed direction.  The polarization scheme and
the symbol are both rotation covariant (R3(R xi) = R R3(xi) R^T for proper
rotations, and the polarization frame is right-handed), so the norms on
every sphere |xi| = rho are 4 pi times the value on that direction.  The
26-point sphere rule of selftest.sphere_rule_26 is kept only as the oracle
that checks this reduction.  The nodes hold (9, n_r) rows like the grid
state, and their norms come from the torus rows' fields.state_norms.

The radial path takes a 1-D array of times wherever it takes a time: the
kernel is built on the nodes with a leading time axis, and
RadialLinearState.norms_at passes the times through one kernel apply per
block of at most _BLOCK = 2**12 time x node elements.  Each norm has the
bits of its scalar evaluation.  Times must be finite and nonnegative; the
kernel raises ValueError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .decay_character import QuadratureError, SpectralProfile
from .fields import PhysParams, state_norms
from .propagator import SectorKernel, check_times
from .symbol import transverse_frame
from .analysis import NormSeries


# Fixed direction of the radial nodes; any unit vector gives the same norms.
_AXIS = np.array([0.0, 0.0, 1.0])
# Most time x node elements that norms_at passes through one kernel apply.
_BLOCK = 2 ** 12
# Gauss-Legendre rule on [-1, 1] of every log-radial panel: composite
# 8-point panels in log rho are spectrally accurate for the smooth densities
# and the Gaussian-in-rho time factors, so the node-doubling convergence gate
# actually bites at the 1e-5 level.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _polarization(n_hat: np.ndarray,
                  component_weights: tuple[float, float, float]) -> np.ndarray:
    """Unit 9-vector (u, w, b) of the polarization scheme at direction n_hat.

    u and b are transverse to n_hat (pointwise solenoidal) and w mixes equal
    longitudinal and transverse parts so the grad-div term is exercised.
    The odd-in-direction pieces carry a factor i so the scheme is
    conjugate-symmetric when realized on a lattice; norms are unaffected
    (orthogonal pieces, phases drop out).
    """
    cu, cw, cb = np.sqrt(np.asarray(component_weights) / sum(component_weights))
    e1, e2 = transverse_frame(n_hat)
    w_dir = np.sqrt(0.5) * (1j * n_hat + e1)
    return np.array([cu * e1, cw * w_dir, cb * 1j * e2]).ravel()


@lru_cache
def _axis_polarization(component_weights: tuple[float, float, float]) -> np.ndarray:
    """_polarization on the node direction, computed once per weights."""
    pol = _polarization(_AXIS, component_weights)
    pol.flags.writeable = False
    return pol


@dataclass(frozen=True)
class RadialLinearState:
    """Continuum initial data sampled on log-radial nodes along one direction.

    The datum and the symbol are rotation covariant: a proper rotation
    taking one direction's polarization frame to another's maps the node
    vector and M(xi) alike, so every direction of a radius carries the same
    norms.  The sphere integral is therefore 4 pi times the value on one
    fixed direction, with no quadrature error; the 26-point sphere rule is
    kept only as the oracle for this reduction (selftest.sphere_rule_26).

    coeffs holds the 9-vector of spectral values per radial node along the
    fixed direction, shape (9, n_r) like the rows of a grid state; weights
    are the d^3 xi weights 4 pi rho^2 w_rho of the nodes.  coeffs_at
    evolves every node with the sector kernel, which is built on the nodes
    once per state with a leading time axis, so coeffs_at and norms_at take
    a scalar time or a 1-D array of finite, nonnegative times.
    """

    radii: np.ndarray
    coeffs: np.ndarray
    weights: np.ndarray
    params: PhysParams
    profile: SpectralProfile
    construction: dict

    @cached_property
    def kernel(self) -> SectorKernel:
        """The sector kernel on the nodes with a leading time axis, arrays of
        shape (1, n_r), built once per state."""
        return SectorKernel(_AXIS[:, None, None] * self.radii, self.radii[None] ** 2,
                            self.params)

    def coeffs_at(self, t) -> np.ndarray:
        """Spectral coefficients at a time t, shape (9, n_r), or at a 1-D
        array of n_t times, shape (9, n_t, n_r)."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"times must be a scalar or 1-D, got shape {times.shape}")
        out = self.kernel.apply(self.coeffs[:, None], times.reshape(-1, 1))
        return out if times.ndim else out[:, 0]

    def norms_at(self, t) -> dict:
        """The :func:`mmplab.fields.state_norms` integrals at a time t, as
        floats, or at a 1-D array of times, as arrays.

        The times go through the kernel in blocks of at most _BLOCK
        time x node elements, which bounds the memory of long time lists;
        every norm has the bits of its own scalar evaluation.
        """
        times = np.asarray(t, dtype=float)
        per_block = max(_BLOCK // self.radii.size, 1)
        flat = np.atleast_1d(times)
        blocks = [state_norms(self.coeffs_at(flat[i:i + per_block]), self.weights,
                              self.radii ** 2)
                  for i in range(0, max(flat.size, 1), per_block)]
        norms = {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}
        return norms if times.ndim else {key: float(val[0]) for key, val in norms.items()}

    def ball_mass_at(self, t: float, radius: float) -> float:
        """Integral of |zhat(t)|^2 over |xi| <= radius.

        Inside the node range the ball is integrated on a fresh quadrature,
        built from the same construction recipe, whose panels end exactly at
        the cut radius; a radius past the last node takes every node.  The
        time is checked first, whatever the radius.
        """
        check_times(t)
        if not radius > self.radii[0]:
            return 0.0
        if radius < self.radii[-1]:
            sub = make_radial_state(self.profile, self.params, rho_max=radius,
                                    **self.construction)
            return sub.norms_at(t)["l2_z_sq"]
        return self.norms_at(t)["l2_z_sq"]


def make_radial_state(profile: SpectralProfile, params: PhysParams,
                      rho_min: float = 1e-4, rho_max: float = 1e2,
                      per_decade: int = 64,
                      component_weights: tuple[float, float, float] = (1/3, 1/3, 1/3)
                      ) -> RadialLinearState:
    """Realize an isotropic analytic profile as radial initial data.

    The spectral intensity psi(rho) = density(rho) / (4 pi rho^2) is split
    across the three components with the polarization of
    :func:`_polarization` on the fixed node direction.  per_decade below
    1 raises ValueError.
    """
    if per_decade < 1:
        raise ValueError(f"per_decade must be at least 1, got {per_decade}")
    rho_max = min(rho_max, profile.support_radius)
    n_panels = max(int(np.ceil(per_decade * np.log10(rho_max / rho_min)))
                   // _GL_X.size, 1)
    u_edges = np.linspace(np.log(rho_min), np.log(rho_max), n_panels + 1)
    half = 0.5 * np.diff(u_edges)
    centers = 0.5 * (u_edges[:-1] + u_edges[1:])
    u_nodes = (centers[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    u_weights = (half[:, None] * _GL_W[None, :]).ravel()
    radii = np.exp(u_nodes)
    shell = 4.0 * np.pi * radii ** 2

    dens = np.array([profile.radial_density(rho) for rho in radii])
    mag = np.sqrt(np.maximum(dens / shell, 0.0))
    coeffs = _axis_polarization(tuple(component_weights))[:, None] * mag
    return RadialLinearState(
        radii=radii, coeffs=coeffs, weights=shell * u_weights * radii,
        params=params, profile=profile,
        construction={"rho_min": rho_min, "per_decade": per_decade,
                      "component_weights": component_weights})


def radial_linear_decay(profile: SpectralProfile, times, params: PhysParams,
                        per_decade: int = 64, rho_min: float = 1e-4,
                        check_convergence: bool = False) -> dict[str, NormSeries]:
    """Every norm of :meth:`RadialLinearState.norms_at` at the requested
    times, on nodes up to rho = 1e2, from one norms_at call per quadrature.
    The times must be finite, nonnegative and strictly increasing; an empty
    list gives every key with an empty series.

    With check_convergence the quadrature is repeated at doubled radial
    resolution and a QuadratureError is raised if any norm moves by more
    than 1e-5 relatively, or if the doubled quadrature has no more nodes
    than the first (a coarse per_decade rounds both to one panel), where
    the check could not fail.
    """
    times = np.asarray(times, dtype=float)
    if times.size and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    def run(per_dec):
        state = make_radial_state(profile, params, rho_min=rho_min, per_decade=per_dec)
        return state.radii.size, state.norms_at(times)

    nodes, coarse = run(per_decade)
    if check_convergence and times.size:
        fine_nodes, fine = run(2 * per_decade)
        if fine_nodes <= nodes:
            raise QuadratureError(
                f"node doubling from per_decade = {per_decade} keeps {nodes} nodes, "
                f"so the convergence check cannot fail")
        for key, vals in coarse.items():
            ref = fine[key]
            scale = np.maximum(np.abs(ref), np.abs(ref).max() * 1e-300 + 1e-300)
            rel = np.abs(vals - ref) / scale
            if rel.max() > 1e-5:
                raise QuadratureError(
                    f"radial quadrature not converged for {key}: "
                    f"max rel change {rel.max():.3e} on node doubling")
        coarse = fine
    return {key: NormSeries(name=key, times=times, values=vals)
            for key, vals in coarse.items()}

