"""The 9x9 Fourier symbol of the linearized system and its spectral theory.

Per mode xi the linear dynamics is d/dt zhat = M(xi) zhat with the Hermitian
block matrix

    M = [ -(mu+chi)|xi|^2 I        i chi R3(xi)                 0        ]
        [  i chi R3(xi)      -(gamma|xi|^2 + 2chi) I - xi xi^T  0        ]
        [  0                       0                   -nu |xi|^2 I      ]

where i R3(xi) is the Hermitian rotation generator with spectrum
{-|xi|, 0, |xi|}.  Its eigenvectors split M into invariant sectors: the
magnetic block, the longitudinal (u, w) pair and two transverse 2x2
blocks.  The closed-form sector kernel in propagator.py evaluates
functions of M from that split; the dense eigendecomposition kept here
(:attr:`SymbolMatrix.eigen`, :func:`semigroup_apply`) is its test oracle.

Two bounds on the largest eigenvalue are provided:

* :func:`spectral_bound` is the classical four-way closed-form minimum
  min{(mu+chi+gamma)|xi|^2 - |xi|/2 + 2chi, (mu+chi)|xi|^2,
  gamma|xi|^2 + 2chi, 2 nu |xi|^2}, positive for xi != 0 whenever
  32 chi (mu+chi+gamma) > 1.  Beware: it is NOT a valid upper bound for
  |lambda_max|; the magnetic sector decays at exactly nu |xi|^2, half the
  bound's fourth entry, and the rotational coupling shifts the mixed
  sectors above the second entry.  :func:`verify_eigenvalue_bound`
  measures the violation honestly.
* :func:`sector_lambda_max` is the exact largest eigenvalue, read from the
  sector kernel's transverse eigenvalue and the magnetic block; it
  certifies lambda_max(M) <= -C |xi|^2 with a measured C > 0.

The closed-form constant is C = min(mu, gamma, nu): Young's inequality on
the coupling, 2 chi |xi||u||w| <= chi |xi|^2 |u|^2 + chi |w|^2, gives
v* M v <= -min{mu|xi|^2, gamma|xi|^2 + chi, nu|xi|^2} |v|^2 for every
parameter set, chi = 0 included; :func:`young_bound` evaluates that
minimum.  :func:`verify_eigenvalue_bound` reports the measured C as
``empirical_C_true``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import PhysParams
from .propagator import sector_eigenvalues


class BoundInvalidError(ValueError):
    """Raised when 32 chi (mu + chi + gamma) <= 1."""


def rotation_matrix(xi) -> np.ndarray:
    """Real antisymmetric R3(xi), shape (3, 3, ...); i R3 rotates about xi."""
    x1, x2, x3 = np.asarray(xi, dtype=float)
    zero = np.zeros_like(x1)
    return np.array([[zero, x3, -x2],
                     [-x3, zero, x1],
                     [x2, -x1, zero]])


def rotation_symbol(xi) -> np.ndarray:
    """i R3(xi), Hermitian with spectrum {-|xi|, 0, |xi|}."""
    return 1j * rotation_matrix(xi)


def assemble_entries(xi, params: PhysParams) -> np.ndarray:
    """Dense 9x9 Hermitian symbol matrix at a single wavevector."""
    return assemble_entries_batch(np.asarray(xi, dtype=float)[None], params)[0]


def assemble_entries_batch(xis: np.ndarray, params: PhysParams) -> np.ndarray:
    """Vectorized assembly; xis has shape (N, 3), result (N, 9, 9)."""
    xis = np.asarray(xis, dtype=float)
    s2 = (xis ** 2).sum(axis=1)[:, None, None]
    eye = np.eye(3)
    M = np.zeros((xis.shape[0], 9, 9), dtype=complex)
    M[:, 0:3, 0:3] = -(params.mu + params.chi) * s2 * eye
    M[:, 0:3, 3:6] = M[:, 3:6, 0:3] = 1j * params.chi * np.moveaxis(rotation_matrix(xis.T), -1, 0)
    M[:, 3:6, 3:6] = (-(params.gamma * s2 + 2.0 * params.chi) * eye
                      - xis[:, :, None] * xis[:, None, :])
    M[:, 6:9, 6:9] = -params.nu * s2 * eye
    return M


@dataclass(frozen=True)
class EigenBundle:
    """Eigendecomposition M = U diag(lam) U* with lam sorted descending."""

    eigenvalues: np.ndarray
    unitary: np.ndarray


@dataclass(frozen=True)
class SymbolMatrix:
    """Symbol matrix at one wavevector with a cached eigendecomposition."""

    xi: np.ndarray
    entries: np.ndarray
    params: PhysParams

    @cached_property
    def eigen(self) -> EigenBundle:
        lam, U = np.linalg.eigh(self.entries)
        order = np.argsort(lam)[::-1]
        return EigenBundle(lam[order], U[:, order])

    @property
    def lambda_max(self) -> float:
        return float(self.eigen.eigenvalues[0])

    def hermiticity_error(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())


def assemble_symbol(xi, params: PhysParams) -> SymbolMatrix:
    xi = np.asarray(xi, dtype=float)
    return SymbolMatrix(xi, assemble_entries(xi, params), params)


def spectral_bound(xi, params: PhysParams) -> float:
    """Four-way closed-form minimum, positive for xi != 0 under bound_valid.

    Accepts a 3-vector or a scalar radius.  Raises BoundInvalidError when
    32 chi (mu + chi + gamma) <= 1, in which case the first entry may have
    real roots.
    """
    s = float(np.linalg.norm(xi)) if np.ndim(xi) else float(xi)
    return float(spectral_bound_radii(s, params))


def spectral_bound_radii(s: np.ndarray, params: PhysParams) -> np.ndarray:
    """Vectorized :func:`spectral_bound` over an array of radii."""
    if not params.bound_valid:
        raise BoundInvalidError(
            f"32 chi (mu+chi+gamma) = {32 * params.chi * (params.mu + params.chi + params.gamma):g} <= 1")
    s = np.asarray(s, dtype=float)
    s2 = s * s
    return np.minimum.reduce([
        (params.mu + params.chi + params.gamma) * s2 - 0.5 * s + 2.0 * params.chi,
        (params.mu + params.chi) * s2,
        params.gamma * s2 + 2.0 * params.chi,
        2.0 * params.nu * s2,
    ])


def sector_lambda_max(s, params: PhysParams):
    """Exact largest eigenvalue of M as a function of the radius |xi|.

    It is the larger of the magnetic block (-nu s^2) and the sector
    kernel's top transverse eigenvalue, which lies above both diagonal
    entries -(mu+chi) s^2 and -(gamma s^2 + 2 chi) and so above the
    longitudinal (u, w) pair.
    """
    s2 = np.asarray(s, dtype=float) ** 2
    _, transverse = sector_eigenvalues((params.mu + params.chi) * s2,
                                       params.gamma * s2 + 2.0 * params.chi,
                                       params.chi ** 2 * s2)
    out = np.maximum(-params.nu * s2, transverse)
    return out if out.ndim else float(out)


def young_bound(s, params: PhysParams):
    """min{mu s^2, gamma s^2 + chi, nu s^2}: -lambda_max >= this at |xi| = s."""
    s2 = np.asarray(s, dtype=float) ** 2
    return np.minimum.reduce([params.mu * s2, params.gamma * s2 + params.chi,
                              params.nu * s2])


def sample_wavevectors(n_samples: int, radius_lo: float = 1e-3,
                       radius_hi: float = 1e2, seed: int = 0) -> np.ndarray:
    """Log-uniform radii with uniform random directions, shape (N, 3).
    Raises ValueError unless 0 < radius_lo < radius_hi < inf."""
    if not 0 < radius_lo < radius_hi < np.inf:
        raise ValueError(f"--radius-lo and --radius-hi need 0 < radius_lo < radius_hi "
                         f"< inf, got radius_lo={radius_lo!r}, radius_hi={radius_hi!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    radii = 10.0 ** rng.uniform(np.log10(radius_lo), np.log10(radius_hi), n_samples)
    dirs = rng.normal(size=(n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def verify_eigenvalue_bound(params: PhysParams, xi_samples: np.ndarray) -> dict:
    """Compare lambda_max(M(xi)) against -spectral_bound(xi) over samples.

    Returns a report with the largest signed violation
    lambda_max + spectral_bound (a positive value means the four-way
    minimum fails as a bound at that sample), the largest excess
    lambda_max + young_bound over the valid bound, the empirical constants

        empirical_C        = inf spectral_bound / |xi|^2   (bound shape)
        empirical_C_true   = inf (-lambda_max) / |xi|^2    (measured decay)

    and the worst sample.  empirical_C_true > 0 certifies the quadratic
    decay lambda_max <= -C |xi|^2 on the sampled set regardless of the
    four-way minimum's validity.
    """
    xi_samples = np.asarray(xi_samples, dtype=float)
    radii = np.linalg.norm(xi_samples, axis=1)
    Ms = assemble_entries_batch(xi_samples, params)
    lam_max = np.linalg.eigvalsh(Ms)[:, -1]
    bounds = spectral_bound_radii(radii, params)
    violations = lam_max + bounds
    young_excess = float((lam_max + young_bound(radii, params)).max())
    worst = int(np.argmax(violations))
    nonzero = radii > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        c_bound = np.min(bounds[nonzero] / radii[nonzero] ** 2)
        c_true = np.min(-lam_max[nonzero] / radii[nonzero] ** 2)
    return {
        "n_samples": int(xi_samples.shape[0]),
        "max_violation": float(violations[worst]),
        "worst_xi": xi_samples[worst].tolist(),
        "worst_radius": float(radii[worst]),
        "empirical_C": float(c_bound),
        "empirical_C_true": float(c_true),
        "bound_holds": bool(violations.max() <= 1e-10),
        "young_max_excess": young_excess,
        "young_bound_holds": bool(young_excess <= 1e-10),
        "quadratic_decay_holds": bool(c_true > 0),
    }


def transverse_frame(n_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (e1, e2 = n_hat x e1) spanning the plane normal to n_hat.

    e1 is even in n_hat, so the frame realizes conjugate-symmetric fields.
    """
    helper = np.array([1.0, 0.0, 0.0])
    if abs(n_hat @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = helper - (helper @ n_hat) * n_hat
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n_hat, e1)


def _rotation_eigenvectors(xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors (v_minus, v_zero, v_plus) of i R3(xi)."""
    xi = np.asarray(xi, dtype=float)
    s = np.linalg.norm(xi)
    if s == 0:
        raise ValueError("rotation eigenbasis undefined at xi = 0")
    n_hat = xi / s
    e1, e2 = transverse_frame(n_hat)
    v_minus = (e1 + 1j * e2) / np.sqrt(2.0)
    v_plus = (e1 - 1j * e2) / np.sqrt(2.0)
    return v_minus, n_hat.astype(complex), v_plus


def rayleigh_basis(xi) -> np.ndarray:
    """Orthonormal 9-vector basis adapted to the rotation eigenvectors.

    Six mixed vectors (v_i, +-v_i, 0)/sqrt(2) over the three eigenvectors
    of i R3(xi), completed by the canonical magnetic directions e7, e8, e9.
    Columns of the returned (9, 9) array are the basis vectors.
    """
    v1, v2, v3 = _rotation_eigenvectors(xi)
    cols = []
    for v in (v1, v2, v3):
        for sign in (+1.0, -1.0):
            vec = np.zeros(9, dtype=complex)
            vec[0:3] = v / np.sqrt(2.0)
            vec[3:6] = sign * v / np.sqrt(2.0)
            cols.append(vec)
    for j in range(3):
        vec = np.zeros(9, dtype=complex)
        vec[6 + j] = 1.0
        cols.append(vec)
    return np.stack(cols, axis=1)


def rayleigh_basis_check(xi, params: PhysParams) -> dict:
    """Quadratic-form diagnostics of M on the adapted orthonormal basis.

    Verifies the basis Gram matrix, evaluates the Rayleigh quotients
    v* M v on each basis vector, the split contributions of the
    longitudinal projector part (nonpositive) and of the coupling part
    (zero on the rotation kernel directions), and compares every quotient
    against -spectral_bound(xi) and against -young_bound(|xi|).
    """
    xi = np.asarray(xi, dtype=float)
    if not np.linalg.norm(xi) > 0:
        raise ValueError("xi must be nonzero")
    B = rayleigh_basis(xi)
    gram = B.conj().T @ B
    gram_err = float(np.abs(gram - np.eye(9)).max())
    if gram_err > 1e-10:
        raise ArithmeticError(f"rotation eigenbasis lost orthonormality: {gram_err:g}")

    M = assemble_entries(xi, params)
    M2 = np.zeros_like(M)
    M2[3:6, 3:6] = -np.outer(xi, xi)
    M3 = np.zeros_like(M)
    M3[0:3, 3:6] = M[0:3, 3:6]
    M3[3:6, 0:3] = M[3:6, 0:3]

    quotients = np.real(np.einsum("ik,ij,jk->k", B.conj(), M, B))
    quotients_m2 = np.real(np.einsum("ik,ij,jk->k", B.conj(), M2, B))
    quotients_m3 = np.real(np.einsum("ik,ij,jk->k", B.conj(), M3, B))
    bound = spectral_bound(xi, params)
    margins = quotients + bound
    young_excess = float(quotients.max() + young_bound(np.linalg.norm(xi), params))
    return {
        "gram_error": gram_err,
        "quotients": quotients.tolist(),
        "quotients_projector_part": quotients_m2.tolist(),
        "quotients_coupling_part": quotients_m3.tolist(),
        "max_quotient": float(quotients.max()),
        "spectral_bound": bound,
        "max_violation": float(margins.max()),
        "bound_holds": bool(margins.max() <= 1e-10),
        "young_max_excess": young_excess,
        "young_bound_holds": bool(young_excess <= 1e-10),
        "projector_part_nonpositive": bool(quotients_m2.max() <= 1e-12),
    }


def semigroup_apply(M: SymbolMatrix, t: float, v: np.ndarray) -> np.ndarray:
    """e^{t M} v from the cached eigendecomposition, for t >= 0.

    Not exact: eigenvalue and eigenvector errors of order eps ||M|| are
    multiplied by t, so the error grows like t eps ||M|| (2.8e-12 of |v| at
    t = 1e4 on a radial node with |xi| = 1.3e-4).  Long-time checks should
    use scipy.linalg.expm as the oracle.
    """
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    v = np.asarray(v, dtype=complex)
    bundle = M.eigen
    coeffs = bundle.unitary.conj().T @ v
    return bundle.unitary @ (np.exp(t * bundle.eigenvalues) * coeffs)
