"""Pseudo-spectral time integration of the full nonlinear system.

States are half spectra of real fields (see :mod:`mmplab.grid`).  The
quadratic terms are formed in physical space from dealiased spectra (2/3
rule) in divergence and curl form,

    (u.grad)u - (b.grad)b = div(u(x)u - b(x)b)
    (b.grad)u - (u.grad)b = curl(u x b)
    (u.grad)w             = div(u(x)w),

which is 9 inverse and 18 forward real transforms per evaluation: the 9
masked components go out in one batch and the 6 symmetric products
u_i u_j - b_i b_j, the 3 products u x b and the 9 products u_j w_i come
back in another.  On the retained modes the identities are exact, because
the truncated u and b are solenoidal and the 2/3 rule, always applied,
keeps aliasing off those modes.  The velocity increment is
Leray-projected, which realizes the pressure gradient exactly, and the
magnetic increment is projected as well to pin down solenoidality (it is
analytically solenoidal already).  The micro-rotation increment is never
projected since w carries no divergence constraint.

The stiff linear part, including the rotational coupling, the grad-div term
and the 2 chi damping, is propagated exactly through the closed-form
sector kernel per mode; only advection and stretching are explicit.  The
default scheme is the two-stage exponential integrator

    a       = e^{h M} z_n + h phi1(h M) N(z_n)
    z_{n+1} = a + h phi2(h M) (N(a) - N(z_n)),

second order in h; an integrating-factor RK4 is available for convergence
studies.  The time step only ever shrinks (halving at output boundaries on
CFL violation), so recorded output times stay exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import grid as _grid
from .analysis import fourier_split_integral, fourier_split_radius
from .fields import (SOLENOIDAL_TOL, ContractViolation, Grid, PhysParams,
                     StateField, curl, gradient_norm_sq, l2_norm_sq,
                     leray_project, second_deriv_norm_sq, spectrum_norm_sq)
from .grid import forward
from .propagator import GridPropagator, get_propagator

SCHEMES = ("etd-rk2", "if-rk4")


class BlowupError(RuntimeError):
    """NaN or Inf detected in the state; carries the simulation time.

    The trajectory recorded up to the failure rides along so callers can
    persist partial results.
    """

    def __init__(self, t: float, trajectory=None):
        super().__init__(f"non-finite state detected at t = {t:g}")
        self.t = t
        self.trajectory = trajectory


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    params: PhysParams
    dt: float
    t_end: float
    output_every: int = 1
    scheme: str = "etd-rk2"
    ball_A: float = 1.0
    cfl_limit: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.output_every < 1:
            raise ValueError("output_every must be a positive integer")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        outputs = self.t_end / (self.dt * self.output_every)
        if abs(outputs - round(outputs)) > 1e-9 * max(outputs, 1.0):
            raise ValueError(
                f"t_end = {self.t_end!r} is not a multiple of dt * output_every "
                f"= {self.dt * self.output_every!r}")


@dataclass
class Trajectory:
    """Recorded norm series of one run plus run diagnostics."""

    times: list[float] = field(default_factory=list)
    norm_rows: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    snapshots: list[StateField] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] if row[name] is not None else np.nan
                         for row in self.norm_rows])

    def series(self, name: str):
        from .analysis import NormSeries
        return NormSeries(name=name, times=np.array(self.times),
                          values=self.column(name))


# component pairs (i, j) of the symmetric tensor T = u(x)u - b(x)b as they
# are stored, and the storage index of T_ij for every (i, j)
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _contract(xi: np.ndarray, rows) -> np.ndarray:
    """out_i = sum_j xi_j rows[i][j], accumulated in place."""
    out = np.empty((3,) + xi.shape[1:], dtype=complex)
    for i, row in enumerate(rows):
        np.multiply(xi[0], row[0], out=out[i])
        out[i] += xi[1] * row[1]
        out[i] += xi[2] * row[2]
    return out


def nonlinear_rhs(state: StateField, check_solenoidal: bool = True
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Spectral increments (Nu, Nw, Nb) of the quadratic terms, plus max |u|.

    Nu = P[(b.grad)b - (u.grad)u] = P[div(b(x)b - u(x)u)]
    Nw = -(u.grad)w               = -div(u(x)w)       (not projected)
    Nb = P[(b.grad)u - (u.grad)b] = P[curl(u x b)]

    The Leray projection P supplies -grad p in Nu and enforces exact
    solenoidality in Nb.
    """
    grid = state.grid
    if check_solenoidal and state.divergence_error() > SOLENOIDAL_TOL:
        raise ContractViolation(
            f"u or b not solenoidal: relative divergence {state.divergence_error():.3e}")

    mask = grid.dealias_mask
    z = np.concatenate(state.components())
    z *= mask
    # resolved on the grid module at call time, so wrappers installed there see it
    phys = _grid.inverse(z)
    u, w, b = phys[0:3], phys[3:6], phys[6:9]

    prod = np.empty((18,) + phys.shape[1:])
    for k, (i, j) in enumerate(_SYM_PAIRS):
        np.multiply(u[i], u[j], out=prod[k])
        prod[k] -= b[i] * b[j]
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(u[i], b[j], out=prod[6 + k])
        prod[6 + k] -= u[j] * b[i]
    np.multiply(u[:, None], w[None, :], out=prod[9:].reshape((3, 3) + u.shape[1:]))
    spec = forward(prod)

    xi = grid.xi_odd
    Nu = _contract(xi, [[spec[k] for k in row] for row in _SYM_INDEX])
    Nw = _contract(xi, [[spec[9 + 3 * j + i] for j in range(3)] for i in range(3)])
    Nb = curl(grid, spec[6:9])
    Nu *= -1j
    Nw *= -1j
    Nu *= mask
    Nw *= mask
    Nb *= mask
    u_max = float(np.sqrt((u ** 2).sum(axis=0).max()))
    return leray_project(grid, Nu), Nw, leray_project(grid, Nb), u_max


def _advect(field_phys: np.ndarray, grad_phys: np.ndarray) -> np.ndarray:
    """(F . grad) G from physical F (3,...) and grad G (i, j, ...)."""
    return np.einsum("j...,ij...->i...", field_phys, grad_phys)


def advective_products(state: StateField) -> dict:
    """Masked spectra of the advective products (F.grad)G, keyed (F, G), for
    the pairs uu, uw, ub, bb and bu.  Formed from physical gradients, they
    serve the tensor-bound diagnostic and test the divergence form."""
    grid = state.grid
    mask = grid.dealias_mask
    fields = {name: comp * mask for name, comp in zip("uwb", state.components())}
    phys = {name: _grid.inverse(fields[name]) for name in "ub"}
    grads = {name: _grid.inverse(1j * grid.xi_odd[None, :] * comp[:, None])
             for name, comp in fields.items()}
    out = {}
    for F, G in (("u", "u"), ("u", "w"), ("u", "b"), ("b", "b"), ("b", "u")):
        spec = forward(_advect(phys[F], grads[G]))
        out[F, G] = spec * mask
    return out


def tensor_bound_report(state: StateField) -> dict:
    """Measured constants in the modewise bound |NLhat(xi)| <= |xi| ||F|| ||G||.

    With series coefficients the convolution estimate reads
    |((F.grad)G)hat(xi)| <= |xi| ||F||_2 ||G||_2 / volume; the report gives
    the largest measured ratio per advection pair (1 is the sharp constant),
    from the advective products of :func:`advective_products`.
    """
    grid = state.grid
    V = grid.volume
    nonzero = grid.xi_mag > 0
    xi_mag = np.where(nonzero, grid.xi_mag, 1.0)

    norms = {name: np.sqrt(spectrum_norm_sq(grid, comp))
             for name, comp in zip("uwb", state.components())}

    def pair_constant(F_name, G_name, spec):
        mag = np.sqrt((np.abs(spec) ** 2).sum(axis=0))
        denom = norms[F_name] * norms[G_name]
        if denom == 0:
            return 0.0
        ratio = (mag * V / (xi_mag * denom))[nonzero]
        return float(ratio.max())

    constants = {f"({F}.grad){G}": pair_constant(F, G, spec)
                 for (F, G), spec in advective_products(state).items()}
    worst = max(constants.values())
    return {"pair_constants": constants, "max_constant": worst,
            "bound_holds": bool(worst <= 1.0 + 1e-10)}


def step(state: StateField, params: PhysParams, dt: float,
         scheme: str = "etd-rk2", prop: GridPropagator | None = None) -> StateField:
    """Advance one time step; linear part exact, nonlinearity explicit."""
    if prop is None:
        prop = get_propagator(state.grid, params)
    arrays, _ = _step_arrays(prop, state.components(), state.grid, dt, scheme)
    return state.with_coeffs(*arrays)


def _step_arrays(prop: GridPropagator, z, grid: Grid, dt: float, scheme: str):
    """One step on raw coefficient tuples; returns (arrays, u_max)."""

    def rhs(arrays):
        tmp = StateField(grid, *arrays)
        return nonlinear_rhs(tmp, check_solenoidal=False)

    if scheme == "etd-rk2":
        Nu, Nw, Nb, u_max = rhs(z)
        Ez = prop.apply(*z, dt, "exp")
        P1 = prop.apply(Nu, Nw, Nb, dt, "phi1")
        a = tuple(e + dt * p for e, p in zip(Ez, P1))
        Nu_a, Nw_a, Nb_a, _ = rhs(a)
        P2 = prop.apply(Nu_a - Nu, Nw_a - Nw, Nb_a - Nb, dt, "phi2")
        return tuple(x + dt * p for x, p in zip(a, P2)), u_max

    if scheme == "if-rk4":
        k1 = rhs(z)
        u_max = k1[3]
        k1 = k1[:3]
        Ez_half = prop.apply(*z, dt / 2, "exp")
        stage2 = prop.apply(*(zi + (dt / 2) * ki for zi, ki in zip(z, k1)), dt / 2, "exp")
        k2 = rhs(stage2)[:3]
        stage3 = tuple(e + (dt / 2) * ki for e, ki in zip(Ez_half, k2))
        k3 = rhs(stage3)[:3]
        Ez_full = prop.apply(*z, dt, "exp")
        k3_half = prop.apply(*k3, dt / 2, "exp")
        stage4 = tuple(e + dt * ki for e, ki in zip(Ez_full, k3_half))
        k4 = rhs(stage4)[:3]
        k1_full = prop.apply(*k1, dt, "exp")
        k2_half = prop.apply(*k2, dt / 2, "exp")
        out = tuple(
            e + (dt / 6.0) * (a + 2.0 * (b + c) + d)
            for e, a, b, c, d in zip(Ez_full, k1_full, k2_half, k3_half, k4))
        return out, u_max

    raise ValueError(f"unknown scheme {scheme!r}")


def _norm_row(state: StateField, t: float, ball_A: float,
              linear_state: StateField | None) -> dict:
    grid = state.grid
    row = {
        "t": t,
        "l2_z_sq": l2_norm_sq(state),
        "l2_u_sq": spectrum_norm_sq(grid, state.uhat),
        "l2_w_sq": spectrum_norm_sq(grid, state.what),
        "l2_b_sq": spectrum_norm_sq(grid, state.bhat),
        "h1_z_sq": gradient_norm_sq(state),
        "h1_w_sq": spectrum_norm_sq(grid, state.what, weight=grid.xi_sq),
        "h2_z_sq": second_deriv_norm_sq(state),
    }
    if fourier_split_radius(t, ball_A) < grid.fundamental:
        row["ball_integral"] = 0.0
    else:
        row["ball_integral"] = fourier_split_integral(state, t, ball_A)
    if linear_state is None:
        row["l2_diff_z_sq"] = None
        row["l2_diff_w_sq"] = None
        row["h1_diff_z_sq"] = None
    else:
        du = state.uhat - linear_state.uhat
        dw = state.what - linear_state.what
        db = state.bhat - linear_state.bhat
        row["l2_diff_z_sq"] = spectrum_norm_sq(grid, du, dw, db)
        row["l2_diff_w_sq"] = spectrum_norm_sq(grid, dw)
        row["h1_diff_z_sq"] = spectrum_norm_sq(grid, du, dw, db, weight=grid.xi_sq)
    return row


def simulate(config: SolverConfig, z0: StateField,
             pair_linear: bool = False, record_tensor: bool = False,
             save_snapshots: bool = False,
             progress: Callable[[float], None] | None = None) -> Trajectory:
    """Advance z0 to t_end recording norms every output_every steps.

    pair_linear additionally evolves the linear system from the same datum
    (exactly, via the semigroup) and records difference norms.  The run is
    deterministic: equal (config, z0) produce identical trajectories for
    any worker-thread count.
    """
    grid = config.grid
    params = config.params
    if not params.bound_valid:
        warnings.warn(
            "32 chi (mu+chi+gamma) <= 1: eigenvalue bound unavailable, "
            "rate claims disabled for this run", stacklevel=2)
    prop = get_propagator(grid, params)

    traj = Trajectory()
    traj.diagnostics.update({
        "scheme": config.scheme,
        "bound_valid": params.bound_valid,
        "dt_initial": config.dt,
        "dt_lambda_max": config.dt * prop.kernel.spectral_radius,
        "cfl_halvings": 0,
        "max_divergence": 0.0,
        "max_tensor_constant": 0.0,
    })

    z = tuple(np.array(c, dtype=complex) for c in z0.components())
    dt = config.dt
    steps_per_output = config.output_every
    n_outputs = int(round(config.t_end / (config.dt * config.output_every)))
    output_dt = config.dt * config.output_every

    def record(t, arrays, linear_arrays):
        st = StateField(grid, *arrays)
        lin = StateField(grid, *linear_arrays) if linear_arrays is not None else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            row = _norm_row(st, t, config.ball_A, lin)
        traj.times.append(t)
        traj.norm_rows.append(row)
        traj.diagnostics["max_divergence"] = max(
            traj.diagnostics["max_divergence"], st.divergence_error())
        if record_tensor:
            rep = tensor_bound_report(st)
            traj.diagnostics["max_tensor_constant"] = max(
                traj.diagnostics["max_tensor_constant"], rep["max_constant"])
        if save_snapshots:
            traj.snapshots.append(st)

    record(0.0, z, z if pair_linear else None)

    # max|u| of the masked velocity as nonlinear_rhs reports it; each step
    # then returns the speed at its start
    u_max = float(np.sqrt((_grid.inverse(z[0] * grid.dealias_mask) ** 2)
                          .sum(axis=0).max()))
    t = 0.0
    for k in range(1, n_outputs + 1):
        t_target = k * output_dt
        # CFL check at output boundaries; dt only ever halves, and the
        # steps-per-output count doubles with it, so output times are exact.
        while u_max > 0 and dt * u_max * grid.n / grid.length > config.cfl_limit:
            dt *= 0.5
            steps_per_output *= 2
            traj.diagnostics["cfl_halvings"] += 1
        for _ in range(steps_per_output):
            z, u_max = _step_arrays(prop, z, grid, dt, config.scheme)
        t = t_target
        probe = float(np.abs(z[0]).max() + np.abs(z[1]).max() + np.abs(z[2]).max())
        if not np.isfinite(probe):
            raise BlowupError(t, trajectory=traj)
        linear_arrays = prop.apply(*z0.components(), t, "exp") if pair_linear else None
        record(t, z, linear_arrays)
        if progress is not None:
            progress(t)

    traj.diagnostics["dt_final"] = dt
    return traj


def energy_balance_check(traj: Trajectory, tolerance: float = 0.0) -> dict:
    """Discrete audit of d/dt ||z||^2 <= -c ||grad z||^2 along a trajectory.

    Reports the largest admissible c (the infimum over output intervals of
    -dE/dt divided by the trapezoidal average of the gradient norm) and
    whether the recorded energy is nonincreasing.
    """
    E = traj.column("l2_z_sq")
    D = traj.column("h1_z_sq")
    t = np.asarray(traj.times)
    if E.size < 2:
        return {"monotone": True, "admissible_c": None, "intervals": 0}
    dE = np.diff(E)
    dt = np.diff(t)
    avg_grad = 0.5 * (D[:-1] + D[1:])
    monotone = bool(np.all(dE <= tolerance * np.maximum(E[:-1], 1e-300)))
    active = avg_grad > 0
    if not np.any(active):
        return {"monotone": monotone, "admissible_c": None, "intervals": 0}
    c_values = -(dE[active] / dt[active]) / avg_grad[active]
    return {
        "monotone": monotone,
        "admissible_c": float(c_values.min()),
        "c_values_range": [float(c_values.min()), float(c_values.max())],
        "intervals": int(active.sum()),
    }
