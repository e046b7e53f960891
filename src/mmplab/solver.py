"""Pseudo-spectral time integration of the full nonlinear system.

States are half spectra of real fields (see :mod:`mmplab.grid`).  The
quadratic terms are formed in physical space from dealiased spectra (2/3
rule) in divergence and curl form,

    (u.grad)u - (b.grad)b = div(u(x)u - b(x)b)
    (b.grad)u - (u.grad)b = curl(u x b)
    (u.grad)w             = div(u(x)w),

which is 9 inverse and 18 forward real transforms per evaluation: the
(9, ...) retained block goes out in one batch and the products come back
in two batches of nine, first the 6 symmetric products u_i u_j - b_i b_j
and the 3 products u x b, then the 9 products u_j w_i; of each only the
retained block is kept, in one 9-row spectrum that each batch overwrites
once the slab stage after it has read it: the first stage contracts the
stress into Nu and takes the curl into Nb, the second contracts the
transport into Nw, multiplies Nu and Nw by -i and projects Nu.  The
transforms work on the block
(grid.forward and grid.inverse), and each worker's row group runs its
rows one at a time, end to end, in its own work row: the inverse pads a
row and transforms it into its field, the forward forms a product (its
form), transforms and truncates it.  Each call makes its own work
arrays, one row per worker of each and the nine whole-grid fields, so
nothing is held between calls.  The group holding row 0 of
the second batch also takes the speed, in b's fields, which that batch
does not read.
On the retained modes the identities are exact, because
the truncated u and b are solenoidal and the 2/3 rule, always applied,
keeps aliasing off those modes.  The velocity increment is
Leray-projected, which realizes the pressure gradient exactly.  The
magnetic increment is not projected: curl(u x b) formed with xi_odd is
solenoidal by construction, to rounding.  The micro-rotation increment is
never projected since w carries no divergence constraint.

The stiff linear part, including the rotational coupling, the grad-div term
and the 2 chi damping, is propagated exactly through the closed-form
sector kernel per mode; only advection and stretching are explicit.  The
default scheme is the two-stage exponential integrator

    a       = e^{h M} z_n + h phi1(h M) N(z_n)
    z_{n+1} = a + h phi2(h M) (N(a) - N(z_n)),

second order in h; an integrating-factor RK4 is available for convergence
studies.  The stepper's applies cache their weight tables per (time,
kind) on the propagator's kernel (SectorKernel.apply), so a run evaluates
them once per step size: three for ETD-RK2 (exp, phi1, phi2 at h), two
for IF-RK4 (exp at h and h/2); a halving of dt drops them.  Nothing is
kept on the Grid, so concurrent runs may share one.  simulate advances
the 2/3-rule retained block, one (9, 2c + 1, 2c + 1, c + 1) array with
c = n // 3 (Grid.truncate), which
holds the Galerkin truncation's only nonzero modes; N carries the three
increments in the same row layout.  The datum comes in as half spectra,
and the snapshots after t = 0 go out as half spectra, +0 outside the
block (Grid.pad), the only place a run pads.  The kernel applies,
nonlinear_rhs, its projection, _step_arrays, the output rows and the
tensor audit (advective_products, tensor_bound_report) take only the
block.  From n = 64, where
the block reaches grid.SLAB_MIN_SIZE points, the sector-kernel applies
and the two slab stages of N split their planes across the MMP_THREADS
workers as the transform batches split their rows (grid.slab_map), mode
by mode or point by point, so every result has the same bits at any
thread count: five uses of the pool per evaluation.  _step_arrays forms
its sums and scalings in place in arrays that are not read again and
drops each array after its last read, so a step holds only live blocks;
as IEEE sums and products commute, it keeps the bits of the textbook
expressions.  Every step opens with one
evaluation of N(z_n), which is its first stage and also reports the
Elsasser speed max(|u| + |b|) of z_n: a non-finite speed ends the run,
and the CFL number of the state the step advances is checked against
CFL_LIMIT.  The time step only ever shrinks, and a halving doubles the
remaining steps, so recorded output times stay exact.  Every output
row, t = 0 included, is taken from the block: its norms from
fields.state_norms, over the block and over its paired linear
difference, its splitting-ball integral and its divergence diagnostic,
with the block's per-mode arrays (Grid.retained).  The t = 0 snapshot and
the datum's divergence check read the datum as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as _grid
from .analysis import NormSeries, fourier_split_integral, fourier_split_radius
from .fields import (SOLENOIDAL_TOL, ContractViolation, Grid, PhysParams,
                     StateField, check_retained, curl_at, divergence_error,
                     leray_project, project_planes, spectrum_norm_sq, state_norms)
from .grid import forward
from .propagator import GridPropagator, get_propagator

# leray_project is re-exported: nonlinear_rhs applies its arithmetic plane
# by plane (fields.project_planes), and perfbench's spans trace the name
# on this module
__all__ = ["BlowupError", "CFL_LIMIT", "SCHEMES", "SolverConfig", "Trajectory",
           "advective_products", "energy_balance_check", "leray_project",
           "nonlinear_rhs", "simulate", "tensor_bound_report"]

SCHEMES = ("etd-rk2", "if-rk4")
# largest admissible CFL number dt max(|u| + |b|) n / L
CFL_LIMIT = 0.5


class BlowupError(RuntimeError):
    """NaN or Inf detected in the state, or a CFL halving that would take
    the step size below its floor; carries the simulation time reached.

    The trajectory recorded up to the failure rides along so callers can
    persist partial results.
    """

    def __init__(self, t: float, trajectory: "Trajectory",
                 reason: str = "non-finite state detected"):
        super().__init__(f"{reason} at t = {t:g}")
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

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if not self.ball_A > 0:
            raise ValueError(f"ball_A must be positive, got {self.ball_A!r}")
        if self.output_every < 1:
            raise ValueError("output_every must be a positive integer")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        output_dt = self.dt * self.output_every
        outputs = self.t_end / output_dt
        # measured on t_end, so a t_end > 0 that rounds to no output fails,
        # also when output_dt overflows
        if not (outputs < math.inf
                and abs(round(outputs) * output_dt - self.t_end) <= 1e-9 * self.t_end):
            raise ValueError(
                f"t_end = {self.t_end!r} is not a multiple of dt * output_every "
                f"= {output_dt!r}")


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

    def series(self, name: str) -> NormSeries:
        return NormSeries(name=name, times=np.array(self.times),
                          values=self.column(name))


# rows of u, w and b in the (9, ...) state
_ROWS = {"u": slice(0, 3), "w": slice(3, 6), "b": slice(6, 9)}
# component pairs (i, j) of the symmetric tensor T = u(x)u - b(x)b as they
# are stored, and the storage index of T_ij for every (i, j)
_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _contract(xi: np.ndarray, rows, out: np.ndarray) -> None:
    """out_i = sum_j xi_j rows[i][j], accumulated in place."""
    for i, row in enumerate(rows):
        np.multiply(xi[0], row[0], out=out[i])
        out[i] += xi[1] * row[1]
        out[i] += xi[2] * row[2]


def nonlinear_rhs(grid: Grid, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Spectral increment N = (Nu, Nw, Nb) of the quadratic terms, plus the
    Elsasser speed max(|u| + |b|) over the grid points of the truncated
    state: the speed of u +- b, which bounds the explicit transport by u in
    (u.grad) and by b in (b.grad).

    Nu = P[(b.grad)b - (u.grad)u] = P[div(b(x)b - u(x)u)]
    Nw = -(u.grad)w               = -div(u(x)w)
    Nb = (b.grad)u - (u.grad)b    = curl(u x b)

    The Leray projection P supplies -grad p in Nu; Nb is a curl, so it is
    solenoidal without one.

    z is the retained block (9, 2c + 1, 2c + 1, c + 1) of grid
    (Grid.truncate), and N is one too; any other shape raises
    ContractViolation before any work; simulate checks the datum's divergence.
    The work arrays are made here, one row for each row group of a 9-row
    batch (min(worker_count(), 9), read once per call), and the nine fields.
    """
    check_retained(grid, z)
    rows = (min(_grid.worker_count(), 9),)
    # resolved on the grid module at call time, so wrappers installed
    # there see it
    phys = _grid.inverse(z, grid)
    u, w, b = phys[0:3], phys[3:6], phys[6:9]
    prod = np.empty(rows + phys.shape[1:])
    spectra = np.empty(rows + grid.spectral_shape, dtype=complex)
    # each group's row of spectra, as real scratch of one field's size,
    # free until forward transforms into it
    scratch = [row.reshape(-1).view(float)[:phys[0].size].reshape(phys.shape[1:])
               for row in spectra]
    # the retained products of one batch at a time
    spec = np.empty(z.shape, dtype=complex)
    speed = None

    def stress_and_induction(k, group):
        """Product k of 0:9: u_i u_j - b_i b_j for the 6 symmetric pairs,
        then u x b as u_i b_j - b_i u_j."""
        if k < 6:
            (i, j), f, g = _SYM_PAIRS[k], u, b
        else:
            i, j, f, g = (k - 5) % 3, (k - 4) % 3, b, u
        np.multiply(u[i], f[j], out=prod[group])
        prod[group] -= np.multiply(b[i], g[j], out=scratch[group])
        return prod[group]

    def transport(k, group):
        """Product k of the second batch, u_i w_j with k = 3 i + j; with
        row 0, the Elsasser speed."""
        nonlocal speed
        if k == 0:
            # b's fields are free once the first batch is done: |b| and |u|
            # go into them, each summed in the order of (u ** 2).sum(axis=0),
            # so the speed keeps its bits; max is exact and propagates a NaN
            np.square(b, out=b)
            b[0] += b[1]
            b[0] += b[2]
            np.sqrt(b[0], out=b[0])
            np.square(u[0], out=b[1])
            b[1] += np.square(u[1], out=b[2])
            b[1] += np.square(u[2], out=b[2])
            np.sqrt(b[1], out=b[1])
            speed = float(np.add(b[0], b[1], out=b[0]).max())
        return np.multiply(u[k // 3], w[k % 3], out=prod[group])

    modes = grid.retained
    N = np.empty(z.shape, dtype=complex)

    def stress_and_curl(sl):
        """xi_j T_ij into Nu and the curl into Nb, on a group of planes."""
        xi, s, out = modes.xi_odd[:, sl], spec[:, sl], N[:, sl]
        _contract(xi, [[s[k] for k in row] for row in _SYM_INDEX], out[0:3])
        out[6:9] = curl_at(xi, s[6:9])

    def transport_and_projection(sl):
        """xi_j u_j w_i into Nw, the -i of Nu and Nw and the projection of
        Nu, on a group of planes."""
        xi, s, out = modes.xi_odd[:, sl], spec[:, sl], N[:, sl]
        _contract(xi, [[s[3 * j + i] for j in range(3)] for i in range(3)], out[3:6])
        out[0:6] *= -1j
        project_planes(modes, N[0:3], N[0:3], sl)

    forward(phys, out=spec, work=spectra, form=stress_and_induction)
    _grid.slab_map(stress_and_curl, z.shape[1:])
    forward(phys, out=spec, work=spectra, form=transport)
    _grid.slab_map(transport_and_projection, z.shape[1:])
    return N, speed


def advective_products(grid: Grid, z: np.ndarray) -> dict:
    """Retained blocks of the advective products (F.grad)G of a retained
    block z of grid, keyed (F, G), for the pairs uu, uw, ub, bb and bu.
    Formed from physical gradients, they serve the tensor-bound diagnostic
    and test the divergence form.  Any other shape of z raises
    ContractViolation before any work."""
    check_retained(grid, z)
    phys = {F: _grid.inverse(z[_ROWS[F]], grid) for F in "ub"}
    grads = 1j * grid.retained.xi_odd[None, :] * z[:, None]
    grads = _grid.inverse(grads.reshape((27,) + z.shape[1:]), grid).reshape(
        (9, 3) + phys["u"].shape[1:])
    # (F.grad)G_i = F_j d_j G_i from physical F and the gradients of G
    return {(F, G): forward(np.einsum("j...,ij...->i...", phys[F], grads[_ROWS[G]]))
            for F, G in (("u", "u"), ("u", "w"), ("u", "b"), ("b", "b"), ("b", "u"))}


def tensor_bound_report(grid: Grid, z: np.ndarray) -> dict:
    """Measured constants in the modewise bound |NLhat(xi)| <= |xi| ||F|| ||G||
    on a retained block z of grid.

    With series coefficients the convolution estimate reads
    |((F.grad)G)hat(xi)| <= |xi| ||F||_2 ||G||_2 / volume; the report gives
    the largest measured ratio per advection pair (1 is the sharp constant),
    from the advective products of :func:`advective_products`, which
    checks the shape of z.
    """
    products = advective_products(grid, z)
    modes = grid.retained
    nonzero = modes.xi_mag > 0
    norms = {name: np.sqrt(spectrum_norm_sq(grid, z[rows], modes=modes))
             for name, rows in _ROWS.items()}

    def pair_constant(F_name, G_name, spec):
        denom = norms[F_name] * norms[G_name]
        if denom == 0:
            return 0.0
        mag = np.sqrt((np.abs(spec) ** 2).sum(axis=0))[nonzero]
        return float((mag * grid.volume / (modes.xi_mag[nonzero] * denom)).max())

    constants = {f"({F}.grad){G}": pair_constant(F, G, spec)
                 for (F, G), spec in products.items()}
    worst = max(constants.values())
    return {"pair_constants": constants, "max_constant": worst,
            "bound_holds": bool(worst <= 1.0 + 1e-10)}


def _step_arrays(prop: GridPropagator, z: np.ndarray, N: np.ndarray,
                 dt: float, scheme: str) -> np.ndarray:
    """One step on a retained block z, (9, 2c + 1, 2c + 1, c + 1), of
    prop.grid from its right-hand side N = N(z), which is the first stage;
    returns the new block.  The applies and right-hand sides raise
    ContractViolation on any other layout."""

    def rhs(arr):
        return nonlinear_rhs(prop.grid, arr)[0]

    def apply(arr, t, kind):
        return prop.apply(arr, t, kind=kind, cache=True)

    # Sums and scalings go in place into an array that is not read again,
    # and an array is dropped after its last read.  IEEE sums and products
    # commute, so each keeps the bits of the expression in its comment.
    if scheme == "etd-rk2":
        # a = e^{hM} z + h phi1(hM) N
        a = apply(z, dt, "exp")
        step = apply(N, dt, "phi1")
        step *= dt
        a += step
        del step
        dN = rhs(a)
        dN -= N
        # a + h phi2(hM) (N(a) - N); the last term is its own array until
        # it is added
        estimate = apply(dN, dt, "phi2")
        del dN
        estimate *= dt
        a += estimate
        return a

    if scheme == "if-rk4":
        # k2 = N(e^{hM/2} (z + h/2 N))
        k2 = (dt / 2) * N
        k2 += z
        k2 = apply(k2, dt / 2, "exp")
        k2 = rhs(k2)
        # k3 = N(e^{hM/2} z + h/2 k2)
        stage = apply(z, dt / 2, "exp")
        stage += (dt / 2) * k2
        k3 = rhs(stage)
        del stage
        k3 = apply(k3, dt / 2, "exp")
        Ez = apply(z, dt, "exp")
        # k4 = N(Ez + h e^{hM/2} k3), after k2 := e^{hM/2} k2 + e^{hM/2} k3
        k2 = apply(k2, dt / 2, "exp")
        k2 += k3
        k3 *= dt
        k3 += Ez
        k4 = rhs(k3)
        del k3
        # Ez + h/6 (e^{hM} N + 2 k2 + k4)
        k2 *= 2.0
        k2 += apply(N, dt, "exp")
        k2 += k4
        del k4
        k2 *= dt / 6.0
        k2 += Ez
        return k2

    raise ValueError(f"unknown scheme {scheme!r}")


def _norm_row(grid: Grid, z: np.ndarray, t: float, ball_A: float,
              z_lin: np.ndarray | None) -> dict:
    """One series row of a retained block z of grid (Grid.truncate): the
    state norms, the splitting-ball integral and, against a paired linear
    block z_lin, the difference norms."""
    check_retained(grid, z)
    modes = grid.retained

    def norms(z):
        return {key: grid.volume * val for key, val in
                state_norms(z, modes.multiplicity, modes.xi_sq).items()}

    row = {"t": t, **norms(z)}
    row["ball_integral"] = (0.0 if fourier_split_radius(t, ball_A) < grid.fundamental
                            else fourier_split_integral(grid, z, t, ball_A, modes))
    diff = {} if z_lin is None else norms(z - z_lin)
    row["l2_diff_z_sq"] = diff.get("l2_z_sq")
    row["l2_diff_w_sq"] = diff.get("l2_w_sq")
    row["h1_diff_z_sq"] = diff.get("h1_z_sq")
    return row


def simulate(config: SolverConfig, z0: StateField,
             pair_linear: bool = False, record_tensor: bool = False,
             save_snapshots: bool = False) -> Trajectory:
    """Advance z0 to t_end recording norms every output_every steps.

    z0 must have solenoidal u and b on every mode (relative divergence
    at most SOLENOIDAL_TOL); otherwise ContractViolation is raised before
    the first row.  A non-finite z0 passes this check and ends in
    BlowupError, as does one that needs a step below output_dt * 2**-52.

    The run advances the retained block of z0 (see the module docstring),
    and every row, t = 0 included, is taken from it; the t = 0 snapshot is
    z0 as given, later ones the padded block.  So modes of z0 outside the
    block (data from generate_data_with_character have none) show only in
    the t = 0 snapshot.

    pair_linear additionally evolves the linear system from the same
    retained datum (exactly, via the semigroup) and records difference
    norms.  The run is
    deterministic: equal (config, z0) produce identical trajectories for
    any worker-thread count.
    """
    grid = config.grid
    prop = get_propagator(grid, config.params)

    traj = Trajectory()
    traj.diagnostics.update({
        "scheme": config.scheme,
        "dt_initial": config.dt,
        "dt_lambda_max": config.dt * prop.spectral_radius,
        "cfl_halvings": 0,
        "max_divergence": 0.0,
        "max_tensor_constant": 0.0,
    })

    # nonlinear_rhs checks no divergence, so the datum is checked here, as
    # given; it is also the t = 0 snapshot
    datum = StateField(grid, np.asarray(z0.z, dtype=complex))
    if (div := datum.divergence_error()) > SOLENOIDAL_TOL:
        raise ContractViolation(f"z0: u or b not solenoidal: relative divergence {div:.3e}")
    # the stepper and the paired linear run advance the retained block, and
    # every row is taken from it
    z = z0_block = grid.truncate(datum.z)
    dt = config.dt
    steps_per_output = config.output_every
    n_outputs = int(round(config.t_end / (config.dt * config.output_every)))
    output_dt = config.dt * config.output_every

    def record(t, block, linear_block, snapshot=None):
        """The row at t of a retained block and its paired linear block;
        the snapshot, when kept, is the block padded unless one is given."""
        traj.times.append(t)
        traj.norm_rows.append(_norm_row(grid, block, t, config.ball_A, linear_block))
        traj.diagnostics["max_divergence"] = max(
            traj.diagnostics["max_divergence"], divergence_error(grid, block, grid.retained))
        if record_tensor:
            rep = tensor_bound_report(grid, block)
            traj.diagnostics["max_tensor_constant"] = max(
                traj.diagnostics["max_tensor_constant"], rep["max_constant"])
        if save_snapshots:
            traj.snapshots.append(StateField(grid, grid.pad(block)) if snapshot is None
                                  else snapshot)

    record(0.0, z0_block, z0_block if pair_linear else None, snapshot=datum)

    for k in range(1, n_outputs + 1):
        t_target = k * output_dt
        remaining = steps_per_output
        while remaining:
            # the step's first stage, with the speed of the state it advances
            N, speed = nonlinear_rhs(grid, z)
            if not np.isfinite(speed):
                raise BlowupError(t_target - (remaining - 1) * dt, trajectory=traj)
            # CFL check before every step.  dt only ever halves, and the
            # remaining steps double with it, so output times stay exact.
            while dt * speed * grid.n / grid.length > CFL_LIMIT:
                if 0.5 * dt < output_dt * 2 ** -52:
                    raise BlowupError(t_target - remaining * dt, traj,
                                      f"dt = {dt:g} would halve below the step-size floor")
                dt *= 0.5
                remaining *= 2
                steps_per_output *= 2
                traj.diagnostics["cfl_halvings"] += 1
                prop.drop_weights()
            z = _step_arrays(prop, z, N, dt, config.scheme)
            remaining -= 1
        if not np.isfinite(z).all():
            raise BlowupError(t_target, trajectory=traj)
        record(t_target, z,
               prop.apply(z0_block, t_target, kind="exp") if pair_linear else None)

    traj.diagnostics["dt_final"] = dt
    return traj


def energy_balance_check(traj: Trajectory) -> dict:
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
    monotone = bool(np.all(dE <= 0.0))
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
