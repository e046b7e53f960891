"""Fast invariant suite behind the `selftest` CLI subcommand.

Each check is a pure function returning (ok, detail).  The suite covers the
load-bearing identities: the block transforms' round trip, the forward
against a direct DFT sum and both bit for bit against scipy.fft on the
retained block, projector algebra, Parseval and its half-spectrum
multiplicity on scipy.fft's half spectra, symbol Hermiticity, the
eigendecomposition semigroup against a scaling-and-squaring matrix
exponential, generator determinism, exact power-law fitting, energy
monotonicity of a short nonlinear run, the grid propagator on the retained
2/3-rule block against the per-mode semigroup, the one-direction radial
reduction against the 26-point sphere rule, the blocked radial norms
against per-time evaluation and the derivative rates at r* = 0 on the
radial path.  Runs in well under a minute.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.fft as _fft

from .analysis import NormSeries, fit_decay_exponent, predicted_exponents
from .decay_character import SpectralProfile, generate_data_with_character
from .fields import (Grid, PhysParams, leray_project, physical_norm_sq,
                     spectrum_norm_sq, state_norms)
from .grid import forward, full_spectrum, inverse, worker_count
from .linear import (RadialLinearState, _polarization, make_radial_state,
                     radial_linear_decay)
from .propagator import SectorKernel, get_propagator
from .solver import SolverConfig, energy_balance_check, simulate
from .symbol import (assemble_symbol, rotation_symbol, sample_wavevectors,
                     sector_lambda_max, semigroup_apply)


def _dft_oracle(phys: np.ndarray) -> np.ndarray:
    """O(n^6) direct DFT sum with the package normalization."""
    n = phys.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    x = np.arange(n)
    phase = np.exp(-2j * np.pi * np.outer(k, x) / n)
    return np.einsum("Ka,Lb,Mc,abc->KLM", phase, phase, phase, phys) / n ** 3


def sphere_rule_26() -> tuple[np.ndarray, np.ndarray]:
    """Octahedral 26-point spherical rule (degree 7); weights sum to 1.

    The points are the normalized nonzero vectors of {-1, 0, 1}^3; the
    weight depends on the count of nonzero entries (vertices, edge
    midpoints and face centres of the octahedron).
    """
    cube = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    points = cube[np.abs(cube).sum(axis=1) > 0]
    weights = np.array([0.0, 1.0 / 21.0, 4.0 / 105.0, 27.0 / 840.0])
    return (points / np.linalg.norm(points, axis=1)[:, None],
            weights[np.abs(points).sum(axis=1).astype(int)])


def sphere_rule_norms(state: RadialLinearState, t: float) -> dict[str, np.ndarray]:
    """Oracle for RadialLinearState.norms_at: the state's radial nodes
    placed on each of the 26 directions of :func:`sphere_rule_26`, with the
    polarization of that direction.  Each key holds the 26 per-direction
    norms; their rule-weighted sum integrates the unit sphere."""
    mag = np.linalg.norm(state.coeffs, axis=0)  # the polarization is a unit vector
    rows = []
    for n_hat in sphere_rule_26()[0]:
        nodes = n_hat[:, None] * state.radii
        pol = _polarization(n_hat, state.construction["component_weights"])
        kernel = SectorKernel(nodes, (nodes ** 2).sum(axis=0), state.params)
        rows.append(state_norms(kernel.apply(np.outer(pol, mag), t),
                                state.weights, state.radii ** 2))
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def _rfft3(phys: np.ndarray) -> np.ndarray:
    """scipy.fft's half spectra of real fields, with the package scaling."""
    return _fft.rfftn(phys, axes=(-3, -2, -1), norm="forward")


def check_roundtrip() -> tuple[bool, str]:
    grid = Grid(16)
    rng = np.random.Generator(np.random.Philox(7))
    z = forward(rng.normal(size=(9, 16, 16, 16)))
    err = np.abs(forward(inverse(z, grid)) - z).max()
    return err < 1e-12, f"roundtrip error {err:.2e}"


def check_dft_oracle() -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(8))
    phys = rng.normal(size=(8, 8, 8))
    err = np.abs(forward(phys[None])[0] - Grid(8).truncate(_dft_oracle(phys)[..., :5])).max()
    return err < 1e-13, f"retained block vs direct DFT {err:.2e}"


def check_block_transforms() -> tuple[bool, str]:
    """forward and inverse at n = 16 and 48, in 9-row batches, against
    scipy.fft's 3-axis calls bit for bit: the forward on the retained
    block, the inverse of a block on every point.  They call pocketfft
    directly, so a scipy that changes it shows here."""
    rng = np.random.Generator(np.random.Philox(13))
    same = True
    for n in (16, 48):
        grid = Grid(n)
        phys = rng.normal(size=(9, n, n, n))
        want = grid.truncate(_rfft3(phys))
        back = _fft.irfftn(grid.pad(want), s=(n, n, n), axes=(-3, -2, -1), norm="forward")
        same = (same and forward(phys).tobytes() == want.tobytes()
                and inverse(want, grid).tobytes() == back.tobytes())
    return same, (f"9 rows at n = 16 and 48 on {worker_count()} worker(s): "
                  + ("bitwise equal on the block" if same else "bits differ"))


def check_leray() -> tuple[bool, str]:
    grid = Grid(16)
    rng = np.random.Generator(np.random.Philox(9))
    vhat = _rfft3(rng.normal(size=(3, 16, 16, 16)))
    modes = grid.half_modes()
    proj = leray_project(modes, vhat)
    div = np.abs((modes.xi_odd * proj).sum(axis=0)).max()
    twice = np.abs(leray_project(modes, proj) - proj).max()
    ok = div < 1e-12 and twice < 1e-13
    return ok, f"max divergence {div:.2e}, idempotence {twice:.2e}"


def check_parseval() -> tuple[bool, str]:
    worst = 0.0
    for n in (8, 16):
        grid = Grid(n)
        rng = np.random.Generator(np.random.Philox(10 + n))
        phys = rng.normal(size=(n, n, n))
        spec = _rfft3(phys)
        a = physical_norm_sq(grid, phys)
        b = spectrum_norm_sq(grid, spec)
        worst = max(worst, abs(a - b) / a)
    return worst < 1e-10, f"Parseval mismatch {worst:.2e}"


def check_half_parseval() -> tuple[bool, str]:
    """Multiplicity-weighted half-spectrum sums against the full spectrum,
    with energy on the self-conjugate kz = 0 and kz = n/2 planes."""
    worst = 0.0
    for n in (8, 16):
        grid = Grid(n)
        rng = np.random.Generator(np.random.Philox(30 + n))
        phys = rng.normal(size=(3, n, n, n))
        phys += rng.normal(size=(3, n, n, 1))  # kz = 0 plane
        phys += rng.normal(size=(3, n, n, 1)) * (-1.0) ** np.arange(n)  # kz = n/2
        half = _rfft3(phys)
        full = full_spectrum(half)
        for weight in (None, grid.half_modes().xi_sq):
            got = spectrum_norm_sq(grid, half, weight=weight)
            full_weight = 1.0 if weight is None else full_spectrum(weight).real
            want = grid.volume * float((np.abs(full) ** 2 * full_weight).sum())
            worst = max(worst, abs(got - want) / want)
    return worst < 1e-13, f"half vs full spectrum sums {worst:.2e}"


def check_symbol() -> tuple[bool, str]:
    params = PhysParams()
    xis = sample_wavevectors(200, seed=11)
    worst_herm = 0.0
    worst_sector = 0.0
    for xi in xis:
        M = assemble_symbol(xi, params)
        worst_herm = max(worst_herm, M.hermiticity_error())
        s = np.linalg.norm(xi)
        worst_sector = max(worst_sector,
                           abs(M.lambda_max - sector_lambda_max(s, params)))
    ok = worst_herm < 1e-14 and worst_sector < 1e-10
    return ok, f"hermiticity {worst_herm:.2e}, sector eig dev {worst_sector:.2e}"


def check_semigroup_oracle() -> tuple[bool, str]:
    from scipy.linalg import expm
    params = PhysParams()
    rng = np.random.Generator(np.random.Philox(12))
    xis = sample_wavevectors(100, radius_hi=10.0, seed=12)
    worst = 0.0
    for xi in xis:
        M = assemble_symbol(xi, params)
        t = rng.uniform(0, 2)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        ref = expm(t * M.entries) @ v
        got = semigroup_apply(M, t, v)
        worst = max(worst, np.abs(ref - got).max() / max(np.abs(ref).max(), 1e-300))
    return worst < 1e-11, f"eigen semigroup vs expm {worst:.2e}"


def check_rotation_spectrum() -> tuple[bool, str]:
    lam = np.linalg.eigvalsh(rotation_symbol([3.0, 4.0, 0.0]))
    err = np.abs(lam - np.array([-5.0, 0.0, 5.0])).max()
    return err < 1e-13, f"rotation spectrum dev {err:.2e}"


def check_generator_determinism() -> tuple[bool, str]:
    grid = Grid(16)
    a = generate_data_with_character(grid, 0.5, seed=99)
    b = generate_data_with_character(grid, 0.5, seed=99)
    same = a.z.tobytes() == b.z.tobytes()
    return same, "bitwise identical" if same else "seed reuse differs"


def check_fit_exact() -> tuple[bool, str]:
    t = np.linspace(0, 100, 60)
    vals = (1 + t) ** -1.5
    exp, res = fit_decay_exponent(NormSeries("power", t, vals), (0, 100))
    ok = abs(exp + 1.5) < 1e-10 and res < 1e-10
    return ok, f"exponent {exp:.12f}, residual {res:.2e}"


def check_energy_monotone() -> tuple[bool, str]:
    grid = Grid(8, 2 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=3, amplitude=1e-2)
    cfg = SolverConfig(grid=grid, params=PhysParams(), dt=0.05, t_end=0.5)
    traj = simulate(cfg, z0)
    rep = energy_balance_check(traj)
    ok = rep["monotone"] and traj.diagnostics["max_divergence"] < 1e-10
    return ok, (f"monotone={rep['monotone']}, "
                f"divergence {traj.diagnostics['max_divergence']:.2e}")


def check_radial_reduction() -> tuple[bool, str]:
    params = PhysParams()
    state = make_radial_state(SpectralProfile.power_law(0.0), params, per_decade=16)
    weights = sphere_rule_26()[1]
    worst = 0.0
    for t in (0.8, 1e3):
        got = state.norms_at(t)
        for key, rows in sphere_rule_norms(state, t).items():
            want = weights @ rows
            worst = max(worst, abs(got[key] - want) / want)
    return worst < 1e-12, f"one direction vs 26-point rule {worst:.2e}"


def check_radial_time_blocks() -> tuple[bool, str]:
    state = make_radial_state(SpectralProfile.power_law(0.0), PhysParams(), per_decade=32)
    times = np.concatenate([[0.0], np.geomspace(1e-1, 1e4, 40)])
    block = state.norms_at(times)
    rows = [state.norms_at(t) for t in times]
    same = all(np.array_equal(vals, [row[key] for row in rows]) for key, vals in block.items())
    return same, (f"{times.size} times in blocks bitwise equal to scalar calls" if same
                  else "blocked norms differ from scalar calls")


def check_derivative_rates() -> tuple[bool, str]:
    """The derivative rates at r* = 0 on the radial path, [1e2, 1e4]."""
    times = np.geomspace(1e2, 1e4, 25)
    series = radial_linear_decay(SpectralProfile.power_law(0.0), times, PhysParams(),
                                 check_convergence=True)
    predicted = predicted_exponents(0.0)
    worst = max(abs(fit_decay_exponent(series[name], (1e2, 1e4))[0] - predicted[key])
                for name, key in (("h1_z_sq", "grad_z"), ("h1_w_sq", "grad_w"),
                                  ("h2_z_sq", "d2_z")))
    return worst <= 0.05, f"grad z, grad w, D2 z fits off their predictions by <= {worst:.3f}"


def check_grid_propagator() -> tuple[bool, str]:
    """The propagator on a retained block against the per-mode semigroup,
    at modes with k_x of either sign (block index 3 holds k_x = -2)."""
    grid = Grid(8)
    params = PhysParams()
    prop = get_propagator(grid, params)
    rng = np.random.Generator(np.random.Philox(21))
    shape = (9,) + grid.retained_shape
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = prop.apply(z, 0.3)
    worst = 0.0
    for idx in ((1, 2, 2), (0, 0, 1), (3, 1, 2)):
        xi = grid.retained.xi_odd[(slice(None),) + idx]
        ref = semigroup_apply(assemble_symbol(xi, params), 0.3, z[(slice(None),) + idx])
        worst = max(worst, np.abs(ref - out[(slice(None),) + idx]).max())
    return worst < 1e-11, f"grid vs per-mode semigroup {worst:.2e}"


CHECKS = [
    ("transform roundtrip", check_roundtrip),
    ("direct DFT oracle", check_dft_oracle),
    ("block transforms vs 3-axis calls on the block", check_block_transforms),
    ("Leray projection", check_leray),
    ("Parseval identity", check_parseval),
    ("half-spectrum Parseval multiplicity", check_half_parseval),
    ("symbol hermiticity + sector spectrum", check_symbol),
    ("semigroup vs expm oracle", check_semigroup_oracle),
    ("rotation symbol spectrum", check_rotation_spectrum),
    ("generator determinism", check_generator_determinism),
    ("exact power-law fit", check_fit_exact),
    ("energy monotone micro-run", check_energy_monotone),
    ("grid propagator vs symbol", check_grid_propagator),
    ("radial one-direction reduction", check_radial_reduction),
    ("radial time blocks", check_radial_time_blocks),
    ("radial derivative rates", check_derivative_rates),
]


def run_selftest() -> bool:
    """Run every check, printing one PASS or FAIL line each; True if all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"raised {exc!r}"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
