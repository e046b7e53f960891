"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and beside criterion 4 the radial checks of what the rates need (chi > 0
for w's gain, nothing more) and of the derivative rates.

Tolerances are pinned here and nowhere else.  Quantitative whole-space rates
run on the continuum radial path; torus runs are held to property and ratio
checks because lattice truncation makes absolute torus rates irreproducible.

Criterion 1 checks the closed-form upper bound that the symbol satisfies,
lambda_max(M) <= -min{mu|xi|^2, gamma|xi|^2 + chi, nu|xi|^2}, on the
eigenvalues and on the Rayleigh quotients.  It also pins the classical
four-way minimum's violation at its analytic value +1: that minimum is
provably not an upper bound for |lambda_max| (the magnetic sector decays at
nu |xi|^2 against the bound's 2 nu |xi|^2 entry, and the rotational coupling
lifts the mixed sectors above the (mu+chi)|xi|^2 entry whenever chi > 0);
see the package README for discussion.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from mmplab.analysis import fit_decay_exponent, predicted_exponents
from mmplab.decay_character import (SpectralProfile, estimate_decay_character,
                                    generate_data_with_character,
                                    min_rule_check)
from mmplab.fields import Grid, PhysParams
from mmplab.linear import radial_linear_decay
from mmplab.solver import SolverConfig, simulate
from mmplab.symbol import (assemble_entries_batch, assemble_symbol,
                           rayleigh_basis_check, sample_wavevectors,
                           semigroup_apply, verify_eigenvalue_bound)

CANONICAL = PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0)


def announce(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1
def young_bound(s, params):
    """B(xi) = min{mu s^2, gamma s^2 + chi, nu s^2} at radius s = |xi|."""
    s2 = np.asarray(s, dtype=float) ** 2
    return np.minimum.reduce([params.mu * s2, params.gamma * s2 + params.chi,
                              params.nu * s2])


def test_acceptance_1_symbol_bound():
    """lambda_max(M) <= -B(xi) and Rayleigh quotients likewise.

    For v = (u, w, b) the quadratic form is

        v* M v = -(mu+chi)|xi|^2 |u|^2 + 2 Re(u* i chi R3(xi) w)
                 - (gamma|xi|^2 + 2chi)|w|^2 - |xi . w|^2 - nu|xi|^2 |b|^2.

    The coupling is bounded by 2 chi |xi||u||w| since i R3(xi) has
    spectral radius |xi|, and Young's inequality gives
    2 chi |xi||u||w| <= chi |xi|^2 |u|^2 + chi |w|^2.  Dropping
    -|xi . w|^2 <= 0 leaves

        v* M v <= -B(xi) |v|^2,  B(xi) = min{mu|xi|^2, gamma|xi|^2 + chi,
                                            nu|xi|^2} >= min(mu, gamma, nu)|xi|^2,

    which bounds lambda_max and every Rayleigh quotient.  It is an equality
    on the magnetic sector at the canonical parameters.

    The classical four-way minimum is evaluated alongside and must fail by
    exactly +1: at the canonical parameters lambda_max = -|xi|^2 (the
    magnetic block), while for |xi| >= sqrt(2) the minimum is
    gamma|xi|^2 + 2chi = |xi|^2 + 1 and below that it is smaller.
    """
    t0 = time.perf_counter()
    xis = sample_wavevectors(10_000, 1e-3, 1e2, seed=0)
    report = verify_eigenvalue_bound(CANONICAL, xis)
    radii = np.linalg.norm(xis, axis=1)
    lam_max = np.linalg.eigvalsh(assemble_entries_batch(xis, CANONICAL))[:, -1]
    excess = float(np.max(lam_max + young_bound(radii, CANONICAL)))

    quotient_excess = -np.inf
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(200):
        xi = xis[rng.integers(0, len(xis))]
        rep = rayleigh_basis_check(xi, CANONICAL)
        quotient_excess = max(quotient_excess, max(rep["quotients"])
                              + float(young_bound(np.linalg.norm(xi), CANONICAL)))
    elapsed = time.perf_counter() - t0

    c_closed = min(CANONICAL.mu, CANONICAL.gamma, CANONICAL.nu)
    detail = (f"lambda_max + B excess {excess:+.3e}, Rayleigh-quotient "
              f"excess {quotient_excess:+.3e}, measured C = "
              f"{report['empirical_C_true']:.3f} against closed-form "
              f"{c_closed:.3f}, runtime {elapsed:.1f} s; four-way minimum "
              f"violated by {report['max_violation']:+.3e} at "
              f"|xi| = {report['worst_radius']:.3g}")
    ok = (excess <= 1e-10 and quotient_excess <= 1e-10
          and report["empirical_C_true"] >= c_closed - 1e-10
          and abs(report["max_violation"] - 1.0) <= 1e-9 and elapsed < 5.0)
    announce(1, "symbol eigenvalue bound", ok, detail)
    assert report["quadratic_decay_holds"], "quadratic decay must hold"
    assert elapsed < 5.0
    assert excess <= 1e-10, f"lambda_max exceeds -B(xi) by {excess:+.3e}"
    assert quotient_excess <= 1e-10, (
        f"a Rayleigh quotient exceeds -B(xi) by {quotient_excess:+.3e}")
    assert report["empirical_C_true"] >= c_closed - 1e-10
    assert not report["bound_holds"], "the four-way minimum is not a bound"
    assert abs(report["max_violation"] - 1.0) <= 1e-9, (
        f"four-way violation {report['max_violation']:+.3e}, analytic +1")


# ---------------------------------------------------------------- criterion 2
def test_acceptance_2_semigroup_oracle():
    """Eigendecomposition semigroup matches scaling-and-squaring expm."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2))
    xis = sample_wavevectors(1000, 1e-3, 1e2, seed=2)
    worst = 0.0
    for xi in xis:
        t = rng.uniform(0.0, 2.0)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        M = assemble_symbol(xi, CANONICAL)
        ref = sla.expm(t * M.entries) @ v
        got = semigroup_apply(M, t, v)
        scale = max(np.abs(ref).max(), 1e-300)
        worst = max(worst, np.abs(ref - got).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-11 and elapsed < 5.0
    announce(2, "semigroup vs expm oracle",
             ok, f"worst relative deviation {worst:.2e} over 1000 samples, "
                 f"runtime {elapsed:.1f} s")
    assert worst < 1e-11
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 3
def test_acceptance_3_decay_character():
    """Analytic r* recovery within 0.05; min rule on 20 triples within 0.1."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in (-1.0, -0.5, 0.0, 1.0, 2.0):
        est = estimate_decay_character(SpectralProfile.power_law(r))
        assert not est.boundary
        worst = max(worst, abs(est.r_star - r))

    rng = np.random.Generator(np.random.Philox(3))
    worst_rule = 0.0
    for _ in range(20):
        rs = rng.uniform(-1.4, 3.0, size=3)
        rep = min_rule_check(*(SpectralProfile.power_law(float(r)) for r in rs))
        worst_rule = max(worst_rule, rep["deviation"])
        assert rep["passed"]
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and worst_rule < 0.1 and elapsed < 10.0
    announce(3, "decay-character estimator", ok,
             f"max |r* error| {worst:.3e}, max min-rule deviation "
             f"{worst_rule:.3e}, runtime {elapsed:.1f} s")
    assert worst < 0.05
    assert worst_rule < 0.1
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 4
def test_acceptance_4_linear_rates():
    """Radial path: z rate -(3/2+r*) within 0.1, two-sided band, w rate."""
    t0 = time.perf_counter()
    times = np.geomspace(1e2, 1e4, 25)
    lines = []
    ok = True
    for r_star, rho_min in ((-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4)):
        profile = SpectralProfile.power_law(r_star)
        series = radial_linear_decay(profile, times, CANONICAL,
                                     rho_min=rho_min)
        ez, _ = fit_decay_exponent(series["l2_z_sq"], (1e2, 1e4))
        ew, _ = fit_decay_exponent(series["l2_w_sq"], (1e2, 1e4))
        predicted = -(1.5 + r_star)
        compensated = series["l2_z_sq"].values * (1.0 + times) ** (1.5 + r_star)
        band_lo, band_hi = compensated.min(), compensated.max()
        this_ok = (abs(ez - predicted) <= 0.1
                   and band_lo > 0 and band_hi / band_lo < 5.0
                   and ew <= -(2.5 + r_star) + 0.15)
        ok = ok and this_ok
        lines.append(f"r*={r_star:+.0f}: z {ez:+.3f} (want {predicted:+.1f}), "
                     f"w {ew:+.3f} (cap {-(2.5 + r_star) + 0.15:+.2f}), "
                     f"band ratio {band_hi / band_lo:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(4, "linear whole-space rates", ok,
             "; ".join(lines) + f"; runtime {elapsed:.1f} s")
    assert ok


# criterion 4's data and node ranges: (r*, rho_min)
RADIAL_CASES = ((-1.0, 1e-6), (0.0, 1e-4), (1.0, 1e-4))


@pytest.mark.parametrize("params", [
    *(PhysParams(chi=chi) for chi in (0.01, 0.1, 0.5, 2.0)),
    PhysParams(mu=0.05, gamma=0.05, chi=0.05), PhysParams(nu=0.1), PhysParams(gamma=10.0)],
    ids=["chi-0.01", "chi-0.1", "chi-0.5", "chi-2", "all-0.05", "nu-0.1", "gamma-10"])
def test_linear_rates_need_only_quadratic_decay(params):
    """The z and w rates within 0.1 on the radial path, whether or not
    32 chi (mu+chi+gamma) > 1 (false at chi = 0.01 and at all-0.05), from
    the onset t = 10 / chi of w's damping."""
    lo = max(1e2, 10.0 / params.chi)
    times = np.geomspace(lo, 100.0 * lo, 25)
    for r_star, rho_min in RADIAL_CASES:
        series = radial_linear_decay(SpectralProfile.power_law(r_star), times, params,
                                     rho_min=rho_min, check_convergence=True)
        predicted = predicted_exponents(r_star)
        for name, key in (("l2_z_sq", "z"), ("l2_w_sq", "w")):
            exponent, _ = fit_decay_exponent(series[name], (lo, 100.0 * lo))
            assert abs(exponent - predicted[key]) <= 0.1, (r_star, name, exponent)


def test_no_micro_rotation_gain_without_damping():
    """At chi = 0, w decays at z's rate: the w gain needs chi > 0."""
    times = np.geomspace(1e2, 1e4, 25)
    for r_star, rho_min in RADIAL_CASES:
        series = radial_linear_decay(SpectralProfile.power_law(r_star), times,
                                     PhysParams(chi=0.0), rho_min=rho_min,
                                     check_convergence=True)
        ez, _ = fit_decay_exponent(series["l2_z_sq"], (1e2, 1e4))
        ew, _ = fit_decay_exponent(series["l2_w_sq"], (1e2, 1e4))
        assert abs(ew - ez) <= 0.05, (r_star, ez, ew)


@pytest.mark.parametrize("r_star, rho_min", [(-1.0, 1e-6), (-0.5, 1e-4), (0.0, 1e-4),
                                             (1.0, 1e-4)])
def test_derivative_rates_radial(r_star, rho_min):
    """The paper's derivative rates on the radial path within 0.05:
    ||grad z||^2, ||grad w||^2 and ||D^2 z||^2 on [1e2, 1e4]."""
    times = np.geomspace(1e2, 1e4, 25)
    series = radial_linear_decay(SpectralProfile.power_law(r_star), times, CANONICAL,
                                 rho_min=rho_min, check_convergence=True)
    predicted = predicted_exponents(r_star)
    for name, key in (("h1_z_sq", "grad_z"), ("h1_w_sq", "grad_w"), ("h2_z_sq", "d2_z")):
        exponent, _ = fit_decay_exponent(series[name], (1e2, 1e4))
        assert abs(exponent - predicted[key]) <= 0.05, (name, exponent, predicted[key])


# ---------------------------------------------------------------- criterion 5
@pytest.fixture(scope="module")
def standard_box_run():
    grid = Grid(32, 2 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=10, amplitude=1e-2)
    cfg = SolverConfig(grid=grid, params=CANONICAL, dt=0.05, t_end=10.0,
                       output_every=20)
    t0 = time.perf_counter()
    traj = simulate(cfg, z0, record_tensor=True)
    return grid, z0, traj, time.perf_counter() - t0


def test_acceptance_5_nonlinear_properties(standard_box_run):
    """Monotone energy, divergence drift, tensor bound, dealias oracle,
    Richardson order 2 for the exponential two-stage scheme."""
    grid, z0, traj, run_time = standard_box_run
    t0 = time.perf_counter()

    energy = traj.column("l2_z_sq")
    monotone = bool(np.all(np.diff(energy) < 0))
    divergence = traj.diagnostics["max_divergence"]
    tensor_const = traj.diagnostics["max_tensor_constant"]

    # dealiased nonlinearity versus the direct convolution sum at n = 8
    from conftest import padded_rhs
    from test_solver import advance_block, convolution_oracle
    grid8 = Grid(8, 2 * np.pi)
    state8 = generate_data_with_character(grid8, 0.0, seed=2, amplitude=1.0)
    N, _ = padded_rhs(grid8, state8.z)
    Nu, Nw, Nb = N[0:3], N[3:6], N[6:9]
    oNu, oNw, oNb = convolution_oracle(state8)
    scale = max(np.abs(oNu).max(), np.abs(oNw).max(), np.abs(oNb).max())
    conv_err = max(np.abs(Nu - oNu).max(), np.abs(Nw - oNw).max(),
                   np.abs(Nb - oNb).max()) / scale

    # Richardson order on a moderate-amplitude smooth run
    z16 = generate_data_with_character(Grid(16, 2 * np.pi), 0.0, seed=4, amplitude=0.5)
    z1, z2, z3 = (advance_block(z16, CANONICAL, "etd-rk2", dt, 0.8)
                  for dt in (0.1, 0.05, 0.025))
    d1 = np.abs(z1 - z2).max()
    d2 = np.abs(z2 - z3).max()
    order = float(np.log2(d1 / d2))

    elapsed = run_time + time.perf_counter() - t0
    ok = (monotone and divergence < 1e-10 and tensor_const <= 1.0 + 1e-10
          and conv_err < 1e-12 and 1.5 <= order <= 2.5 and elapsed < 300.0)
    announce(5, "nonlinear solver properties", ok,
             f"monotone={monotone}, divergence {divergence:.2e}, tensor "
             f"constant {tensor_const:.3f}, convolution oracle {conv_err:.2e}, "
             f"Richardson order {order:.2f}, runtime {elapsed:.1f} s")
    assert monotone
    assert divergence < 1e-10
    assert tensor_const <= 1.0 + 1e-10
    assert conv_err < 1e-12
    assert 1.5 <= order <= 2.5
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 6
def test_acceptance_6_damping_gain():
    """Micro-rotation decays one power of (1+t) faster than the state."""
    t0 = time.perf_counter()
    grid = Grid(32, 64 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=10, amplitude=1e-2)
    cfg = SolverConfig(grid=grid, params=CANONICAL, dt=1.0, t_end=600.0,
                       output_every=4)
    traj = simulate(cfg, z0)
    window = (50.0, 400.0)
    ez, _ = fit_decay_exponent(traj.series("l2_z_sq"), window)
    ew, _ = fit_decay_exponent(traj.series("l2_w_sq"), window)
    gap = ew - ez

    t = np.array(traj.times)
    ratio = traj.column("l2_w_sq") / traj.column("l2_z_sq")
    in_window = (t >= window[0]) & (t <= window[1])
    ratio_monotone = bool(np.all(np.diff(ratio[in_window]) < 0))
    elapsed = time.perf_counter() - t0
    ok = abs(gap + 1.0) <= 0.3 and ratio_monotone and elapsed < 300.0
    announce(6, "damping gain (torus ratio checks)", ok,
             f"w-z exponent gap {gap:+.3f} (target -1.0 +- 0.3), w/z ratio "
             f"monotone={ratio_monotone} on {window}, runtime {elapsed:.0f} s")
    assert abs(gap + 1.0) <= 0.3
    assert ratio_monotone
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 7
def test_acceptance_7_first_order_asymptotics():
    """Difference from the linear flow scales quadratically in amplitude and
    the micro-rotation difference decays faster."""
    t0 = time.perf_counter()
    grid = Grid(32, 64 * np.pi)

    def paired(amplitude):
        z0 = generate_data_with_character(grid, 0.0, seed=10,
                                          amplitude=amplitude)
        cfg = SolverConfig(grid=grid, params=CANONICAL, dt=0.25, t_end=40.0,
                           output_every=8)
        return simulate(cfg, z0, pair_linear=True)

    run_a = paired(1e-2)
    run_b = paired(5e-3)
    t = np.array(run_a.times)
    diff_a = run_a.column("l2_diff_z_sq")
    diff_b = run_b.column("l2_diff_z_sq")
    ratios = np.sqrt(diff_a[1:] / diff_b[1:])
    ratio_ok = bool(np.all(np.abs(ratios - 4.0) <= 0.8))

    sel = t >= 6.0
    wz = run_a.column("l2_diff_w_sq")[sel] / run_a.column("l2_diff_z_sq")[sel]
    decreasing = bool(np.all(np.diff(wz) < 0))
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and decreasing and elapsed < 300.0
    announce(7, "first-order asymptotics", ok,
             f"difference-norm ratio {ratios.min():.3f}..{ratios.max():.3f} "
             f"(target 4 +- 0.8), diff_w/diff_z decreasing={decreasing} for "
             f"t >= 6, runtime {elapsed:.0f} s")
    assert ratio_ok
    assert decreasing
    assert elapsed < 300.0


# ---------------------------------------------------------------- criterion 8
def test_acceptance_8_reproducibility(tmp_path):
    """Identical config + seed gives byte-identical CSV at 1 and 4 threads."""
    import subprocess
    import sys

    from conftest import subprocess_env

    t0 = time.perf_counter()
    config_text = """
[grid]
n = 16
length = 6.283185307179586
[init]
kind = power
r_star = 0.0
seed = 11
amplitude = 0.01
[time]
dt = 0.1
t_end = 1.0
output_every = 2
"""
    cfg_path = tmp_path / "repro.ini"
    cfg_path.write_text(config_text)
    blobs = {}
    for threads in ("1", "4"):
        out_dir = tmp_path / f"run_t{threads}"
        env = subprocess_env(MMP_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mmplab.cli", "simulate",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs[threads] = (out_dir / "series.csv").read_bytes()
    identical = blobs["1"] == blobs["4"]
    elapsed = time.perf_counter() - t0
    announce(8, "byte reproducibility across worker counts", identical,
             f"CSV bytes identical={identical}, runtime {elapsed:.1f} s")
    assert identical
