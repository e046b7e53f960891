"""Command-line entry point.

Subcommands: symbol-check, decay-char, linear-decay, simulate,
compare-linear, fit-rate, report, selftest.  Exit code 0 on success, 1 on
check failures (with JSON detail on stdout) and when the reader of stdout
closes it early, 2 on usage errors.  ``python -m mmplab`` runs the same
command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fields import PhysParams, param_defaults
from .grid import worker_count


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    """--mu, --gamma, --chi and --nu, defaulting to PhysParams'."""
    for name, value in param_defaults().items():
        p.add_argument(f"--{name}", type=float, default=value)


def _params(args) -> PhysParams:
    return PhysParams(**{name: getattr(args, name) for name in param_defaults()})


def cmd_symbol_check(args) -> int:
    from .symbol import (BoundInvalidError, sample_wavevectors,
                         verify_eigenvalue_bound)
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    params = _params(args)
    try:
        xis = sample_wavevectors(args.samples, args.radius_lo, args.radius_hi,
                                 seed=args.seed)
        report = verify_eigenvalue_bound(params, xis)
    except BoundInvalidError as exc:
        _print_json({"error": str(exc), "bound_valid": False})
        return 1
    report["params"] = dataclasses.asdict(params)
    _print_json(report)
    return 0 if report["bound_holds"] else 1


def cmd_decay_char(args) -> int:
    from .decay_character import ShellProfile, SpectralProfile, estimate_decay_character
    if args.field:
        from .snapshots import read_snapshot
        state = read_snapshot(args.field)
        profile = ShellProfile.from_state(state, component=args.component)
    else:
        profile = SpectralProfile.power_law(args.r, cutoff_radius=args.cutoff_radius,
                                            cutoff=args.cutoff)
    window = tuple(args.window) if args.window else None
    est = estimate_decay_character(profile, window)
    _print_json({
        "r_star": est.r_star,
        "slope": est.slope,
        "residual": est.fit_residual,
        "window": list(est.rho_window),
        "boundary": est.boundary,
        "kind": est.kind,
    })
    return 0 if not est.boundary else 1


def cmd_linear_decay(args) -> int:
    from .decay_character import SpectralProfile
    from .harness import LINEAR_CSV_COLUMNS, csv_text
    from .linear import radial_linear_decay
    params = _params(args)
    profile = SpectralProfile.power_law(args.r_star, cutoff_radius=args.cutoff_radius,
                                        cutoff=args.cutoff)
    if not 0 < args.t_lo <= args.t_hi < np.inf:
        raise ValueError(f"times must be finite and nonnegative, and geometric spacing "
                         f"needs 0 < t_lo <= t_hi; got t_lo={args.t_lo}, t_hi={args.t_hi}")
    if args.n_times < 1:
        raise ValueError(f"n_times must be at least 1, got {args.n_times}")
    times = np.geomspace(args.t_lo, args.t_hi, args.n_times)
    series = radial_linear_decay(profile, times, params,
                                 per_decade=args.per_decade,
                                 check_convergence=args.check_convergence)
    text = csv_text(LINEAR_CSV_COLUMNS, zip(
        times, *(series[name].values for name in LINEAR_CSV_COLUMNS[1:])))
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    from .harness import RunConfig, execute_run
    from .solver import BlowupError
    config = RunConfig.from_file(args.config)
    out = Path(args.out if args.out is not None else config.get("output", "dir"))
    try:
        _, traj = execute_run(config, out_dir=out, pair_linear=args.pair_linear,
                              record_tensor=args.record_tensor)
        failure = {}
    except BlowupError as err:
        # execute_run has written the run directory up to the last output
        traj, failure = err.trajectory, {"error": str(err), "blowup_t": err.t}
    _print_json({"run_dir": str(out), "outputs": len(traj.times),
                 "diagnostics": traj.diagnostics, **failure})
    return 1 if failure else 0


def cmd_fit_rate(args) -> int:
    from .analysis import NormSeries, fit_decay_exponent
    from .harness import read_series_csv
    cols = read_series_csv(args.csv)
    if args.column not in cols:
        print(f"error: column {args.column!r} not in {sorted(cols)}", file=sys.stderr)
        return 2
    t = cols["t"]
    vals = cols[args.column]
    keep = ~np.isnan(vals)
    try:
        series = NormSeries(args.column, t[keep], vals[keep])
        exponent, residual = fit_decay_exponent(series, tuple(args.window))
    except ValueError as exc:
        _print_json({"error": str(exc)})
        return 1
    _print_json({"column": args.column, "window": list(args.window),
                 "exponent": exponent, "residual": residual})
    return 0


def cmd_report(args) -> int:
    from .harness import report_from_run
    window = tuple(args.window) if args.window else None
    report = report_from_run(args.run, r_star=args.r_star, window=window)
    out_path = Path(args.run) / "report.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _print_json(report)
    return 0 if report["overall_pass"] in (True, None) else 1


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmplab",
        description="Spectral decay laboratory for the 3D magneto-micropolar system")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol-check",
                       help="verify eigenvalue bounds of the symbol matrix")
    _add_param_flags(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius-lo", type=float, default=1e-3)
    p.add_argument("--radius-hi", type=float, default=1e2)
    p.set_defaults(func=cmd_symbol_check)

    p = sub.add_parser("decay-char", help="estimate the decay character")
    p.add_argument("--kind", choices=["power"], default="power")
    p.add_argument("--r", type=float, default=0.0,
                   help="power-law exponent of |v0hat|^2 = rho^{2r}")
    p.add_argument("--cutoff-radius", type=float, default=1.0)
    p.add_argument("--cutoff", choices=["hard", "gauss"], default="hard")
    p.add_argument("--field", type=str, default=None,
                   help="snapshot file to analyze instead of an analytic profile")
    p.add_argument("--component", choices=["z", "u", "w", "b"], default="z")
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.set_defaults(func=cmd_decay_char)

    p = sub.add_parser("linear-decay",
                       help="continuum radial linear decay norms as CSV")
    p.add_argument("--r-star", type=float, required=True)
    _add_param_flags(p)
    p.add_argument("--cutoff-radius", type=float, default=1.0)
    p.add_argument("--cutoff", choices=["hard", "gauss"], default="hard")
    p.add_argument("--t-lo", type=float, default=1e2)
    p.add_argument("--t-hi", type=float, default=1e4)
    p.add_argument("--n-times", type=int, default=25)
    p.add_argument("--per-decade", type=int, default=64)
    p.add_argument("--check-convergence", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_linear_decay)

    p = sub.add_parser("simulate", help="nonlinear pseudo-spectral run")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--record-tensor", action="store_true",
                   help="audit the modewise nonlinear Fourier bound at outputs")
    p.set_defaults(func=cmd_run, pair_linear=False)

    p = sub.add_parser("compare-linear",
                       help="paired nonlinear/linear run with difference norms")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_run, pair_linear=True, record_tensor=False)

    p = sub.add_parser("fit-rate", help="fit a decay exponent from a CSV column")
    p.add_argument("--csv", type=str, required=True)
    p.add_argument("--column", type=str, required=True)
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("T_LO", "T_HI"))
    p.set_defaults(func=cmd_fit_rate)

    p = sub.add_parser("report", help="theorem report from a run directory")
    p.add_argument("--run", type=str, required=True)
    p.add_argument("--r-star", type=float, default=None)
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="fast invariant suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # a malformed MMP_THREADS fails here, before any work
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (say `mmplab selftest | head -4`); point
        # it at the null device, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        # a path that is missing, a directory where a file is read, or a
        # file where a run directory goes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a QuadratureError is a check failure; its module, which the
        # commands import only when they need it, is loaded once one is raised
        from .decay_character import QuadratureError
        if not isinstance(exc, QuadratureError):
            raise
        _print_json({"error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
