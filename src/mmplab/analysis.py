"""Decay-exponent fitting, Fourier-splitting diagnostics and rate reports.

All exponents are fitted against log(1+t), matching how the decay
statements are phrased in powers of (1+t).  Absolute exponents measured on
torus runs are biased by truncation (the lattice eventually forces
exponential decay), so reports mark torus rows as indicative and promote
exponent differences between paired series, where the bias largely
cancels, to binding checks.  Radial continuum runs carry quantitative rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import spectrum_norm_sq
from .grid import Grid, Modes

DEFAULT_TOL_RADIAL = 0.1
DEFAULT_TOL_TORUS_DIFF = 0.3


@dataclass(frozen=True)
class NormSeries:
    """A named time series of a squared norm."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape:
            raise ValueError("times and values must have matching shapes")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def check_fit_window(window: tuple[float, float]) -> None:
    """Raise ValueError unless 0 <= lo < hi < inf for window = (lo, hi)."""
    lo, hi = window
    if not 0 <= lo < hi < np.inf:
        raise ValueError(f"fit window [{lo:g}, {hi:g}] must satisfy 0 <= lo < hi < inf")


def fit_decay_exponent(series: NormSeries,
                       window: tuple[float, float]) -> tuple[float, float]:
    """OLS slope of log(values) against log(1+t) inside the window, which
    must satisfy check_fit_window and hold at least 10 samples, all finite
    and positive.  The series' times are strictly increasing (NormSeries
    checks them).

    Returns (exponent, residual) where residual is the largest absolute
    log deviation from the fitted line.
    """
    check_fit_window(window)
    times, values = series.times, series.values
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 10:
        raise ValueError(
            f"need at least 10 samples in window [{lo:g}, {hi:g}], "
            f"got {int(mask.sum())}")
    vals = values[mask]
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise ValueError("series values must be finite and positive inside the fit window")
    x = np.log1p(times[mask])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.abs(y - (slope * x + intercept)).max())
    return float(slope), residual


def fourier_split_radius(t: float, A: float) -> float:
    """Splitting-ball radius g(t) with g^2(t) = A / (1 + t)."""
    if A <= 0:
        raise ValueError("A must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(np.sqrt(A / (1.0 + t)))


def fourier_split_integral(grid: Grid, z: np.ndarray, t: float, A: float,
                           modes: Modes | None = None) -> float:
    """Spectral energy of a (9, ...) state z of grid inside the shrinking
    ball |xi| <= sqrt(A/(1+t)), on modes, by default grid.half_modes(): z
    is half spectra, or with modes Grid.retained a retained block.

    On the lattice this is the partial sum of mode energies, normalized so
    that a ball containing every resolved mode returns the full squared
    norm.  A ball smaller than the fundamental mode captures no dynamics;
    the function warns and returns 0.
    """
    g = fourier_split_radius(t, A)
    if g < grid.fundamental:
        warnings.warn(
            f"splitting ball radius {g:.3e} below fundamental mode "
            f"{grid.fundamental:.3e}; returning 0", stacklevel=2)
        return 0.0
    modes = grid.half_modes() if modes is None else modes
    inside = modes.xi_mag <= g
    return spectrum_norm_sq(grid, z[0:3], z[3:6], z[6:9], weight=inside.astype(float),
                            modes=modes)


def predicted_exponents(r_star: float) -> dict[str, float]:
    """Sharp decay exponents of the squared norms for decay character r*.

    Keys: z, w, diff_z, diff_w, grad_z, grad_w, d2_z, grad_diff.  Each value
    is the exponent of (1+t); the lower bound matching the z rate is only
    available for r* <= 1.
    """
    return {
        "z": -min(1.5 + r_star, 2.5),
        "w": -min(2.5 + r_star, 3.5),
        "diff_z": -min(3.5 + 2.0 * r_star, 2.5),
        "diff_w": -min(4.5 + 2.0 * r_star, 3.5),
        "grad_z": -min(2.5 + r_star, 3.5),
        "grad_w": -min(3.5 + r_star, 4.5),
        "d2_z": -min(3.5 + r_star, 4.5),
        "grad_diff": -min(2.25 + 2.0 * r_star, 1.75),
    }


_SERIES_TO_PREDICTION = {
    "l2_z_sq": "z",
    "l2_w_sq": "w",
    "l2_diff_z_sq": "diff_z",
    "l2_diff_w_sq": "diff_w",
    "h1_z_sq": "grad_z",
    "h1_w_sq": "grad_w",
    "h2_z_sq": "d2_z",
    "h1_diff_z_sq": "grad_diff",
}


def theorem_report(series_map: dict[str, NormSeries], r_star: float,
                   window: tuple[float, float], quantitative: bool = False) -> dict:
    """Tabulate measured versus predicted exponents.

    quantitative=True marks rows as binding at the radial tolerance;
    otherwise rows are windowed/indicative and the binding checks are the
    exponent gaps between paired series (w vs z, diff_w vs diff_z), which
    cancel most truncation bias.
    """
    predicted = predicted_exponents(r_star)
    mode = "quantitative" if quantitative else "windowed/indicative"
    tol = DEFAULT_TOL_RADIAL if quantitative else DEFAULT_TOL_TORUS_DIFF

    rows = []
    fitted: dict[str, float] = {}
    for name, series in series_map.items():
        key = _SERIES_TO_PREDICTION.get(name)
        if key is None:
            continue
        try:
            exponent, residual = fit_decay_exponent(series, window)
        except ValueError as exc:
            rows.append({"series": name, "prediction": key, "error": str(exc)})
            continue
        fitted[name] = exponent
        row = {
            "series": name,
            "prediction": key,
            "measured_exponent": exponent,
            "predicted_exponent": predicted[key],
            "residual": residual,
            "mode": mode,
            "tolerance": tol,
        }
        row["pass"] = bool(abs(exponent - predicted[key]) <= tol) if quantitative else None
        rows.append(row)

    gap_rows = []
    for a, b, label in (("l2_w_sq", "l2_z_sq", "w_minus_z"),
                        ("l2_diff_w_sq", "l2_diff_z_sq", "diff_w_minus_diff_z")):
        if a in fitted and b in fitted:
            key_a, key_b = _SERIES_TO_PREDICTION[a], _SERIES_TO_PREDICTION[b]
            measured_gap = fitted[a] - fitted[b]
            predicted_gap = predicted[key_a] - predicted[key_b]
            gap_rows.append({
                "gap": label,
                "measured": measured_gap,
                "predicted": predicted_gap,
                "tolerance": DEFAULT_TOL_TORUS_DIFF,
                "binding": not quantitative,
                "pass": bool(abs(measured_gap - predicted_gap) <= DEFAULT_TOL_TORUS_DIFF),
            })

    checked = [r["pass"] for r in rows + gap_rows if r.get("pass") is not None]
    return {
        "r_star": r_star,
        "window": [float(window[0]), float(window[1])],
        "mode": mode,
        "z_lower_bound_range": -1.5 < r_star <= 1.0,
        "rows": rows,
        "gap_rows": gap_rows,
        "overall_pass": bool(all(checked)) if checked else None,
    }
