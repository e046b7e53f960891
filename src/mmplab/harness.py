"""Run orchestration: configs, manifests, CSV persistence, paired runs.

A run is described by a flat INI config (section.key = value) and executes
into a run directory containing the config copy, a manifest and the norm
series CSV; a report reads only the CSVs that the manifest lists.  A run
makes one Grid and draws its datum on it.  Identical config + seed produce
byte-identical CSV artifacts for any worker-thread count; the manifest
carries timestamps and is excluded from that guarantee.
"""

from __future__ import annotations

import configparser
import datetime as _dt
import hashlib
import json
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import NormSeries, check_fit_window, theorem_report
from .decay_character import generate_data_with_character
from .fields import Grid, PhysParams, StateField, param_defaults
from .snapshots import write_snapshot
from .solver import (BlowupError, SolverConfig, Trajectory, energy_balance_check,
                     simulate)

CSV_COLUMNS = ("t", "l2_z_sq", "l2_u_sq", "l2_w_sq", "l2_b_sq", "h1_z_sq",
               "h1_w_sq", "h2_z_sq", "ball_integral", "l2_diff_z_sq",
               "l2_diff_w_sq")

LINEAR_CSV_COLUMNS = CSV_COLUMNS[:8]  # t and the seven norms of norms_at

_DEFAULTS = {
    ("grid", "n"): "32",
    ("grid", "length"): str(2.0 * np.pi),
    **{("params", name): str(value) for name, value in param_defaults().items()},
    ("init", "kind"): "power",
    ("init", "r_star"): "0.0",
    ("init", "seed"): "1",
    ("init", "amplitude"): "0.01",
    ("time", "dt"): "0.05",
    ("time", "t_end"): "1.0",
    ("time", "output_every"): "1",
    ("time", "scheme"): "etd-rk2",
    ("output", "dir"): "run",
    ("output", "save_snapshots"): "false",
    ("analysis", "ball_a"): "1.0",
    ("analysis", "fit_t_lo"): "",
    ("analysis", "fit_t_hi"): "",
}


def format_float(x: float) -> str:
    """Locale-independent rendering with 17 significant digits."""
    return f"{x:.17g}"


@dataclass
class RunConfig:
    """Parsed flat config; `raw` keeps every section.key = value string."""

    raw: dict[tuple[str, str], str]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Parse literal INI values; bad text or an unknown key is a ValueError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"malformed config: {exc}") from exc
        raw = dict(_DEFAULTS)
        for section in parser.sections():
            for key, value in parser.items(section):
                name = (section.lower(), key.lower())
                if name not in _DEFAULTS:
                    raise ValueError(f"unknown config key {name[0]}.{name[1]}")
                raw[name] = value.strip()
        return cls(raw=raw)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())

    def get(self, section: str, key: str) -> str:
        return self.raw[(section, key)]

    def getfloat(self, section, key):
        return float(self.get(section, key))

    def getint(self, section, key):
        return int(self.get(section, key))

    def getbool(self, section, key):
        value = self.get(section, key)
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
        except KeyError:
            raise ValueError(f"{section}.{key} = {value!r} is not a boolean") from None

    def config_hash(self) -> str:
        """sha256 of one sec.key=value line per key, in sorted order."""
        text = "".join(f"{sec}.{key}={val}\n" for (sec, key), val in sorted(self.raw.items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def grid(self) -> Grid:
        return Grid(n=self.getint("grid", "n"), length=self.getfloat("grid", "length"))

    def params(self) -> PhysParams:
        return PhysParams(**{name: self.getfloat("params", name) for name in param_defaults()})

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(), params=self.params(),
            dt=self.getfloat("time", "dt"),
            t_end=self.getfloat("time", "t_end"),
            output_every=self.getint("time", "output_every"),
            scheme=self.get("time", "scheme"),
            ball_A=self.getfloat("analysis", "ball_a"),
        )

    def initial_state(self, grid: Grid) -> StateField:
        """The datum, drawn on grid: the one the run advances."""
        kind = self.get("init", "kind")
        if kind == "zero":
            return StateField.zero(grid)
        if kind == "power":
            return generate_data_with_character(
                grid, r=self.getfloat("init", "r_star"),
                seed=self.getint("init", "seed"),
                amplitude=self.getfloat("init", "amplitude"))
        raise ValueError(f"unknown init kind {kind!r}")

    def fit_window(self, t_end: float) -> tuple[float, float]:
        """Fit window; defaults to the last two decades of the run."""
        lo_s = self.get("analysis", "fit_t_lo")
        hi_s = self.get("analysis", "fit_t_hi")
        hi = float(hi_s) if hi_s else t_end
        lo = float(lo_s) if lo_s else max(hi / 100.0, 0.0)
        return lo, hi


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    code_version: str
    started: str
    finished: str = ""
    artifacts: dict = dc_field(default_factory=dict)
    summary: dict = dc_field(default_factory=dict)

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def csv_text(names, rows) -> str:
    """CSV text: a header of names, then one line per row of values, each
    rendered by :func:`format_float`; None leaves the cell empty."""
    lines = [",".join(names)]
    lines.extend(",".join("" if v is None else format_float(float(v)) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def write_series_csv(path, traj: Trajectory, columns=CSV_COLUMNS) -> None:
    rows = ([row.get(col) for col in columns] for row in traj.norm_rows)
    Path(path).write_text(csv_text(columns, rows))


def read_series_csv(path) -> dict[str, np.ndarray]:
    """Columns of a :func:`csv_text` CSV by header name, empty cells NaN.
    An empty file, a header without a t column or with a name twice, or a
    row of another length than the header, is a ValueError."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV, no header")
    names = lines[0].split(",")
    if "t" not in names or len(set(names)) < len(names):
        raise ValueError(f"{path}: header {lines[0]!r} needs a t column and no name twice")
    cols: dict[str, list] = {name: [] for name in names}
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, not {len(names)}")
        for name, cell in zip(names, cells):
            cols[name].append(float(cell) if cell else np.nan)
    return {name: np.array(vals) for name, vals in cols.items()}


def execute_run(config: RunConfig, out_dir, pair_linear: bool = False,
                record_tensor: bool = False) -> tuple[Path, Trajectory]:
    """Run a simulation into a run directory; returns (dir, trajectory).

    A run that blows up writes the same files up to its last output, then
    raises the BlowupError."""
    manifest = RunManifest(config_hash=config.config_hash(),
                           seed=config.getint("init", "seed"),
                           code_version=__version__, started=_now())
    # read every config value before writing, so a bad one leaves no run dir
    solver_cfg = config.solver_config()
    z0 = config.initial_state(solver_cfg.grid)
    save_snaps = config.getbool("output", "save_snapshots")
    if save_snaps:
        # one file per time simulate records, k dt output_every; rounding
        # keeps the names in order, so a clash is between neighbours
        output_dt = solver_cfg.dt * solver_cfg.output_every
        names = [f"state_{k * output_dt:012.5f}.snap"
                 for k in range(round(solver_cfg.t_end / output_dt) + 1)]
        if clash := next((a for a, b in zip(names, names[1:]) if a == b), None):
            raise ValueError(f"outputs {output_dt!r} apart give two snapshots the name "
                             f"{clash}; save_snapshots needs outputs at least 1e-5 apart")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(_to_ini(config))
    error = None
    try:
        traj = simulate(solver_cfg, z0, pair_linear=pair_linear,
                        record_tensor=record_tensor, save_snapshots=save_snaps)
    except BlowupError as exc:
        # a failed run writes everything it recorded, below, then propagates
        traj, error = exc.trajectory, exc

    write_series_csv(out / "series.csv", traj)
    manifest.artifacts["series"] = "series.csv"
    manifest.artifacts["config"] = "config.ini"
    if pair_linear:
        write_series_csv(out / "extra_series.csv", traj, ("t", "h1_diff_z_sq"))
        manifest.artifacts["extra_series"] = "extra_series.csv"
    manifest.summary = {
        "paired_linear": pair_linear,
        "monotone_energy": energy_balance_check(traj)["monotone"],
        "max_divergence": traj.diagnostics["max_divergence"],
        "cfl_halvings": traj.diagnostics["cfl_halvings"],
        "r_star": config.getfloat("init", "r_star")
        if config.get("init", "kind") == "power" else None,
        "t_end": float(traj.times[-1]) if traj.times else 0.0,
    }
    if error is not None:
        manifest.summary.update(error=str(error), blowup_t=error.t)
    if save_snaps:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        try:
            for name, snap in zip(names, traj.snapshots):
                write_snapshot(snap_dir / name, snap)
            manifest.artifacts["snapshots"] = "snapshots/"
        except OSError as exc:
            # norm series and manifest still land; the failure is surfaced
            warnings.warn(f"snapshot write failed: {exc}", stacklevel=2)
            manifest.summary["snapshot_error"] = str(exc)

    manifest.finished = _now()
    manifest.write(out / "manifest.json")
    if error is not None:
        raise error
    return out, traj


def _to_ini(config: RunConfig) -> str:
    sections: dict[str, list[tuple[str, str]]] = {}
    for (sec, key), val in sorted(config.raw.items()):
        sections.setdefault(sec, []).append((key, val))
    chunks = []
    for sec, items in sections.items():
        chunks.append(f"[{sec}]")
        chunks.extend(f"{key} = {val}" for key, val in items)
        chunks.append("")
    return "\n".join(chunks)


def report_from_run(run_dir, r_star: float | None = None,
                    window: tuple[float, float] | None = None) -> dict:
    """Offline theorem report from a run directory's artifacts: every
    column of the CSVs its manifest lists (series, and extra_series when
    the run was paired) that is not all NaN."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    config = RunConfig.from_file(run_dir / "config.ini")
    if r_star is None:
        r_star = manifest.get("summary", {}).get("r_star")
    if r_star is None:
        raise ValueError("r_star unknown: pass it explicitly for this run")

    # only the CSVs this run wrote: an unpaired run into a paired run's
    # directory leaves that run's extra_series.csv there, unlisted
    paths = [run_dir / manifest["artifacts"][key] for key in ("series", "extra_series")
             if key in manifest["artifacts"]]
    tables = [read_series_csv(path) for path in paths]
    t = tables[0]["t"]
    if not t.size:
        raise ValueError(f"{paths[0]}: header but no rows")
    if window is None:
        window = config.fit_window(float(t[-1]))
    check_fit_window(window)

    series_map = {name: NormSeries(name=name, times=table["t"], values=vals)
                  for table in tables for name, vals in table.items()
                  if name != "t" and not np.all(np.isnan(vals))}
    report = theorem_report(series_map, float(r_star), window, quantitative=False)
    report["run_dir"] = str(run_dir)
    report["config_hash"] = manifest["config_hash"]
    if config.getfloat("params", "chi") == 0:
        # the z rates need only min(mu, gamma, nu) > 0, which PhysParams
        # enforces; w's faster rate needs the damping 2 chi w, and every
        # gap row compares a w series: keep the numbers, drop the claims
        for row in report["gap_rows"]:
            row["pass"] = None
        report["overall_pass"] = None
        report["note"] = ("chi = 0: no micro-rotational damping, so w decays no faster "
                          "than z and the gap rows carry no claim")
    return report
