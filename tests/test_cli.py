"""CLI, config, manifests, snapshots, and byte-reproducibility."""

import dataclasses
import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from mmplab.cli import build_parser, main
from mmplab.fields import Grid, PhysParams, StateField
from mmplab.decay_character import generate_data_with_character
from mmplab.harness import (CSV_COLUMNS, RunConfig, _to_ini, execute_run,
                            format_float, read_series_csv, report_from_run)
from mmplab.snapshots import (SnapshotFormatError, read_snapshot,
                              write_snapshot, MAGIC)

from conftest import full_band_half, full_spectrum_oracle, subprocess_env

CONFIG_TEXT = """
[grid]
n = 16
length = 6.283185307179586

[params]
mu = 1.0
gamma = 1.0
chi = 0.5
nu = 1.0

[init]
kind = power
r_star = 0.0
seed = 3
amplitude = 0.01

[time]
dt = 0.1
t_end = 1.0
output_every = 2

[output]
dir = run
save_snapshots = false
"""


class TestCliBasics:
    def test_no_arguments_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["symbol-check", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", [None, np.inf])
    def test_fit_rate(self, tmp_path, capsys, bad):
        t = np.geomspace(1.0, 1e3, 40)
        vals = (1 + t) ** -1.5
        if bad is not None:
            vals[20] = bad
        lines = ["t,l2_z_sq"] + [f"{format_float(a)},{format_float(b)}"
                                 for a, b in zip(t, vals)]
        csv = tmp_path / "series.csv"
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["fit-rate", "--csv", str(csv), "--column", "l2_z_sq",
                   "--window", "1", "1000"])
        out = json.loads(capsys.readouterr().out)
        if bad is None:
            assert rc == 0
            assert out["exponent"] == pytest.approx(-1.5, abs=1e-9)
        else:
            assert rc == 1
            assert out == {"error": "series values must be finite and positive "
                                    "inside the fit window"}

    @pytest.mark.parametrize("window, shown", [(["4", "1"], "[4, 1]"),
                                               (["nan", "4"], "[nan, 4]")],
                             ids=["reversed", "nan"])
    def test_fit_rate_rejects_a_bad_window(self, tmp_path, capsys, window, shown):
        t = np.geomspace(1.0, 1e3, 40)
        lines = ["t,l2_z_sq"] + [f"{format_float(a)},{format_float((1 + a) ** -1.5)}"
                                 for a in t]
        csv = tmp_path / "series.csv"
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["fit-rate", "--csv", str(csv), "--column", "l2_z_sq",
                   "--window", *window])
        assert rc == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": f"fit window {shown} must satisfy 0 <= lo < hi < inf"}

    @pytest.mark.parametrize("argv, error", [
        (["simulate", "--config", "{dir}"], "Is a directory"),
        (["decay-char", "--field", "{dir}"], "Is a directory"),
        (["fit-rate", "--csv", "{dir}", "--column", "a", "--window", "0", "1"],
         "Is a directory"),
        (["simulate", "--config", "{config}", "--out", "{file}"], "File exists"),
        (["compare-linear", "--config", "{config}", "--out", "{file}/run"],
         "Not a directory")],
        ids=["config-dir", "field-dir", "csv-dir", "out-file", "out-under-file"])
    def test_path_errors_print_one_error_line(self, tmp_path, capsys, argv, error):
        config = tmp_path / "run.ini"
        config.write_text(CONFIG_TEXT)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        paths = {"config": config, "file": tmp_path / "file", "dir": tmp_path / "dir"}
        rc = main([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and error in lines[0]

    def test_fit_rate_rejects_unordered_times(self, tmp_path, capsys):
        t = [3.0, 1.0, 2.0] + [float(k) for k in range(4, 13)]
        lines = ["t,l2_z_sq"] + [f"{format_float(a)},{format_float((1 + a) ** -1.5)}"
                                 for a in t]
        csv = tmp_path / "series.csv"
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["fit-rate", "--csv", str(csv), "--column", "l2_z_sq",
                   "--window", "0", "20"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "times must be strictly increasing"}

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV, no header"),
        ("t,a\n1.0,2.0\n2.0\n", "line 3 has 1 cells, not 2"),
        ("t,a\n1.0,2.0,3.0\n", "line 2 has 3 cells, not 2"),
        ("a,b\n1.0,2.0\n", "header 'a,b' needs a t column and no name twice"),
        ("t,a,a\n1.0,2.0,3.0\n", "header 't,a,a' needs a t column and no name twice"),
    ], ids=["empty", "short-row", "long-row", "no-t-column", "repeated-name"])
    def test_fit_rate_malformed_csv_prints_one_error_line(self, tmp_path, capsys,
                                                          text, message):
        csv = tmp_path / "series.csv"
        csv.write_text(text)
        rc = main(["fit-rate", "--csv", str(csv), "--column", "a", "--window", "0", "1"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: {csv}: {message}"]

    def test_fit_rate_unknown_column(self, tmp_path):
        csv = tmp_path / "series.csv"
        csv.write_text("t,a\n1.0,1.0\n")
        rc = main(["fit-rate", "--csv", str(csv), "--column", "nope",
                   "--window", "0", "1"])
        assert rc == 2

    def test_decay_char_power(self, capsys):
        rc = main(["decay-char", "--kind", "power", "--r", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["r_star"] == pytest.approx(0.5, abs=0.05)
        assert not out["boundary"]
        assert out["kind"] == "analytic"

    def test_symbol_check_reports_violations_honestly(self, capsys):
        rc = main(["symbol-check", "--samples", "500", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        # the four-way minimum is not a valid bound (magnetic sector), so
        # the check fails with a positive violation while certifying the
        # quadratic decay lambda_max <= -C |xi|^2
        assert rc == 1
        assert out["max_violation"] > 0
        assert out["quadratic_decay_holds"]
        assert out["empirical_C_true"] > 0
        # the valid Young's-inequality bound holds; the exit code stays on
        # the four-way minimum
        assert out["young_bound_holds"]
        assert out["young_max_excess"] <= 1e-10

    def test_symbol_check_invalid_params(self, capsys):
        rc = main(["symbol-check", "--chi", "0.001", "--samples", "10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert "error" in out

    def test_symbol_check_rejects_no_samples(self, capsys):
        rc = main(["symbol-check", "--samples", "0"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == "error: --samples must be at least 1, got 0\n"

    @pytest.mark.parametrize("radii", [
        ["--radius-lo", "0", "--samples", "10"], ["--radius-lo", "-1"],
        ["--radius-hi", "nan"], ["--radius-lo", "10", "--radius-hi", "1"],
        ["--radius-lo", "1", "--radius-hi", "1"], ["--radius-hi", "inf"]])
    def test_symbol_check_rejects_bad_radii(self, capsys, radii):
        rc = main(["symbol-check"] + radii)
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --radius-lo and --radius-hi need "
                              "0 < radius_lo < radius_hi < inf, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["linear-decay", "--r-star", "0", "--n-times", "2"], ["decay-char", "--r", "0"]])
    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_cutoff_radius_must_be_positive_and_finite(self, capsys, command, radius):
        rc = main(command + ["--cutoff-radius", radius])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == ("error: --cutoff-radius must be positive and finite, "
                       f"got {float(radius)!r}\n")

    @pytest.mark.parametrize("per_decade, message", [
        ("1", "keeps 8 nodes"), ("2", "not converged for l2_z_sq")])
    def test_quadrature_error_is_a_check_failure(self, capsys, per_decade, message):
        rc = main(["linear-decay", "--r-star", "0", "--n-times", "3",
                   "--per-decade", per_decade, "--check-convergence"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err == ""
        assert message in json.loads(out)["error"]

    def test_linear_decay_stdout(self, capsys):
        rc = main(["linear-decay", "--r-star", "0", "--t-lo", "10",
                   "--t-hi", "100", "--n-times", "6", "--per-decade", "16"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "t,l2_z_sq,l2_u_sq,l2_w_sq,l2_b_sq,h1_z_sq,h1_w_sq,h2_z_sq"
        assert len(lines) == 7

    def test_linear_decay_negative_time_exits_with_error(self, capsys):
        rc = main(["linear-decay", "--r-star", "0", "--t-lo", "-1", "--t-hi", "1e2",
                   "--n-times", "3"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and "finite and nonnegative" in err


    @pytest.mark.parametrize("flags", [["--t-lo", "-1"], ["--t-lo", "0"], ["--n-times", "0"]])
    def test_linear_decay_bad_range_prints_one_error_line(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "mmplab.cli", "linear-decay", "--r-star", "0", *flags],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


    @pytest.mark.parametrize("flag, value, name", [
        ("--gamma", "nan", "gamma"), ("--chi", "inf", "chi"), ("--mu", "inf", "mu"),
        ("--nu", "-inf", "nu"), ("--r-star", "nan", "decay character r")])
    def test_linear_decay_non_finite_input_writes_no_csv(self, tmp_path, capsys,
                                                         flag, value, name):
        # these used to write a CSV of NaN rows and exit 0
        csv = tmp_path / "decay.csv"
        rc = main(["linear-decay", "--r-star", "0", "--n-times", "2", f"{flag}={value}",
                   "--out", str(csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {name} must be finite, got {float(value)!r}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("command, message", [
        (["symbol-check", "--samples", "10", "--chi", "nan"], "chi must be finite, got nan"),
        (["decay-char", "--r", "inf"], "decay character r must be finite, got inf")])
    def test_non_finite_input_exits_with_error(self, capsys, command, message):
        rc = main(command)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_decay_char_window_beyond_the_support_exits_with_error(self, capsys):
        # the default hard cutoff is at 1; this used to print r_star -1.5 and exit 0
        rc = main(["decay-char", "--r", "0", "--window", "2", "5"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "error: window starts at 2, at or above the profile's support radius 1\n"

    @pytest.mark.parametrize("value", ["two", "2.5", "0", "-3"])
    def test_bad_thread_count_prints_one_error_line(self, value):
        # symbol-check runs no transform, so the check comes before any work
        proc = subprocess.run(
            [sys.executable, "-m", "mmplab.cli", "symbol-check", "--samples", "10"],
            capture_output=True, text=True, env=subprocess_env(MMP_THREADS=value))
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines == [f"error: MMP_THREADS must be a positive integer, got {value!r}"]


class TestConfig:
    def test_hash_stability_and_key_order(self):
        a = RunConfig.from_text(CONFIG_TEXT)
        reordered = CONFIG_TEXT.replace(
            "mu = 1.0\ngamma = 1.0", "gamma = 1.0\nmu = 1.0")
        b = RunConfig.from_text(reordered)
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_values(self):
        a = RunConfig.from_text(CONFIG_TEXT)
        b = RunConfig.from_text(CONFIG_TEXT.replace("seed = 3", "seed = 4"))
        assert a.config_hash() != b.config_hash()

    def test_defaults_fill_missing_sections(self):
        cfg = RunConfig.from_text("[grid]\nn = 8\n")
        assert cfg.grid().n == 8
        assert cfg.params().chi == 0.5
        assert cfg.solver_config().scheme == "etd-rk2"

    def test_param_defaults_are_physparams(self):
        assert RunConfig.from_text("").params() == PhysParams()
        for command in (["symbol-check"], ["linear-decay", "--r-star", "0"]):
            args = build_parser().parse_args(command)
            flags = {name: getattr(args, name) for name in ("mu", "gamma", "chi", "nu")}
            assert flags == dataclasses.asdict(PhysParams()), command

    def test_fit_window_defaults_to_last_two_decades(self):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        assert cfg.fit_window(1000.0) == (10.0, 1000.0)

    @pytest.mark.parametrize("text, message", [
        ("dir = run\n", "section header"),
        ("[time]\noutputevery = 20\n", "time.outputevery"),
        ("[output]\nsave_snapshots = ture\n", "output.save_snapshots"),
    ], ids=["no-section-header", "unknown-key", "not-a-boolean"])
    def test_input_errors_are_value_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            RunConfig.from_text(text).getbool("output", "save_snapshots")

    def test_values_are_literal(self):
        cfg = RunConfig.from_text("[output]\ndir = out_50%\n")
        assert cfg.get("output", "dir") == "out_50%"
        assert RunConfig.from_text(_to_ini(cfg)).raw == cfg.raw

    # values that used to run zero steps, write NaN norms, raise past the
    # CLI or fail only after the run directory was made
    BAD_VALUES = [
        ("length = 6.283185307179586", "length = inf", "box side must be positive and finite, got inf"),
        ("dt = 0.1", "dt = inf", "dt must be positive and finite, got inf"),
        ("dt = 0.1", "dt = nan", "dt must be positive and finite, got nan"),
        ("dt = 0.1", "dt = 1e300", "is not a multiple of dt * output_every"),
        ("t_end = 1.0", "t_end = inf", "t_end must be nonnegative and finite, got inf"),
        ("save_snapshots = false", "save_snapshots = false\n[analysis]\nball_a = -1",
         "ball_A must be positive, got -1.0"),
        ("mu = 1.0", "mu = nan", "mu must be finite, got nan"),
    ]
    BAD_IDS = ["length-inf", "dt-inf", "dt-nan", "dt-no-output", "t_end-inf", "ball_a-negative",
               "mu-nan"]

    @pytest.mark.parametrize("old, new, message", BAD_VALUES, ids=BAD_IDS)
    def test_bad_values_are_value_errors(self, old, new, message):
        cfg = RunConfig.from_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg.solver_config()

    @pytest.mark.parametrize("old, new, message", [
        ("output_every", "outputevery", "unknown config key time.outputevery"),
        ("save_snapshots = false", "save_snapshots = ture", "'ture' is not a boolean"),
        ("amplitude = 0.01", "amplitude = nan", "amplitude must be finite, got nan"),
        *BAD_VALUES,
    ], ids=["unknown-key", "not-a-boolean", "amplitude-nan", *BAD_IDS])
    def test_bad_config_exits_with_error(self, tmp_path, capsys, old, new, message):
        config = tmp_path / "bad.ini"
        config.write_text(CONFIG_TEXT.replace(old, new))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run").exists()


class TestRunDirectory:
    def test_simulate_run_artifacts(self, tmp_path):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        out, traj = execute_run(cfg, out_dir=tmp_path / "run")
        assert (out / "series.csv").exists()
        assert (out / "config.ini").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["summary"]["monotone_energy"]
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        cols = read_series_csv(out / "series.csv")
        assert cols["t"][-1] == pytest.approx(1.0)
        assert np.all(np.isnan(cols["l2_diff_z_sq"]))  # not a paired run

    def test_compare_linear_run(self, tmp_path):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        out, traj = execute_run(cfg, out_dir=tmp_path / "cmp", pair_linear=True)
        cols = read_series_csv(out / "series.csv")
        assert np.all(np.isfinite(cols["l2_diff_z_sq"]))
        assert (out / "extra_series.csv").exists()
        report = report_from_run(out)
        assert report["r_star"] == 0.0
        assert (out / "series.csv").exists()

    def test_a_run_builds_its_wavevectors_on_one_grid(self, tmp_path, monkeypatch):
        # the datum is drawn on the grid the run advances, and no second
        # Grid builds the half spectrum's axes: the draw's half_modes() and
        # the datum's divergence check's each build xi's and xi_odd's, its
        # scale xi's, once each, and the rows none
        built = []
        axes = Grid._axes

        def counted(grid, odd):
            built.append((grid, odd))
            return axes(grid, odd)

        monkeypatch.setattr(Grid, "_axes", counted)
        execute_run(RunConfig.from_text(CONFIG_TEXT), out_dir=tmp_path / "r", pair_linear=True)
        assert [odd for _, odd in built] == [False, True, False, True, False]
        assert all(grid is built[0][0] for grid, _ in built)

    def test_zero_data_compare_linear_differences_vanish(self, tmp_path):
        cfg = RunConfig.from_text(CONFIG_TEXT.replace("kind = power",
                                                      "kind = zero"))
        out, traj = execute_run(cfg, out_dir=tmp_path / "zero", pair_linear=True)
        assert traj.column("l2_diff_z_sq").max() == 0.0

    def test_blowup_preserves_partial_results(self, tmp_path):
        import warnings
        from mmplab.solver import BlowupError
        # an amplitude whose squares overflow makes the very first step blow up
        text = CONFIG_TEXT.replace("amplitude = 0.01", "amplitude = 1e300")
        cfg = RunConfig.from_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BlowupError):
                execute_run(cfg, out_dir=tmp_path / "boom")
        out = tmp_path / "boom"
        assert (out / "series.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "blowup_t" in manifest["summary"]

    def test_blowup_writes_every_artifact(self, tmp_path):
        # a paired run with snapshots that blows up in its first step leaves
        # the same files as a finished one, up to the last recorded output
        import warnings
        from mmplab.solver import BlowupError
        text = CONFIG_TEXT.replace("amplitude = 0.01", "amplitude = 1e300").replace(
            "save_snapshots = false", "save_snapshots = true")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BlowupError) as err:
                execute_run(RunConfig.from_text(text), out_dir=tmp_path / "boom",
                            pair_linear=True)
        out, traj = tmp_path / "boom", err.value.trajectory
        assert traj.times == [0.0]
        assert sorted(p.name for p in out.iterdir()) == [
            "config.ini", "extra_series.csv", "manifest.json", "series.csv", "snapshots"]
        assert len(list((out / "snapshots").glob("*.snap"))) == 1
        assert read_series_csv(out / "extra_series.csv")["t"].tolist() == [0.0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["blowup_t"] == err.value.t
        assert manifest["artifacts"]["snapshots"] == "snapshots/"

    @pytest.mark.parametrize("command", ["simulate", "compare-linear"])
    def test_blowup_exits_one_with_json(self, command, tmp_path, capsys):
        # exit 1 with the run's JSON on stdout, as for any check failure
        import warnings
        config = tmp_path / "overflow.ini"
        config.write_text(CONFIG_TEXT.replace("n = 16", "n = 8").replace(
            "amplitude = 0.01", "amplitude = 1e300"))
        out = tmp_path / "boom"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main([command, "--config", str(config), "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["run_dir"] == str(out)
        assert payload["outputs"] == 1
        assert payload["diagnostics"]["cfl_halvings"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert payload["blowup_t"] == manifest["summary"]["blowup_t"] > 0
        assert payload["error"] == manifest["summary"]["error"]

    def test_step_size_floor_ends_a_huge_finite_run(self, tmp_path, capsys):
        # a finite datum so fast that dt would halve about 500 times ends
        # at t = 0 once a halving would cross output_dt * 2**-52
        import warnings
        config = tmp_path / "huge.ini"
        config.write_text(CONFIG_TEXT.replace("amplitude = 0.01", "amplitude = 1e150"))
        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["simulate", "--config", str(config), "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert "step-size floor" in payload["error"] and "non-finite" not in payload["error"]
        # dt = 0.1 halves 51 times to output_dt * 2**-52, 0.2 * 2**-52
        assert payload["diagnostics"]["cfl_halvings"] == 51
        assert payload["blowup_t"] == 0.0 and payload["outputs"] == 1
        assert read_series_csv(out / "series.csv")["t"].tolist() == [0.0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["blowup_t"] == 0.0
        assert manifest["summary"]["error"] == payload["error"]

    def test_save_snapshots(self, tmp_path):
        cfg = RunConfig.from_text(CONFIG_TEXT.replace(
            "save_snapshots = false", "save_snapshots = true"))
        out, traj = execute_run(cfg, out_dir=tmp_path / "snaps")
        files = sorted((out / "snapshots").glob("*.snap"))
        assert len(files) == len(traj.times)
        state = read_snapshot(files[0])
        assert state.grid.n == 16

    def test_snapshot_names_that_clash_exit_with_error(self, tmp_path, capsys):
        # four outputs 1e-6 apart would all write state_000000.00000.snap
        text = (CONFIG_TEXT.replace("dt = 0.1", "dt = 1e-6").replace("t_end = 1.0", "t_end = 3e-6")
                .replace("output_every = 2", "output_every = 1"))
        config = tmp_path / "close.ini"
        config.write_text(text.replace("save_snapshots = false", "save_snapshots = true"))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")])
        stdout, err = capsys.readouterr()
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "state_000000.00000.snap" in err
        assert not (tmp_path / "run").exists()
        # without snapshots the same run records its four outputs
        config.write_text(text)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "plain")]) == 0
        assert len(read_series_csv(tmp_path / "plain" / "series.csv")["t"]) == 4

    def test_report_cli_roundtrip(self, tmp_path, capsys):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        out, _ = execute_run(cfg, out_dir=tmp_path / "rep", pair_linear=True)
        rc = main(["report", "--run", str(out), "--window", "0.2", "1.0"])
        payload = json.loads(capsys.readouterr().out)
        assert rc in (0, 1)
        assert (out / "report.json").exists()
        assert payload["config_hash"] == cfg.config_hash()

    def test_report_reads_only_the_series_its_manifest_lists(self, tmp_path):
        cfg = RunConfig.from_text(CONFIG_TEXT)
        out, _ = execute_run(cfg, out_dir=tmp_path / "r", pair_linear=True)
        norms = ["l2_z_sq", "l2_w_sq", "h1_z_sq", "h1_w_sq", "h2_z_sq"]
        assert [row["series"] for row in report_from_run(out)["rows"]] == norms + [
            "l2_diff_z_sq", "l2_diff_w_sq", "h1_diff_z_sq"]
        # an unpaired run into the same directory leaves the paired run's
        # extra_series.csv behind, unlisted
        execute_run(cfg, out_dir=out)
        assert (out / "extra_series.csv").exists()
        assert [row["series"] for row in report_from_run(out)["rows"]] == norms

    @pytest.mark.parametrize("window, analysis", [
        (["--window", "5", "1"], ""), (["--window", "nan", "1"], ""),
        (["--window", "-1", "1"], ""), (["--window", "0.2", "inf"], ""),
        ([], "[analysis]\nfit_t_lo = 5\nfit_t_hi = 1\n"),
        ([], "[analysis]\nfit_t_lo = nan\n")],
        ids=["5-1", "nan-1", "-1-1", "0.2-inf", "config-5-1", "config-nan"])
    def test_report_bad_window_prints_one_error_line(self, tmp_path, capsys, window, analysis):
        # from --window or from the run's fit_t_lo / fit_t_hi alike
        out, _ = execute_run(RunConfig.from_text(CONFIG_TEXT + analysis), out_dir=tmp_path / "r")
        rc = main(["report", "--run", str(out), *window])
        stdout, err = capsys.readouterr()
        assert rc == 1 and stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: fit window [")
        assert lines[0].endswith("must satisfy 0 <= lo < hi < inf")
        assert not (out / "report.json").exists()

    def test_report_on_a_series_without_rows_prints_one_error_line(self, tmp_path, capsys):
        out, _ = execute_run(RunConfig.from_text(CONFIG_TEXT), out_dir=tmp_path / "r")
        series = out / "series.csv"
        series.write_text(series.read_text().splitlines()[0] + "\n")
        rc = main(["report", "--run", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == 1 and stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith("no rows")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("chi", ["0", "0.001"])
    def test_report_drops_gap_claims_only_without_damping(self, tmp_path, chi):
        # 32 chi (mu+chi+gamma) <= 1 at both: only chi = 0 takes away w's
        # faster rate, which every gap row compares
        text = (CONFIG_TEXT.replace("n = 16", "n = 8").replace("chi = 0.5", f"chi = {chi}")
                .replace("t_end = 1.0", "t_end = 1.2").replace("output_every = 2",
                                                               "output_every = 1"))
        out, _ = execute_run(RunConfig.from_text(text), out_dir=tmp_path / "r",
                             pair_linear=True)
        report = report_from_run(out, window=(0.1, 1.2))
        assert [row["gap"] for row in report["gap_rows"]] == [
            "w_minus_z", "diff_w_minus_diff_z"]
        if chi == "0":
            assert all(row["pass"] is None for row in report["gap_rows"])
            assert report["overall_pass"] is None
            assert "no micro-rotational damping" in report["note"]
        else:
            assert all(isinstance(row["pass"], bool) for row in report["gap_rows"])
            assert "note" not in report


class TestReproducibility:
    def test_byte_identical_csv_across_worker_counts(self, tmp_path):
        # acceptance-level contract exercised through the real CLI
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(CONFIG_TEXT)
        outputs = {}
        for threads in ("1", "4"):
            out_dir = tmp_path / f"run{threads}"
            env = subprocess_env(MMP_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "mmplab.cli", "simulate", "--config",
                 str(cfg_path), "--out", str(out_dir)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = (out_dir / "series.csv").read_bytes()
        assert outputs["1"] == outputs["4"]


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        grid = Grid(8, 2 * np.pi)
        state = generate_data_with_character(grid, 0.0, seed=5, amplitude=1.0)
        path = tmp_path / "state.snap"
        write_snapshot(path, state)
        back = read_snapshot(path)
        assert back.grid == grid
        for a, b in zip(back.components(), state.components()):
            # storage is complex64
            assert np.abs(a - b).max() < 1e-6

    def test_file_holds_expanded_full_spectrum(self, tmp_path):
        # the v001 layout: header, then the full spectrum of every component
        # in complex64, as written from the expanded arrays
        grid = Grid(8, 2 * np.pi)
        state = generate_data_with_character(grid, 0.0, seed=5, amplitude=1.0)
        path = tmp_path / "state.snap"
        write_snapshot(path, state)
        expected = MAGIC + struct.pack("<IdI", 8, grid.length, 3) + b"".join(
            full_spectrum_oracle(comp).astype(np.complex64).tobytes()
            for comp in state.components())
        assert path.read_bytes() == expected
        back = read_snapshot(path)
        for a, b in zip(back.components(), state.components()):
            assert a.shape == b.shape
            assert np.array_equal(a, b.astype(np.complex64))

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_full_band_layout_equals_roll_oracle(self, tmp_path, n):
        # every mode set, the Nyquist planes included, with signed zeros:
        # the bytes of the double-precision expansion cast to complex64
        grid = Grid(n, 3.0)
        rng = np.random.Generator(np.random.Philox(100 + n))
        state = StateField(grid, full_band_half(rng, (9,) + grid.spectral_shape))
        path = tmp_path / "state.snap"
        write_snapshot(path, state)
        expected = MAGIC + struct.pack("<IdI", n, 3.0, 3) + b"".join(
            full_spectrum_oracle(comp).astype(np.complex64).tobytes() for comp in state.z)
        assert path.read_bytes() == expected

    def test_magic_header(self, tmp_path):
        grid = Grid(8, 2 * np.pi)
        state = generate_data_with_character(grid, 0.0, seed=5, amplitude=1.0)
        path = tmp_path / "state.snap"
        write_snapshot(path, state)
        assert path.read_bytes()[:16] == MAGIC
        assert len(MAGIC) == 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize("case, message", [
        ("short header", "truncated in its header"),
        ("huge n", "holds 32 bytes, an n = 4096 snapshot 4947802325024"),
        ("trailing bytes", "holds 36897 bytes, an n = 8 snapshot 36896"),
        ((6, 1.0), "has a bad header: grid size must be even and >= 8, got n=6"),
        ((0, 1.0), "has a bad header: grid size must be even and >= 8, got n=0"),
        ((8, -1.0), "has a bad header: box side must be positive and finite, got -1.0"),
        ((8, float("nan")), "has a bad header: box side must be positive and finite, got nan")],
        ids=["short header", "huge n", "trailing bytes", "n 6", "n 0", "length -1",
             "length nan"])
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, case, message):
        # checked against 16 + 16 + 9 * 8 n^3 bytes before any allocation
        path = tmp_path / "bad.snap"
        if case == "short header":
            path.write_bytes(MAGIC + b"\x08\x00")
        elif case == "huge n":  # 4.5 TiB of coefficients, had it been read
            path.write_bytes(MAGIC + struct.pack("<IdI", 4096, 1.0, 3))
        elif isinstance(case, tuple):  # a header no Grid takes, on a file of its size
            n, length = case
            path.write_bytes(MAGIC + struct.pack("<IdI", n, length, 3) + bytes(9 * 8 * n ** 3))
        else:
            write_snapshot(path, StateField.zero(Grid(8, 2 * np.pi)))
            path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match=re.escape(message)):
            read_snapshot(path)
        rc = main(["decay-char", "--field", str(path)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: {path} {message}"]

    def test_decay_char_from_snapshot(self, tmp_path, capsys):
        grid = Grid(32, 2 * np.pi)
        state = generate_data_with_character(grid, 0.0, seed=5, amplitude=1.0,
                                             sigma=16.0)
        path = tmp_path / "field.snap"
        write_snapshot(path, state)
        rc = main(["decay-char", "--field", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["kind"] == "sampled"
        assert abs(out["r_star"]) < 0.25


class TestSelftestCommand:
    def test_exit_zero(self, capsys):
        rc = main(["selftest"])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_closed_pipe_exits_one_quietly(self):
        # `PYTHONPATH=src python -m mmplab selftest | head -4`: unbuffered,
        # each line is written as its check ends, so the fifth meets a
        # closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "mmplab", "selftest"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=subprocess_env(PYTHONUNBUFFERED="1"))
        try:
            lines = [proc.stdout.readline() for _ in range(4)]
            proc.stdout.close()
            err = proc.stderr.read()
        finally:
            proc.wait(timeout=120)
        assert all(line.startswith(b"[PASS] ") for line in lines)
        assert err == b""
        assert proc.returncode == 1
