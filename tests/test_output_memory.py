"""Memory of a run's output path: norm rows, snapshot writes, a whole run.

An output row and its snapshot come between steps, after simulate has
dropped the right-hand side's work arrays, so their temporaries add to a
run's peak.  These guards pin the tracemalloc peaks at n = 64: the paired
norm row works on the retained block and forms the weighted arrays of
every state_norms call in one scratch array, the snapshot writer expands
each component into one complex64 array, and a paired one-step run with
snapshots holds no work arrays while it records its rows.
"""

import tracemalloc

import numpy as np
import pytest

from mmplab.decay_character import generate_data_with_character
from mmplab.fields import Grid, PhysParams
from mmplab.snapshots import write_snapshot
from mmplab.solver import SolverConfig, _norm_row, simulate

# on padded half spectra: 47.4 MiB with three full-size weighted arrays
# per state_norms call, and 38.2 MiB with one scratch array (the difference
# z - z_lin is 19.3 MiB); 11.5 MiB on the retained block (5.6 MiB of it
# the difference)
NORM_ROW_PEAK_MIB_64 = 12.5
# 12.0 MiB with a complex128 expansion, its complex64 cast and its bytes;
# 2.1 MiB with one complex64 array (2 MiB)
SNAPSHOT_PEAK_MIB_64 = 3.0
# a paired one-step n = 64 run with snapshots on one thread: 73.0 MiB
# (IF-RK4) and 61.8 MiB (ETD-RK2) with a 9-row product spectrum and stages
# that hold only live arrays, 89.7 and 67.4 MiB with an 18-row spectrum
# and a stage array per sum (the bound was 100 MiB then), both in the
# step; with nine rows of padded spectra, products and spectra where one
# per worker now suffices, 140.8 and 118.4 MiB with the work arrays
# dropped before the row, 140.8 and 142.8 MiB when they went at the row's
# start, and 173.2 and 175.4 MiB when they outlive the step loop
PAIRED_RUN_PEAK_MIB_64 = 83.3


def traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def states_at_n64():
    grid = Grid(64, 64 * np.pi)
    return (generate_data_with_character(grid, 0.0, seed=1),
            generate_data_with_character(grid, 0.0, seed=2))


def test_paired_norm_row_peak_at_n64():
    grid = Grid(64, 64 * np.pi)
    z, z_lin = (grid.truncate(state.z) for state in states_at_n64())
    _norm_row(grid, z, 1.0, 1.0, z_lin)  # the per-mode arrays stay warm
    peak = traced_peak_mib(_norm_row, grid, z, 1.0, 1.0, z_lin)
    assert peak <= NORM_ROW_PEAK_MIB_64, f"paired norm row peaked at {peak:.1f} MiB"


def test_snapshot_write_peak_at_n64(tmp_path):
    state, _ = states_at_n64()
    peak = traced_peak_mib(write_snapshot, tmp_path / "state.snap", state)
    assert peak <= SNAPSHOT_PEAK_MIB_64, f"snapshot write peaked at {peak:.1f} MiB"


@pytest.mark.parametrize("scheme", ["if-rk4", "etd-rk2"])
def test_paired_run_peak_at_n64(scheme, monkeypatch):
    monkeypatch.setenv("MMP_THREADS", "1")  # whole arrays: the largest temporaries
    grid = Grid(64, 2 * np.pi)
    z0 = generate_data_with_character(grid, 0.0, seed=1, amplitude=0.01)
    cfg = SolverConfig(grid=grid, params=PhysParams(mu=1.0, gamma=1.0, chi=0.5, nu=1.0),
                       dt=0.05, t_end=0.05, scheme=scheme)
    simulate(cfg, z0, pair_linear=True, save_snapshots=True)  # the per-mode arrays stay warm
    peak = traced_peak_mib(simulate, cfg, z0, True, False, True)
    assert peak <= PAIRED_RUN_PEAK_MIB_64, f"paired {scheme} run peaked at {peak:.1f} MiB"
