"""Memory of a run's output path: one norm row and one snapshot write.

An output row and its snapshot come between steps, when the stepper has
released Grid.buffers, so their temporaries add to a run's peak.  These
guards pin the tracemalloc peaks at n = 64: the paired norm row forms the
weighted arrays of every state_norms call in one scratch array, and the
snapshot writer expands each component into one complex64 array.
"""

import tracemalloc

import numpy as np

from mmplab.decay_character import generate_data_with_character
from mmplab.fields import Grid
from mmplab.snapshots import write_snapshot
from mmplab.solver import _norm_row

# 47.4 MiB with three full-size weighted arrays per state_norms call, and
# 38.2 MiB with one scratch array (the difference z - z_lin is 19.3 MiB)
NORM_ROW_PEAK_MIB_64 = 40.0
# 12.0 MiB with a complex128 expansion, its complex64 cast and its bytes;
# 2.1 MiB with one complex64 array (2 MiB)
SNAPSHOT_PEAK_MIB_64 = 3.0


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
    state, linear = states_at_n64()
    _norm_row(state, 1.0, 1.0, linear)  # the per-mode arrays stay warm
    peak = traced_peak_mib(_norm_row, state, 1.0, 1.0, linear)
    assert peak <= NORM_ROW_PEAK_MIB_64, f"paired norm row peaked at {peak:.1f} MiB"


def test_snapshot_write_peak_at_n64(tmp_path):
    state, _ = states_at_n64()
    peak = traced_peak_mib(write_snapshot, tmp_path / "state.snap", state)
    assert peak <= SNAPSHOT_PEAK_MIB_64, f"snapshot write peaked at {peak:.1f} MiB"
