"""mmplab benchmark: one workload, closed loop, one client, one fresh process.

    python3 perfbench/run.py --workload torus-etd --seed 10 --seconds 20 --trace 0

Runs the workload back to back for --seconds after its set-up, gates every
run for correctness and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans recorded around the calls into each mmplab module
(see spans.py).  ``--smoke`` shrinks every workload (n = 8, one r*) to a
run of seconds; ``--perturb-reference`` scales the committed reference
norms by 1 + 1e-8, which must make every run at the reference seed fail.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("MMP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Cap FFT and BLAS/OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = {"nproc": nproc}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, ""))
        except ValueError:
            wanted = nproc
        threads[var] = os.environ[var] = str(min(max(wanted, 1), nproc))
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmplab" / "__init__.py").is_file():
        print(f"mmplab sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, str(SRC))

    import bench
    return bench.main(args, threads)


if __name__ == "__main__":
    sys.exit(main())
