"""Regenerate reference.json: the norm rows of one run of each torus
workload (full size and smoke) at the reference seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose numbers are meant to become the reference;
the correctness gate compares every later run against these rows.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mmplab import propagator  # noqa: E402
from workloads import (REFERENCE_SEED, TorusEtd, TorusPaired,  # noqa: E402
                       reference_key, reference_rows)


def main() -> None:
    workdir = HERE / "out" / "reference-run"
    refs = {}
    for cls in (TorusEtd, TorusPaired):
        for smoke in (False, True):
            workload = cls(REFERENCE_SEED, smoke, workdir)
            workload.setup(propagator.get_propagator)
            outcome = workload.run()
            traj = outcome[1] if isinstance(outcome, tuple) else outcome
            refs[reference_key(cls.name, smoke)] = reference_rows(traj)
            shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
