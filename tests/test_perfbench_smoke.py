"""Traced smoke run of every benchmark workload (n = 8, one r*).

A traced run fails when a name the benchmark wraps is gone from mmplab,
when a run at the reference seed misses the committed norms by more than
1e-10, or when a layer that must stay idle works (or a busy one idles).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["torus-etd", "torus-paired", "radial-sweep"])
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "10",
         "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
