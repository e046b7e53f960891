"""Check that the correctness gate bites: at the reference seed, smoke runs of
both torus workloads pass against reference.json and all fail against a
reference perturbed by 1e-8 relative.

    python3 perfbench/check_gate.py

Exits 0 when both hold; takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = str(Path(__file__).resolve().parent / "run.py")


def result(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "10",
         "--seconds", "1", "--trace", "0", "--smoke", *extra],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in ("torus-etd", "torus-paired"):
        clean = result(workload)
        perturbed = result(workload, "--perturb-reference")
        bites = clean["failed"] == 0 and perturbed["failed"] == perturbed["attempted"]
        print(f"{workload}: failed {clean['failed']}/{clean['attempted']} against the "
              f"reference, {perturbed['failed']}/{perturbed['attempted']} against the "
              f"perturbed one: {'ok' if bites else 'GATE DOES NOT BITE'}")
        ok = ok and bites
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
