"""Check that the traced run's work counters repeat exactly for a seed.

    python3 perfbench/repeat_check.py [--seed N] [--workload NAME ...]

Runs `run.py --trace 1` twice per workload from the checkout root and
compares every counter and counter ratio (units "count" and "ratio"); the
times are expected to differ.  Exits 1 and names the counters that moved
if any did.  Each traced run takes about two rounds of its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice-grid", "spectral-strip", "cli-session")


def traced_counters(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failed jobs")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    moved = []
    for workload in args.workload or WORKLOADS:
        first, second = traced_counters(workload, args.seed), traced_counters(workload, args.seed)
        diff = sorted(name for name in first if first[name] != second.get(name))
        status = "identical" if not diff else f"MOVED {diff}"
        print(f"{workload}: {len(first)} counters {status}")
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(first.items()) if v))
        moved += diff
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
