#!/usr/bin/env python3
"""Run the benchmark several times, one seed each, and report the spread.

    python3 perfbench/steady.py --workload class-checks --runs 10 [--first-seed 1]

For each end-to-end metric it prints the median of the runs and the
interquartile distance as a share of that median, next to the metric's bound
from BENCHMARK.json, and flags a spread above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
    for name, bound in bounds.items():
        share = spread(values[name])
        flag = "" if share < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:20s} median {statistics.median(values[name]):.6g} "
              f"spread {share:.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
