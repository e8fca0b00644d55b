#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload sweep [--out FILE]

It runs the workload once for each of the seeds 0 to 9, as the acceptance
of the benchmark does.  For every end-to-end metric of ``BENCHMARK.json`` it prints the median,
the quartiles and their distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound.  Runs are sequential; each uses ``run_seconds`` from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", help="also write the runs and their spreads as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in range(SEEDS):
        runs.append(run(spec, args.workload, seed))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
              flush=True)
    report = {}
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med
        report[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                  "bound": metric["bound"], "values": values}
        print(f"{metric['name']:<12} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"spread={share:.4f} bound={metric['bound']} (third {metric['bound'] / 3:.4f})")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "metrics": report},
                                             indent=1) + "\n")


if __name__ == "__main__":
    main()
