#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the current code.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs each workload once for every base seed the benchmark can select
and records the outputs the checks compare against.  Regenerate it only
when a change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    ref = {"sweep": {}, "single": {}, "rl": {}}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tmp:
        for n in range(workloads.N_SEEDS):
            sweep = workloads.Sweep(n)
            outcome = sweep.run(tmp)
            summary = outcome.detail["summary"]
            ref["sweep"][str(sweep.config.base_seed)] = {
                "executed_steps": outcome.steps,
                "diverged_runs": outcome.counts["diverged_runs"],
                "csv_rows": workloads.csv_rows(tmp),
                "best": {
                    m: {"cell": [s["alpha"], s["beta"]], "median_auc": s["median_auc"]}
                    for m, s in sorted(summary.items())
                },
            }
            single = workloads.Single(n)
            outcome = single.run(tmp)
            ref["single"][str(single.seed)] = {
                "executed_steps": outcome.steps,
                "auc": {r.method: r.auc for r in outcome.detail["records"]},
            }
            print(f"base seed {sweep.config.base_seed} done", file=sys.stderr, flush=True)
        outcome = workloads.Rl(0).run(tmp)
    ref["rl"]["steps_to_tol"] = {
        repr(a.mdp.terminal_reward): a.step_count for a in outcome.detail["agents"]
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
