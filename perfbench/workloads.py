"""The benchmark's three workloads: inputs, fixed work and output checks.

Each workload is built from the benchmark seed, runs a fixed amount of
work through popart's public API, and returns the SGD steps it executed
together with the exact counts that must repeat from run to run.  It
calls ``lap()`` at the end of each part it is split into, so that the
benchmark can time the parts one by one.  The checks compare every run
against ``reference.json``, so a fast but wrong run counts as failed.

- ``sweep``: the work of ``popart binreg --sort`` without ``--svg``, on the
  ``ci`` grid with one repetition and 1100 samples.
- ``single``: one non-diverging ``run_single`` per method, 5000 samples.
- ``rl``: acceptance gate 11, double Q-learning to 5% relative Q error at
  terminal rewards 1, 1e3 and 1e6.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from popart import binreg
from popart.rl import ChainMdp, DoubleQAgent, train, value_iteration

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# scratch space for the files the sweep writes; inside the checkout
OUT_DIR = REFERENCE_PATH.parent.parent / ".perfbench"

# Benchmark seed n selects base seed 1000 + n % N_SEEDS; reference.json
# holds the expected outputs for each of these base seeds.
FIRST_SEED = 1000
N_SEEDS = 16

SWEEP_SAMPLES = 1100  # every run crosses the spike at sample 1000
SINGLE_SAMPLES = 5000  # five spikes
# (alpha, beta) of a cell that does not diverge; sgd ignores beta
SINGLE_CELLS = {
    "sgd": (1e-5, 1e-2),
    "art": (1e-3, 1e-2),
    "popart": (1e-3, 1e-2),
    "normalized_sgd": (1e-3, 1e-2),
}
RL_REWARDS = (1.0, 1e3, 1e6)
# Gate 11 pins agent seed 0.  Steps to tolerance range from about 20k to
# 34k over agent seeds, so a seeded agent would make rl.wall_s measure the
# seed rather than the code.
RL_AGENT_SEED = 0
RL_MAX_STEPS = 50_000
RL_LAP_EPISODES = 100  # episodes per timed part, about 0.15 s
RL_TOL = 0.05
AUC_RTOL = 1e-6


def base_seed(seed: int) -> int:
    return FIRST_SEED + seed % N_SEEDS


@dataclass
class Outcome:
    """What one execution of a workload's fixed work produced.

    ``steps`` counts SGD steps actually executed (for ``rl``, transitions
    learned); ``counts`` holds exact counts that must repeat across runs.
    """

    steps: int
    counts: dict
    detail: dict = field(default_factory=dict)


def _no_lap(*_) -> None:
    pass


def _lap_every(n: int, fn, lap):
    """``fn``, calling ``lap()`` before every ``n``-th call."""
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % n == 0:
            lap()
        return fn(*args, **kwargs)

    return counted


def _executed_steps(record) -> int:
    # _run_loop records a finite error right before every step it takes
    return int(np.isfinite(record.rmse).sum())


def csv_rows(out_dir: str) -> int:
    """Data rows in the ``results.csv`` the sweep wrote to ``out_dir``."""
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=AUC_RTOL)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int):
        ci = binreg.ExperimentConfig.profile("ci", base_seed=base_seed(seed))
        self.config = replace(ci, n_repetitions=1, n_samples=SWEEP_SAMPLES)
        self.inputs = f"base_seed={ci.base_seed}"

    def run(self, out_dir: str, lap=_no_lap) -> Outcome:
        # a part per progress report of run_grid, and one for the writers
        records, summary = binreg.run_grid(self.config, workers=1, progress=lap)
        records.sort(key=lambda r: (r.method, r.alpha, r.beta, r.seed))
        binreg.write_results_csv(os.path.join(out_dir, "results.csv"), records)
        binreg.write_summary_json(os.path.join(out_dir, "summary.json"), summary)
        lap()
        return Outcome(
            steps=sum(_executed_steps(r) for r in records),
            counts={"diverged_runs": sum(r.diverged for r in records)},
            detail={"summary": summary},
        )

    def check(self, outcome: Outcome, out_dir: str, ref: dict) -> list[str]:
        """Compare one run with the reference; return what failed.

        Also adds the CSV row count to ``outcome.counts``: it is read back
        from the file here, outside the timed work.
        """
        outcome.counts["csv_rows"] = csv_rows(out_dir)
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        summary = outcome.detail["summary"]
        expected = ref["sweep"][str(self.config.base_seed)]
        failures = []
        if outcome.steps != expected["executed_steps"]:
            failures.append(f"executed steps {outcome.steps} != {expected['executed_steps']}")
        for key in ("diverged_runs", "csv_rows"):
            if outcome.counts[key] != expected[key]:
                failures.append(f"{key} {outcome.counts[key]} != {expected[key]}")
        if written != summary:
            failures.append("summary.json does not match the returned summary")
        for method, best in expected["best"].items():
            got = summary.get(method)
            if got is None or [got["alpha"], got["beta"]] != best["cell"]:
                failures.append(f"{method} best cell {got} != {best['cell']}")
            elif not _close(got["median_auc"], best["median_auc"]):
                failures.append(
                    f"{method} median AUC {got['median_auc']!r} != {best['median_auc']!r}"
                )
        if not failures:
            auc = {m: s["median_auc"] for m, s in summary.items()}
            if not (auc["popart"] < auc["sgd"] and auc["art"] < auc["sgd"]):
                failures.append(f"normalizing methods do not beat sgd: {auc}")
            cell = {m: (summary[m]["alpha"], summary[m]["beta"]) for m in summary}
            if cell["popart"] != cell["normalized_sgd"]:
                failures.append("popart and normalized_sgd picked different cells")
        return failures


class Single:
    name = "single"

    def __init__(self, seed: int):
        self.seed = base_seed(seed)
        self.inputs = f"base_seed={self.seed}"

    def run(self, out_dir: str, lap=_no_lap) -> Outcome:
        records = []
        for method, (alpha, beta) in SINGLE_CELLS.items():
            records.append(
                binreg.run_single(method, alpha, beta, self.seed, n_samples=SINGLE_SAMPLES)
            )
            lap()
        return Outcome(
            steps=sum(_executed_steps(r) for r in records),
            counts={"diverged_runs": sum(r.diverged for r in records)},
            detail={"records": records},
        )

    def check(self, outcome: Outcome, out_dir: str, ref: dict) -> list[str]:
        expected = ref["single"][str(self.seed)]
        failures = []
        for rec in outcome.detail["records"]:
            finite = np.all(np.isfinite(rec.rmse)) and np.all(np.isfinite(rec.grad_norm))
            if rec.diverged or not finite:
                failures.append(f"{rec.method} did not stay finite")
            elif not _close(rec.auc, expected["auc"][rec.method]):
                failures.append(f"{rec.method} AUC {rec.auc!r} != {expected['auc'][rec.method]!r}")
        if outcome.steps != expected["executed_steps"]:
            failures.append(f"executed steps {outcome.steps} != {expected['executed_steps']}")
        return failures


class Rl:
    name = "rl"

    def __init__(self, seed: int):
        self.mdps = [ChainMdp(terminal_reward=r) for r in RL_REWARDS]
        self.inputs = f"agent_seed={RL_AGENT_SEED}"

    def run(self, out_dir: str, lap=_no_lap) -> Outcome:
        agents = []
        for mdp in self.mdps:
            agent = DoubleQAgent(mdp, seed=RL_AGENT_SEED)
            # train() runs the agent episode by episode
            agent.train_episode = _lap_every(RL_LAP_EPISODES, agent.train_episode, lap)
            train(agent, max_steps=RL_MAX_STEPS, rel_tol=RL_TOL)
            agents.append(agent)
            lap()
        steps = sum(a.step_count for a in agents)
        return Outcome(steps=steps, counts={"steps_to_tol": steps}, detail={"agents": agents})

    def check(self, outcome: Outcome, out_dir: str, ref: dict) -> list[str]:
        expected = ref["rl"]["steps_to_tol"]
        failures = []
        for mdp, agent in zip(self.mdps, outcome.detail["agents"]):
            q_star = value_iteration(mdp)
            err = float(np.max(np.abs(agent.q_table() - q_star) / np.abs(q_star)))
            if not err <= RL_TOL:
                failures.append(f"reward {mdp.terminal_reward:g}: Q error {err:.4f} > {RL_TOL}")
            want = expected[repr(mdp.terminal_reward)]
            if agent.step_count != want:
                failures.append(
                    f"reward {mdp.terminal_reward:g}: {agent.step_count} steps != {want}"
                )
        return failures


WORKLOADS = {w.name: w for w in (Sweep, Single, Rl)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
