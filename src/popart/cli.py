"""Command-line entry point.

Subcommands:

- ``binreg``: run the binary-regression sweep and write ``results.csv``
  (rows sorted by method, alpha, beta and seed), ``summary.json``, and
  (with ``--svg``) one chart per method.
- ``rl-demo``: train the chain-MDP double Q-learner and write a per-step
  metrics CSV plus a value-accuracy summary.
- ``verify``: run the seeded property suites at the sizes the acceptance
  gates use and print a pass/fail table.
- ``plot``: render from an existing ``results.csv``, without recomputing
  anything, the charts ``binreg --svg`` renders from its own runs.

Each setting has one route: ``--config`` holds the experiment's fields and
the chain's and agent's (``base_seed`` and ``terminal_reward`` among them;
the agent seed is ``rl-demo --seed``), and a key left out keeps its class
default.

A run counts as diverged when its recorded error or gradient norm
holds a non-finite value; ``binreg`` and ``plot`` chart a method only
when its best cell's median AUC is finite, from that cell's finished runs.

Exit codes: 0 success, 1 verification failure, 2 configuration error or
malformed ``results.csv``, 3 I/O error, 4 training diverged
(``rl-demo``).  Every output file is written through
:func:`popart.binreg.atomic_open`, so a failed run leaves no partial files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return cfg


def _ensure_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory not writable: {path}: {exc}") from exc


def cmd_binreg(args) -> int:
    from . import binreg
    from .plotting import write_charts

    overrides = _load_config(args.config)
    if args.workers < 1:
        raise ConfigError(f"invalid workers: {args.workers} (must be at least 1)")
    # each worker is a forked process, all of them started at once
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise ConfigError(f"invalid workers: {args.workers} (at most {cpus}, the CPU count)")
    try:
        config = binreg.ExperimentConfig.profile(args.profile).with_overrides(overrides)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _ensure_outdir(args.out)
    records, summary = binreg.run_grid(config, workers=args.workers)
    records.sort(key=lambda r: (r.method, r.alpha, r.beta, r.seed))
    binreg.write_results_csv(os.path.join(args.out, "results.csv"), records)
    binreg.write_summary_json(os.path.join(args.out, "summary.json"), summary)
    if args.svg:
        write_charts(args.out, records, summary, config.smoothing_window)
    for method, best in sorted(summary.items()):
        if best["alpha"] is None:
            print(f"{method}: every cell diverged")
            continue
        print(
            f"{method}: best alpha={best['alpha']:.6g} beta={best['beta']:.6g} "
            f"median AUC={best['median_auc']:.6g}"
        )
    return EXIT_OK


RL_HEADER = ["step", "episode", "reward", "grad_norm", "normalized_error"]
# rl-demo --config keys, for ChainMdp and for DoubleQAgent
_RL_MDP_KEYS = ("n_states", "terminal_reward", "gamma")
_RL_AGENT_KEYS = ("hidden", "alpha", "beta", "epsilon_greedy", "copy_period")


def cmd_rl_demo(args) -> int:
    from .binreg import atomic_open
    from .rl import ChainMdp, DoubleQAgent, exact_q_values, train

    cfg = _load_config(args.config)
    if args.steps < 0:
        raise ConfigError(f"invalid steps: {args.steps} (must be at least 0)")
    unknown = set(cfg).difference(_RL_MDP_KEYS, _RL_AGENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    mdp_cfg = {k: cfg[k] for k in _RL_MDP_KEYS if k in cfg}
    agent_cfg = {k: cfg[k] for k in _RL_AGENT_KEYS if k in cfg}
    try:
        mdp = ChainMdp(**mdp_cfg)
        agent = DoubleQAgent(mdp, seed=args.seed, **agent_cfg)
        q_star = exact_q_values(mdp)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _ensure_outdir(args.out)
    per_step = []  # (grad_norm, normalized_error) of every step

    def record(report):
        per_step.append((report.gradient_norm, float(np.abs(report.normalized_error).max())))

    # a divergence raises here or in the summary, before any file is opened
    history = train(agent, max_steps=args.steps, hook=record)
    summary = {"steps": agent.step_count}
    if args.steps > 0:
        # weights that grew past the largest double show in the Q table
        with np.errstate(over="ignore", invalid="ignore"):
            q = agent.q_table()
            rel_err = float(np.max(np.abs(q - q_star) / np.abs(q_star)))
        if not np.isfinite(q).all():
            raise FloatingPointError(
                f"training diverged by step {agent.step_count}: non-finite Q values "
                f"(terminal reward {mdp.terminal_reward:g})"
            )
        summary.update(
            terminal_reward=mdp.terminal_reward,
            # past the largest double (a reward near the smallest one), null
            # in JSON, which has no infinity
            max_relative_q_error=rel_err if np.isfinite(rel_err) else None,
            greedy_policy=q.argmax(axis=1).tolist(),
        )
        print(f"max relative Q error after {agent.step_count} steps: {rel_err:.4f}")
    with atomic_open(os.path.join(args.out, "rl_metrics.csv"), newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RL_HEADER)
        step = 0
        for episode, metrics in enumerate(history, 1):
            rewards = [0.0] * (metrics.steps - 1) + [metrics.total_reward]
            for reward, row in zip(rewards, per_step[step : step + metrics.steps]):
                step += 1
                writer.writerow([step, episode, *map(repr, (reward, *row))])
    with atomic_open(os.path.join(args.out, "rl_summary.json")) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks

    results = [check() for check in checks.ALL_CHECKS]
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  ({r.seconds:6.2f}s)  {r.detail}")
        failed |= not r.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_plot(args) -> int:
    from .binreg import read_results_csv, summarize
    from .plotting import write_charts

    if args.window < 1:
        raise ConfigError(f"invalid window: {args.window} (must be at least 1)")
    try:
        records = read_results_csv(args.results)
    except ValueError as exc:
        raise ConfigError(f"malformed results file {exc}") from exc
    _ensure_outdir(args.out)
    write_charts(args.out, records, summarize(records), args.window)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popart",
        description="Adaptive target normalization: experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binreg", help="binary regression sweep")
    p.add_argument("--config", help="JSON config overriding experiment fields")
    p.add_argument("--out", default="popart-binreg", help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--profile", choices=["ci", "full"], default="ci")
    p.add_argument("--svg", action="store_true", help="also write per-method charts")
    p.set_defaults(func=cmd_binreg)

    p = sub.add_parser("rl-demo", help="chain-MDP double Q-learning demo")
    p.add_argument("--config", help="JSON config for MDP/agent settings")
    p.add_argument("--out", default="popart-rl", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=50_000)
    p.set_defaults(func=cmd_rl_demo)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render SVG charts from results.csv")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--out", default="popart-plots", help="output directory")
    p.add_argument("--window", type=int, default=10)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
