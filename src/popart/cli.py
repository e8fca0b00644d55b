"""Command-line entry point.

Subcommands:

- ``binreg``: run the binary-regression sweep and write ``results.csv``,
  ``summary.json``, and (with ``--svg``) one chart per method.
- ``rl-demo``: train the chain-MDP double Q-learner and write a per-step
  metrics CSV plus a value-accuracy summary.
- ``verify``: run the seeded property suites and print a pass/fail table.
- ``plot``: render from an existing ``results.csv``, without recomputing
  anything, the charts ``binreg --svg`` renders from its own runs.

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


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("POPART_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad POPART_WORKERS value: {env!r}") from exc
    return 1


def cmd_binreg(args) -> int:
    from . import binreg
    from .plotting import write_charts

    overrides = _load_config(args.config)
    config = binreg.ExperimentConfig.profile(args.profile, base_seed=args.seed)
    try:
        config = config.with_overrides(overrides)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    bad = [m for m in config.methods if m not in binreg.METHODS]
    if bad:
        raise ConfigError(f"unknown methods: {bad}")
    _ensure_outdir(args.out)
    records, summary = binreg.run_grid(config, workers=_workers(args))
    if args.sort:
        records.sort(key=lambda r: (r.method, r.alpha, r.beta, r.seed))
    binreg.write_results_csv(os.path.join(args.out, "results.csv"), records)
    binreg.write_summary_json(os.path.join(args.out, "summary.json"), summary)
    if args.svg:
        write_charts(args.out, records, summary, config.smoothing_window)
    for method, best in sorted(summary.items()):
        print(
            f"{method}: best alpha={best['alpha']:.6g} beta={best['beta']:.6g} "
            f"median AUC={best['median_auc']:.6g}"
        )
    return EXIT_OK


RL_HEADER = ["step", "episode", "reward", "grad_norm", "normalized_error"]
_RL_CONFIG_KEYS = {
    "n_states",
    "terminal_reward",
    "gamma",
    "alpha",
    "beta",
    "epsilon_greedy",
    "copy_period",
    "hidden",
}


def cmd_rl_demo(args) -> int:
    from .binreg import atomic_open
    from .rl import ChainMdp, DoubleQAgent, train, value_iteration

    cfg = _load_config(args.config)
    unknown = set(cfg) - _RL_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    _ensure_outdir(args.out)
    mdp = ChainMdp(
        n_states=cfg.get("n_states", 5),
        terminal_reward=cfg.get("terminal_reward", args.reward_scale * 1000.0),
        gamma=cfg.get("gamma", 0.99),
    )
    agent = DoubleQAgent(
        mdp,
        hidden=tuple(cfg.get("hidden", (20, 20))),
        alpha=cfg.get("alpha", 3e-4),
        beta=cfg.get("beta", 0.01),
        epsilon_greedy=cfg.get("epsilon_greedy", 0.1),
        copy_period=cfg.get("copy_period", 500),
        seed=args.seed,
    )
    # a divergence raises inside the body, which leaves no file behind
    with atomic_open(os.path.join(args.out, "rl_metrics.csv"), newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RL_HEADER)
        step = 0
        for episode, metrics in enumerate(train(agent, max_steps=args.steps), 1):
            rewards = [0.0] * (metrics.steps - 1) + [metrics.total_reward]
            for row in zip(rewards, metrics.grad_norms, metrics.normalized_errors):
                step += 1
                writer.writerow([step, episode, *map(repr, row)])

    summary = {"steps": agent.step_count}
    if args.steps > 0:
        q_star = value_iteration(mdp)
        q_hat = agent.q_table()
        rel_err = float(np.max(np.abs(q_hat - q_star) / np.abs(q_star)))
        summary.update(
            {
                "terminal_reward": mdp.terminal_reward,
                "max_relative_q_error": rel_err,
                "greedy_policy": agent.greedy_policy().tolist(),
            }
        )
        print(f"max relative Q error after {agent.step_count} steps: {rel_err:.4f}")
    with atomic_open(os.path.join(args.out, "rl_summary.json")) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .checks import run_all

    results = run_all(profile=args.profile)
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
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--profile", choices=["ci", "full"], default="ci")
    p.add_argument("--svg", action="store_true", help="also write per-method charts")
    p.add_argument("--sort", action="store_true", help="sort CSV rows")
    p.set_defaults(func=cmd_binreg)

    p = sub.add_parser("rl-demo", help="chain-MDP double Q-learning demo")
    p.add_argument("--config", help="JSON config for MDP/agent settings")
    p.add_argument("--out", default="popart-rl", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=50_000)
    p.add_argument("--reward-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_rl_demo)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--profile", choices=["ci", "full"], default="full")
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
