"""Binary-regression experiment harness.

The data stream encodes uniform random integers in [0, 1023] as 16-bit
binary inputs with the integer itself as the regression target; every
1000th sample is the all-ones input with target 65535.  The rare huge
target is what stresses each optimizer: a single unnormalized update of
that magnitude can wreck a small network.

``run_single`` is one seeded run of one optimizer on one grid cell, a
plain per-sample loop that records the pre-update test error and the
gradient norm of each step.  ``run_grid`` sweeps the four optimizer
variants over an (alpha, beta) grid with repeated seeded runs and selects
each method's best cell by median area under the error curve.  A run
stops at its first non-finite prediction or loss and leaves the rest of
its trace at ``inf``; whether it diverged is read from its recorded
arrays, and a diverged run scores infinite area rather than crashing the
sweep.

Repetition ``i`` of every cell reads the same stream from the same
initial weights, so ``run_grid`` advances all runs of one seed in
lockstep: each tick draws one sample, makes one forward pass of the
runs' networks stacked on a leading run axis (:meth:`Mlp.stack`) and one
stacked prediction (:meth:`OutputLayer.stack`), and then takes each live
run's own public step, on its rows of the activations.  ``run_single``
is the reference for this front end: every record ``run_grid`` returns
equals, bit for bit, the one ``run_single`` gives for the same run.

``write_results_csv`` and ``read_results_csv`` own the ``results.csv``
format: reading back what was written gives the same records.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .network import Mlp
from .schedules import constant
from .stats import Normalizer
from .training import (
    OutputLayer,
    art_only_sgd_step,
    normalized_sgd_step,
    plain_sgd_step,
    popart_sgd_step,
)
from .values import check_setting, count, is_seed, real

METHODS = ("sgd", "art", "popart", "normalized_sgd")

# 11 half-decade points, 10^-5 .. 10^0
FULL_GRID = tuple(10.0 ** (-5 + 0.5 * i) for i in range(11))
# The 1e-5 row exists so unnormalized SGD has convergent cells: its
# lower-layer updates grow with the square of the target scale, and every
# alpha >= 10^-4.5 diverges on the first 65535 spike.
CI_ALPHAS = tuple(10.0**e for e in (-5.0, -4.0, -3.0, -2.5, -2.0))
CI_BETAS = tuple(10.0**e for e in (-4.0, -3.0, -2.0, -1.0, -0.5))

# A sweep holds every run's record until it ends: two float64 traces of
# n_samples, and about 1 KB besides (its job, record and arrays), as much
# as RUN_SAMPLES samples.  A grid is at most MAX_GRID_SAMPLES of these
# 16-byte units, about 2 GiB; the full profile, 24200 runs of 5000
# samples, is 1.23e8 of them.
RUN_SAMPLES = 64
MAX_GRID_SAMPLES = 2**27

RESULTS_HEADER = ["method", "alpha", "beta", "seed", "step", "rmse", "grad_norm"]


def _at_least_one(n) -> bool:
    return count(n) >= 1


def _each(ok):
    """The rule for a non-empty sequence whose every item meets ``ok``."""
    return lambda values: len(values) > 0 and all(map(ok, values))


# what a run's settings may be, in the order _Run takes them:
# ExperimentConfig checks its grid and sizes by these rules, _Run each run
# it builds, and read_results_csv the method, alpha, beta and seed of each
# run it reads.  A run's seed is base_seed plus its repetition, so it may
# pass sys.maxsize
_RUN_RULES = {
    "method": lambda m: m in METHODS,
    "alpha": lambda a: 0.0 < real(a) < math.inf,
    "beta": lambda b: 0.0 < real(b) <= 1.0,
    "seed": is_seed,
    "n_samples": _at_least_one,
    "hidden": _each(_at_least_one),
}


def _check_run(*settings) -> None:
    """Raise ``ValueError`` naming the first of a run's settings, given in
    :data:`_RUN_RULES`' order, that breaks its rule."""
    for (name, ok), value in zip(_RUN_RULES.items(), settings):
        check_setting(name, value, ok)


class BinRegStream:
    """Deterministic sample stream; steps are 1-based and sequential."""

    N_BITS = 16
    NORMAL_MAX = 2**10 - 1
    SPIKE_PERIOD = 1000
    SPIKE_VALUE = 2**16 - 1
    _BITS = np.arange(N_BITS)
    # row v is the encoding of v, for every value short of the spike
    _CODES = ((np.arange(NORMAL_MAX + 1)[:, None] >> _BITS) & 1).astype(float)
    _SPIKE_CODE = ((SPIKE_VALUE >> _BITS) & 1).astype(float)

    # values drawn per call into the generator: the generator hands out
    # 32-bit halves of its 64-bit outputs, and one draw of this range takes
    # one half, so a block holds exactly the values that one draw per
    # sample would give
    BLOCK = 256

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0xB17])
        self.step = 0
        self._values: list[int] = []

    def sample(self) -> tuple[np.ndarray, float]:
        self.step += 1
        if self.step % self.SPIKE_PERIOD == 0:
            return self._SPIKE_CODE.copy(), float(self.SPIKE_VALUE)
        if not self._values:
            block = self.rng.integers(0, self.NORMAL_MAX + 1, size=self.BLOCK)
            self._values = block.tolist()[::-1]
        value = self._values.pop()
        return self._CODES[value].copy(), float(value)


@dataclass
class ExperimentConfig:
    methods: tuple = METHODS
    alphas: tuple = CI_ALPHAS
    betas: tuple = CI_BETAS
    n_samples: int = 5000
    n_repetitions: int = 10
    smoothing_window: int = 10
    hidden: tuple = (10, 10, 10)
    base_seed: int = 1000

    def __post_init__(self) -> None:
        # every field is checked here, so that a bad one fails before any run
        check_setting("base_seed", self.base_seed, lambda s: is_seed(count(s)))
        # the sizes; a run's n_samples and hidden by the run's own rules
        for name in ("n_samples", "n_repetitions", "smoothing_window", "hidden"):
            check_setting(name, getattr(self, name), _RUN_RULES.get(name, _at_least_one))
        # the grid's lists, by the rules of their runs' method, alpha and beta
        for name, ok in zip(("methods", "alphas", "betas"), _RUN_RULES.values()):
            values = getattr(self, name)
            check_setting(name, values, _each(ok))
            # a grid value given twice runs its cells twice under one key
            if len(set(values)) < len(values):
                raise ValueError(f"invalid {name}: {values!r} repeats a value")
        runs = len(self.methods) * len(self.alphas) * len(self.betas) * self.n_repetitions
        size = runs * (self.n_samples + RUN_SAMPLES)
        if size > MAX_GRID_SAMPLES:
            raise ValueError(
                f"grid too large: {runs} runs x ({self.n_samples} samples + {RUN_SAMPLES}) = "
                f"{size} is above the limit of {MAX_GRID_SAMPLES} (2**27, about 2 GiB of records)"
            )

    @classmethod
    def profile(cls, name: str, base_seed: int = 1000) -> "ExperimentConfig":
        if name == "ci":
            return cls(base_seed=base_seed)
        if name == "full":
            return cls(alphas=FULL_GRID, betas=FULL_GRID, n_repetitions=50, base_seed=base_seed)
        raise ValueError(f"unknown profile {name!r}")

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        unknown = set(overrides) - set(self.__dataclass_fields__)
        if unknown:
            raise KeyError(f"unknown config keys: {sorted(unknown)}")
        # a JSON array becomes a tuple; any other value is checked as it is
        coerced = {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
        return replace(self, **coerced)


@dataclass
class RunRecord:
    method: str
    alpha: float
    beta: float
    seed: int
    rmse: np.ndarray
    grad_norm: np.ndarray

    @property
    def diverged(self) -> bool:
        """Whether any recorded error or gradient norm is non-finite."""
        return self.diverged_at is not None

    @property
    def diverged_at(self) -> int | None:
        """The first step whose recorded error or gradient norm is not
        finite, or None if the run did not diverge."""
        bad = ~(np.isfinite(self.rmse) & np.isfinite(self.grad_norm))
        return int(bad.argmax()) if bad.any() else None

    @property
    def auc(self) -> float:
        return math.inf if self.diverged else float(self.rmse.sum())


class _Run:
    """One seeded run of one optimizer on one grid cell: its network, its
    output layer and its trace, filled in by :meth:`advance`."""

    def __init__(self, method, alpha, beta, seed, n_samples, hidden):
        _check_run(method, alpha, beta, seed, n_samples, hidden)
        rng = np.random.default_rng([seed, 0x1217])
        self.net = Mlp([BinRegStream.N_BITS, *hidden], rng=rng)
        normalizer = Normalizer(k=1, schedule=constant(beta))
        self.layer = OutputLayer(1, hidden[-1], normalizer=normalizer, rng=rng)
        self.method, self.alpha = method, alpha
        self.record = RunRecord(
            method, alpha, beta, seed, np.full(n_samples, np.inf), np.full(n_samples, np.inf)
        )

    def advance(self, i: int, y: float, acts, pred: float) -> bool:
        """Record the test error ``|pred - y|`` of step ``i``, take the
        method's public step on ``acts``, the forward pass of the sample's
        input that gave ``pred``, and target ``y``, and record its
        gradient norm.  Return False at the first
        non-finite prediction or loss: the run has diverged, and the rest
        of its trace stays ``inf``."""
        if not math.isfinite(pred):
            return False
        self.record.rmse[i] = abs(pred - y)
        method, net, layer, alpha = self.method, self.net, self.layer, self.alpha
        if method == "popart":
            report = popart_sgd_step(net, layer, acts, y, alpha)
        elif method == "art":
            report = art_only_sgd_step(net, layer, acts, y, alpha)
        elif method == "sgd":
            report = plain_sgd_step(net, layer, acts, y, alpha)
        else:
            sigma = layer.normalizer.update(y)
            report = normalized_sgd_step(net, layer, acts, y, sigma, alpha)
        self.record.grad_norm[i] = report.gradient_norm
        return math.isfinite(report.squared_loss)


def run_single(
    method: str,
    alpha: float,
    beta: float,
    seed: int,
    n_samples: int = 5000,
    hidden: tuple = (10, 10, 10),
) -> RunRecord:
    """One seeded run of one optimizer on one grid cell.

    The error recorded at each step is the absolute error of the current
    unnormalized prediction on the upcoming sample, measured before any
    update from that sample (a test error).  This per-sample loop is the
    reference that :func:`run_grid`'s lockstep runs are checked against.

    Each setting is checked before any work, by the rules
    :class:`ExperimentConfig` applies to its grid and sizes; a bad one
    raises ``ValueError`` naming it (``invalid alpha: -0.001``).
    """
    run = _Run(method, alpha, beta, seed, n_samples, hidden)
    net, layer = run.net, run.layer
    stream = BinRegStream(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_samples):
            x, y = stream.sample()
            # one forward pass serves the test error and the step: nothing
            # touches the net in between
            acts = net.forward_pass(x)
            if not run.advance(i, y, acts, layer.unnormalized_output(acts[-1])[0]):
                break
    return run.record


def _run_lockstep(jobs) -> list[RunRecord]:
    """The runs of ``jobs``, ``run_single`` argument tuples that share one
    seed, ``n_samples`` and ``hidden``, advanced together.

    All runs read the same stream, so each tick draws one sample, makes
    one forward pass of the stacked networks and one stacked prediction,
    and then takes each live run's own public step on its rows of the
    activations.  Rows are independent, so each record equals the one
    ``run_single`` gives, bit for bit; the rows of a diverged run go on
    computing NaN, which the errstate keeps quiet, and are never read.
    """
    runs = [_Run(*job) for job in jobs]
    _, _, _, seed, n_samples, _ = jobs[0]
    net = Mlp.stack(run.net for run in runs)
    layer = OutputLayer.stack(run.layer for run in runs)
    stream = BinRegStream(seed)
    live = list(enumerate(runs))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_samples):
            x, y = stream.sample()
            acts = net.forward_pass(x)
            preds = layer.unnormalized_output(acts[-1])[:, 0].tolist()
            rows = list(zip(*acts[1:]))
            live = [(r, run) for r, run in live if run.advance(i, y, [x, *rows[r]], preds[r])]
            if not live:
                break
    return [run.record for run in runs]


def run_grid(config: ExperimentConfig, workers: int = 1, progress=None):
    """Sweep every (method, alpha, beta) cell with repeated seeded runs.

    Returns ``(records, summary)`` where ``summary`` maps each method to
    its best cell (minimum median area under the error curve) with the
    chosen hyperparameters.  Repetition ``i`` of every method and cell
    shares seed ``base_seed + i`` so comparisons are paired.  The records
    come sorted by method, alpha, beta and seed, however the grid lists
    them, so among tied cells the summary names the smallest alpha, then
    beta.

    The runs of one seed advance in lockstep (see :func:`_run_lockstep`);
    with ``workers > 1`` the seed groups go to a process pool, each split
    into ``workers // gcd(seeds, workers)`` contiguous chunks, so the
    tasks are equal and fill a whole number of rounds of the pool, which
    starts at most one process per task.  The
    pool's modules (``concurrent.futures`` and ``multiprocessing``) load
    on first use with ``workers > 1``, not when this module is imported.
    The records come back in that sorted order, whatever the grouping;
    ``progress(i, n)`` is called for each in that order, as soon as it and
    every record before it are done.  ``workers`` is a count of
    at least 1; any other value raises ``ValueError`` naming it, before a
    run starts or a pool exists.
    """
    check_setting("workers", workers, lambda w: count(w) >= 1)
    jobs = [
        (method, alpha, beta, config.base_seed + rep, config.n_samples, config.hidden)
        for method in sorted(config.methods)
        for alpha in sorted(config.alphas)
        for beta in sorted(config.betas)
        for rep in range(config.n_repetitions)
    ]
    groups: dict[int, list[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job[3], []).append(index)
    # lcm(seeds, workers) equal tasks: a whole number of rounds for the pool
    split = workers // math.gcd(len(groups), workers)
    chunks = [part.tolist() for g in groups.values() for part in np.array_split(g, split) if part.size]
    records: list = [None] * len(jobs)
    done = 0
    if workers > 1:
        # imported here: concurrent.futures.process pulls in multiprocessing,
        # about 30 ms at import, and only a pooled sweep needs it
        from concurrent.futures import ProcessPoolExecutor
    tasks = [[jobs[i] for i in chunk] for chunk in chunks]
    # the pool forks all its processes at the first task: no more than tasks
    n_procs = min(workers, len(tasks))
    with ProcessPoolExecutor(max_workers=n_procs) if workers > 1 else nullcontext() as pool:
        results = pool.map(_run_lockstep, tasks) if pool else map(_run_lockstep, tasks)
        for chunk, recs in zip(chunks, results):
            for i, rec in zip(chunk, recs):
                records[i] = rec
            while done < len(jobs) and records[done] is not None:
                done += 1
                if progress:
                    progress(done, len(jobs))
    return records, summarize(records)


def summarize(records) -> dict:
    """Best (alpha, beta) per method by median area under the error curve;
    of tied cells, the first in record order, which :func:`run_grid` sorts.

    A method whose every cell diverged (at least half of each cell's runs
    diverged, so every median is ``inf``) has no best cell: its ``alpha``
    and ``beta`` are None and its ``median_auc`` is ``inf``.
    """
    cells: dict[tuple, list] = {}
    for rec in records:
        cells.setdefault((rec.method, rec.alpha, rec.beta), []).append(rec.auc)
    summary: dict[str, dict] = {}
    for (method, alpha, beta), aucs in cells.items():
        med = float(np.median(aucs))
        best = summary.setdefault(method, {"alpha": None, "beta": None, "median_auc": math.inf})
        if med < best["median_auc"]:
            best.update(alpha=alpha, beta=beta, median_auc=med)
    return summary


PERCENTILES = (10, 50, 90)


def aggregate(traces, window: int = 10) -> dict:
    """Per-step :data:`PERCENTILES` bands across repetitions, a stack of
    equal-length traces, then a trailing moving average over ``window``
    samples (window 1 leaves the trace untouched).
    """
    arr = np.asarray(traces, dtype=float)
    if arr.size == 0:
        raise ValueError("no traces to aggregate")
    if window < 1:
        raise ValueError("window must be >= 1")
    bands = {}
    for p in PERCENTILES:
        band = np.percentile(arr, p, axis=0)
        bands[p] = _moving_average(band, window)
    return bands


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return x.copy()
    csum = np.concatenate([[0.0], np.cumsum(x)])
    end = np.arange(1, len(x) + 1)
    lo = np.maximum(0, end - window)
    return (csum[end] - csum[lo]) / (end - lo)


# -- machine-readable outputs ---------------------------------------------


@contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Open a temp file beside ``path`` for writing text and rename it to
    ``path`` when the body finishes.  If the body raises, the temp file is
    deleted and any existing ``path`` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_results_csv(path: str, records) -> None:
    """Exact-header CSV, one row per (method, alpha, beta, seed, step).

    Each row is one f-string, the bytes ``csv.writer`` would write: no
    field needs quoting, and a float is written as its ``repr``.
    """
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(RESULTS_HEADER) + "\n")
        for rec in records:
            head = f"{rec.method},{rec.alpha!r},{rec.beta!r},{rec.seed},"
            fh.writelines(
                f"{head}{step},{rmse!r},{g!r}\n"
                for step, (rmse, g) in enumerate(zip(rec.rmse.tolist(), rec.grad_norm.tolist()), 1)
            )


def write_summary_json(path: str, summary: dict) -> None:
    """``summary`` as strict JSON: a method whose every cell diverged has
    ``null`` for its ``alpha``, ``beta`` and ``median_auc``."""
    rows = {}
    for method, best in summary.items():
        auc = best["median_auc"]
        rows[method] = {**best, "median_auc": auc if math.isfinite(auc) else None}
    with atomic_open(path) as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _whole_lines(fh):
    """The lines of ``fh``; a last line with no line break is yielded, so
    that its row is read and counted, and then raises ``ValueError``."""
    for line in fh:
        yield line
        if not line.endswith("\n"):
            raise ValueError("the last row has no line break: the file is cut short")


def read_results_csv(path: str) -> list[RunRecord]:
    """The records :func:`write_results_csv` wrote to ``path``, in file order.

    Rows group into runs by (method, alpha, beta, seed); each run's steps
    must read 1..n in order, with one n for every run in the file, as
    ``binreg`` writes ``n_samples`` rows for each.  A wrong header, a row of
    the wrong width, a field that does not parse, a method, alpha, beta or
    seed that no :class:`ExperimentConfig` runs, a step out of order, a run
    shorter than the longest or a last row with no line break, where a file
    was cut short mid-row, raises ``ValueError`` naming the file and the
    line.  The file is read one line at a time.
    """
    runs: dict[tuple, tuple[list, list]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(_whole_lines(fh))
        try:
            header = next(reader, None)
            if header != RESULTS_HEADER:
                raise ValueError(f"expected the header {','.join(RESULTS_HEADER)}")
            for row in reader:
                if len(row) != len(RESULTS_HEADER):
                    raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(row)}")
                method, alpha, beta, seed, step, rmse, grad_norm = row
                key = (method, float(alpha), float(beta), int(seed))
                if key not in runs:
                    _check_run(*key)
                rmses, grad_norms = runs.setdefault(key, ([], []))
                if int(step) != len(rmses) + 1:
                    raise ValueError(f"step {step} of run {key}, expected {len(rmses) + 1}")
                rmses.append(float(rmse))
                grad_norms.append(float(grad_norm))
            # checked at the last line, where a file cut short ends
            n = max((len(rmses) for rmses, _ in runs.values()), default=0)
            for key, (rmses, _) in runs.items():
                if len(rmses) != n:
                    raise ValueError(f"run {key} has {len(rmses)} steps, the longest {n}")
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {max(reader.line_num, 1)}: {exc}") from None
    return [
        RunRecord(*key, np.array(rmses), np.array(grad_norms))
        for key, (rmses, grad_norms) in runs.items()
    ]
