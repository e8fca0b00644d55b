"""Binary-regression experiment harness.

The data stream encodes uniform random integers in [0, 1023] as 16-bit
binary inputs with the integer itself as the regression target; every
1000th sample is the all-ones input with target 65535.  The rare huge
target is what stresses each optimizer: a single unnormalized update of
that magnitude can wreck a small network.

``run_grid`` sweeps the four optimizer variants over an (alpha, beta)
grid with repeated seeded runs, records the per-sample pre-update test
error, and selects each method's best cell by median area under the
error curve.  A run stops at its first non-finite prediction or loss
and leaves the rest of its trace at ``inf``; whether it diverged is read
from its recorded arrays, and a diverged run scores infinite area rather
than crashing the sweep.

``write_results_csv`` and ``read_results_csv`` own the ``results.csv``
format: reading back what was written gives the same records.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .network import Mlp
from .schedules import constant
from .stats import Normalizer, _check_setting
from .training import (
    OutputLayer,
    art_only_sgd_step,
    normalized_sgd_step,
    plain_sgd_step,
    popart_sgd_step,
)

METHODS = ("sgd", "art", "popart", "normalized_sgd")

# 11 half-decade points, 10^-5 .. 10^0
FULL_GRID = tuple(10.0 ** (-5 + 0.5 * i) for i in range(11))
# The 1e-5 row exists so unnormalized SGD has convergent cells: its
# lower-layer updates grow with the square of the target scale, and every
# alpha >= 10^-4.5 diverges on the first 65535 spike.
CI_ALPHAS = tuple(10.0**e for e in (-5.0, -4.0, -3.0, -2.5, -2.0))
CI_BETAS = tuple(10.0**e for e in (-4.0, -3.0, -2.0, -1.0, -0.5))

RESULTS_HEADER = ["method", "alpha", "beta", "seed", "step", "rmse", "grad_norm"]


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
        counts = {"base_seed": 0, "n_samples": 1, "n_repetitions": 1, "smoothing_window": 1}
        for name, least in counts.items():
            _check_setting(name, getattr(self, name), lambda n: operator.index(n) >= least)
        for name, ok in [
            ("methods", lambda m: m in METHODS),
            ("alphas", lambda a: 0.0 < a < math.inf),
            ("betas", lambda b: 0.0 < b <= 1.0),
            ("hidden", lambda n: operator.index(n) >= 1),
        ]:
            _check_setting(name, getattr(self, name), lambda v: len(v) > 0 and all(map(ok, v)))

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
        coerced = {
            k: tuple(v) if isinstance(getattr(self, k), tuple) else v
            for k, v in overrides.items()
        }
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
        return not (np.isfinite(self.rmse).all() and np.isfinite(self.grad_norm).all())

    @property
    def auc(self) -> float:
        return math.inf if self.diverged else float(self.rmse.sum())


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
    update from that sample (a test error).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng([seed, 0x1217])
    net = Mlp([BinRegStream.N_BITS, *hidden], rng=rng)
    normalizer = Normalizer(k=1, schedule=constant(beta))
    layer = OutputLayer(1, hidden[-1], normalizer=normalizer, rng=rng)
    stream = BinRegStream(seed)

    rmse = np.full(n_samples, np.inf)
    grad_norm = np.full(n_samples, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        _run_loop(method, net, layer, normalizer, stream, alpha, n_samples, rmse, grad_norm)
    return RunRecord(method, alpha, beta, seed, rmse, grad_norm)


def _run_loop(method, net, layer, normalizer, stream, alpha, n_samples, rmse, grad_norm):
    """Fill ``rmse`` and ``grad_norm`` step by step; stop at the first
    non-finite prediction or loss, which leaves the rest at ``inf``."""
    for i in range(n_samples):
        x, y = stream.sample()
        # one forward pass serves the test error and the step: nothing
        # touches the net in between
        acts = net.forward_pass(x)
        pred = layer.unnormalized_output(acts[-1])[0]
        if not math.isfinite(pred):
            return
        rmse[i] = abs(pred - y)
        if method == "popart":
            report = popart_sgd_step(net, layer, x, y, alpha, acts=acts)
        elif method == "art":
            report = art_only_sgd_step(net, layer, x, y, alpha, acts=acts)
        elif method == "sgd":
            report = plain_sgd_step(net, layer, x, y, alpha, acts=acts)
        else:
            sigma = normalizer.update(y)
            report = normalized_sgd_step(net, layer, x, y, sigma, alpha, acts=acts)
        grad_norm[i] = report.gradient_norm
        if not math.isfinite(report.squared_loss):
            return


def _run_cell(args) -> RunRecord:
    return run_single(*args)


def run_grid(config: ExperimentConfig, workers: int = 1, progress=None):
    """Sweep every (method, alpha, beta) cell with repeated seeded runs.

    Returns ``(records, summary)`` where ``summary`` maps each method to
    its best cell (minimum median area under the error curve) with the
    chosen hyperparameters.  Repetition ``i`` of every method and cell
    shares seed ``base_seed + i`` so comparisons are paired.
    """
    jobs = [
        (method, alpha, beta, config.base_seed + rep, config.n_samples, config.hidden)
        for method in config.methods
        for alpha in config.alphas
        for beta in config.betas
        for rep in range(config.n_repetitions)
    ]
    records = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        runs = pool.map(_run_cell, jobs, chunksize=4) if pool else map(_run_cell, jobs)
        for i, rec in enumerate(runs, 1):
            records.append(rec)
            if progress:
                progress(i, len(jobs))
    return records, summarize(records)


def summarize(records) -> dict:
    """Best (alpha, beta) per method by median area under the error curve.

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
    """Exact-header CSV, one row per (method, alpha, beta, seed, step)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for rec in records:
            run = (rec.method, repr(rec.alpha), repr(rec.beta), rec.seed)
            steps = range(1, len(rec.rmse) + 1)
            writer.writerows(
                zip(*map(repeat, run), steps, rec.rmse.tolist(), rec.grad_norm.tolist())
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


def read_results_csv(path: str) -> list[RunRecord]:
    """The records :func:`write_results_csv` wrote to ``path``, in file order.

    Rows group into runs by (method, alpha, beta, seed); each run's steps
    must read 1..n in order, with one n for every run in the file, as
    ``binreg`` writes ``n_samples`` rows for each.  A wrong header, a row of
    the wrong width, an unknown method, a field that does not parse, a step
    out of order or a run shorter than the longest raises ``ValueError``
    naming the file and the line.
    """
    runs: dict[tuple, tuple[list, list]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != RESULTS_HEADER:
                raise ValueError(f"expected the header {','.join(RESULTS_HEADER)}")
            for row in reader:
                if len(row) != len(RESULTS_HEADER):
                    raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(row)}")
                method, alpha, beta, seed, step, rmse, grad_norm = row
                if method not in METHODS:
                    raise ValueError(f"unknown method {method!r}")
                key = (method, float(alpha), float(beta), int(seed))
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
