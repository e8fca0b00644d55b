"""Span tracer for popart's hot-path functions, installed from outside.

:meth:`Tracer.installed` replaces each function in :data:`TRACED` with a
wrapper that records one span per call: which function, its start and
end time, and the span it was called from.  Spans stay in compact arrays
in memory and are written out once, at the end, by :func:`write`.
A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (metric prefix, module under popart, attribute path in that module)
TRACED = (
    ("network.forward_pass", "network", "Mlp.forward_pass"),
    ("network.backward", "network", "Mlp.backward"),
    ("network.apply_param_step", "network", "Mlp.apply_param_step"),
    ("network.copy", "network", "Mlp.copy"),
    ("stats.Normalizer.update", "stats", "Normalizer.update"),
    ("schedules.StepSizeSchedule.step", "schedules", "StepSizeSchedule.step"),
    ("training.OutputLayer.rescale_to", "training", "OutputLayer.rescale_to"),
    ("training.predict", "training", "predict"),
    ("training.popart_sgd_step", "training", "popart_sgd_step"),
    ("training.art_only_sgd_step", "training", "art_only_sgd_step"),
    ("training.plain_sgd_step", "training", "plain_sgd_step"),
    ("training.normalized_sgd_step", "training", "normalized_sgd_step"),
    ("binreg.BinRegStream.sample", "binreg", "BinRegStream.sample"),
    ("binreg.run_single", "binreg", "run_single"),
    ("binreg.summarize", "binreg", "summarize"),
    ("binreg.write_results_csv", "binreg", "write_results_csv"),
    ("binreg.write_summary_json", "binreg", "write_summary_json"),
    ("rl.DoubleQAgent.act", "rl", "DoubleQAgent.act"),
    ("rl.DoubleQAgent.double_q_target", "rl", "DoubleQAgent.double_q_target"),
    ("rl.DoubleQAgent.learn_transition", "rl", "DoubleQAgent.learn_transition"),
    ("rl.DoubleQAgent.q_table", "rl", "DoubleQAgent.q_table"),
    ("rl.value_iteration", "rl", "value_iteration"),
)
# each executed SGD step makes exactly one call to one of these
STEP_FUNCTIONS = (
    "training.popart_sgd_step",
    "training.art_only_sgd_step",
    "training.plain_sgd_step",
    "training.normalized_sgd_step",
)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []

    def _wrap(self, fn, name_id: int):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in :data:`TRACED` inside the block.

        A module-level function is also replaced in every popart module
        that imported it by name, so calls through those names are seen.
        """
        patched = []
        modules = [m for n, m in sys.modules.items() if n == "popart" or n.startswith("popart.")]
        try:
            for name_id, (_, module, path) in enumerate(TRACED):
                *owner_path, attr = path.split(".")
                owner = importlib.import_module(f"popart.{module}")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                holders = [owner] if owner_path else [
                    m for m in modules if vars(m).get(attr) is original
                ]
                wrapped = self._wrap(original, name_id)
                for holder in holders:
                    setattr(holder, attr, wrapped)
                    patched.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def _arrays(self):
        # copies, so the arrays can still grow afterwards
        name_id = np.array(self.name_ids, dtype=np.int32)
        parent = np.array(self.parents, dtype=np.int32)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name_id, dur, dur - child

    def call_counts(self) -> dict:
        """``<name>.calls`` for every traced name, and ``spans`` in all."""
        counts = np.bincount(np.array(self.name_ids, dtype=np.int32), minlength=len(TRACED))
        out = {f"{name}.calls": int(n) for name, n in zip(self.names, counts)}
        out["spans"] = len(self.starts)
        return out


def layer_metrics(tracers) -> dict:
    """``<name>.{calls,us_p50,us_p99,self_us_p50}`` for every traced name.

    Each tracer holds one repetition of the same work.  ``calls`` is the
    first tracer's count (the caller checks that the others match); the
    timings pool the spans of every tracer.  A function that was never
    called reports 0 for each statistic.
    """
    name_id, dur, self_time = (np.concatenate(a) for a in zip(*(t._arrays() for t in tracers)))
    calls = tracers[0].call_counts()
    out = {}
    for i, name in enumerate(tracers[0].names):
        sel = name_id == i
        called = bool(np.any(sel))
        d = dur[sel] * 1e6
        out[f"{name}.calls"] = calls[f"{name}.calls"]
        out[f"{name}.us_p50"] = float(np.percentile(d, 50)) if called else 0.0
        out[f"{name}.us_p99"] = float(np.percentile(d, 99)) if called else 0.0
        out[f"{name}.self_us_p50"] = float(np.median(self_time[sel]) * 1e6) if called else 0.0
    return out


def write(tracers, path) -> None:
    """Write every span of every tracer as ``.npz``: its repetition (the
    tracer's index), name id, parent index within that repetition (-1 at
    the top), start and end."""
    np.savez(
        path,
        names=np.array(tracers[0].names),
        repetition=np.concatenate(
            [np.full(len(t.starts), i, dtype=np.int32) for i, t in enumerate(tracers)]
        ),
        name_id=np.concatenate([np.array(t.name_ids, dtype=np.int32) for t in tracers]),
        parent=np.concatenate([np.array(t.parents, dtype=np.int32) for t in tracers]),
        start=np.concatenate([np.array(t.starts) for t in tracers]),
        end=np.concatenate([np.array(t.ends) for t in tracers]),
    )
