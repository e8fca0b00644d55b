#!/usr/bin/env python3
"""Benchmark of popart's per-sample training stack.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep``, ``single`` and ``rl``.  The
workload's fixed work is repeated until ``--seconds`` have passed, always
at least once, in one process pinned to one CPU, with one BLAS thread.
Every repetition is checked against ``reference.json``; one that raises
or fails a check counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are reported:

- ``setup_s``: median over several fresh interpreters of the time from
  interpreter start through importing popart and building the inputs;
- ``wall_s``: median time to finish the workload's fixed work;
- ``steps_per_s``: median of SGD steps executed per second (``rl``:
  transitions learned per second);
- ``peak_rss_mb``: peak resident memory of the benchmark process.

Times are calibrated.  On a shared machine the speed of one CPU drifts
by up to a factor of two over seconds to minutes, as other tenants come
and go, and no run is long enough to average that out.  So the work is
timed in short parts (``sweep``: each ``run_grid`` cell and the writers;
``single``: each method; ``rl``: each 100 episodes; ``setup_s``: each
interpreter), a fixed calibration loop is timed on the same CPU before
and after each part, and a part's time is scaled by ``CALIBRATION_S``
over the loop's mean speed around it.  Times thus read as seconds on a
machine where the loop takes ``CALIBRATION_S``; the raw times are
printed too.

With ``--trace 1`` each repetition without tracing is followed by one with
the functions in ``tracer.TRACED`` wrapped by a fresh tracer, and the
per-layer metrics are reported: ``<layer>.{calls,us_p50,us_p99,self_us_p50}``
(calls per repetition, which must repeat; timings pooled over the traced
repetitions), the exact counts, ``failed_share`` and the tracing overhead
(traced minus untraced ``wall_s``).  Metrics of layers a workload never
calls, and counts that do not apply to it, read 0.  The spans are written
to ``.perfbench/trace-<workload>-<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the same figures by name, with units, for a reader.
"""

from __future__ import annotations

import os

# Must precede the first numpy import, here and in the set-up children.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import STEP_FUNCTIONS, Tracer, layer_metrics  # noqa: E402
from tracer import write as write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
# about the calibration loop's time on an idle 2-vCPU Xeon VM
CALIBRATION_S = 0.005

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_popart():
    """Import popart from this checkout's ``src``, or exit with an error."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import popart
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import popart from {SRC}: {exc}")
    if not Path(popart.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: popart was imported from {popart.__file__}, not {SRC}")
    return popart


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of small numpy and pure-Python work,
    the same kind of work as popart's per-sample stack."""
    t0 = time.perf_counter()
    a, w = np.linspace(-1.0, 1.0, 16), np.eye(16) * 0.5
    for _ in range(1200):
        a = np.tanh(w @ a + 0.1)
    x = 0
    for i in range(25_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class Stopwatch:
    """Times consecutive parts of some work, raw and calibrated (see the
    module docstring); the calibration loop runs between the parts."""

    def __init__(self):
        self.raw: list[float] = []
        self.calibrated: list[float] = []
        self.loops: list[float] = [calibration_loop()]
        self.t0 = time.perf_counter()

    def lap(self, *_) -> None:
        """End the current part and start the next."""
        raw = time.perf_counter() - self.t0
        self.loops.append(calibration_loop())
        self.raw.append(raw)
        speed = (1 / self.loops[-2] + 1 / self.loops[-1]) / 2
        self.calibrated.append(raw * CALIBRATION_S * speed)
        self.t0 = time.perf_counter()


def time_setup(workload: str, seed: int) -> Stopwatch:
    """Times ``SETUP_REPEATS`` fresh interpreters that import popart and
    build the inputs, one part each."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"import workloads; workloads.WORKLOADS[{workload!r}]({seed!r})"
    )
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True)
        watch.lap()
    return watch


class Repetition:
    """One execution of the fixed work: its time, outcome and failures.

    ``wall_s`` is the calibrated time of the work, ``raw_s`` the measured
    one.  With a tracer, the work runs with the functions in
    ``tracer.TRACED`` traced, and each executed step must show as one
    step-function call.
    """

    def __init__(self, work, ref: dict, out_root: Path, tracer=None):
        self.tracer = tracer
        self.outcome = None
        self.failures = []
        with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
            watch = Stopwatch()
            try:
                with tracer.installed() if tracer else contextlib.nullcontext():
                    self.outcome = work.run(out_dir, watch.lap)
            except Exception as exc:  # a raising run is a failed operation
                watch.lap()
                self.failures = [f"raised {exc!r}"]
            self.wall_s, self.raw_s = sum(watch.calibrated), sum(watch.raw)
            self.loops = watch.loops
            if self.failures:
                return
            try:
                self.failures = work.check(self.outcome, out_dir, ref)
            except Exception as exc:  # a check that cannot run counts as failed
                self.failures = [f"check raised {exc!r}"]
        if tracer is not None:
            counts = tracer.call_counts()
            step_calls = sum(counts[f"{name}.calls"] for name in STEP_FUNCTIONS)
            if step_calls != self.steps:
                self.failures.append(f"{step_calls} step calls traced, {self.steps} steps executed")

    @property
    def steps(self) -> int:
        return self.outcome.steps if self.outcome else 0

    def counts(self) -> dict:
        if not self.outcome:
            return {}
        counts = {"steps": self.steps, **self.outcome.counts}
        if self.tracer is not None:
            counts.update(self.tracer.call_counts())
        return counts


def repeat(work, ref, out_root, seconds: float, trace: bool = False):
    """Repetitions until ``seconds`` have passed; with ``trace``, each
    untraced repetition is followed by one traced by a fresh tracer."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(Repetition(work, ref, out_root))
        if trace:
            traced.append(Repetition(work, ref, out_root, Tracer()))
        if time.perf_counter() >= deadline:
            return plain, traced


def failures_of(reps) -> list[list[str]]:
    """Each repetition's check failures, plus any count that differs from
    the first repetition's."""
    first = next((r.counts() for r in reps if r.outcome), None)
    out = []
    for r in reps:
        fails = list(r.failures)
        if r.outcome and r.counts() != first:
            fails.append(f"counts {r.counts()} differ from {first}")
        out.append(fails)
    return out


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **BLAS_THREADS,
    }


def timing(reps) -> dict:
    """``wall_s`` and ``steps_per_s`` of untraced repetitions (see the
    module docstring); repetitions that raised count only if all did."""
    timed = [r for r in reps if r.outcome] or reps
    return {
        "wall_s": statistics.median(r.wall_s for r in timed),
        "steps_per_s": statistics.median(r.steps / r.wall_s for r in timed),
    }


def trace_metrics(workload, plain, traced) -> dict:
    """Per-layer metrics, exact counts and tracing overhead."""
    metrics = layer_metrics([r.tracer for r in traced])
    counts = next((r.counts() for r in traced if r.outcome), {})
    step_calls = sum(counts.get(f"{name}.calls", 0) for name in STEP_FUNCTIONS)
    per_step = counts["network.forward_pass.calls"] / step_calls if step_calls else 0.0
    metrics["network.forward_pass.per_step"] = per_step
    binreg = workload != "rl"
    metrics["binreg.executed_steps"] = counts.get("steps", 0) if binreg else 0
    metrics["binreg.diverged_runs"] = counts.get("diverged_runs", 0)
    metrics["binreg.csv_rows"] = counts.get("csv_rows", 0)
    metrics["rl.steps_to_tol"] = counts.get("steps_to_tol", 0)
    untraced_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = counts.get("spans", 0)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "us_p" in name:
        return "us"
    if name.endswith(".per_step"):
        return "calls/step"
    if name == "failed_share":
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "single", "rl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    # one CPU for the work, the calibration loop and the set-up children,
    # so that the loop sees the speed the work gets
    facts["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    _import_popart()
    import workloads

    ref = workloads.load_reference()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# workload={args.workload} seed={args.seed} {work.inputs} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    if args.trace:
        plain, traced = repeat(work, ref, workloads.OUT_DIR, args.seconds, trace=True)
        reps = plain + traced
        # traced repetitions also count calls, so each kind is compared apart
        failures = failures_of(plain) + failures_of(traced)
        metrics = trace_metrics(args.workload, plain, traced)
        write_spans([r.tracer for r in traced],
                    workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
    else:
        setup = time_setup(args.workload, args.seed)
        reps, _ = repeat(work, ref, workloads.OUT_DIR, args.seconds)
        failures = failures_of(reps)
        metrics = {
            "setup_s": statistics.median(setup.calibrated),
            **timing(reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    failed = sum(1 for f in failures if f)
    if args.trace:
        metrics["failed_share"] = failed / len(reps)
    for i, fails in enumerate(failures):
        for f in fails:
            print(f"# check failed (repetition {i + 1}): {f}")
    print("# repetition wall_s " + " ".join(f"{r.wall_s:.4f}" for r in reps))
    print("# repetition raw_s  " + " ".join(f"{r.raw_s:.4f}" for r in reps))
    loops = [t for r in reps for t in r.loops]
    if not args.trace:
        print("# setup_s of each interpreter " + " ".join(f"{t:.4f}" for t in setup.calibrated))
        print("# raw setup_s                 " + " ".join(f"{t:.4f}" for t in setup.raw))
        loops += setup.loops
    print(f"# calibration loop: median {statistics.median(loops):.5f} s, "
          f"least {min(loops):.5f} s, most {max(loops):.5f} s, {len(loops)} runs; "
          f"CALIBRATION_S={CALIBRATION_S}")
    print("# exact counts " + " ".join(f"{k}={v}" for k, v in reps[0].counts().items()))
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit_of(name)}")
    if not args.trace:
        # End-to-end metrics must never read 0 and must exist for every
        # workload, so these two are per-layer metrics of the traced run.
        print(f"{'failed_share':<42} {failed / len(reps):>16.6g} share ({failed} of {len(reps)})")
        if args.workload == "rl":
            print(f"{'steps_to_tol':<42} {reps[0].steps:>16d} count")
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
