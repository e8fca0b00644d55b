"""The benchmark's span tracer, ``perfbench/tracer.py``, still finds and
wraps every function it traces, and puts each original back.  A traced
function deleted or renamed in ``src/`` fails here, not only in
``perfbench/run.py --trace 1``; so does an agent whose traced step calls
stop matching its steps.  The last two tests run that benchmark check
itself, on the ``rl`` and ``single`` workloads."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popart.binreg
from popart.binreg import METHODS, ExperimentConfig, run_grid, run_single
from popart.rl import ChainMdp, DoubleQAgent, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"popart.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_function_resolves_and_is_restored():
    tracer = _load_tracer()
    originals = {name: _resolve(module, path) for name, module, path in tracer.TRACED}
    step = popart.binreg.popart_sgd_step
    with tracer.Tracer().installed():
        for name, module, path in tracer.TRACED:
            assert _resolve(module, path).__wrapped__ is originals[name], name
        # binreg calls the step through the name it imported
        assert popart.binreg.popart_sgd_step.__wrapped__ is step
    for name, module, path in tracer.TRACED:
        assert _resolve(module, path) is originals[name], name
    assert popart.binreg.popart_sgd_step is step


def test_traced_agent_runs_one_step_call_per_step():
    # the check perfbench/run.py --trace 1 makes: one traced step call per
    # learned transition; one call per transition to each layer the step
    # goes through, so that the per-layer metrics keep timing them, and
    # one schedule step, so that reading the next statistics ahead of the
    # rescale leaves the schedule to the update; and one
    # forward pass per learned transition, act's, whether its action was
    # greedy or random, plus one per q_table() call
    tracer = _load_tracer()
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), copy_period=64, seed=0)
    with tracer.Tracer().installed() as traced:
        train(agent, max_steps=200)
    counts = traced.call_counts()
    assert counts["training.popart_sgd_step.calls"] == agent.step_count == 200
    for layer in (
        "network.backward",
        "network.apply_param_step",
        "stats.Normalizer.update",
        "schedules.StepSizeSchedule.step",
        "training.OutputLayer.rescale_to",
    ):
        assert counts[f"{layer}.calls"] == agent.step_count, layer
    assert counts["rl.DoubleQAgent.act.calls"] == agent.step_count
    copies = agent.step_count // agent.copy_period
    assert counts["rl.DoubleQAgent.q_table.calls"] == copies
    assert counts["network.forward_pass.calls"] == agent.step_count + copies
    assert counts["training.predict.calls"] == 0


@pytest.mark.parametrize("method", METHODS)
def test_traced_run_single_layer_calls_per_step(method):
    # each step runs one forward pass, shared with the test error, one
    # backward pass and one parameter update; the statistics move once a
    # step for every method but plain SGD, and only popart rescales
    tracer = _load_tracer()
    n = 300
    with tracer.Tracer().installed() as traced:
        record = run_single(method, 1e-5, 1e-2, seed=1000, n_samples=n)
    assert not record.diverged
    counts = traced.call_counts()
    for name in ("network.forward_pass", "network.backward", "network.apply_param_step"):
        assert counts[f"{name}.calls"] == n, name
    assert counts["stats.Normalizer.update.calls"] == (0 if method == "sgd" else n)
    # one schedule step per statistics update: computing the next
    # statistics ahead of a rescale must not advance the schedule
    assert counts["schedules.StepSizeSchedule.step.calls"] == (0 if method == "sgd" else n)
    assert counts["training.OutputLayer.rescale_to.calls"] == (n if method == "popart" else 0)
    assert counts["binreg.BinRegStream.sample.calls"] == n


def test_traced_run_grid_one_step_call_per_executed_step():
    # the check perfbench/run.py --trace 1 makes of its sweep: one traced
    # step call per executed step, a finite recorded error; and lockstep's
    # one stream draw and one stacked forward pass per tick and seed,
    # where every seed has a run that lasts all n_samples ticks
    tracer = _load_tracer()
    n = 1010
    config = ExperimentConfig(alphas=(3e-5, 1.0), betas=(0.01,), n_samples=n, n_repetitions=2)
    with tracer.Tracer().installed() as traced:
        records, _ = run_grid(config)
    counts = traced.call_counts()
    executed = sum(int(np.isfinite(r.rmse).sum()) for r in records)
    assert any(r.diverged for r in records)
    step_calls = sum(counts[f"{name}.calls"] for name in tracer.STEP_FUNCTIONS)
    assert step_calls == executed
    seeds = config.n_repetitions
    assert counts["network.forward_pass.calls"] == n * seeds
    assert counts["binreg.BinRegStream.sample.calls"] == n * seeds
    assert counts["binreg.run_single.calls"] == 0


def test_traced_run_grid_stops_drawing_once_every_run_of_a_seed_has_diverged():
    # at alpha 1 every run has diverged by step 7, and a seed group whose
    # runs have all diverged draws no further sample: 17 draws and stacked
    # passes over both seeds, where 2 * 1010 would mean it ran on
    tracer = _load_tracer()
    n = 1010
    config = ExperimentConfig(alphas=(1.0,), betas=(0.1, 0.01), n_samples=n, n_repetitions=2)
    with tracer.Tracer().installed() as traced:
        records, _ = run_grid(config)
    counts = traced.call_counts()
    assert all(r.diverged_at is not None and r.diverged_at <= 7 for r in records)
    assert counts["binreg.BinRegStream.sample.calls"] == 17
    assert counts["network.forward_pass.calls"] == 17
    for rec in records:
        ref = run_single(rec.method, rec.alpha, rec.beta, rec.seed, n_samples=n)
        # tobytes, not array_equal, which finds NaN unequal to NaN
        assert rec.rmse.tobytes() == ref.rmse.tobytes(), rec
        assert rec.grad_norm.tobytes() == ref.grad_norm.tobytes(), rec


def _perfbench_trace_check(workload):
    """One untraced and one traced repetition of ``workload``, each checked
    against perfbench/reference.json, the traced one also for one step call
    per executed step.  The spans go to .perfbench/, which .gitignore lists."""
    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout


def test_perfbench_rl_trace_check_passes():
    # about 6 s on a 2-vCPU VM
    _perfbench_trace_check("rl")


def test_perfbench_single_trace_check_passes():
    # the workload whose speed the per-sample kernel sets; about 3 s
    _perfbench_trace_check("single")
