"""The benchmark's span tracer, ``perfbench/tracer.py``, still finds and
wraps every function it traces, and puts each original back.  A traced
function deleted or renamed in ``src/`` fails here, not only in
``perfbench/run.py --trace 1``; so does an agent whose traced step calls
stop matching its steps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import popart.binreg
from popart.binreg import METHODS, run_single
from popart.rl import ChainMdp, DoubleQAgent, train

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    # learned transition; and, with act's pass reused or a random action,
    # one forward pass per step plus the argmax pass at a non-terminal s'
    tracer = _load_tracer()
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), copy_period=64, seed=0)
    with tracer.Tracer().installed() as traced:
        history = train(agent, max_steps=200)
    counts = traced.call_counts()
    assert counts["training.popart_sgd_step.calls"] == agent.step_count == 200
    assert counts["rl.DoubleQAgent.act.calls"] == agent.step_count
    terminal = sum(episode.total_reward != 0.0 for episode in history)
    copies = agent.step_count // agent.copy_period
    assert terminal > 0
    assert counts["network.forward_pass.calls"] == 2 * agent.step_count - terminal + copies


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
    assert counts["training.OutputLayer.rescale_to.calls"] == (n if method == "popart" else 0)
    assert counts["binreg.BinRegStream.sample.calls"] == n
