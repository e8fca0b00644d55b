"""The benchmark's span tracer, ``perfbench/tracer.py``, still finds and
wraps every function it traces, and puts each original back.  A traced
function deleted or renamed in ``src/`` fails here, not only in
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import popart.binreg

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
