"""The call sites the benchmark's tracer wraps by name still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for layer, module_name, path in tracer.TARGETS:
        importlib.import_module(module_name)
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr, None)), layer
