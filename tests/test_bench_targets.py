"""The benchmark tracer wraps engine functions by name; every name must resolve."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.TARGETS and not missing, missing
