"""The per-layer tracer wraps ``qbnets`` functions by name; a wrapped
function that leaves its module is reported as absent, and the traced
run then lacks metrics the benchmark declares. This pins every name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qbnets_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = [span for span, _ in load_tracer().SPANS]
    assert spans
    missing = []
    for span in spans:
        module_name, func = span.split(".")
        module = importlib.import_module(f"qbnets.{module_name}")
        if not callable(getattr(module, func, None)):
            missing.append(span)
    assert not missing, f"traced functions missing from qbnets: {missing}"
