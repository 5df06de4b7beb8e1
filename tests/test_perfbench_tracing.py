"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [
        (module, name)
        for module, name, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert tracing.WRAPPED and unbound == []
