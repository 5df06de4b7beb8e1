"""The benchmark's tracer wraps library functions by name; each must exist,
the CLI's JSON output must pass through the wrapped `formats.dumps`, and the
counters it reads off the wrapped calls must keep their values."""

import importlib
import importlib.util
from pathlib import Path

from semilat import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_is_bound():
    tracing = _load_tracing()
    unbound = [
        (module, name)
        for module, name, _ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), name)
    ]
    assert tracing.WRAPPED and unbound == []


def test_json_output_goes_through_the_traced_dumps(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["spectrum", "--n", "3", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("{")
    assert "formats.dumps" in tracer.table()


def test_enumerate_counters_read_the_sink_zero_search(capsys):
    # The counters the benchmark reports at n = 4: the 23 sink-0 idempotents,
    # the 106 edges among them and the 76 listed families.  An internal move
    # that unhooks a wrapped name drops or changes one of them.
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["enumerate", "--n", "4", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("{")
    want = {
        "transform.idempotents": 23,
        "enumeration.graph_edges": 106,
        "enumeration.cliques": 76,
    }
    counters = tracer.counters()
    assert {name: counters.get(name) for name in want} == want
