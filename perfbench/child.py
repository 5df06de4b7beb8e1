"""Child processes of the benchmark; each starts in a fresh interpreter.

    child.py cli REPORT [--trace] -- ARGS...   one `semilat` command
    child.py families MANIFEST REPORT [--trace] every operation of a batch,
                                                 through `semilat.cli.main`

Both write a JSON report: exit codes, per-operation latencies and, when
traced, the span table and counters.  `--trace` wraps
the library as `tracing` describes; each `cli.main` call is a root span
named after its command.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import semilat.cli

    if not Path(semilat.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"semilat imported from {semilat.cli.__file__}, not {SRC}")
    return semilat.cli


def _span_name(argv) -> str:
    return "cli." + argv[0] + ("_transitivity" if "--transitivity" in argv else "")


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _write_report(path: str, report: dict, tracer) -> None:
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.table()
        report["counters"] = tracer.counters()
    Path(path).write_text(json.dumps(report), encoding="utf-8")


def run_cli(report_path: str, trace: bool, argv: list[str]) -> int:
    cli = _import_cli()
    tracer = _tracer(trace)
    start = perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.call(_span_name(argv), cli.main, argv)
    sys.stdout.flush()
    elapsed = perf_counter() - start
    _write_report(report_path, {"codes": [code], "latencies_s": [elapsed]}, tracer)
    return code


def run_families(manifest_path: str, report_path: str, trace: bool) -> int:
    operations = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    cli = _import_cli()
    tracer = _tracer(trace)
    codes, latencies, stderrs = [], [], []
    batch_start = perf_counter()
    for argv in operations:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(_span_name(argv), cli.main, argv)
            latencies.append(perf_counter() - start)
        codes.append(code)
        stderrs.append(err.getvalue())
    batch_s = perf_counter() - batch_start
    report = {
        "codes": codes,
        "latencies_s": latencies,
        "stderr": stderrs,
        "batch_s": batch_s,
    }
    _write_report(report_path, report, tracer)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        split = rest.index("--")
        return run_cli(rest[0], "--trace" in rest[1:split], rest[split + 1:])
    if mode == "families":
        return run_families(rest[0], rest[1], "--trace" in rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
