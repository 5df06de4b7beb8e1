#!/usr/bin/env python3
"""Benchmark of semilat, measured from outside through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     every workload, tracing off
    python3 perfbench/run.py --self-test        harness check in a few seconds

Run it from the repository root.  Workloads and metrics are declared in
BENCHMARK.json.  Each pass of a workload runs in a fresh child process and
is checked for correct output; the run repeats passes for --seconds and
reports medians.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of traced passes (see tracing.py), which
alternate with untraced ones so that the tracing overhead is measured too.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a record with the run's
environment, every pass and the span table is written under
.perfbench_work/results/.

Which per-layer metric should move which workload's wall_s:
  transform.*, enumeration.build_commuting_graph_s, enumeration.graph_edges,
  enumeration.search_self_s, enumeration.cliques: both n = 6 workloads, and
  nothing on families-n6.
  semilattice.verify_semilattice_* and pair_checks: both n = 6 workloads when
  called from enumeration; families-n6 only through the CLI commands.
  enumeration.spectrum_self_s, formats.format_spectrum_text_s: spectrum-n6.
  formats.dumps_s, formats.semilattice_to_dict_s, formats.output_bytes:
  enumerate-n6-json, which also drives its peak_rss_mb.
  semilattice.find_violation_s, is_maximal_s, natural_order_s,
  transitivity_order_s, reduction.*, formats.parse_transformations_s and the
  cli.<command>_s of the five batch commands: families-n6.
  A metric whose call site a workload never reaches reads 0 and is listed as
  absent in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = str(HERE / "child.py")
PY = sys.executable

SPECTRUM_ARGS = ("spectrum", "--n", "6", "--cap", "6")
ENUMERATE_ARGS = ("enumerate", "--n", "6", "--cap", "6", "--format", "json")
# Output bytes frozen from the program as it stood when this benchmark was
# defined.  Apart from the theorem row (size 32, count 6), the spectrum rows
# are exploratory: they are frozen here, never "corrected".
SPECTRUM_N6_SHA256 = "80611d15539c00adced36cacea96dceb7f833df015712badf047dd230e79d699"
ENUMERATE_N6_JSON_SHA256 = (
    "d913ce657fde72acdee960080a205a05a7590163178ce3b97e42a165dd3d84c7"
)
N6_COUNTS = {
    6: 6390, 7: 3060, 8: 3240, 9: 1440, 10: 3120, 11: 360, 12: 2160, 13: 360,
    14: 720, 15: 360, 16: 540, 17: 30, 18: 480, 20: 180, 24: 120, 32: 6,
}
N6_TOTAL = sum(N6_COUNTS.values())

FAMILIES = 200
SETUP_PER_PASS = 5  # fresh interpreters importing semilat.cli, before each pass
IMPORT_CLI = [PY, "-c", "import semilat.cli"]
RUN_LIMIT_S = 165.0  # every run ends well inside the 180 s it is allowed

# Per-layer metrics named after a span's self time but not after its span.
SPAN_OF_METRIC = {
    "enumeration.search_self_s": "enumeration.enumerate_maximal_semilattices",
    "enumeration.spectrum_self_s": "enumeration.spectrum",
}


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float  # the child's own peak, from wait4
    stderr: str


class Launcher:
    """Runs children one at a time through launcher.py, so that the peak RSS
    reported for each is its own (see launcher.py)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [PY, "-I", "-S", str(HERE / "launcher.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: Path | None = None) -> Proc:
        """Run one child to completion; it is killed at the deadline."""
        err = WORK / "stderr"
        request = {
            "argv": argv,
            "env": self.env,
            "stdout": str(stdout or os.devnull),
            "stderr": str(err),
            "timeout_s": self.deadline - perf_counter(),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = err.read_text(encoding="utf-8", errors="replace")
        return Proc(reply["code"], reply["wall_s"], reply["rss_mb"], stderr)

    def close(self) -> None:
        """Stop the launcher and, if one is running, its child."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


@dataclass
class Pass:
    """One checked execution of a workload in a fresh process."""

    traced: bool
    wall_s: float
    rss_mb: float
    attempted: int
    problems: list[str]
    failed: int
    latencies_s: list[float]
    families_per_s: float
    layers: dict[str, float] = field(default_factory=dict)  # counters and self times
    spans: dict[str, dict] = field(default_factory=dict)


def _read_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _layers(report: dict, output_bytes: int) -> dict[str, float]:
    layers = {name: row["self_s"] for name, row in report.get("spans", {}).items()}
    layers.update(report.get("counters", {}))
    layers["formats.output_bytes"] = output_bytes
    return layers


def parse_spectrum_text(text: str) -> tuple[dict, dict[int, int]]:
    lines = text.splitlines()
    head = dict(item.split("=") for item in lines[0].split())
    counts = {int(a): int(b) for a, b in (line.split() for line in lines[2:])}
    return head, counts


def check_spectrum(path: Path) -> list[str]:
    data = path.read_bytes()
    problems = []
    if hashlib.sha256(data).hexdigest() != SPECTRUM_N6_SHA256:
        problems.append("spectrum output differs from the frozen digest")
    try:
        head, counts = parse_spectrum_text(data.decode())
    except (ValueError, IndexError, UnicodeDecodeError):
        return problems + ["spectrum output does not parse"]
    if (head.get("max_size"), counts.get(32), head.get("total_maximal")) != (
        "32", 6, str(N6_TOTAL)
    ):
        problems.append("theorem row fails: expected size 32, count 6, total 22566")
    return problems


def check_listing(path: Path) -> list[str]:
    """Digest, and the size histogram against the spectrum's counts."""
    data = path.read_bytes()
    problems = []
    if hashlib.sha256(data).hexdigest() != ENUMERATE_N6_JSON_SHA256:
        problems.append("enumerate output differs from the frozen digest")
    try:
        listing = json.loads(data)
        sizes = Counter(len(s["elements"]) for s in listing["semilattices"])
        count = listing["count"]
    except (ValueError, KeyError, TypeError):
        return problems + ["enumerate output does not parse"]
    if count != N6_TOTAL or sizes != N6_COUNTS:
        problems.append("size histogram of the listing differs from the spectrum")
    return problems


class CliWorkload:
    """One `semilat` command with fixed arguments, run in a fresh process."""

    def __init__(self, launcher: Launcher, args: tuple[str, ...], check):
        self.launcher = launcher
        self.args = args
        self.check = check

    def prepare(self, seed: int) -> None:
        """The command takes no generated input; the seed is only recorded."""

    def run_pass(self, traced: bool) -> Pass:
        out, report_path = WORK / "stdout", WORK / "report.json"
        report_path.unlink(missing_ok=True)
        if traced:
            argv = [PY, CHILD, "cli", str(report_path), "--trace", "--", *self.args]
        else:
            argv = [PY, "-m", "semilat.cli", *self.args]
        proc = self.launcher.run(argv, out)
        problems = [] if proc.code == 0 else [f"exit {proc.code}: {proc.stderr[-300:]}"]
        if proc.code == 0:
            problems += self.check(out)
        report = _read_report(report_path) if traced else {}
        if traced and not report:
            problems.append("traced child wrote no report")
        return Pass(
            traced, proc.wall_s, proc.rss_mb, 1, problems, int(bool(problems)),
            [proc.wall_s], N6_TOTAL / proc.wall_s,
            _layers(report, out.stat().st_size), report.get("spans", {}),
        )


class FamiliesWorkload:
    """A seeded batch of candidate families, five CLI operations each, all
    through `semilat.cli.main` in one fresh process."""

    def __init__(self, launcher: Launcher, count: int):
        self.launcher = launcher
        self.count = count
        self.families = []
        self.expected = []
        self.names: list[str] = []

    def prepare(self, seed: int) -> None:
        from families import COMMANDS, make_families

        self.families = families = make_families(seed, self.count)
        inputs, self.outputs = WORK / "in", WORK / "out"
        for d in (inputs, self.outputs):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        operations = []
        self.expected, self.names = [], []
        for i, fam in enumerate(families):
            path = inputs / f"f{i:03d}.txt"
            path.write_text(fam.text, encoding="utf-8")
            for command, expected in zip(COMMANDS, fam.expected):
                name = f"f{i:03d}-{'-'.join(c.strip('-') for c in command)}"
                operations.append(
                    [*command, "--in", str(path), "--out", str(self.outputs / name)]
                )
                self.expected.append(expected)
                self.names.append(name)
        (WORK / "manifest.json").write_text(json.dumps(operations), encoding="utf-8")

    def run_pass(self, traced: bool) -> Pass:
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir()
        report_path = WORK / "report.json"
        report_path.unlink(missing_ok=True)
        argv = [PY, CHILD, "families", str(WORK / "manifest.json"), str(report_path)]
        proc = self.launcher.run(argv + ["--trace"] * traced)
        report = _read_report(report_path)
        ops = len(self.expected)
        if proc.code != 0 or len(report.get("codes", ())) != ops:
            problem = f"batch process failed, exit {proc.code}: {proc.stderr[-300:]}"
            return Pass(traced, proc.wall_s, proc.rss_mb, ops, [problem], ops,
                        [proc.wall_s], self.count / proc.wall_s)
        problems, failed, written = [], 0, 0
        for name, expected, code, stderr in zip(
            self.names, self.expected, report["codes"], report["stderr"]
        ):
            path = self.outputs / name
            output = path.read_text("utf-8", "replace") if path.exists() else None
            written += len(output or "")
            found = expected.problems(code, output, stderr)
            if found:
                failed += 1
                problems.append(f"{name}: {'; '.join(found)}")
        return Pass(
            traced, proc.wall_s, proc.rss_mb, ops, problems, failed,
            report["latencies_s"], self.count / report["batch_s"],
            _layers(report, written), report.get("spans", {}),
        )


WORKLOADS = {
    "spectrum-n6": lambda launcher: CliWorkload(launcher, SPECTRUM_ARGS, check_spectrum),
    "enumerate-n6-json": lambda launcher: CliWorkload(launcher, ENUMERATE_ARGS, check_listing),
    "families-n6": lambda launcher: FamiliesWorkload(launcher, FAMILIES),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: with fewer than 1/(1-q) samples this is the maximum."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(setup: list[float], passes: list[Pass], latencies: list[float]) -> dict:
    return {
        "wall_s": median(p.wall_s for p in passes),
        "setup_s": median(setup),
        "peak_rss_mb": median(p.rss_mb for p in passes),
        "families_per_s": median(p.families_per_s for p in passes),
        "request_p50_ms": 1000 * median(latencies),
    }


def per_layer(names, plain: list[Pass], traced: list[Pass]) -> tuple[dict, list]:
    """Median over traced passes; a metric whose span or counter never
    occurred reads 0 and is listed as absent."""
    values, absent = {}, []
    for name in names:
        if name == "trace.overhead_s":
            values[name] = median(p.wall_s for p in traced) - median(
                p.wall_s for p in plain
            )
            continue
        key = SPAN_OF_METRIC.get(name, name[:-2] if name.endswith("_s") else name)
        seen = [p.layers[key] for p in traced if key in p.layers]
        if not seen:
            absent.append(name)
        values[name] = median(seen) if seen else 0
    return values, absent


def merge_spans(passes: list[Pass]) -> dict[str, dict]:
    """Span table of the traced passes: medians of calls and times."""
    names = sorted({name for p in passes for name in p.spans})
    table = {}
    for name in names:
        rows = [p.spans[name] for p in passes if name in p.spans]
        table[name] = {
            "calls": median(r["calls"] for r in rows),
            "total_s": median(r["total_s"] for r in rows),
            "self_s": median(r["self_s"] for r in rows),
            "parents": sorted({c for r in rows for c in r["parents"]}),
        }
    return table


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run: passes for ``seconds``, set-up samples between them; returns
    the record."""
    started = perf_counter()
    launcher = Launcher(started + RUN_LIMIT_S)
    try:
        workload = WORKLOADS[name](launcher)
        workload.prepare(seed)
        launcher.run(IMPORT_CLI)  # compiles bytecode; not a sample
        setup_procs: list[Proc] = []
        plain: list[Pass] = []
        traced: list[Pass] = []
        while True:
            if not trace:  # spread over the run, like the passes they sit between
                setup_procs += [launcher.run(IMPORT_CLI) for _ in range(SETUP_PER_PASS)]
            for is_traced in (False, True) if trace else (False,):
                (traced if is_traced else plain).append(workload.run_pass(is_traced))
            now = perf_counter()
            slowest = max(p.wall_s for p in plain + traced)
            if now - started >= seconds or now + 2 * slowest + 5 > launcher.deadline:
                break
    finally:
        launcher.close()

    passes = plain + traced
    latencies = [x for p in plain for x in p.latencies_s]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        metrics, absent = per_layer([m["name"] for m in declared], plain, traced)
    else:
        setup = [p.wall_s for p in setup_procs]
        metrics, absent = end_to_end(setup, plain, latencies), []
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = len(setup_procs) + sum(p.attempted for p in passes)
    failed = sum(p.code != 0 for p in setup_procs) + sum(p.failed for p in passes)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    return {
        "workload": name,
        "why": why,
        "trace": int(trace),
        "run_seconds": seconds,
        "environment": environment(seed),
        "elapsed_s": perf_counter() - started,
        "setup_s": [p.wall_s for p in setup_procs],
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "rss_mb": p.rss_mb,
             "attempted": p.attempted, "failed": p.failed}
            for p in passes
        ],
        "problems": [msg for p in passes for msg in p.problems][:50],
        "fail_ratio": failed / attempted,
        # Recorded, not declared: on the n = 6 workloads a request is a whole
        # pass, so this is the slowest of a few passes and too noisy to bound.
        "request_p99_ms": 1000 * percentile(latencies, 0.99),
        "requests": len(latencies),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "absent": absent,
        "spans": merge_spans(traced),
    }


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}")
    print(f"why: {record['why']}")
    print(
        f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  "
        f"src_sha256 {env['src_sha256'][:16]}"
    )
    walls = " ".join(
        f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in record["passes"]
    )
    print(f"passes (s, t = traced): {walls}")
    for msg in record["problems"]:
        print(f"FAIL {msg}")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    print(f"{'request_p99_ms':40s} {record['request_p99_ms']:.6g} ms "
          f"(of {record['requests']} untraced requests; not bounded)")
    for name, m in record["metrics"].items():
        note = "  (absent)" if name in record["absent"] else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    if record["spans"]:
        print(f"{'span':45s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}  parents")
        for name, row in sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"{name:45s} {row['calls']:7g} {row['total_s']:9.4f} "
                f"{row['self_s']:9.4f}  {','.join(row['parents'])}"
            )
        roots = sum(r["total_s"] for r in record["spans"].values() if "-" in r["parents"])
        walls = {
            kind: median(p["wall_s"] for p in record["passes"] if p["traced"] == kind)
            for kind in (True, False)
        }
        print(f"self times sum to {roots:.4f} s; median wall traced "
              f"{walls[True]:.4f} s, untraced {walls[False]:.4f} s")


def save_record(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = record["environment"]
    path = results / f"{record['workload']}-seed{env['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")


def result_line(record: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: record[k] for k in keys})


def self_test() -> int:
    """Counters at n = 4 from a traced run, and a small families batch
    whose checker must pass the program and catch a wrong expectation."""
    from families import Expected

    problems = []
    launcher = Launcher(perf_counter() + RUN_LIMIT_S)
    try:
        report_path = WORK / "report.json"
        proc = launcher.run(
            [PY, CHILD, "cli", str(report_path), "--trace", "--", "enumerate", "--n", "4"]
        )
        counters = _read_report(report_path).get("counters", {})
        want = {"transform.idempotents": 41, "enumeration.graph_edges": 280,
                "enumeration.cliques": 76, "semilattice.verify_semilattice_calls": 76,
                "semilattice.verify_reject_ratio": 0}
        got = {k: counters.get(k) for k in want}
        if proc.code != 0 or got != want:
            problems.append(f"n = 4 counters {got}, expected {want}")

        batch = FamiliesWorkload(launcher, 10)
        batch.prepare(seed=1)
        kinds = {f.mutation for f in batch.families}
        if kinds != {None, "add-noncommuting", "remove-product"}:
            problems.append(f"batch lacks a path: mutations {kinds}")
        if not any(f.size == 32 and f.mutation is None for f in batch.families):
            problems.append("batch has no full (maximal) family")
        for traced in (False, True):
            p = batch.run_pass(traced)
            if p.failed or p.attempted != 50:
                problems.append(f"batch (traced={traced}) failed: {p.problems[:3]}")
        if not {"cli.order_transitivity", "semilattice.is_maximal"} <= set(p.spans):
            problems.append(f"traced batch lacks spans: {sorted(p.spans)}")
        batch.expected[0] = Expected(0, "VALID n=6 size=0\n")
        if batch.run_pass(False).failed != 1:
            problems.append("checker accepted a wrong expectation")
    finally:
        launcher.close()
    for msg in problems:
        print(f"FAIL {msg}")
    print("self-test", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (SRC / "semilat" / "cli.py").is_file():
        print(f"error: no semilat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))  # the families generator uses the library
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    seconds = args.seconds or spec["run_seconds"]
    records = []
    for name in names:
        record = measure(spec, name, args.seed, seconds, bool(args.trace))
        save_record(record)
        print_record(record)
        records.append(record)
    (WORK / "stdout").unlink(missing_ok=True)  # the 21 MB listing
    if len(records) == 1:
        print(result_line(records[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
