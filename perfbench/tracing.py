"""Span tracing for the benchmark's traced runs.

The library's modules import each other's functions by name: `semilat.cli`
calls `spectrum` through its own global `semilat.cli.spectrum`, not through
`semilat.enumeration.spectrum`.  So the tracer replaces each function in the
namespace of the module that calls it.  Every replaced call records one span
(name, parent span, start, end); a span's self time is its duration minus
the time its child spans cover.

Only the layer-boundary calls that the benchmark's workloads reach are
wrapped, plus the one call inside `enumeration` (`spectrum` ->
`enumerate_maximal_semilattices`) that splits its self time into grouping
and search.  Per-element helpers such as `compose` stay unwrapped: wrapping
them would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Collection
from math import comb
from time import perf_counter

_FORMATS = (
    "parse_transformations",
    "dumps",
    "semilattice_to_dict",
    "format_semilattice_text",
    "format_reduction_text",
    "format_poset_text",
    "format_spectrum_text",
)

# (calling module, global name it calls through, span name)
WRAPPED = (
    ("semilat.cli", "spectrum", "enumeration.spectrum"),
    ("semilat.cli", "enumerate_maximal_semilattices",
     "enumeration.enumerate_maximal_semilattices"),
    ("semilat.cli", "find_violation", "semilattice.find_violation"),
    ("semilat.cli", "verify_semilattice", "semilattice.verify_semilattice"),
    ("semilat.cli", "is_maximal", "semilattice.is_maximal"),
    ("semilat.cli", "natural_order", "semilattice.natural_order"),
    ("semilat.cli", "transitivity_order", "semilattice.transitivity_order"),
    ("semilat.cli", "reduce_semilattice", "reduction.reduce_semilattice"),
    ("semilat.enumeration", "enumerate_maximal_semilattices",
     "enumeration.enumerate_maximal_semilattices"),
    ("semilat.enumeration", "build_commuting_graph",
     "enumeration.build_commuting_graph"),
    ("semilat.enumeration", "enumerate_idempotents",
     "transform.enumerate_idempotents"),
    ("semilat.enumeration", "verify_semilattice", "semilattice.verify_semilattice"),
    ("semilat.semilattice", "enumerate_idempotents",
     "transform.enumerate_idempotents"),
    ("semilat.reduction", "verify_semilattice", "semilattice.verify_semilattice"),
) + tuple(("semilat.formats", f, "formats." + f) for f in _FORMATS)

_VERIFY = "semilattice.verify_semilattice"
# Spans whose calls feed a counter; only these keep their arguments and results.
_COUNTED = {
    "transform.enumerate_idempotents",
    "enumeration.build_commuting_graph",
    "enumeration.enumerate_maximal_semilattices",
    _VERIFY,
}


class Tracer:
    """Spans and counter observations of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._observed: dict[str, list] = {name: [] for name in _COUNTED}
        self._undo: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name not in _COUNTED:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        else:
            observed = self._observed[name]

            def wrapper(*args, **kwargs):
                if name == _VERIFY and not isinstance(args[1], Collection):
                    # a one-shot candidate must survive to be counted afterwards
                    args = (args[0], tuple(args[1]), *args[2:])
                try:
                    result = self.call(name, fn, *args, **kwargs)
                except Exception:
                    observed.append((args, None))
                    raise
                observed.append((args, result))
                return result
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and parent names."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, parent, start, end), child in zip(self.spans, covered):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": []}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
            caller = self.spans[parent][0] if parent >= 0 else "-"
            if caller not in row["parents"]:
                row["parents"].append(caller)
        return out

    def counters(self) -> dict[str, float]:
        """Work counts taken at the same boundaries; a counter whose call
        site never ran is left out, not reported as zero."""
        obs = self._observed
        out: dict[str, float] = {}
        sized = [r for _, r in obs["transform.enumerate_idempotents"] if r is not None]
        if sized:
            out["transform.idempotents"] = max(len(r) for r in sized)
        graphs = [r for _, r in obs["enumeration.build_commuting_graph"] if r is not None]
        if graphs:
            out["enumeration.graph_edges"] = max(g.edge_count() for g in graphs)
        found = [
            r for _, r in obs["enumeration.enumerate_maximal_semilattices"]
            if r is not None
        ]
        if found:
            out["enumeration.cliques"] = max(len(r) for r in found)
        checks = obs[_VERIFY]
        if checks:
            rejected = sum(1 for _, r in checks if r is None)
            out["semilattice.verify_semilattice_calls"] = len(checks)
            out["semilattice.pair_checks"] = sum(
                comb(len(r) if r is not None else len(set(args[1])), 2)
                for args, r in checks
            )
            out["semilattice.verify_reject_ratio"] = rejected / len(checks)
        return out
