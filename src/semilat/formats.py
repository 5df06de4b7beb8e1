"""Text, JSON, and CSV renderings shared by the CLI, scripts, and fixtures.

Transformations travel as whitespace-separated image words, one per line;
``#`` starts a comment.  A semilattice file may carry a leading header line
``n=<N> [t=<T>] size=<K>``, with T < N and K the number of distinct maps.
All JSON is emitted with sorted keys and a fixed layout so identical runs
are byte-identical: :func:`dumps`, except the enumerate listing, which
:func:`listing_to_json` writes as text in the same layout, a distinct map's
block once; the tests pin it byte-equal to :func:`dumps` of the dicts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .enumeration import SpectrumReport
from .reduction import ReductionResult
from .semilattice import PosetRelation, Semilattice
from .transform import Transformation

_HEADER_RE = re.compile(r"^n=([0-9]+)(?:\s+t=([0-9]+))?\s+size=([0-9]+)$")


class ParseError(ValueError):
    """Input file problem, located by 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class ParsedFile:
    n: int
    transformations: tuple[Transformation, ...]


def parse_transformations(text: str) -> ParsedFile:
    """Parse an image-word file, honoring comments and an optional header."""
    n: Optional[int] = None
    announced: Optional[int] = None  # the header's size
    seen_content = False
    out: list[Transformation] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_content:
            seen_content = True
            m = _HEADER_RE.match(line)
            if m:
                n, t, announced = int(m.group(1)), m.group(2), int(m.group(3))
                if t is not None and int(t) >= n:
                    raise ParseError(lineno, f"t={int(t)} outside [0, {n})")
                continue
        tokens = line.split()
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ParseError(lineno, f"not an image word: {line!r}")
        images = tuple(map(int, tokens))
        if n is None:
            n = len(images)
        elif len(images) != n:
            raise ParseError(
                lineno, f"expected {n} entries, got {len(images)}"
            )
        try:
            out.append(Transformation(n, images))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if not out:
        raise ParseError(1, "no transformations found")
    maps = len(set(out))
    if announced is not None and announced != maps:
        raise ParseError(
            1, f"header announces size={announced} but file has {maps} maps"
        )
    return ParsedFile(n, tuple(out))


def semilattice_header(s: Semilattice, t: Optional[int] = None) -> str:
    mid = f" t={t}" if t is not None else ""
    return f"n={s.n}{mid} size={len(s)}"


def format_semilattice_text(s: Semilattice, t: Optional[int] = None) -> str:
    lines = [semilattice_header(s, t)]
    lines.extend(e.word() for e in s.elements)
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def semilattice_to_dict(s: Semilattice, annotations: Optional[dict] = None) -> dict:
    d: dict = {"n": s.n, "elements": [list(e.images) for e in s.elements]}
    if annotations is not None:
        d["annotations"] = annotations
    return d


def listing_to_json(n: int, semis: Sequence[Semilattice]) -> str:
    """The enumerate listing as JSON: byte for byte :func:`dumps` of
    ``{"n": n, "count": len(semis), "semilattices": [semilattice_to_dict(s),
    ...]}``, written as text without building those dicts.  ``semis`` is
    nonempty, as every listing is.

    A map sits in many families, so each distinct map's indented block is
    rendered once, keyed by its image table, and the fixed framing of
    ``dumps`` joins the blocks.
    """
    blocks: dict[tuple[int, ...], str] = {}
    families = []
    for s in semis:
        rows = []
        for e in s.elements:
            block = blocks.get(e.images)
            if block is None:
                entries = ",\n          ".join(map(str, e.images))
                block = blocks[e.images] = f"        [\n          {entries}\n        ]"
            rows.append(block)
        families.append(
            '    {\n      "elements": [\n' + ",\n".join(rows)
            + f'\n      ],\n      "n": {s.n}\n    }}'
        )
    # the framing rides on the end blocks, so the whole text is copied once
    families[0] = (
        f'{{\n  "count": {len(semis)},\n  "n": {n},\n  "semilattices": [\n'
        + families[0]
    )
    families[-1] += "\n  ]\n}\n"
    return ",\n".join(families)


def reduction_to_dict(r: ReductionResult) -> dict:
    return {
        "anchor": {"t": r.anchor.t, "u": r.anchor.u},
        "star": semilattice_to_dict(r.star_image),
        "restricted": semilattice_to_dict(r.restricted),
        "sizes": {
            "S": r.source_size,
            "S_star": len(r.star_image),
            "S_star_u": len(r.restricted),
        },
    }


def format_reduction_text(r: ReductionResult) -> str:
    lines = [
        f"anchor: t={r.anchor.t} u={r.anchor.u}",
        f"sizes: S={r.source_size} S_star={len(r.star_image)} "
        f"S_star_u={len(r.restricted)}",
        "star:",
        format_semilattice_text(r.star_image).rstrip("\n"),
        "restricted:",
        format_semilattice_text(r.restricted).rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def poset_to_dict(name: str, relation: PosetRelation, n: int) -> dict:
    return {
        "order": name,
        "n": n,
        "carrier": [
            list(x.images) if isinstance(x, Transformation) else x
            for x in relation.carrier
        ],
        "leq": [[bool(v) for v in row] for row in relation.leq],
    }


def format_poset_text(name: str, relation: PosetRelation, n: int) -> str:
    lines = [f"order={name} n={n} size={len(relation.carrier)}", "carrier:"]
    for i, item in enumerate(relation.carrier):
        shown = item.word() if isinstance(item, Transformation) else str(item)
        lines.append(f"{i}: {shown}")
    lines.append("leq:")
    for row in relation.leq:
        lines.append(" ".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


def spectrum_to_dict(report: SpectrumReport) -> dict:
    return {
        "n": report.n,
        "max_size": report.max_size,
        "total_maximal": report.total_maximal,
        "histogram": [
            {"size": e.size, "count": e.count} for e in report.entries
        ],
        "witnesses": {
            str(e.size): semilattice_to_dict(e.witness) for e in report.entries
        },
    }


def spectrum_to_csv(report: SpectrumReport) -> str:
    lines = ["n,size,count"]
    lines.extend(f"{report.n},{e.size},{e.count}" for e in report.entries)
    return "\n".join(lines) + "\n"


def format_spectrum_text(report: SpectrumReport) -> str:
    lines = [
        f"n={report.n} total_maximal={report.total_maximal} "
        f"max_size={report.max_size}",
        "size count",
    ]
    lines.extend(f"{e.size:4d} {e.count:5d}" for e in report.entries)
    return "\n".join(lines) + "\n"


SPECTRUM_FIXTURE_NOTE = (
    "Only the max_size row (size 2^(n-1) with count n) is theorem-backed; "
    "every other row is exploratory output frozen for regression."
)


def spectrum_fixture_text(report: SpectrumReport) -> str:
    """Canonical bytes for the frozen spectrum regression fixtures."""
    return dumps({"note": SPECTRUM_FIXTURE_NOTE, "spectrum": spectrum_to_dict(report)})
