"""Text, JSON, and CSV renderings shared by the CLI, scripts, and fixtures.

Transformations travel as whitespace-separated image words, one per line;
``#`` starts a comment.  A semilattice file may carry a leading header line
``n=<N> [t=<T>] size=<K>``, with T < N and K the number of distinct maps.
All JSON is emitted with sorted keys and a fixed layout so identical runs
are byte-identical: :func:`dumps`, except the two long listings, which
:func:`listing_to_json` and :func:`idempotents_to_json` yield as text in the
same layout, one chunk per family or map, so the CLI writes them without
holding the whole listing; the enumerate listing is read as rank tuples,
each map's block is rendered once, and the tests pin the joined chunks of
both byte-equal to :func:`dumps` of the dicts.
:func:`listing_to_text` yields the text listing the same way, each map's
line rendered once.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

from ._record import Record
from .enumeration import Listing, SpectrumReport
from .reduction import ReductionResult
from .semilattice import PosetRelation, Semilattice
from .transform import Transformation

_HEADER_RE = re.compile(r"^n=([0-9]+)(?:\s+t=([0-9]+))?\s+size=([0-9]+)$")
# ASCII digit tokens; \s is exactly the characters str.isspace() accepts
_WORD_RE = re.compile(r"[0-9]+(?:\s+[0-9]+)*")


class ParseError(ValueError):
    """Input file problem, located by 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ParsedFile(Record):
    __slots__ = ("n", "transformations")

    def __init__(self, n: int, transformations: tuple[Transformation, ...]):
        super().__init__(n, transformations)


def parse_transformations(text: str) -> ParsedFile:
    """Parse an image-word file, honoring comments and an optional header."""
    n: int | None = None
    announced: int | None = None  # the header's size
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
        if not _WORD_RE.fullmatch(line):
            raise ParseError(lineno, f"not an image word: {line!r}")
        images = tuple(map(int, line.split()))
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


def semilattice_header(s: Semilattice, t: int | None = None) -> str:
    mid = f" t={t}" if t is not None else ""
    return f"n={s.n}{mid} size={len(s)}"


def format_semilattice_text(s: Semilattice, t: int | None = None) -> str:
    lines = [semilattice_header(s, t)]
    lines.extend(e.word() for e in s.elements)
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    import json  # only the commands that write JSON load it

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def semilattice_to_dict(s: Semilattice, annotations: dict | None = None) -> dict:
    d: dict = {"n": s.n, "elements": [list(e.images) for e in s.elements]}
    if annotations is not None:
        d["annotations"] = annotations
    return d


def _json_ints(values, indent: int) -> str:
    """A nonempty list of ints laid out as :func:`dumps` lays it out when
    the list sits ``indent`` spaces in."""
    outer, inner = " " * indent, " " * (indent + 2)
    return f"{outer}[\n{inner}" + f",\n{inner}".join(map(str, values)) + f"\n{outer}]"


def idempotents_to_json(n: int, idempotents: Sequence[Transformation]) -> Iterator[str]:
    """The ``idempotents`` listing as JSON, in chunks, one per map: joined,
    byte for byte :func:`dumps` of ``{"n": n, "count": len(idempotents),
    "idempotents": [list(e.images), ...]}``, without that dict or the whole
    string.  Every listing is nonempty."""
    yield f'{{\n  "count": {len(idempotents)},\n  "idempotents": [\n'
    separator = ""
    for e in idempotents:
        yield separator + _json_ints(e.images, 4)
        separator = ",\n"
    yield f'\n  ],\n  "n": {n}\n}}\n'


def listing_to_json(listing: Listing) -> Iterator[str]:
    """The enumerate listing as JSON, in chunks: the opening framing, one
    chunk per family, then the closing lines.  Joined, the chunks are byte
    for byte :func:`dumps` of ``{"n": n, "count": len(listing),
    "semilattices": [semilattice_to_dict(s), ...]}``, written as text from
    the listing's rank tuples, without building those dicts, the families
    or the whole string.  Every listing is nonempty.

    A map sits in many families, so each map's indented block is rendered
    once, at its rank in ``listing.maps``, and the fixed framing of
    ``dumps`` joins the blocks.
    """
    n = listing.n
    blocks = [_json_ints(images, 8) for images in listing.maps]
    yield f'{{\n  "count": {len(listing)},\n  "n": {n},\n  "semilattices": [\n'
    separator = ""
    for ranks in listing.ranked():
        yield (
            separator + '    {\n      "elements": [\n'
            + ",\n".join(map(blocks.__getitem__, ranks))
            + f'\n      ],\n      "n": {n}\n    }}'
        )
        separator = ",\n"
    yield "\n  ]\n}\n"


def listing_to_text(listing: Listing) -> Iterator[str]:
    """The enumerate listing as text, in chunks: the header line, then one
    chunk per family, a blank line and the family as
    :func:`format_semilattice_text` renders it, written from the listing's
    rank tuples.  Each map's line is rendered once, at its rank."""
    n = listing.n
    words = [" ".join(map(str, images)) for images in listing.maps]
    yield f"n={n} count={len(listing)}\n"
    for ranks in listing.ranked():
        yield (
            f"\nn={n} size={len(ranks)}\n"
            + "\n".join(map(words.__getitem__, ranks)) + "\n"
        )


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
