"""Exhaustive search for maximal subsemilattices of T(n).

Every maximal subsemilattice holds exactly one constant map c_t, the constant
to its sink t (the anchor lemma), and conjugating by the transposition (0 t)
of the points maps the families with sink 0 one-to-one onto those with sink
t.  So the search runs only on the idempotents that fix 0, which is c_0's
closed neighbourhood in the commuting graph, and the other sinks are got by
conjugation.

The substrate is the commuting graph over those idempotents: vertices in
canonical order, adjacency decided by the block-wise commuting test.  Maximal
subsemilattices coincide with maximal cliques of the commuting graph — the
product of two commuting idempotents is an idempotent commuting with every
common neighbor, so a maximal clique is automatically product-closed, and a
clique strictly containing a subsemilattice generates a strictly larger one.
c_0 is adjacent to every vertex of its neighbourhood, so the maximal cliques
there are exactly the maximal cliques of the whole graph that contain c_0.
None of this is taken on faith: the n <= 3 brute-force oracle pins the
clique identification in the test suite, the full graph over all idempotents
stays as the oracle for the sink-0 search and the conjugation, and every
emitted clique is re-verified axiom by axiom on a second route that never
reads the graph — naive composition of the vertices' image tables, memoised
per pair of vertex indices.

Cliques are enumerated by pivoted recursive expansion with candidate and
excluded sets held as bit vectors indexed by vertex index.  Every enumerating
entry point — the listing, the largest families and the spectrum — runs
this one search through :func:`_sink_zero_families`, which also checks the
cap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .semilattice import (
    Semilattice,
    collapse_semilattice,
    find_violation,
    is_boolean_lattice,
    verify_semilattice,
)
from .transform import (
    Transformation,
    check_points,
    commutes_with_idempotent,
    constant,
    enumerate_idempotents,
    orbit_decomposition,
    points,
)

DEFAULT_CAP = 5
HARD_CAP = 6
ORACLE_CAP = 3


class CapExceeded(ValueError):
    """Requested ground set is above the configured enumeration cap."""


def _check_cap(n: int, cap: int | None) -> None:
    limit = min(DEFAULT_CAP if cap is None else cap, HARD_CAP)
    if n > limit:
        raise CapExceeded(
            f"n={n} exceeds the enumeration cap {limit} (hard maximum {HARD_CAP})"
        )
    check_points(n)


@dataclass(frozen=True)
class CommutingGraph:
    """Symmetric, irreflexive adjacency over a list of idempotents.

    ``rows[i]`` is the neighbor set of vertex i as a bit vector.
    """

    n: int
    vertices: tuple[Transformation, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        v = len(self.vertices)
        if len(self.rows) != v:
            raise ValueError("adjacency rows do not match the vertex list")
        for i, row in enumerate(self.rows):
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} is adjacent to itself")
            if row >> v:
                raise ValueError(f"row {i} mentions vertices beyond the list")
            for j in points(row >> i):
                if not (self.rows[i + j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at {i}, {i + j}")

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def build_commuting_graph(
    n: int, vertices: tuple[Transformation, ...]
) -> CommutingGraph:
    """Edges between distinct commuting idempotents among ``vertices``, kept
    in the given order, decided by the block test on each vertex's
    :func:`orbit_decomposition`."""
    decs = [orbit_decomposition(e) for e in vertices]
    v = len(vertices)
    rows = [0] * v
    for i in range(v):
        dec = decs[i]
        for j in range(i + 1, v):
            if commutes_with_idempotent(dec, vertices[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return CommutingGraph(n, vertices, tuple(rows))


def _bron_kerbosch(rows, r: int, p: int, x: int, out: list) -> None:
    # Pivoted expansion; r, p, x are bit vectors over vertex indices.
    # Recursion depth is at most the largest clique plus one: 2^(n-1) + 1.
    if p == 0 and x == 0:
        out.append(r)
        return
    m = p | x
    best = -1
    pivot_nbrs = 0
    while m:
        lsb = m & -m
        v = lsb.bit_length() - 1
        m ^= lsb
        c = (p & rows[v]).bit_count()
        if c > best:
            best = c
            pivot_nbrs = rows[v]
    cand = p & ~pivot_nbrs
    while cand:
        lsb = cand & -cand
        v = lsb.bit_length() - 1
        cand ^= lsb
        nv = rows[v]
        _bron_kerbosch(rows, r | lsb, p & nv, x & nv, out)
        p &= ~lsb
        x |= lsb


def _maximal_clique_bitsets(rows: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    _bron_kerbosch(rows, 0, (1 << len(rows)) - 1, 0, out)
    return out


def _semilattice_sort_key(s: Semilattice):
    return (-len(s.elements), s.key())


# Codes stored in a product memo row in place of a vertex index.
_UNSEEN = -1
_NOT_COMMUTING = -2
_NOT_A_VERTEX = -3  # the product is not idempotent, or not in the list


class _CliqueVerifier:
    """The semilattice axioms for cliques given as bit vectors over a vertex list.

    Independent of the block test that builds the commuting graph: pairs are
    multiplied by naive composition of their image tables, and the product is
    looked up by image table.  Each pair's outcome is memoised in a row of
    signed 16-bit entries, allocated the first time its vertex leads a pair;
    16 bits index every sink-0 vertex list up to n = 8 (537 vertices at
    n = 6, 3100 at n = 7, 19 693 at n = 8).
    """

    def __init__(self, n: int, vertices: tuple[Transformation, ...]):
        self.n = n
        self.vertices = vertices
        self._images = [v.images for v in vertices]
        self._index = {images: i for i, images in enumerate(self._images)}
        self._idempotent = [
            all(a[a[x]] == a[x] for x in range(n)) for a in self._images
        ]
        self._memo: list[array | None] = [None] * len(vertices)

    def _product(self, i: int, j: int) -> int:
        a, b = self._images[i], self._images[j]
        ab = tuple(b[y] for y in a)
        if ab != tuple(a[y] for y in b):
            return _NOT_COMMUTING
        return self._index.get(ab, _NOT_A_VERTEX)

    def violation(self, clique: int) -> str | None:
        """The first axiom the clique breaks, in :func:`find_violation`'s
        order and naming, or None if its members form a semilattice."""
        members = points(clique)
        for i in members:
            if not self._idempotent[i]:
                return "idempotence"
        memo = self._memo
        for k, i in enumerate(members):
            row = memo[i]
            if row is None:
                row = memo[i] = array("h", [_UNSEEN]) * len(memo)
            for j in members[k + 1 :]:
                p = row[j]
                if p == _UNSEEN:
                    p = row[j] = self._product(i, j)
                if p == _NOT_COMMUTING:
                    return "commutativity"
                if p < 0 or not (clique >> p) & 1:
                    return "closure"
        return None

    def semilattice(self, clique: int) -> Semilattice:
        """The clique's members as a semilattice.

        A rejected clique goes through :func:`verify_semilattice`, whose
        :class:`SemilatticeError` names the axiom and the elements.
        """
        members = tuple(self.vertices[i] for i in points(clique))
        if self.violation(clique) is None:
            return Semilattice(self.n, members)
        verify_semilattice(self.n, members)
        raise RuntimeError(
            f"the index verifier and verify_semilattice disagree at n={self.n} "
            f"on the clique {[m.word() for m in members]}"
        )


def _sink_zero_families(n: int, cap: int | None) -> tuple[Semilattice, ...]:
    """The maximal subsemilattices of T(n) that contain the constant c_0,
    verified, in search order.  Raises CapExceeded above the cap."""
    _check_cap(n, cap)
    verts = enumerate_idempotents(n, (constant(n, 0),))  # the idempotents fixing 0
    graph = build_commuting_graph(n, verts)
    rows = graph.rows
    verifier = _CliqueVerifier(n, graph.vertices)
    semis = []
    full = (1 << len(rows)) - 1
    for clique in _maximal_clique_bitsets(rows):
        common = full
        for i in points(clique):
            common &= rows[i]
        if common:
            raise RuntimeError("search emitted a non-maximal clique")
        semis.append(verifier.semilattice(clique))
    return tuple(semis)


def _conjugates(
    n: int, t: int, semis: tuple[Semilattice, ...]
) -> list[Semilattice]:
    """Each of ``semis`` conjugated by the transposition (0 t) of the points."""
    swap = list(range(n))
    swap[0], swap[t] = t, 0
    # each element sits in many families: build its conjugate once
    image: dict[Transformation, Transformation] = {}

    def conjugate(e: Transformation) -> Transformation:
        c = image.get(e)
        if c is None:
            a = e.images
            c = image[e] = Transformation(n, tuple(swap[a[y]] for y in swap))
        return c

    return [
        Semilattice(n, tuple(sorted(map(conjugate, s), key=lambda e: e.images)))
        for s in semis
    ]


def _with_conjugates(
    n: int, sink_zero: tuple[Semilattice, ...]
) -> tuple[Semilattice, ...]:
    """Sink-0 families and their conjugates under (0 t) for t = 1..n-1, in
    canonical order."""
    semis = list(sink_zero)
    for t in range(1, n):
        semis += _conjugates(n, t, sink_zero)
    semis.sort(key=_semilattice_sort_key)
    return tuple(semis)


def enumerate_maximal_semilattices(
    n: int, cap: int | None = None
) -> tuple[Semilattice, ...]:
    """Every maximal subsemilattice of T(n), verified and canonically ordered.

    Output is sorted by size descending, then lexicographically on the carrier.
    """
    return _with_conjugates(n, _sink_zero_families(n, cap))


def _largest(semis: tuple[Semilattice, ...]) -> tuple[Semilattice, ...]:
    top = max(len(s) for s in semis)
    return tuple(s for s in semis if len(s) == top)


def max_size_semilattices(n: int, cap: int | None = None) -> tuple[Semilattice, ...]:
    """The maximal subsemilattices of the largest cardinality, canonically
    ordered: the largest sink-0 families and their conjugates."""
    return _with_conjugates(n, _largest(_sink_zero_families(n, cap)))


def extremal_clauses(
    n: int, semis: tuple[Semilattice, ...]
) -> tuple[tuple[bool, str], ...]:
    """The extremal theorem checked on ``semis``, the maximal subsemilattices
    of T(n) in any order, or at least all the largest of them: one
    ``(holds, statement)`` pair per clause.

    The clauses are that the largest size is 2^(n-1), that exactly n reach
    it, that they are the n collapse families, and that each is the power-set
    lattice on n-1 atoms.
    """
    expected_top = 1 << (n - 1)
    winners = _largest(semis)
    top = len(winners[0])
    return (
        (top == expected_top, f"max-size: {top} == 2^(n-1) = {expected_top}"),
        (
            len(winners) == n,
            f"count: {len(winners)} maximum-size semilattices, expected n = {n}",
        ),
        (
            set(winners) == {collapse_semilattice(n, t) for t in range(n)},
            "set-equality: maximum-size semilattices are exactly the "
            f"{n} collapse semilattices",
        ),
        (
            all(
                (res := is_boolean_lattice(s)).is_boolean and len(res.atoms) == n - 1
                for s in winners
            ),
            "boolean: every maximum-size semilattice is a power-set lattice "
            f"with {n - 1} atoms",
        ),
    )


@dataclass(frozen=True)
class SpectrumEntry:
    size: int
    count: int
    witness: Semilattice


@dataclass(frozen=True)
class SpectrumReport:
    """Histogram of maximal-subsemilattice cardinalities, with witnesses.

    Which sizes occur is an open question; nothing here beyond the maximum
    row (size 2^(n-1), count n) is backed by a theorem.
    """

    n: int
    entries: tuple[SpectrumEntry, ...]  # ascending by size
    total_maximal: int
    max_size: int

    def counts(self) -> dict[int, int]:
        return {e.size: e.count for e in self.entries}


def spectrum(n: int, cap: int | None = None) -> SpectrumReport:
    """Group the maximal subsemilattices by cardinality.

    Only the sink-0 families are grouped: conjugation by (0 t) carries them
    one-to-one onto the sink-t families, so each count is n times the sink-0
    count.  The witness for each size is the canonically smallest maximal
    subsemilattice of that size, so reports are deterministic; it has sink 0,
    since c_0 = (0, ..., 0) is the smallest image table and no other sink's
    family contains it.  Raises RuntimeError naming the failed clauses if
    the conjugates of the largest sink-0 families contradict the extremal
    theorem.
    """
    sink_zero = _sink_zero_families(n, cap)
    winners = _with_conjugates(n, _largest(sink_zero))
    failed = [statement for holds, statement in extremal_clauses(n, winners) if not holds]
    if failed:
        raise RuntimeError(
            f"the maximal subsemilattices of T({n}) contradict the theorem: "
            + "; ".join(failed)
        )
    by_size: dict[int, list[Semilattice]] = {}
    for s in sink_zero:
        by_size.setdefault(len(s), []).append(s)
    entries = tuple(
        SpectrumEntry(size, n * len(group), min(group, key=Semilattice.key))
        for size, group in sorted(by_size.items())
    )
    return SpectrumReport(n, entries, n * len(sink_zero), len(winners[0]))


def brute_force_subsemilattices(n: int) -> tuple[Semilattice, ...]:
    """ALL subsemilattices of T(n) by filtering every nonempty idempotent
    subset, n <= 3 only.

    This is the independent oracle: it relies on nothing but the naive
    axiom check, and anchors the clique identification, the maximality
    test, and the small-n size spectra.
    """
    if n > ORACLE_CAP:
        raise ValueError(f"brute-force oracle is capped at n={ORACLE_CAP}")
    idems = enumerate_idempotents(n)
    v = len(idems)
    found = []
    for mask in range(1, 1 << v):
        members = [idems[i] for i in points(mask)]
        if find_violation(n, members) is None:
            found.append(Semilattice(n, tuple(members)))
    found.sort(key=_semilattice_sort_key)
    return tuple(found)
