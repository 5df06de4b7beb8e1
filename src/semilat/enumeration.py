"""Exhaustive search for maximal subsemilattices of T(n).

Every maximal subsemilattice holds exactly one constant map c_t, the constant
to its sink t (the anchor lemma), and conjugating by the transposition (0 t)
of the points maps the families with sink 0 one-to-one onto those with sink
t.  So the search runs only on the idempotents that fix 0, which is c_0's
closed neighbourhood in the commuting graph, and the other sinks are got by
conjugation.

The substrate is the commuting graph over those idempotents: vertices in
canonical order, adjacency decided by :func:`commuting_masks`, the block-wise
commuting test, which reads each idempotent's image table as its block map and
forms no product.  Maximal subsemilattices coincide with maximal cliques of
the commuting graph — the product of two commuting idempotents is an
idempotent commuting with every common neighbor, so a maximal clique is
automatically product-closed, and a clique strictly containing a
subsemilattice generates a strictly larger one.  c_0 is adjacent to every
vertex of its neighbourhood, so the maximal cliques there are exactly the
maximal cliques of the whole graph that contain c_0.  None of this is taken on
faith: every emitted clique is re-verified axiom by axiom on a second route
that never reads the graph — naive composition of the vertices' image tables,
memoised per pair of vertex indices — and the test suite keeps the oracles:
a brute-force subset filter at n <= 3 pins the clique identification, a
direct search over every sink-0 clique checks this one, and the full graph
over all idempotents checks the sink-0 reduction and the conjugation.

Cliques are enumerated by pivoted recursive expansion with candidate and
excluded sets held as bit vectors indexed by vertex index, in one search,
:func:`_sink_zero_orbits`.  It works up to relabelling the points other than
0, which permutes the sink-0 families: one search per orbit of vertices,
each found clique weighted by the share of that orbit it holds.  The
spectrum reads the weighted counts; the listing and the largest families
expand the found cliques under the relabellings.  It finds 101 cliques at
n = 6, which expand to the 3761 sink-0 families, and checks the cap before
any work.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from math import lcm
from operator import itemgetter

from .semilattice import (
    Semilattice,
    collapse_semilattice,
    is_boolean_lattice,
    verify_semilattice,
)
from .transform import (
    Transformation,
    check_points,
    commuting_masks,
    constant,
    enumerate_idempotents,
    identity,
    points,
)

DEFAULT_CAP = 5
HARD_CAP = 6


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
            for j in points(row):
                if not (self.rows[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at {i}, {j}")

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def build_commuting_graph(
    n: int, vertices: tuple[Transformation, ...]
) -> CommutingGraph:
    """Edges between distinct commuting idempotents among ``vertices``, kept
    in the given order: the block test :func:`commuting_masks` of every
    vertex against every vertex, with each vertex's own bit cleared.  Each
    row is computed on its own, so the graph's symmetry check re-tests the
    block test."""
    masks = commuting_masks(n, vertices, vertices)
    return CommutingGraph(
        n, vertices, tuple(m & ~(1 << i) for i, m in enumerate(masks))
    )


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


def _relabellings(
    n: int, vertices: tuple[Transformation, ...]
) -> list[tuple[int, ...]]:
    """How G, the (n-1)! permutations of the points that fix 0, moves each
    vertex: entry i holds the bit ``1 << p(i)`` for each p in G, in one
    fixed order of G.  A permutation s relabels a map e as the map sending
    s(x) to s(e(x)); G is the closure, on the vertex indices, of the
    generators (1 2) and (1 2 ... n-1)."""
    index = {v.images: i for i, v in enumerate(vertices)}
    steps = []
    cycles = ((0, 2, 1, *range(3, n)), (0, *range(2, n), 1)) if n > 2 else ()
    for s in dict.fromkeys(cycles):  # one generator at n = 3
        inverse = sorted(range(n), key=s.__getitem__)
        # index's keys are the image tables, in vertex order
        moved = [index[tuple([s[a[x]] for x in inverse])] for a in index]
        steps.append(itemgetter(*moved))
    group = [tuple(range(len(vertices)))]
    seen = set(group)
    for p in group:  # the list grows as it is walked: a breadth-first closure
        for step in steps:
            q = step(p)  # p after the generator: i -> p(g(i))
            if q not in seen:
                seen.add(q)
                group.append(q)
    bits = [1 << i for i in range(len(vertices))]
    return list(zip(*(map(bits.__getitem__, p) for p in group)))


def _vertex_orbits(moves: list[tuple[int, ...]], free: int) -> list[int]:
    """The orbits of G on the vertices in the bit vector ``free``, as bit
    vectors, in search order: descending size, ties by least vertex."""
    orbits = []
    while free:
        v = (free & -free).bit_length() - 1
        orbit = sum(set(moves[v]))
        orbits.append(orbit)
        free &= ~orbit
    orbits.sort(key=int.bit_count, reverse=True)  # stable: ties keep order
    return orbits


def _orbit_cliques(rows, base: int, orbits: list[int]):
    """Yield (clique, orbit) for each maximal clique that holds the universal
    vertices ``base``, the least vertex of ``orbit`` and no vertex of an
    earlier orbit.  The earlier orbits' vertices go into the excluded set,
    so every clique yielded is maximal in the whole graph."""
    earlier = 0
    for orbit in orbits:
        root = (orbit & -orbit).bit_length() - 1
        nbrs = rows[root]
        out: list[int] = []
        p = nbrs & ~earlier & ~base
        _bron_kerbosch(rows, base | 1 << root, p, nbrs & earlier, out)
        for clique in out:
            yield clique, orbit
        earlier |= orbit


@dataclass(frozen=True)
class _SinkZeroOrbits:
    """The maximal sink-0 cliques up to G, each verified, with the means to
    expand them under G.

    ``counts[size]`` is the number of sink-0 families of that size.
    ``cliques`` holds at least one clique from each G-orbit of them.
    """

    verifier: _CliqueVerifier
    moves: list[tuple[int, ...]]  # from _relabellings
    base: int  # c_0 and the identity, in every clique and fixed by G
    cliques: tuple[int, ...]
    counts: dict[int, int]

    def _images(self, clique: int):
        """The clique's image under each p in G, as a bit vector."""
        columns = map(self.moves.__getitem__, points(clique))
        return map(sum, zip(*columns))

    def least(self, size: int) -> Semilattice:
        """The canonically smallest sink-0 family of ``size`` elements.

        Vertices are in image-table order, so of two equal-size bit vectors
        the one holding the lowest bit where they differ has the smaller
        :meth:`Semilattice.key`.  Every image holds ``base``, which G fixes,
        so the least one holds m, the least other vertex that some p in G
        moves a member onto, and only the images under such p are built."""
        found = [c for c in self.cliques if c.bit_count() == size]
        low = {  # each moved member's least image under G, as a bit
            v: min(self.moves[v]) for c in found for v in points(c & ~self.base)
        }
        if not low:  # n <= 2: the one clique is base
            return self.verifier.semilattice(found[0])
        m = min(low.values())
        best = 0
        for clique in found:
            lead = [self.moves[v] for v in points(clique & ~self.base) if low[v] == m]
            onto = list(map(any, zip(*(map(m.__eq__, column) for column in lead))))
            columns = (compress(self.moves[v], onto) for v in points(clique))
            for image in map(sum, zip(*columns)):
                if not best or image & (d := image ^ best) & -d:
                    best = image
        return self.verifier.semilattice(best)

    def families(self, size: int | None = None) -> tuple[Semilattice, ...]:
        """Every sink-0 family, or every one of ``size`` elements: the found
        cliques and their images under G, each verified, in bit-vector
        order."""
        found = {
            image
            for clique in self.cliques
            if size is None or clique.bit_count() == size
            for image in self._images(clique)
        }
        return tuple(self.verifier.semilattice(c) for c in sorted(found))


def _sink_zero_orbits(n: int, cap: int | None) -> _SinkZeroOrbits:
    """The sink-0 search up to relabelling the points other than 0.

    G permutes the maximal sink-0 cliques, and c_0 and the identity are in
    all of them.  With the other vertices split into G-orbits O_1, O_2, ...,
    one search per orbit lists the maximal cliques that hold O_i's least
    vertex r_i and avoid O_1 .. O_(i-1).  If O_i is the first orbit that a
    clique C meets, G is transitive on O_i, so |G.C| |C & O_i| / |O_i| of the
    cliques in C's G-orbit hold r_i, and the search of O_i finds them all:
    with each found clique weighted by |O_i| / |C & O_i|, the weights of the
    cliques found from one G-orbit add up to its size.  The weights are summed exactly, and a total
    that is not an integer raises RuntimeError.  Raises CapExceeded above
    the cap.
    """
    _check_cap(n, cap)
    verts = enumerate_idempotents(n, (constant(n, 0),))  # the idempotents fixing 0
    graph = build_commuting_graph(n, verts)
    rows = graph.rows
    verifier = _CliqueVerifier(n, graph.vertices)
    moves = _relabellings(n, graph.vertices)
    base = 1 | 1 << graph.vertices.index(identity(n))  # c_0 is vertex 0
    full = (1 << len(rows)) - 1
    orbits = _vertex_orbits(moves, full & ~base)
    # with no other vertex (n <= 2) the one maximal clique is base, weight 1
    found = list(_orbit_cliques(rows, base, orbits)) if orbits else [(base, base)]
    shares: dict[int, dict[int, int]] = {}  # size -> {|C & O|: sum of |O|}
    for clique, orbit in found:
        common = full
        for i in points(clique):
            common &= rows[i]
        if common:
            raise RuntimeError("search emitted a non-maximal clique")
        verifier.semilattice(clique)
        by_share = shares.setdefault(clique.bit_count(), {})
        k = (clique & orbit).bit_count()
        by_share[k] = by_share.get(k, 0) + orbit.bit_count()
    counts = {}
    for size, by_share in sorted(shares.items()):
        den = lcm(*by_share)
        num = sum(total * (den // k) for k, total in by_share.items())
        count, rest = divmod(num, den)
        if rest:
            raise RuntimeError(
                f"the orbit-weighted count of the sink-0 families of size {size} "
                f"at n={n} is {num}/{den}, not an integer"
            )
        counts[size] = count
    return _SinkZeroOrbits(verifier, moves, base, tuple(c for c, _ in found), counts)


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
    """Every maximal subsemilattice of T(n), verified and canonically ordered:
    the sink-0 families, the cliques of the search up to relabelling
    expanded under the permutations that fix 0, and their conjugates.

    Output is sorted by size descending, then lexicographically on the carrier.
    """
    return _with_conjugates(n, _sink_zero_orbits(n, cap).families())


def _largest(semis: tuple[Semilattice, ...]) -> tuple[Semilattice, ...]:
    top = max(len(s) for s in semis)
    return tuple(s for s in semis if len(s) == top)


def max_size_semilattices(n: int, cap: int | None = None) -> tuple[Semilattice, ...]:
    """The maximal subsemilattices of the largest cardinality, canonically
    ordered: the largest sink-0 families and their conjugates.  The sink-0
    families are the largest cliques of the search up to relabelling,
    expanded under the permutations that fix 0, each verified."""
    search = _sink_zero_orbits(n, cap)
    return _with_conjugates(n, search.families(max(search.counts)))


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

    Only the sink-0 families are counted: conjugation by (0 t) carries them
    one-to-one onto the sink-t families, so each count is n times the sink-0
    count.  They are counted up to relabelling the points other than 0, by
    the orbit-weighted search :func:`_sink_zero_orbits`, which lists one or
    a few cliques per orbit instead of every family.  The witness for each
    size is the canonically smallest maximal subsemilattice of that size, so
    reports are deterministic; it has sink 0, since c_0 = (0, ..., 0) is the
    smallest image table and no other sink's family contains it, and it is
    the least relabelling of a found clique of that size.  Raises
    RuntimeError naming the failed clauses if the conjugates of the largest
    sink-0 families contradict the extremal theorem.
    """
    search = _sink_zero_orbits(n, cap)
    winners = _with_conjugates(n, search.families(max(search.counts)))
    failed = [statement for holds, statement in extremal_clauses(n, winners) if not holds]
    if failed:
        raise RuntimeError(
            f"the maximal subsemilattices of T({n}) contradict the theorem: "
            + "; ".join(failed)
        )
    entries = tuple(
        SpectrumEntry(size, n * count, search.least(size))
        for size, count in search.counts.items()
    )
    return SpectrumReport(
        n, entries, n * sum(search.counts.values()), len(winners[0])
    )
