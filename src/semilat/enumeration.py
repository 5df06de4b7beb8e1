"""Exhaustive search for maximal subsemilattices of T(n).

Every maximal subsemilattice holds exactly one constant map c_t, the constant
to its sink t (the anchor lemma), and conjugating by the transposition (0 t)
of the points maps the families with sink 0 one-to-one onto those with sink
t.  So the search runs only on the idempotents that fix 0, which is c_0's
closed neighbourhood in the commuting graph, and the other sinks are got by
conjugation in :class:`Listing`.

The substrate is the commuting graph over those idempotents: vertices in
canonical order, adjacency decided by :func:`commuting_masks`, the block-wise
commuting test, which reads each idempotent's image table as its block map and
forms no product.  Maximal subsemilattices coincide with maximal cliques of
the commuting graph — the product of two commuting idempotents is an
idempotent commuting with every common neighbor, so a maximal clique is
automatically product-closed, and a clique strictly containing a
subsemilattice generates a strictly larger one.  c_0 is adjacent to every
vertex of its neighbourhood, so the maximal cliques there are exactly the
maximal cliques of the whole graph that contain c_0.  Every clique is
re-verified axiom by axiom on a route that never reads the graph: naive
composition of the vertices' image tables, one ``bytes.translate`` call per
product (:func:`byte_tables`), memoised per pair of vertex indices.  The test
suite keeps the oracles: a brute-force subset filter at n <= 3, a direct
search over every sink-0 clique, and the full graph over all idempotents,
which checks the sink-0 reduction and the conjugation.

Cliques are enumerated by pivoted recursive expansion with candidate and
excluded sets held as bit vectors indexed by vertex index, in one search,
:func:`_sink_zero_orbits`.  It works up to G, the relabellings of the points
other than 0, which permute the sink-0 families, by one rule over every
G-orbit of vertices: one search per orbit, each found clique weighted by the
share of that orbit it holds.  c_0 and the identity, which G fixes, are two
of those orbits.  The spectrum reads the weighted counts; the listing and
the largest families expand the found cliques under G (101 cliques at
n = 6, for 3761 sink-0 families).  Every expanded family is checked as it
is expanded, before the listing is returned.  A :class:`Listing` holds them
as bit vectors, grouped by size, and conjugates, ranks and sorts them one
size class at a time, as they are read.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import compress
from math import lcm
from operator import itemgetter

from ._record import Record
from .semilattice import (
    Semilattice,
    collapse_semilattice,
    is_boolean_lattice,
    verify_semilattice,
)
from .transform import (
    Transformation,
    byte_tables,
    check_points,
    commuting_masks,
    constant,
    enumerate_idempotents,
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


# The symmetry check lays rows end to end in bands of about this many bits,
# one character each: 1 MB, so one band at n = 6 and ten at n = 7.
_BAND_CHARS = 1 << 20


class CommutingGraph(Record):
    """Symmetric, irreflexive adjacency over a list of idempotents.

    ``rows[i]`` is the neighbor set of vertex i as a bit vector.  The
    constructor checks every bit of every row: each row is written as a
    string of bits, lowest first, and for each band of rows, laid end to
    end, the bits of column j, one per row, must equal the same span of row
    j.  Only a graph that fails that is walked bit by bit, to name the first
    row at fault and the first pair that is not mirrored.
    """

    __slots__ = ("n", "vertices", "rows")

    def __init__(
        self, n: int, vertices: tuple[Transformation, ...], rows: tuple[int, ...]
    ):
        super().__init__(n, vertices, rows)

    def __post_init__(self):
        v = len(self.vertices)
        if len(self.rows) != v:
            raise ValueError("adjacency rows do not match the vertex list")
        if not self._is_valid():
            self._name_the_fault()

    def _is_valid(self) -> bool:
        v = len(self.rows)
        if any((row >> i) & 1 or row >> v for i, row in enumerate(self.rows)):
            return False
        bits = [format(row, "b").zfill(v)[::-1] for row in self.rows]
        band = 1 + _BAND_CHARS // (v or 1)
        for start in range(0, v, band):
            stop = start + band
            flat = "".join(bits[start:stop])
            if any(flat[j::v] != bits[j][start:stop] for j in range(v)):
                return False
        return True

    def _name_the_fault(self):
        v = len(self.rows)
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


# Codes stored in a product memo row in place of a vertex index.
_UNSEEN = -1
_NOT_COMMUTING = -2
_NOT_A_VERTEX = -3  # the product is not idempotent, or not in the list


class _CliqueVerifier:
    """The semilattice axioms for cliques given as bit vectors over a vertex list.

    Independent of the block test that builds the commuting graph: pairs are
    multiplied by naive composition of their image tables, one
    ``bytes.translate`` call each way over :func:`byte_tables`, and the
    product is looked up by its byte word.  Each pair's outcome is memoised
    in a row of signed 16-bit entries, allocated the first time its vertex
    leads a pair; 16 bits index every sink-0 vertex list up to n = 8 (537
    vertices at n = 6, 3100 at n = 7, 19 693 at n = 8).
    """

    def __init__(self, n: int, vertices: tuple[Transformation, ...]):
        self.n = n
        self.vertices = vertices
        self._words, self._tables = byte_tables(vertices)
        self._index = {word: i for i, word in enumerate(self._words)}
        self._idempotent = [
            a.translate(ta) == a for a, ta in zip(self._words, self._tables)
        ]
        self._memo: list[array | None] = [None] * len(vertices)

    def _product(self, i: int, j: int) -> int:
        ab = self._words[i].translate(self._tables[j])
        if ab != self._words[j].translate(self._tables[i]):
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

    def check(self, clique: int) -> None:
        """Raise unless the clique's members form a semilattice: a rejected
        clique goes through :func:`verify_semilattice`, whose
        :class:`SemilatticeError` names the axiom and the elements."""
        if self.violation(clique) is None:
            return
        members = tuple(self.vertices[i] for i in points(clique))
        verify_semilattice(self.n, members)
        raise RuntimeError(
            f"the index verifier and verify_semilattice disagree at n={self.n} "
            f"on the clique {[m.word() for m in members]}"
        )

    def semilattice(self, clique: int) -> Semilattice:
        """The clique's members as a semilattice, after :meth:`check`."""
        self.check(clique)
        return Semilattice(self.n, tuple(self.vertices[i] for i in points(clique)))


def _relabellings(n: int, index: dict[bytes, int]) -> list[tuple[int, ...]]:
    """How G, the (n-1)! permutations of the points that fix 0, moves each
    vertex of ``index``, the verifier's byte words in vertex order: entry
    i holds the bit ``1 << p(i)`` for each p in G, in one fixed order of G.
    A permutation s relabels a map e as the map sending s(x) to s(e(x)); G
    is the closure of (1 2) and (1 2 ... n-1), walked on the points, where
    each element is known by its n images, and applied to the vertex
    indices once per element."""
    steps = []
    cycles = ((0, 2, 1, *range(3, n)), (0, *range(2, n), 1)) if n > 2 else ()
    for s in dict.fromkeys(cycles):  # one generator at n = 3
        inverse = sorted(range(n), key=s.__getitem__)
        moved = [index[bytes([s[a[x]] for x in inverse])] for a in index]
        steps.append((itemgetter(*s), itemgetter(*moved)))
    on_points = [tuple(range(n))]
    group = [tuple(range(len(index)))]
    seen = set(on_points)
    # the lists grow as they are walked: a breadth-first closure
    for sigma, p in zip(on_points, group):
        for on_point, on_vertex in steps:
            tau = on_point(sigma)  # sigma after the generator: x -> sigma(g(x))
            if tau not in seen:
                seen.add(tau)
                on_points.append(tau)
                group.append(on_vertex(p))
    bits = [1 << i for i in range(len(index))]
    return list(zip(*(map(bits.__getitem__, p) for p in group)))


def _vertex_orbits(moves: list[tuple[int, ...]], free: int) -> list[int]:
    """The orbits of G on the vertices in the bit vector ``free``, as bit
    vectors, in search order: descending size, ties by least vertex, so the
    vertices G fixes, c_0 and then the identity, come last."""
    orbits = []
    while free:
        v = (free & -free).bit_length() - 1
        orbit = sum(set(moves[v]))
        orbits.append(orbit)
        free &= ~orbit
    orbits.sort(key=int.bit_count, reverse=True)  # stable: ties keep order
    return orbits


def _orbit_cliques(rows, orbits: list[int]):
    """For every orbit alike, singletons included, yield (clique, orbit) for
    each maximal clique that holds the orbit's least vertex and no vertex of
    an earlier orbit.  The earlier orbits' vertices go into the excluded
    set, so every clique yielded is maximal in the whole graph."""
    earlier = 0
    for orbit in orbits:
        root = (orbit & -orbit).bit_length() - 1
        nbrs = rows[root]
        out: list[int] = []
        _bron_kerbosch(rows, 1 << root, nbrs & ~earlier, nbrs & earlier, out)
        for clique in out:
            yield clique, orbit
        earlier |= orbit


class _SinkZeroOrbits(Record):
    """The maximal sink-0 cliques up to G, each verified, with the means to
    expand them under G.

    ``counts[size]`` is the number of sink-0 families of that size.
    ``cliques`` holds at least one clique from each G-orbit of them.
    """

    __slots__ = ("verifier", "moves", "fixed", "cliques", "counts")

    def __init__(
        self,
        verifier: _CliqueVerifier,
        moves: list[tuple[int, ...]],  # from _relabellings
        fixed: int,  # the vertices G fixes: the union of the singleton orbits
        cliques: tuple[int, ...],
        counts: dict[int, int],
    ):
        super().__init__(verifier, moves, fixed, cliques, counts)

    def _images(self, clique: int):
        """The clique's image under each p in G, as a bit vector."""
        columns = map(self.moves.__getitem__, points(clique))
        return map(sum, zip(*columns))

    def least(self, size: int) -> Semilattice:
        """The canonically smallest sink-0 family of ``size`` elements.

        Vertices are in image-table order, so of two equal-size bit vectors
        the one holding the lowest bit where they differ has the smaller
        :meth:`Semilattice.key`.  Every image holds the clique's ``fixed``
        members, so the least one holds m, the least vertex that some p in G
        moves another member onto, and only the images under such p are built."""
        found = [c for c in self.cliques if c.bit_count() == size]
        low = {  # each moved member's least image under G, as a bit
            v: min(self.moves[v]) for c in found for v in points(c & ~self.fixed)
        }
        if not low:  # G fixes every member: the clique is its only image
            return self.verifier.semilattice(found[0])
        m = min(low.values())
        best = 0
        for clique in found:
            lead = [self.moves[v] for v in points(clique & ~self.fixed) if low[v] == m]
            onto = list(map(any, zip(*(map(m.__eq__, column) for column in lead))))
            columns = (compress(self.moves[v], onto) for v in points(clique))
            for image in map(sum, zip(*columns)):
                if not best or image & (d := image ^ best) & -d:
                    best = image
        return self.verifier.semilattice(best)

    def families(self, size: int | None = None) -> list[int]:
        """Every sink-0 family, or every one of ``size`` elements, as a bit
        vector over ``verifier.vertices``: the found cliques and their images
        under G, each passed through :meth:`_CliqueVerifier.check`, in
        ascending order."""
        chosen = (c for c in self.cliques if size is None or c.bit_count() == size)
        found = sorted({image for c in chosen for image in self._images(c)})
        for clique in found:
            self.verifier.check(clique)
        return found

    def largest(self) -> tuple[Semilattice, ...]:
        """The maximal subsemilattices of the largest size, canonically
        ordered: the largest sink-0 families, each checked, and their
        conjugates, ranked and built by :class:`Listing`."""
        top = self.families(max(self.counts))
        return tuple(Listing(self.verifier.n, self.verifier.vertices, top))


def _sink_zero_orbits(n: int, cap: int | None) -> _SinkZeroOrbits:
    """The sink-0 search up to relabelling the points other than 0.

    G permutes the maximal sink-0 cliques.  With the vertices split into
    G-orbits O_1, O_2, ..., one search per orbit lists the maximal cliques
    that hold O_i's least vertex r_i and avoid O_1 .. O_(i-1).  If O_i is
    the first orbit that a clique C meets, G is transitive on O_i, so
    |G.C| |C & O_i| / |O_i| of the cliques in C's G-orbit hold r_i: with
    each found clique weighted by |O_i| / |C & O_i|, the weights of the
    cliques found from one G-orbit add up to its size.  The last orbits are
    c_0 and the identity, which G fixes and every clique holds, so their
    searches find a clique only when there is no other vertex (n <= 2).
    The weights are summed exactly over D, the lcm of the shares
    |C & O_i|, and a total that D does not divide raises RuntimeError.
    Each found clique is checked by the naive-composition verifier.  Raises
    CapExceeded above the cap.
    """
    _check_cap(n, cap)
    verts = enumerate_idempotents(n, (constant(n, 0),))  # the idempotents fixing 0
    graph = build_commuting_graph(n, verts)
    rows = graph.rows
    verifier = _CliqueVerifier(n, graph.vertices)
    moves = _relabellings(n, verifier._index)
    full = (1 << len(rows)) - 1
    orbits = _vertex_orbits(moves, full)
    found = list(_orbit_cliques(rows, orbits))
    den = lcm(*((clique & orbit).bit_count() for clique, orbit in found))
    totals: dict[int, int] = {}  # size -> den times the weighted count
    for clique, orbit in found:
        common = full
        for i in points(clique):
            common &= rows[i]
        if common:
            words = [graph.vertices[i].word() for i in points(clique)]
            extra = graph.vertices[(common & -common).bit_length() - 1].word()
            raise RuntimeError(
                f"search emitted a non-maximal clique at n={n}: {words} "
                f"has the common neighbor [{extra}]"
            )
        verifier.check(clique)
        size = clique.bit_count()
        weight = orbit.bit_count() * den // (clique & orbit).bit_count()
        totals[size] = totals.get(size, 0) + weight
    counts = {}
    for size, total in sorted(totals.items()):
        counts[size], rest = divmod(total, den)
        if rest:
            raise RuntimeError(
                f"the orbit-weighted count of the sink-0 families of size {size} "
                f"at n={n} is {total}/{den}, not an integer"
            )
    fixed = sum(orbit for orbit in orbits if orbit.bit_count() == 1)
    return _SinkZeroOrbits(verifier, moves, fixed, tuple(c for c, _ in found), counts)


class Listing:
    """Maximal subsemilattices of T(n), canonically ordered and held compactly:
    checked sink-0 families and the ranks of their conjugates under (0 t).

    ``maps`` is every conjugate of a held member, t = 0..n-1, in image-table
    order, so a map's rank is its index there and ascending tuples of ranks
    compare as the carriers do.  The families stay bit vectors over the
    search's vertices, grouped by size, until they are read: :meth:`ranked`
    conjugates, ranks and sorts one size class at a time, and iterating
    builds each :class:`Semilattice` from its ranks.  ``len`` is the count,
    n times the number of sink-0 families, known before any of that work.
    """

    def __init__(
        self, n: int, vertices: tuple[Transformation, ...], families: list[int]
    ):
        self.n = n
        by_size: dict[int, list[int]] = {}
        union = 0
        for clique in families:
            by_size.setdefault(clique.bit_count(), []).append(clique)
            union |= clique
        self._classes = [by_size[size] for size in sorted(by_size, reverse=True)]
        # each held member conjugated once per sink; t = 0 is the identity
        held = points(union)
        tables = [vertices[i].images for i in held]
        per_sink = []
        for t in range(n):
            swap = list(range(n))
            swap[0], swap[t] = t, 0
            per_sink.append([tuple([swap[a[y]] for y in swap]) for a in tables])
        self.maps = sorted(set().union(*per_sink))
        rank = {c: r for r, c in enumerate(self.maps)}
        self._ranks = [
            dict(zip(held, map(rank.__getitem__, conjugated)))
            for conjugated in per_sink
        ]

    def __len__(self) -> int:
        return self.n * sum(map(len, self._classes))

    def ranked(self) -> Iterator[tuple[int, ...]]:
        """Every family as its ascending tuple of ranks into ``maps``, in
        canonical order: size descending, then lexicographically.  Each size
        class is conjugated to every sink, ranked and sorted only when the
        one before it has been read."""
        for cliques in self._classes:
            members = list(map(points, cliques))
            ranked = [
                tuple(sorted(map(ranks.__getitem__, m)))
                for ranks in self._ranks
                for m in members
            ]
            ranked.sort()
            yield from ranked

    def __iter__(self) -> Iterator[Semilattice]:
        maps = [Transformation(self.n, c) for c in self.maps]
        for ranks in self.ranked():
            yield Semilattice(self.n, tuple(map(maps.__getitem__, ranks)))


def enumerate_maximal_semilattices(n: int, cap: int | None = None) -> Listing:
    """Every maximal subsemilattice of T(n), verified and canonically ordered:
    the sink-0 families, the cliques of the search up to relabelling
    expanded under the permutations that fix 0, and their conjugates.

    Every sink-0 family is checked by the naive-composition verifier before
    this returns, and their number is checked against the search's
    orbit-weighted count.  The conjugates are ranked and the families sorted
    and built only as the returned :class:`Listing` is read: sorted by size
    descending, then lexicographically on the carrier.
    """
    search = _sink_zero_orbits(n, cap)
    families = search.families()
    if len(families) != sum(search.counts.values()):
        raise RuntimeError(
            f"the search expanded {len(families)} sink-0 families at n={n}, "
            f"but its orbit-weighted count is {sum(search.counts.values())}"
        )
    return Listing(n, search.verifier.vertices, families)


def max_size_semilattices(n: int, cap: int | None = None) -> tuple[Semilattice, ...]:
    """The maximal subsemilattices of the largest cardinality, canonically
    ordered: the largest found cliques of the search, expanded under the
    permutations that fix 0, each checked, and their conjugates."""
    return _sink_zero_orbits(n, cap).largest()


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
    top = max(map(len, semis))
    winners = tuple(s for s in semis if len(s) == top)
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


class SpectrumEntry(Record):
    __slots__ = ("size", "count", "witness")

    def __init__(self, size: int, count: int, witness: Semilattice):
        super().__init__(size, count, witness)


class SpectrumReport(Record):
    """Histogram of maximal-subsemilattice cardinalities, with witnesses.

    Which sizes occur is an open question; nothing here beyond the maximum
    row (size 2^(n-1), count n) is backed by a theorem.
    """

    __slots__ = ("n", "entries", "total_maximal", "max_size")

    def __init__(
        self,
        n: int,
        entries: tuple[SpectrumEntry, ...],  # ascending by size
        total_maximal: int,
        max_size: int,
    ):
        super().__init__(n, entries, total_maximal, max_size)

    def counts(self) -> dict[int, int]:
        return {e.size: e.count for e in self.entries}


def spectrum(n: int, cap: int | None = None) -> SpectrumReport:
    """Group the maximal subsemilattices by cardinality.

    Only the sink-0 families are counted, up to relabelling the points other
    than 0, by the orbit-weighted search :func:`_sink_zero_orbits`:
    conjugation by (0 t) carries them one-to-one onto the sink-t families,
    so each count is n times the sink-0 count.  The witness for each size is
    the canonically smallest maximal subsemilattice of that size, so reports
    are deterministic; it has sink 0, since c_0 = (0, ..., 0) is the smallest
    image table and no other sink's family contains it, and it is the least
    relabelling of a found clique of that size.  Raises RuntimeError naming
    the failed clauses if the conjugates of the largest sink-0 families
    contradict the extremal theorem.
    """
    search = _sink_zero_orbits(n, cap)
    winners = search.largest()
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
