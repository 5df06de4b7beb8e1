"""Independent listings that the library's search is checked against.

None of these run in the library: each lists what the search finds by a
slower route that shares less with it.

- :func:`brute_force_subsemilattices` filters every subset of the
  idempotents of T(n), n <= 3, with the naive axiom check alone.
- :func:`maximal_clique_bitsets` lists every maximal clique of a graph by
  one pivoted search over all its vertices, with no symmetry reduction.
- :func:`sink_zero_families` runs that search on the sink-0 graph: every
  maximal subsemilattice holding c_0, with no relabelling, each verified.
- :func:`incremental_sink_zero_families` lists the same families by adding
  one vertex at a time to the naive :func:`commutes` graph, sharing neither
  the block test nor the clique search.
- :func:`canonical_key` is the canonical order that listings are
  sorted in, built from whole carriers.
- :func:`least_image` takes the smallest image under G of the orbit
  search's cliques of one size with every image built, unpruned.
"""

from semilat.enumeration import (
    _bron_kerbosch,
    _check_cap,
    _CliqueVerifier,
    build_commuting_graph,
)
from semilat.semilattice import Semilattice, find_violation
from semilat.transform import commutes, constant, enumerate_idempotents, points

ORACLE_CAP = 3


def canonical_key(s):
    """The reference canonical order of a listing: size descending, then
    the tuple of image tables."""
    return (-len(s.elements), s.key())


def brute_force_subsemilattices(n):
    """ALL subsemilattices of T(n) by filtering every nonempty idempotent
    subset, n <= 3 only, in canonical order.

    It relies on nothing but the naive axiom check, and anchors the clique
    identification, the maximality test, and the small-n size spectra.
    """
    if n > ORACLE_CAP:
        raise ValueError(f"brute-force oracle is capped at n={ORACLE_CAP}")
    idems = enumerate_idempotents(n)
    found = []
    for mask in range(1, 1 << len(idems)):
        members = [idems[i] for i in points(mask)]
        if find_violation(n, members) is None:
            found.append(Semilattice(n, tuple(members)))
    found.sort(key=canonical_key)
    return tuple(found)


def maximal_clique_bitsets(rows):
    """Every maximal clique of the graph with adjacency ``rows``, as bit
    vectors, from one search over all the vertices."""
    out = []
    _bron_kerbosch(rows, 0, (1 << len(rows)) - 1, 0, out)
    return out


def sink_zero_families(n, cap):
    """The maximal subsemilattices of T(n) that contain the constant c_0,
    verified, in search order.  Raises CapExceeded above the cap."""
    _check_cap(n, cap)
    verts = enumerate_idempotents(n, (constant(n, 0),))  # the idempotents fixing 0
    graph = build_commuting_graph(n, verts)
    rows = graph.rows
    verifier = _CliqueVerifier(n, graph.vertices)
    semis = []
    full = (1 << len(rows)) - 1
    for clique in maximal_clique_bitsets(rows):
        common = full
        for i in points(clique):
            common &= rows[i]
        assert not common, "the direct search emitted a non-maximal clique"
        semis.append(verifier.semilattice(clique))
    return tuple(semis)


def least_image(search, size):
    """The canonically smallest family of ``size`` elements among the images
    of ``search``'s found cliques under every relabelling, all built:
    the reference for ``_SinkZeroOrbits.least``."""
    best = 0
    for clique in search.cliques:
        if clique.bit_count() == size:
            for image in search._images(clique):
                if not best or image & (d := image ^ best) & -d:
                    best = image
    return search.verifier.semilattice(best)


def incremental_sink_zero_families(n):
    """The maximal subsemilattices of T(n) that contain c_0, as frozensets of
    maps: the maximal cliques of the naive :func:`commutes` graph on the
    idempotents that commute with c_0, grown one vertex at a time
    (Tsukiyama et al., SIAM J. Comput. 6, 1977).

    When v is added, a maximal clique C of the earlier vertices stays
    maximal unless v is adjacent to all of it, and every new maximal clique
    holding v is (C & N(v)) + v for some such C, kept if no earlier
    neighbour of v is adjacent to all of C & N(v).
    """
    c0 = constant(n, 0)
    verts = [e for e in enumerate_idempotents(n) if commutes(e, c0)]
    rows = [0] * len(verts)
    for i, a in enumerate(verts):
        for j in range(i):
            if commutes(a, verts[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    cliques = {0}  # the one maximal clique of the graph with no vertex
    for v, row in enumerate(rows):
        before = row & ((1 << v) - 1)
        grown = set()
        for c in cliques:
            d = c & before
            common = before
            for u in points(d):
                common &= rows[u]
            if not common:
                grown.add(d | 1 << v)
        cliques = {c for c in cliques if c & ~before} | grown
    return {frozenset(map(verts.__getitem__, points(c))) for c in cliques}
