"""The commuting graph and the clique search, against the oracles."""

import hashlib
import random
from collections import Counter

import pytest

import semilat as sl
from oracles import (
    brute_force_subsemilattices,
    canonical_key,
    incremental_sink_zero_families,
    least_image,
    maximal_clique_bitsets,
    sink_zero_families,
)
from semilat import cli, enumeration, formats
from semilat.transform import byte_tables, points


def test_graph_n1():
    g = sl.build_commuting_graph(1, sl.enumerate_idempotents(1))
    assert len(g.vertices) == 1
    assert g.rows == (0,)
    assert g.edge_count() == 0


def test_graph_n2():
    g = sl.build_commuting_graph(2, sl.enumerate_idempotents(2))
    assert [e.images for e in g.vertices] == [(0, 0), (0, 1), (1, 1)]
    # identity adjacent to both constants; constants not adjacent
    assert g.rows == (0b010, 0b101, 0b010)


def test_graph_matches_naive_commuting_exhaustively():
    for n in (1, 2, 3, 4, 5):
        g = sl.build_commuting_graph(n, sl.enumerate_idempotents(n))
        assert g.vertices == sl.enumerate_idempotents(n)
        v = len(g.vertices)
        edges = 0
        for i in range(v):
            for j in range(v):
                expected = i != j and sl.commutes(g.vertices[i], g.vertices[j])
                assert (g.rows[i] >> j) & 1 == expected
                edges += expected
        assert g.edge_count() == edges // 2


def _graph_with(n, *flips):
    """The sink-0 graph of n points, its rows with the given (row, bit) flips."""
    verts = sl.enumerate_idempotents(n, (sl.constant(n, 0),))
    rows = list(sl.build_commuting_graph(n, verts).rows)
    for i, j in flips:
        rows[i] ^= 1 << j
    return n, verts, tuple(rows)


# Bands of 9 rows at n = 4 (23 vertices), one band at n = 2.
SMALL_BANDS = 23 * 8


def test_graph_validation_rejects_bad_rows(monkeypatch):
    verts = sl.enumerate_idempotents(2)
    cases = [
        ((2, verts, (0b010, 0b100, 0b010)), "adjacency not symmetric at 0, 1"),
        ((2, verts, (0b000, 0b001, 0b000)), "adjacency not symmetric at 1, 0"),
        ((2, verts, (0b011, 0b101, 0b010)), "vertex 0 is adjacent to itself"),
        ((2, verts, (0b010, 0b101)), "adjacency rows do not match the vertex list"),
        ((2, verts, (0b010, 0b101, 0b010, 0b000)),
         "adjacency rows do not match the vertex list"),
        ((2, verts, (0b010, 0b101, 0b1010)), "row 2 mentions vertices beyond the list"),
        # n = 4: one bit dropped above the diagonal and one below at the last
        # vertex, a pair split across two bands of 9 rows, a loop and a stray
        # bit at the last row, and two faults, where the earlier row is named
        (_graph_with(4, (11, 22)), "adjacency not symmetric at 22, 11"),
        (_graph_with(4, (22, 11)), "adjacency not symmetric at 11, 22"),
        (_graph_with(4, (4, 12)), "adjacency not symmetric at 12, 4"),
        (_graph_with(4, (12, 4)), "adjacency not symmetric at 4, 12"),
        (_graph_with(4, (22, 22)), "vertex 22 is adjacent to itself"),
        (_graph_with(4, (22, 23)), "row 22 mentions vertices beyond the list"),
        (_graph_with(4, (21, 21), (3, 5)), "adjacency not symmetric at 3, 5"),
    ]
    for band_chars in (enumeration._BAND_CHARS, SMALL_BANDS):
        monkeypatch.setattr(enumeration, "_BAND_CHARS", band_chars)
        for graph, message in cases:
            with pytest.raises(ValueError) as caught:
                sl.CommutingGraph(*graph)
            assert str(caught.value) == message


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (11, 22), (22, 11), (4, 12), (12, 4)])
def test_graph_build_rejects_an_asymmetric_block_test(monkeypatch, i, j):
    # a block test that loses one bit of one row, above or below the
    # diagonal, at the last vertex or across two bands of 9 rows; the walk
    # names the row that still holds the other half
    real = enumeration.commuting_masks

    def lose_a_bit(n, idempotents, maps):
        masks = list(real(n, idempotents, maps))
        masks[i] &= ~(1 << j)
        return tuple(masks)

    monkeypatch.setattr(enumeration, "commuting_masks", lose_a_bit)
    verts = sl.enumerate_idempotents(4, (sl.constant(4, 0),))
    assert sl.commutes(verts[i], verts[j])
    for band_chars in (enumeration._BAND_CHARS, SMALL_BANDS):
        monkeypatch.setattr(enumeration, "_BAND_CHARS", band_chars)
        with pytest.raises(ValueError) as caught:
            sl.build_commuting_graph(4, verts)
        assert str(caught.value) == f"adjacency not symmetric at {j}, {i}"


def test_enumerate_n2_exact():
    semis = sl.enumerate_maximal_semilattices(2)
    assert [{e.images for e in s} for s in semis] == [
        {(0, 0), (0, 1)},
        {(0, 1), (1, 1)},
    ]


def test_enumerate_includes_collapse_families(maximal_by_n):
    for n in range(1, 6):
        semis = set(maximal_by_n[n])
        for t in range(n):
            assert sl.collapse_semilattice(n, t) in semis


def test_enumerate_output_is_canonically_sorted(maximal_by_n):
    for n in range(1, 6):
        semis = maximal_by_n[n]
        keys = list(map(canonical_key, semis))
        assert keys == sorted(keys)
        assert len(set(semis)) == len(semis)


def _full_graph_families(n):
    """Every maximal subsemilattice of T(n) from the commuting graph over all
    idempotents, in canonical order: the search without the sink-0 reduction,
    kept as the oracle for it and for the conjugation."""
    graph = sl.build_commuting_graph(n, sl.enumerate_idempotents(n))
    semis = [
        sl.verify_semilattice(n, _members(graph.vertices, clique))
        for clique in maximal_clique_bitsets(graph.rows)
    ]
    semis.sort(key=canonical_key)
    return tuple(semis)


@pytest.fixture(scope="module")
def full_graph_by_n():
    return {n: _full_graph_families(n) for n in range(1, 6)}


@pytest.fixture(scope="module")
def n6_oracle():
    return _full_graph_families(6)


def _report_from(n, semis):
    """The spectrum report grouped from a full listing."""
    by_size = {}
    for s in semis:
        by_size.setdefault(len(s), []).append(s)
    entries = tuple(
        enumeration.SpectrumEntry(size, len(group), min(group, key=sl.Semilattice.key))
        for size, group in sorted(by_size.items())
    )
    return enumeration.SpectrumReport(n, entries, len(semis), max(by_size))


def _sink_histograms(n, semis):
    """Size histogram per sink, where the sink is the family's one constant."""
    by_sink = {t: Counter() for t in range(n)}
    for s in semis:
        (sink,) = {e.images[0] for e in s.elements if len(set(e.images)) == 1}
        by_sink[sink][len(s)] += 1
    return by_sink


def test_conjugated_listing_equals_the_full_graph_oracle(
    maximal_by_n, full_graph_by_n
):
    for n in range(1, 6):
        assert maximal_by_n[n] == full_graph_by_n[n]
        assert sl.spectrum(n) == _report_from(n, full_graph_by_n[n])


@pytest.mark.slow
def test_optional_n6_conjugated_listing_equals_the_full_graph_oracle(n6_oracle):
    assert tuple(sl.enumerate_maximal_semilattices(6, cap=6)) == n6_oracle
    assert sl.spectrum(6, cap=6) == _report_from(6, n6_oracle)


def test_conjugation_by_a_transposition_moves_the_collapse_sink():
    for n in range(1, 7):
        vertices = sl.enumerate_idempotents(n, (sl.constant(n, 0),))
        sink_zero = _sink_zero_bits(n, [sl.collapse_semilattice(n, 0)])
        collapse = [sl.collapse_semilattice(n, t) for t in range(n)]
        collapse.sort(key=canonical_key)
        assert tuple(enumeration.Listing(n, vertices, sink_zero)) == tuple(collapse)


def test_search_builds_only_the_sink_zero_graph(monkeypatch):
    graphs = []

    def record(n, vertices):
        graphs.append(sl.build_commuting_graph(n, vertices))
        return graphs[-1]

    monkeypatch.setattr(enumeration, "build_commuting_graph", record)
    semis = sl.enumerate_maximal_semilattices(4)
    (graph,) = graphs
    sink_zero = [s for s in semis if sl.constant(4, 0) in s]
    assert graph.vertices == tuple(
        e for e in sl.enumerate_idempotents(4) if e.images[0] == 0
    )
    assert (len(graph.vertices), graph.edge_count(), len(sink_zero)) == (23, 106, 19)
    assert all(sl.constant(4, 0) in s for s in sink_zero)
    full = sl.build_commuting_graph(4, sl.enumerate_idempotents(4))
    assert (len(full.vertices), full.edge_count()) == (41, 280)


@pytest.mark.parametrize(
    "n, edges", [(1, 0), (2, 1), (3, 10), (4, 106), (5, 1298), (6, 18401)]
)
def test_the_check_composes_every_sink_zero_edge(monkeypatch, n, edges):
    # Every edge lies in some maximal clique, and every family the search
    # checks passes, so the one naive-composition check composes every edge
    # of the block-test graph at least once, and never a pair the graph
    # left out.
    build = enumeration.build_commuting_graph
    check = enumeration._first_violation
    graphs, checked = [], []

    def record_graph(n, vertices):
        graphs.append(build(n, vertices))
        return graphs[-1]

    def record(elems, words, tables):
        assert check(elems, words, tables) is None  # so every pair was composed
        checked.append(elems)

    monkeypatch.setattr(enumeration, "build_commuting_graph", record_graph)
    monkeypatch.setattr(enumeration, "_first_violation", record)
    sl.enumerate_maximal_semilattices(n, cap=enumeration.HARD_CAP)
    (graph,) = graphs
    index = {e: i for i, e in enumerate(graph.vertices)}
    pairs = {
        (index[a], index[b]) for elems in checked
        for k, a in enumerate(elems) for b in elems[k + 1 :]
    }
    # the search's vertices, c_0's centralizer, are the idempotents fixing 0
    assert graph.vertices == tuple(
        e for e in sl.enumerate_idempotents(n) if e.images[0] == 0
    )
    assert graph.edge_count() == edges
    assert sorted(pairs) == [
        (i, j) for i, row in enumerate(graph.rows) for j in points(row) if i < j
    ]


def test_every_maximal_semilattice_has_exactly_one_constant(
    maximal_by_n, full_graph_by_n
):
    # The full-graph listing does not rest on the anchor lemma, as the
    # conjugated one does, so the lemma is tested on it too.
    for n in (1, 2, 3, 4, 5):
        for s in maximal_by_n[n] + full_graph_by_n[n]:
            constants = [e for e in s if len(set(e.images)) == 1]
            assert len(constants) == 1
            # ... and it is the constant to a common fixed point
            t = constants[0].images[0]
            assert all(e.images[t] == t for e in s)


def test_maximal_cliques_equal_brute_force_maximal_semilattices(
    oracle_by_n, maximal_by_n
):
    for n in (1, 2, 3):
        semis = oracle_by_n[n]
        carriers = [set(s.elements) for s in semis]
        brute_maximal = {
            s for s in semis if not any(set(s.elements) < c for c in carriers)
        }
        assert brute_maximal == set(maximal_by_n[n])


def test_brute_force_counts():
    assert len(brute_force_subsemilattices(1)) == 1
    two = brute_force_subsemilattices(2)
    assert {frozenset(e.images for e in s) for s in two} == {
        frozenset({(0, 1)}),
        frozenset({(0, 0)}),
        frozenset({(1, 1)}),
        frozenset({(0, 1), (0, 0)}),
        frozenset({(0, 1), (1, 1)}),
    }
    with pytest.raises(ValueError):
        brute_force_subsemilattices(4)


def test_max_size_semilattices(full_graph_by_n):
    for n in range(1, 7):
        tops = sl.max_size_semilattices(n, cap=6)
        assert set(tops) == {sl.collapse_semilattice(n, t) for t in range(n)}
        assert all(len(s) == 1 << (n - 1) for s in tops)
        if n <= 5:
            oracle = full_graph_by_n[n]  # canonical order: largest first
            assert tops == tuple(s for s in oracle if len(s) == len(oracle[0]))


def test_spectrum_n2():
    report = sl.spectrum(2)
    assert report.counts() == {2: 2}
    assert report.max_size == 2
    assert report.total_maximal == 2


def test_spectrum_top_row(maximal_by_n):
    for n in (1, 2, 3, 4):
        report = sl.spectrum(n)
        assert report.max_size == 1 << (n - 1)
        assert report.counts()[report.max_size] == n
        assert report.total_maximal == len(maximal_by_n[n])


def _clause_names(clauses):
    return [statement.split(":")[0] for _, statement in clauses]


def _without_collapse_family(maximal_by_n, n):
    missing = sl.collapse_semilattice(n, 0)
    return tuple(s for s in maximal_by_n[n] if s != missing)


def test_extremal_clauses_hold(maximal_by_n):
    for n in range(1, 6):
        clauses = sl.extremal_clauses(n, maximal_by_n[n])
        names = _clause_names(clauses)
        assert names == ["max-size", "count", "set-equality", "boolean"]
        assert all(holds for holds, _ in clauses)


def test_extremal_clauses_take_the_families_in_any_order(maximal_by_n):
    # the sink-0 search emits families in search order, not canonical order
    for n in range(1, 6):
        assert all(holds for holds, _ in sl.extremal_clauses(n, maximal_by_n[n][::-1]))


def test_extremal_clauses_fail_without_a_collapse_family(maximal_by_n):
    clauses = sl.extremal_clauses(4, _without_collapse_family(maximal_by_n, 4))
    failed = [c for c in clauses if not c[0]]
    assert _clause_names(failed) == ["count", "set-equality"]


def _sink_zero_bits(n, semis):
    """The sink-0 families ``semis`` as bit vectors over the search's vertices."""
    vertices = sl.enumerate_idempotents(n, (sl.constant(n, 0),))
    index = {e: i for i, e in enumerate(vertices)}
    return [sum(1 << index[e] for e in s) for s in semis]


def test_spectrum_names_the_failed_clauses(monkeypatch):
    # a sink-0 search that misses the collapse family
    (missing,) = _sink_zero_bits(4, [sl.collapse_semilattice(4, 0)])
    real = enumeration._orbit_cliques

    def miss(rows, orbits):
        return ((c, o) for c, o in real(rows, orbits) if c != missing)

    monkeypatch.setattr(enumeration, "_orbit_cliques", miss)
    message = (
        r"T\(4\) contradict the theorem: max-size: 6 == 2\^\(n-1\) = 8; "
        r"count: 24 maximum-size semilattices, expected n = 4; set-equality: "
        r".*; boolean: "
    )
    with pytest.raises(RuntimeError, match=message):
        sl.spectrum(4)


def test_spectrum_is_symmetric_under_relabelling_the_sink(
    maximal_by_n, full_graph_by_n
):
    # Each maximal subsemilattice holds exactly one constant, its sink, and
    # conjugating by a permutation of the points moves the sink: so every
    # sink has the same size histogram and every count is divisible by n.
    # The conjugated listing holds this by construction; the full-graph
    # listing does not.
    for n in range(1, 6):
        assert all(count % n == 0 for count in sl.spectrum(n).counts().values())
        for semis in (maximal_by_n[n], full_graph_by_n[n]):
            by_sink = _sink_histograms(n, semis)
            assert all(hist == by_sink[0] for hist in by_sink.values())


def test_spectrum_witnesses_are_verified_and_maximal():
    report = sl.spectrum(3)
    for entry in report.entries:
        assert len(entry.witness) == entry.size
        assert sl.verify_semilattice(3, entry.witness.elements) == entry.witness
        assert sl.is_maximal(entry.witness).is_maximal


# The found-clique counts of the orbit search under its fixed orbit order:
# one to a few cliques per orbit of families, against 1, 1, 3, 19, 213 and
# 3761 sink-0 families.
ORBIT_CLIQUES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 20, 6: 101}


@pytest.fixture(scope="module")
def sink_zero_by_n():
    return {n: sink_zero_families(n, enumeration.HARD_CAP) for n in range(1, 7)}


def _least_by_size(semis):
    least = {}
    for s in semis:
        if len(s) not in least or s.key() < least[len(s)].key():
            least[len(s)] = s
    return least


def _orbit_results(n):
    """The orbit search's counts, witnesses and largest families."""
    search = enumeration._sink_zero_orbits(n, enumeration.HARD_CAP)
    witnesses = {size: search.least(size) for size in search.counts}
    largest = search.families(max(search.counts))
    return search, witnesses, {
        sl.verify_semilattice(n, _members(search.vertices, c)) for c in largest
    }


@pytest.mark.parametrize("n", sorted(ORBIT_CLIQUES))
def test_orbit_search_equals_the_direct_sink_zero_search(sink_zero_by_n, n):
    direct = sink_zero_by_n[n]
    search, witnesses, largest = _orbit_results(n)
    assert search.counts == Counter(len(s) for s in direct)
    assert witnesses == _least_by_size(direct)
    assert witnesses == {size: least_image(search, size) for size in search.counts}
    top = max(len(s) for s in direct)
    assert largest == {s for s in direct if len(s) == top}
    assert len(search.cliques) == ORBIT_CLIQUES[n]


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_orbit_search_equals_the_incremental_listing(n):
    # a route that shares neither the block test nor the clique search
    search = enumeration._sink_zero_orbits(n, enumeration.HARD_CAP)
    vertices = search.vertices
    found = {frozenset(map(vertices.__getitem__, points(c))) for c in search.families()}
    assert found == incremental_sink_zero_families(n)


@pytest.fixture(scope="module")
def listing_by_n():
    return {n: tuple(sl.enumerate_maximal_semilattices(n, cap=6)) for n in (4, 5, 6)}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_search_does_not_depend_on_the_orbit_order(
    monkeypatch, listing_by_n, n, order
):
    search, witnesses, largest = _orbit_results(n)
    real = enumeration._vertex_orbits

    def reorder(moves, free):
        # the fixed orbits stay last: searched first, the identity's orbit
        # would find every clique, each with weight 1
        *moved, c0, identity = real(moves, free)
        if order == "reversed":
            moved.reverse()
        else:
            random.Random(n).shuffle(moved)
        return moved + [c0, identity]

    monkeypatch.setattr(enumeration, "_vertex_orbits", reorder)
    other, other_witnesses, other_largest = _orbit_results(n)
    assert other.counts == search.counts
    assert other_witnesses == witnesses
    assert other_largest == largest
    # the listing expands other cliques, and lists the same families
    assert tuple(sl.enumerate_maximal_semilattices(n, cap=6)) == listing_by_n[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_fixed_vertices_are_the_last_orbits(n):
    # G fixes c_0 and the identity and no other sink-0 idempotent, so they
    # are the singleton orbits, searched last
    search = enumeration._sink_zero_orbits(n, enumeration.HARD_CAP)
    vertices = search.vertices
    orbits = enumeration._vertex_orbits(search.moves, (1 << len(vertices)) - 1)
    singletons = [o for o in orbits if o.bit_count() == 1]
    fixed = [vertices[o.bit_length() - 1] for o in singletons]
    assert fixed == [sl.constant(n, 0), sl.identity(n)]
    assert orbits[-2:] == singletons
    assert search.fixed == singletons[0] | singletons[1]


def test_orbit_search_checks_every_clique_is_maximal(monkeypatch):
    # the two singleton orbits {c_0} and {identity} as one clique, credited
    # to c_0's orbit
    def pair(rows, orbits):
        return [(orbits[-2] | orbits[-1], orbits[-2])]

    monkeypatch.setattr(enumeration, "_orbit_cliques", pair)
    with pytest.raises(RuntimeError) as err:
        enumeration._sink_zero_orbits(4, None)
    message = str(err.value)
    assert message.startswith("search emitted a non-maximal clique at n=4: ")
    assert "['0 0 0 0', '0 1 2 3']" in message  # c_0 and the identity
    # every other sink-0 idempotent commutes with both; the least is named
    assert "has the common neighbor [0 0 0 3]" in message


def test_orbit_search_rejects_a_count_that_is_not_an_integer(monkeypatch):
    # one clique found twice, the second time credited to a 3-vertex orbit
    # of which it holds 2: weight 3/2
    real = enumeration._orbit_cliques

    def once_more(rows, orbits):
        found = list(real(rows, orbits))
        clique, orbit = next((c, o) for c, o in found if (c & o).bit_count() == 2)
        outside = orbit & ~clique
        return found + [(clique, clique & orbit | outside & -outside)]

    monkeypatch.setattr(enumeration, "_orbit_cliques", once_more)
    message = r"size 4 at n=4 is \d+/\d+, not an integer"
    with pytest.raises(RuntimeError, match=message):
        enumeration._sink_zero_orbits(4, None)


def test_spectrum_verifies_every_clique_it_reports(monkeypatch):
    # the found cliques, each witness, each largest family and each listed
    # sink-0 family all go through the one naive-composition check
    search = enumeration._sink_zero_orbits(5, None)
    found = [_members(search.vertices, c) for c in search.cliques]
    checked = set()
    real = enumeration._first_violation

    def record(elems, words, tables):
        checked.add(elems)
        return real(elems, words, tables)

    monkeypatch.setattr(enumeration, "_first_violation", record)
    report = sl.spectrum(5)
    reported = [e.witness for e in report.entries] + [
        s for s in sl.max_size_semilattices(5) if sl.constant(5, 0) in s
    ]
    assert set(found) | {s.elements for s in reported} <= checked
    checked.clear()
    listed = [
        s for s in sl.enumerate_maximal_semilattices(5) if sl.constant(5, 0) in s
    ]
    assert len(listed) == 213
    assert {s.elements for s in listed} <= checked


def test_a_rejected_expanded_image_stops_the_listing(monkeypatch):
    # one expanded image that the search did not find itself gains a member
    # that does not commute with all of it: a fault of the search, so
    # RuntimeError, not the usage error SemilatticeError
    search = enumeration._sink_zero_orbits(4, None)
    vertices = search.vertices
    target = next(c for c in search.families() if c not in search.cliques)
    intruder = next(
        i for i, e in enumerate(vertices)
        if not all(sl.commutes(e, m) for m in _members(vertices, target))
    )
    corrupted = target | 1 << intruder
    violation = sl.find_violation(4, _members(vertices, corrupted))
    assert violation.axiom == "commutativity"
    real = enumeration._SinkZeroOrbits._images

    def corrupt(self, clique):
        return (corrupted if c == target else c for c in real(self, clique))

    monkeypatch.setattr(enumeration._SinkZeroOrbits, "_images", corrupt)
    message = "search emitted a non-semilattice expanded family at n=4: "
    with pytest.raises(RuntimeError) as err:
        sl.enumerate_maximal_semilattices(4)
    assert str(err.value) == message + violation.describe()
    assert not isinstance(err.value, ValueError)


def test_a_found_clique_that_breaks_an_axiom_stops_the_search(monkeypatch):
    # the block test is wrong about one pair, (0 0 2) and (0 2 2), which do
    # not commute; the check, which never reads the graph, stops the search
    build = enumeration.build_commuting_graph
    a, b = sl.Transformation(3, (0, 0, 2)), sl.Transformation(3, (0, 2, 2))

    def wrong_edge(n, vertices):
        rows = list(build(n, vertices).rows)
        i, j = vertices.index(a), vertices.index(b)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        return sl.CommutingGraph(n, vertices, tuple(rows))

    monkeypatch.setattr(enumeration, "build_commuting_graph", wrong_edge)
    with pytest.raises(RuntimeError) as err:
        enumeration._sink_zero_orbits(3, None)
    assert str(err.value) == (
        "search emitted a non-semilattice found clique at n=3: "
        "commutativity fails for the pair [0 0 2, 0 2 2]"
    )


def test_the_listing_builds_each_family_once(monkeypatch):
    # families travel as bit vectors; only the final listing builds them
    built = Counter()
    real = sl.Semilattice.__post_init__

    def record(self):
        built["semilattices"] += 1
        real(self)

    monkeypatch.setattr(sl.Semilattice, "__post_init__", record)
    assert len(tuple(sl.enumerate_maximal_semilattices(5))) == 1065
    assert built["semilattices"] == 1065


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_listing_length_is_known_before_it_is_read(monkeypatch, n):
    counts = enumeration._sink_zero_orbits(n, 6).counts

    def unread(self):
        raise AssertionError("the listing was read")

    monkeypatch.setattr(enumeration.Listing, "ranked", unread)
    listing = sl.enumerate_maximal_semilattices(n, cap=6)
    assert len(listing) == n * sum(counts.values())


def test_a_listing_reads_the_same_twice():
    listing = sl.enumerate_maximal_semilattices(4)
    first = tuple(listing)
    assert tuple(listing) == first
    assert len(first) == len(listing) == 76


def test_a_listing_that_misses_a_family_is_refused(monkeypatch):
    # the expansion under G against the orbit-weighted count
    real = enumeration._SinkZeroOrbits.families

    def one_short(self, size=None):
        return real(self, size)[1:]

    monkeypatch.setattr(enumeration._SinkZeroOrbits, "families", one_short)
    message = "expanded 18 sink-0 families at n=4, but its orbit-weighted count is 19"
    with pytest.raises(RuntimeError, match=message):
        sl.enumerate_maximal_semilattices(4)


# The n = 7 line of the spectrum, as size:count over all maximal
# subsemilattices: exploratory, frozen, never corrected.
N7_COUNTS = {
    6: 7560, 7: 161742, 8: 77700, 9: 75600, 10: 65520, 11: 43680, 12: 69930,
    13: 17640, 14: 34020, 15: 23520, 16: 30870, 17: 3780, 18: 18690, 19: 3360,
    20: 17640, 21: 6300, 22: 2520, 24: 11340, 25: 1470, 26: 2520, 27: 1680,
    28: 2520, 30: 2520, 32: 1260, 33: 42, 34: 210, 36: 1680, 40: 420, 48: 210,
    64: 7,
}


@pytest.mark.slow
def test_optional_n7_orbit_search_equals_the_direct_search(monkeypatch):
    monkeypatch.setattr(enumeration, "HARD_CAP", 7)
    search = enumeration._sink_zero_orbits(7, 7)
    counts = search.counts
    assert {size: 7 * count for size, count in counts.items()} == N7_COUNTS
    assert sum(N7_COUNTS.values()) == 685951
    for size in counts:  # the pruned witness, against every image built
        assert search.least(size) == least_image(search, size)
    direct = sink_zero_families(7, 7)
    assert counts == Counter(len(s) for s in direct)
    # the listing's expansion, checked before any cap lets it reach n = 7
    vertices = search.vertices
    expanded = [
        sl.verify_semilattice(7, _members(vertices, c)) for c in search.families()
    ]
    assert len(expanded) == len(direct) == 97993
    assert set(expanded) == set(direct)


# sha256 of the n = 7 JSON listing (893 MB), hashed as it is rendered
N7_LISTING_JSON_SHA256 = (
    "bc8751a3aa842b910c25713755c4cb78259202a0c1c8f175a2cd0b482e4a60eb"
)


@pytest.mark.slow
def test_optional_n7_json_listing_is_frozen(monkeypatch):
    monkeypatch.setattr(enumeration, "HARD_CAP", 7)
    listing = sl.enumerate_maximal_semilattices(7, cap=7)
    assert len(listing) == sum(N7_COUNTS.values())
    digest = hashlib.sha256()
    for chunk in formats.listing_to_json(listing):
        digest.update(chunk.encode())
    assert digest.hexdigest() == N7_LISTING_JSON_SHA256


def test_enumeration_cap():
    with pytest.raises(sl.CapExceeded):
        sl.enumerate_maximal_semilattices(6)
    with pytest.raises(sl.CapExceeded):
        sl.enumerate_maximal_semilattices(7, cap=7)  # hard clamp
    with pytest.raises(sl.CapExceeded):
        sl.spectrum(4, cap=3)
    with pytest.raises(ValueError):
        sl.enumerate_maximal_semilattices(0)


def test_enumeration_rejects_n_below_one_before_any_work(monkeypatch):
    def fail(n, vertices=None):
        raise AssertionError(f"enumerated at n={n}")

    monkeypatch.setattr(enumeration, "enumerate_idempotents", fail)
    monkeypatch.setattr(enumeration, "build_commuting_graph", fail)
    for n in (0, -4):
        for run in (
            sl.enumerate_maximal_semilattices,
            sl.max_size_semilattices,
            sl.spectrum,
        ):
            with pytest.raises(ValueError, match=rf"must be in \[1, 16\], got {n}$"):
                run(n, cap=6)


def test_enumeration_is_deterministic():
    a = tuple(sl.enumerate_maximal_semilattices(3))
    b = tuple(sl.enumerate_maximal_semilattices(3))
    assert a == b
    ja = formats.dumps([formats.semilattice_to_dict(s) for s in a])
    jb = formats.dumps([formats.semilattice_to_dict(s) for s in b])
    assert ja == jb


def _members(vertices, clique):
    return tuple(vertices[i] for i in points(clique))


def _full_graph(n):
    """The commuting graph over all idempotents, its byte tables and its
    maximal cliques."""
    graph = sl.build_commuting_graph(n, sl.enumerate_idempotents(n))
    return graph, byte_tables(graph.vertices), maximal_clique_bitsets(graph.rows)


def test_index_verifier_accepts_every_enumerated_clique():
    # the search's check on cliques given as vertex indices
    for n in range(1, 6):
        graph, tables, cliques = _full_graph(n)
        for clique in cliques:
            members = _members(graph.vertices, clique)
            checked = enumeration._checked(n, graph.vertices, tables, clique, "")
            assert checked == members
            assert sl.find_violation(n, members) is None


def _assert_rejected_like_find_violation(n, vertices, clique):
    """The search's check rejects the clique with the axiom and elements
    that :func:`find_violation` names; returns the axiom."""
    violation = sl.find_violation(n, _members(vertices, clique))
    with pytest.raises(RuntimeError) as err:
        enumeration._checked(n, vertices, byte_tables(vertices), clique, "layer")
    assert str(err.value) == (
        f"search emitted a non-semilattice layer at n={n}: {violation.describe()}"
    )
    return violation.axiom


def test_index_verifier_rejects_mutated_cliques_like_find_violation():
    axioms = Counter()
    for n in range(2, 6):
        graph, _, cliques = _full_graph(n)
        vertices = graph.vertices
        for clique in cliques:
            members = points(clique)
            # add one idempotent that fails to commute with some member
            intruder = next(
                k for k, e in enumerate(vertices)
                if not (clique >> k) & 1
                and not all(sl.commutes(e, vertices[i]) for i in members)
            )
            mutated = clique | 1 << intruder
            axioms[_assert_rejected_like_find_violation(n, vertices, mutated)] += 1
            # remove the product of two members that is neither of them
            products = (
                (i, j, vertices.index(sl.compose(vertices[i], vertices[j])))
                for a, i in enumerate(members)
                for j in members[a + 1 :]
            )
            removed = next((p for i, j, p in products if p not in (i, j)), None)
            if removed is not None:
                mutated = clique & ~(1 << removed)
                axiom = _assert_rejected_like_find_violation(n, vertices, mutated)
                assert axiom == "closure"
                axioms["removed"] += 1
    assert axioms["commutativity"] and axioms["removed"]


def test_index_verifier_reports_a_non_idempotent_member():
    # (1 2 2) squared agrees with it on its image {1, 2}, but not at 0
    vertices = sl.enumerate_idempotents(3) + (sl.Transformation(3, (1, 2, 2)),)
    clique = 1 << (len(vertices) - 1) | 1
    assert _assert_rejected_like_find_violation(3, vertices, clique) == "idempotence"


@pytest.mark.slow
def test_optional_n6_extremal_row():
    report = sl.spectrum(6, cap=6)
    assert report.max_size == 32
    assert report.counts()[32] == 6


N6_COUNTS = {
    6: 6390, 7: 3060, 8: 3240, 9: 1440, 10: 3120, 11: 360, 12: 2160, 13: 360,
    14: 720, 15: 360, 16: 540, 17: 30, 18: 480, 20: 180, 24: 120, 32: 6,
}
N6_SPECTRUM_SHA256 = "80611d15539c00adced36cacea96dceb7f833df015712badf047dd230e79d699"


def test_n6_spectrum_is_frozen(capsys):
    # exploratory counts: frozen, never corrected
    assert sl.spectrum(6, cap=6).counts() == N6_COUNTS
    assert cli.main(["spectrum", "--n", "6", "--cap", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == N6_SPECTRUM_SHA256


@pytest.mark.slow
def test_optional_n6_spectrum_is_frozen_and_sink_symmetric(n6_oracle, capsys):
    # exploratory counts: frozen, never corrected
    semis = sl.enumerate_maximal_semilattices(6, cap=6)
    assert Counter(len(s) for s in semis) == N6_COUNTS
    assert all(count % 6 == 0 for count in N6_COUNTS.values())
    # and on the full-graph listing, which does not rest on the sink symmetry
    for listing in (semis, n6_oracle):
        for hist in _sink_histograms(6, listing).values():
            assert hist == {size: count // 6 for size, count in N6_COUNTS.items()}
            assert hist.total() == 3761
    assert cli.main(["spectrum", "--n", "6", "--cap", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == N6_SPECTRUM_SHA256
