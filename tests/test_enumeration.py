"""The commuting graph and the clique search, against the oracles."""

import hashlib
import random
from collections import Counter

import pytest

import semilat as sl
from oracles import (
    brute_force_subsemilattices,
    least_image,
    maximal_clique_bitsets,
    sink_zero_families,
)
from semilat import cli, enumeration, formats
from semilat.transform import points


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


def test_graph_validation_rejects_bad_rows():
    verts = sl.enumerate_idempotents(2)
    for rows, message in [
        ((0b010, 0b100, 0b010), "adjacency not symmetric at 0, 1"),
        ((0b000, 0b001, 0b000), "adjacency not symmetric at 1, 0"),
        ((0b011, 0b101, 0b010), "vertex 0 is adjacent to itself"),
        ((0b010, 0b101), "adjacency rows do not match the vertex list"),
        ((0b010, 0b101, 0b010, 0b000), "adjacency rows do not match"),
        ((0b010, 0b101, 0b1010), "row 2 mentions vertices beyond the list"),
    ]:
        with pytest.raises(ValueError, match=message):
            sl.CommutingGraph(2, verts, rows)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
def test_graph_build_rejects_an_asymmetric_block_test(monkeypatch, i, j):
    # a block test that loses one bit of one row, above or below the diagonal
    real = enumeration.commuting_masks

    def lose_a_bit(n, idempotents, maps):
        masks = list(real(n, idempotents, maps))
        masks[i] &= ~(1 << j)
        return tuple(masks)

    monkeypatch.setattr(enumeration, "commuting_masks", lose_a_bit)
    verts = sl.enumerate_idempotents(4, (sl.constant(4, 0),))
    assert sl.commutes(verts[i], verts[j])
    with pytest.raises(ValueError, match="adjacency not symmetric"):
        sl.build_commuting_graph(4, verts)


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
    for n in (2, 3, 4):
        semis = maximal_by_n[n]
        keys = [(-len(s), s.key()) for s in semis]
        assert keys == sorted(keys)
        assert len(set(semis)) == len(semis)


def _full_graph_families(n):
    """Every maximal subsemilattice of T(n) from the commuting graph over all
    idempotents, in canonical order: the search without the sink-0 reduction,
    kept as the oracle for it and for the conjugation."""
    cliques, verifier = _cliques_and_verifier(n)
    semis = [verifier.semilattice(clique) for clique in cliques]
    semis.sort(key=enumeration._semilattice_sort_key)
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
    assert sl.enumerate_maximal_semilattices(6, cap=6) == n6_oracle
    assert sl.spectrum(6, cap=6) == _report_from(6, n6_oracle)


def test_conjugation_by_a_transposition_moves_the_collapse_sink():
    for n in range(1, 7):
        sink_zero = (sl.collapse_semilattice(n, 0),)
        for t in range(n):
            conjugated = enumeration._conjugates(n, t, sink_zero)
            assert conjugated == [sl.collapse_semilattice(n, t)]


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
def test_verifier_composes_each_sink_zero_edge_once(monkeypatch, n, edges):
    # Every edge lies in some maximal clique and the memo keeps each pair's
    # outcome, so naive composition re-checks every edge of the block-test
    # graph exactly once, and never a pair the graph left out.
    build = enumeration.build_commuting_graph
    product = enumeration._CliqueVerifier._product
    graphs, pairs = [], []

    def record_graph(n, vertices):
        graphs.append(build(n, vertices))
        return graphs[-1]

    def record_pair(self, i, j):
        pairs.append((i, j))
        return product(self, i, j)

    monkeypatch.setattr(enumeration, "build_commuting_graph", record_graph)
    monkeypatch.setattr(enumeration._CliqueVerifier, "_product", record_pair)
    sl.enumerate_maximal_semilattices(n, cap=enumeration.HARD_CAP)
    (graph,) = graphs
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

    def miss(rows, base, orbits):
        return ((c, o) for c, o in real(rows, base, orbits) if c != missing)

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
    return search, witnesses, set(search.families(max(search.counts)))


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


@pytest.fixture(scope="module")
def listing_by_n():
    return {n: sl.enumerate_maximal_semilattices(n, cap=6) for n in (4, 5, 6)}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_search_does_not_depend_on_the_orbit_order(
    monkeypatch, listing_by_n, n, order
):
    search, witnesses, largest = _orbit_results(n)
    real = enumeration._vertex_orbits

    def reorder(moves, free):
        orbits = real(moves, free)
        if order == "reversed":
            return orbits[::-1]
        random.Random(n).shuffle(orbits)
        return orbits

    monkeypatch.setattr(enumeration, "_vertex_orbits", reorder)
    other, other_witnesses, other_largest = _orbit_results(n)
    assert other.counts == search.counts
    assert other_witnesses == witnesses
    assert other_largest == largest
    # the listing expands other cliques, and lists the same families
    assert sl.enumerate_maximal_semilattices(n, cap=6) == listing_by_n[n]


def test_orbit_search_checks_every_clique_is_maximal(monkeypatch):
    # the universal pair {c_0, identity} alone, credited to the first orbit
    monkeypatch.setattr(
        enumeration, "_orbit_cliques", lambda rows, base, orbits: [(base, orbits[0])]
    )
    with pytest.raises(RuntimeError, match="search emitted a non-maximal clique"):
        enumeration._sink_zero_orbits(4, None)


def test_orbit_search_rejects_a_count_that_is_not_an_integer(monkeypatch):
    # one clique found twice, the second time credited to a 3-vertex orbit
    # of which it holds 2: weight 3/2
    real = enumeration._orbit_cliques

    def once_more(rows, base, orbits):
        found = list(real(rows, base, orbits))
        clique, orbit = next((c, o) for c, o in found if (c & o).bit_count() == 2)
        outside = orbit & ~clique
        return found + [(clique, clique & orbit | outside & -outside)]

    monkeypatch.setattr(enumeration, "_orbit_cliques", once_more)
    message = r"size 4 at n=4 is \d+/\d+, not an integer"
    with pytest.raises(RuntimeError, match=message):
        enumeration._sink_zero_orbits(4, None)


def test_spectrum_verifies_every_clique_it_reports(monkeypatch):
    # the found cliques, each witness and each largest family all go
    # through the naive-composition verifier
    verified = set()
    real = enumeration._CliqueVerifier.semilattice

    def record(self, clique):
        verified.add(clique)
        return real(self, clique)

    monkeypatch.setattr(enumeration._CliqueVerifier, "semilattice", record)
    report = sl.spectrum(5)
    found = enumeration._sink_zero_orbits(5, None).cliques
    reported = [e.witness for e in report.entries] + [
        s for s in sl.max_size_semilattices(5) if sl.constant(5, 0) in s
    ]
    assert set(found) | set(_sink_zero_bits(5, reported)) <= verified


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
    expanded = search.families()
    assert len(expanded) == len(direct) == 97993
    assert set(expanded) == set(direct)


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
    a = sl.enumerate_maximal_semilattices(3)
    b = sl.enumerate_maximal_semilattices(3)
    assert a == b
    ja = formats.dumps([formats.semilattice_to_dict(s) for s in a])
    jb = formats.dumps([formats.semilattice_to_dict(s) for s in b])
    assert ja == jb


def _cliques_and_verifier(n):
    graph = sl.build_commuting_graph(n, sl.enumerate_idempotents(n))
    cliques = maximal_clique_bitsets(graph.rows)
    return cliques, enumeration._CliqueVerifier(n, graph.vertices)


def _members(verifier, clique):
    return [verifier.vertices[i] for i in points(clique)]


def test_index_verifier_accepts_every_enumerated_clique():
    for n in range(1, 6):
        cliques, verifier = _cliques_and_verifier(n)
        for clique in cliques:
            assert verifier.violation(clique) is None
            assert sl.find_violation(n, _members(verifier, clique)) is None


def _assert_both_reject(verifier, clique):
    """The axiom that both verifiers, and the fallback's error, name."""
    axiom = sl.find_violation(verifier.n, _members(verifier, clique)).axiom
    assert verifier.violation(clique) == axiom
    with pytest.raises(sl.SemilatticeError) as err:
        verifier.semilattice(clique)
    assert err.value.violation.axiom == axiom
    return axiom


def test_index_verifier_rejects_mutated_cliques_like_find_violation():
    axioms = Counter()
    for n in range(2, 6):
        cliques, verifier = _cliques_and_verifier(n)
        vertices = verifier.vertices
        for clique in cliques:
            members = points(clique)
            # add one idempotent that fails to commute with some member
            intruder = next(
                k for k, e in enumerate(vertices)
                if not (clique >> k) & 1
                and not all(sl.commutes(e, vertices[i]) for i in members)
            )
            axioms[_assert_both_reject(verifier, clique | 1 << intruder)] += 1
            # remove the product of two members that is neither of them
            products = (
                (i, j, vertices.index(sl.compose(vertices[i], vertices[j])))
                for a, i in enumerate(members)
                for j in members[a + 1 :]
            )
            removed = next((p for i, j, p in products if p not in (i, j)), None)
            if removed is not None:
                mutated = clique & ~(1 << removed)
                assert _assert_both_reject(verifier, mutated) == "closure"
                axioms["removed"] += 1
    assert axioms["commutativity"] and axioms["removed"]


def test_index_verifier_reports_a_non_idempotent_member():
    # (1 2 2) squared agrees with it on its image {1, 2}, but not at 0
    vertices = sl.enumerate_idempotents(3) + (sl.Transformation(3, (1, 2, 2)),)
    verifier = enumeration._CliqueVerifier(3, vertices)
    clique = 1 << (len(vertices) - 1) | 1
    assert _assert_both_reject(verifier, clique) == "idempotence"


def test_verifiers_that_disagree_stop_the_enumeration(monkeypatch):
    _, verifier = _cliques_and_verifier(3)
    monkeypatch.setattr(enumeration, "verify_semilattice", lambda n, members: None)
    constants = 1 | 1 << (len(verifier.vertices) - 1)  # (0 0 0) and (2 2 2)
    message = r"disagree at n=3 on the clique \['0 0 0', '2 2 2'\]"
    with pytest.raises(RuntimeError, match=message):
        verifier.semilattice(constants)


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
