"""Semilattice verification, order structure, and the collapse families."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import semilat as sl
from semilat import Transformation as T
from semilat import semilattice


def test_verify_accepts_singleton():
    s = sl.verify_semilattice(3, [sl.identity(3)])
    assert len(s) == 1


def test_verify_rejects_noncommuting_constants():
    with pytest.raises(sl.SemilatticeError) as exc:
        sl.verify_semilattice(3, [sl.constant(3, 0), sl.constant(3, 1)])
    v = exc.value.violation
    assert v.axiom == "commutativity"
    assert set(v.elements) == {sl.constant(3, 0), sl.constant(3, 1)}


def test_verify_accepts_closed_pair():
    s = sl.verify_semilattice(3, [T(3, [0, 1, 2]), T(3, [0, 1, 0])])
    assert len(s) == 2


def test_verify_reports_closure_failure_with_pair_and_product():
    v = sl.find_violation(3, [T(3, [0, 1, 0]), T(3, [0, 0, 2])])
    assert v is not None and v.axiom == "closure"
    assert set(v.elements) == {T(3, [0, 1, 0]), T(3, [0, 0, 2])}
    assert v.product == T(3, [0, 0, 0])


def test_verify_reports_idempotence_failure():
    v = sl.find_violation(2, [T(2, [1, 0])])
    assert v is not None and v.axiom == "idempotence"
    assert v.elements == (T(2, [1, 0]),)


def test_verify_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        sl.verify_semilattice(3, [])
    with pytest.raises(ValueError):
        sl.verify_semilattice(3, [sl.identity(2)])


def test_verify_deduplicates():
    s = sl.verify_semilattice(2, [sl.identity(2), sl.identity(2)])
    assert len(s) == 1


def test_semilattice_equality_is_set_equality():
    a = sl.verify_semilattice(2, [sl.identity(2), sl.constant(2, 0)])
    b = sl.verify_semilattice(2, [sl.constant(2, 0), sl.identity(2)])
    assert a == b and hash(a) == hash(b)


def test_natural_order_singleton():
    s = sl.verify_semilattice(2, [sl.identity(2)])
    order = sl.natural_order(s)
    assert order.leq == ((True,),)


def test_natural_order_of_collapse_family():
    s = sl.collapse_semilattice(3, 0)
    order = sl.natural_order(s)
    bottom = s.elements.index(sl.constant(3, 0))
    top = s.elements.index(sl.identity(3))
    for j in range(len(s)):
        assert order.leq[bottom][j]
        assert order.leq[j][top]


def _reference_natural_order(s):
    """``a ≤ b iff a = ab``, composing the image tables in a list
    comprehension."""
    tables = [e.images for e in s.elements]
    return tuple(tuple(a == tuple(b[y] for y in a) for b in tables) for a in tables)


def test_natural_order_matches_the_reference_on_every_enumerated_family(
    oracle_by_n, maximal_by_n
):
    families = [s for n in (1, 2, 3) for s in oracle_by_n[n]]
    families += [s for n in range(1, 6) for s in maximal_by_n[n]]
    for s in families:
        assert sl.natural_order(s).leq == _reference_natural_order(s)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 15), st.integers(1, 64))
def test_natural_order_matches_the_reference_on_sixteen_points(t, m):
    s = sl.semilattice_of_size(16, t, m)
    assert sl.natural_order(s).leq == _reference_natural_order(s)


def test_poset_relation_rejects_non_posets():
    with pytest.raises(ValueError):
        sl.PosetRelation((0, 1), ((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(ValueError):
        sl.PosetRelation((0, 1), ((False, False), (False, True)))  # not reflexive


def _reference_violation(n, tables):
    """The axioms on plain image tables, composing left to right in canonical
    order: (axiom, element tables, product table or None), or None."""
    carrier = sorted(set(tables))
    for a in carrier:
        if tuple(a[a[x]] for x in range(n)) != a:
            return ("idempotence", (a,), None)
    for i, a in enumerate(carrier):
        for b in carrier[i + 1 :]:
            ab = tuple(b[a[x]] for x in range(n))
            if ab != tuple(a[b[x]] for x in range(n)):
                return ("commutativity", (a, b), None)
            if ab not in carrier:
                return ("closure", (a, b), ab)
    return None


@st.composite
def _candidate(draw):
    """A nonempty list of image tables on n <= 4 points: a subset of the
    idempotents of T(n) mixed with random maps, in random order."""
    n = draw(st.integers(1, 4))
    idempotents = [e.images for e in sl.enumerate_idempotents(n)]
    chosen = draw(st.lists(st.sampled_from(idempotents), max_size=6, unique=True))
    maps = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=2))
    tables = draw(st.permutations(chosen + maps))
    if not tables:
        tables = [draw(st.sampled_from(idempotents))]
    return n, tables


@st.composite
def _wide_candidate(draw):
    """A nonempty list of image tables on n <= 16 points, so the high points
    and the padding of the byte tables are reached: part of the collapse
    maps with sink t that keep subsets of up to four points (valid families
    and closure failures), random idempotents (commutativity failures) and
    random maps, in random order."""
    n = draw(st.integers(1, 16))
    t = draw(st.integers(0, n - 1))
    keep = draw(st.sets(st.integers(0, n - 1), max_size=4)) - {t}
    family = [
        sl.collapse_map(n, t, kept).images
        for k in range(len(keep) + 1)
        for kept in combinations(keep, k)
    ]
    chosen = draw(st.lists(st.sampled_from(family), unique=True))
    for _ in range(draw(st.integers(0, 1))):
        fixed = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        chosen.append(
            tuple(x if x in fixed else draw(st.sampled_from(fixed)) for x in range(n))
        )
    maps = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), max_size=1))
    tables = draw(st.permutations(chosen + maps)) or [family[0]]
    return n, tables


def _check_violation_against_the_reference(n, tables):
    expected = _reference_violation(n, tables)
    v = sl.find_violation(n, [T(n, a) for a in tables])
    got = None if v is None else (
        v.axiom,
        tuple(e.images for e in v.elements),
        None if v.product is None else v.product.images,
    )
    assert got == expected
    if v is None:
        s = sl.verify_semilattice(n, [T(n, a) for a in tables])
        assert s.key() == tuple(sorted(set(tables)))
    else:
        with pytest.raises(sl.SemilatticeError) as exc:
            sl.verify_semilattice(n, [T(n, a) for a in tables])
        assert exc.value.violation == v
        assert str(exc.value) == v.describe()


@settings(max_examples=400)
@given(_candidate())
def test_find_violation_matches_the_reference_on_tables(candidate):
    _check_violation_against_the_reference(*candidate)


@settings(max_examples=300)
@given(_wide_candidate())
def test_find_violation_matches_the_reference_on_wide_tables(candidate):
    _check_violation_against_the_reference(*candidate)


def _reference_poset_error(leq):
    """The order axioms by a triple loop over the matrix: the first error
    message, or None."""
    k = len(leq)
    for i in range(k):
        if not leq[i][i]:
            return f"not reflexive at index {i}"
        for j in range(k):
            if i != j and leq[i][j] and leq[j][i]:
                return f"not antisymmetric at indices {i}, {j}"
            if leq[i][j]:
                for l in range(k):
                    if leq[j][l] and not leq[i][l]:
                        return f"not transitive at indices {i}, {j}, {l}"
    return None


@st.composite
def _relation(draw):
    """A random 0/1 matrix with k <= 6: raw, with a full diagonal, or a
    partial order with at most one entry flipped."""
    k = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("raw", "reflexive", "order")))
    if kind == "order":
        rank = draw(st.permutations(range(k)))
        leq = [
            [int(i == j or (rank[i] < rank[j] and draw(st.booleans()))) for j in range(k)]
            for i in range(k)
        ]
        for m in range(k):  # transitive closure
            for i in range(k):
                if leq[i][m]:
                    for j in range(k):
                        leq[i][j] |= leq[m][j]
        if k and draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            leq[i][j] ^= 1
    else:
        leq = [[draw(st.integers(0, 1)) for _ in range(k)] for _ in range(k)]
        if kind == "reflexive":
            for i in range(k):
                leq[i][i] = 1
    return tuple(tuple(row) for row in leq)


@settings(max_examples=400)
@given(_relation())
def test_poset_relation_raises_the_reference_error(leq):
    expected = _reference_poset_error(leq)
    if expected is None:
        sl.PosetRelation(tuple(range(len(leq))), leq)
    else:
        with pytest.raises(ValueError) as exc:
            sl.PosetRelation(tuple(range(len(leq))), leq)
        assert str(exc.value) == expected


def _assert_meet_is_glb(s):
    order = sl.natural_order(s)
    leq = order.leq
    idx = {e: i for i, e in enumerate(s.elements)}
    for i, a in enumerate(s.elements):
        for j, b in enumerate(s.elements):
            c = idx[sl.compose(a, b)]
            assert leq[c][i] and leq[c][j]
            for d in range(len(s)):
                if leq[d][i] and leq[d][j]:
                    assert leq[d][c]


def test_meet_is_greatest_lower_bound_everywhere(oracle_by_n, maximal_by_n):
    for n in (1, 2, 3):
        for s in oracle_by_n[n]:
            _assert_meet_is_glb(s)
    for s in maximal_by_n[4]:
        _assert_meet_is_glb(s)


def test_collapse_map_examples_and_validation():
    assert sl.collapse_map(3, 0, [1]) == T(3, [0, 1, 0])
    assert sl.collapse_map(3, 0, []) == sl.constant(3, 0)
    assert sl.collapse_map(3, 0, [1, 2]) == sl.identity(3)
    with pytest.raises(ValueError):
        sl.collapse_map(3, 3, [])
    with pytest.raises(ValueError):
        sl.collapse_map(3, 0, [0])
    with pytest.raises(ValueError):
        sl.collapse_map(3, 0, [5])


def test_collapse_semilattice_small_cases():
    assert {e.images for e in sl.collapse_semilattice(3, 0)} == {
        (0, 0, 0),
        (0, 1, 0),
        (0, 0, 2),
        (0, 1, 2),
    }
    assert sl.collapse_semilattice(1, 0).elements == (sl.constant(1, 0),)


def test_collapse_semilattice_sizes_and_verification():
    for n in range(1, 7):
        for t in range(n):
            s = sl.collapse_semilattice(n, t)
            assert len(s) == 1 << (n - 1)
            assert sl.verify_semilattice(n, s.elements) == s


def test_injective_except_sink_examples():
    for t in range(3):
        assert sl.is_injective_except_sink(t, sl.identity(3))
        assert sl.is_injective_except_sink(t, sl.constant(3, t))
    assert sl.is_injective_except_sink(0, T(3, [0, 0, 1]))
    assert not sl.is_injective_except_sink(1, T(3, [0, 0, 1]))
    with pytest.raises(ValueError):
        sl.is_injective_except_sink(3, sl.identity(3))


def test_injective_except_sink_matches_brute_predicate():
    from itertools import product as iproduct

    def brute(t, a):
        if a.images[t] != t:
            return False
        return all(
            a.images.count(x) == 1 for x in set(a.images) if x != t
        )

    for images in iproduct(range(3), repeat=3):
        a = sl.Transformation(3, images)
        for t in range(3):
            assert sl.is_injective_except_sink(t, a) == brute(t, a)


def test_collapse_family_is_the_sink_injective_idempotents():
    for n in range(1, 7):
        idempotents = sl.enumerate_idempotents(n)
        for t in range(n):
            members = tuple(
                e
                for e in idempotents
                if sl.is_injective_except_sink(t, e)
            )
            assert members == sl.collapse_semilattice(n, t).elements


def test_is_maximal_examples():
    for n in range(1, 6):
        for t in range(n):
            assert sl.is_maximal(sl.collapse_semilattice(n, t)).is_maximal
    res = sl.is_maximal(sl.verify_semilattice(2, [sl.identity(2)]))
    assert not res.is_maximal
    assert res.witness == sl.constant(2, 0)
    assert sl.is_maximal(
        sl.verify_semilattice(2, [sl.identity(2), sl.constant(2, 0)])
    ).is_maximal


def test_is_maximal_agrees_with_brute_force(oracle_by_n):
    for n in (1, 2, 3):
        semis = oracle_by_n[n]
        carriers = [set(s.elements) for s in semis]
        for s in semis:
            mine = set(s.elements)
            brute = not any(mine < other for other in carriers)
            res = sl.is_maximal(s)
            assert res.is_maximal == brute
            if not res.is_maximal:
                # the witness genuinely extends
                assert res.witness not in mine
                assert all(sl.commutes(res.witness, e) for e in s.elements)


def _check_witnesses(n, families):
    # the oracle scans all of T(n) in canonical order for the first outside
    # idempotent that commutes with every member by the block test read off
    # the image tables: f sends each point p into the block of the fixed
    # point (p e) f, the block of p being named by its image p e
    idems = sl.enumerate_idempotents(n)
    for s in families:
        first = next(
            (
                f
                for f in idems
                if f not in s.elements
                and all(
                    e.images[f.images[p]] == f.images[e.images[p]]
                    for e in s.elements
                    for p in range(n)
                )
            ),
            None,
        )
        res = sl.is_maximal(s)
        assert (res.is_maximal, res.witness) == (first is None, first)


def _sized_families(n):
    for t in range(n):
        for m in range(1, (1 << (n - 1)) + 1):
            yield sl.semilattice_of_size(n, t, m)


def test_is_maximal_witness_is_the_first_extender(maximal_by_n):
    for n in range(1, 6):
        _check_witnesses(n, _sized_families(n))
        _check_witnesses(n, maximal_by_n[n])


@pytest.mark.slow
def test_is_maximal_witness_is_the_first_extender_n6():
    _check_witnesses(6, _sized_families(6))


@pytest.mark.parametrize("n", range(1, 9))
def test_generators_of_the_collapse_family_are_the_identity_and_coatoms(n):
    for t in range(n):
        others = {x for x in range(n) if x != t}
        coatoms = [sl.collapse_map(n, t, others - {x}) for x in others]
        expected = sorted([sl.identity(n), *coatoms], key=lambda e: e.images)
        assert semilattice._generators(sl.collapse_semilattice(n, t)) == tuple(
            expected
        )


def test_is_maximal_refuses_n_above_8_before_any_product(monkeypatch):
    s = sl.collapse_semilattice(12, 0)

    def fail(maps):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(semilattice, "byte_tables", fail)
    with pytest.raises(
        ValueError,
        match=r"^T\(12\) has 157329097 idempotents, too many to list "
        r"\(n must be at most 8\)$",
    ):
        sl.is_maximal(s)


def test_boolean_lattice_on_collapse_families():
    for n in range(1, 6):
        for t in range(n):
            res = sl.is_boolean_lattice(sl.collapse_semilattice(n, t))
            assert res.is_boolean
            assert len(res.atoms) == n - 1
            assert {a.images for a in res.atoms} == {
                sl.collapse_map(n, t, [x]).images for x in range(n) if x != t
            }


# 2^2 elements and 2 atoms, but 0 0 0 3 and 0 1 0 3 have the same atom set
_SHARED_ATOM_SET = [
    T(4, t) for t in ([0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 2, 0], [0, 1, 0, 3])
]


def test_boolean_lattice_counterexamples():
    assert sl.is_boolean_lattice(
        sl.verify_semilattice(1, [sl.constant(1, 0)])
    ).is_boolean
    chain = sl.verify_semilattice(
        3, [sl.constant(3, 0), T(3, [0, 1, 0]), sl.identity(3)]
    )
    res = sl.is_boolean_lattice(chain)
    assert not res.is_boolean
    assert res.atoms == (T(3, [0, 1, 0]),)
    res = sl.is_boolean_lattice(sl.verify_semilattice(4, _SHARED_ATOM_SET))
    assert not res.is_boolean
    assert res.atoms == (T(4, [0, 0, 0, 3]), T(4, [0, 0, 2, 0]))


def _boolean_reference(tables):
    """The full power-set check on image tables, composing every pair:
    (verdict, atom tables in the given order).

    Boolean iff there are 2^a elements for a atoms, the atom sets are
    distinct, the order is atom-set inclusion and composition is
    intersection.
    """
    k = len(tables)
    index = {a: i for i, a in enumerate(tables)}
    prod = [[index[tuple(b[y] for y in a)] for b in tables] for a in tables]
    leq = [[prod[i][j] == i for j in range(k)] for i in range(k)]
    bottom = 0
    for i in range(k):
        bottom = prod[bottom][i]
    atoms = [
        i
        for i in range(k)
        if i != bottom and all(j in (i, bottom) for j in range(k) if leq[j][i])
    ]
    below = [frozenset(a for a in atoms if leq[a][i]) for i in range(k)]
    verdict = (
        k == 1 << len(atoms)
        and len(set(below)) == k
        and all(
            leq[i][j] == (below[i] <= below[j])
            and below[prod[i][j]] == below[i] & below[j]
            for i in range(k)
            for j in range(k)
        )
    )
    return verdict, [tables[i] for i in atoms]


def _check_boolean_against_reference(families):
    """Assert verdict and atoms equal the reference; return the Boolean count."""
    booleans = 0
    for s in families:
        res = sl.is_boolean_lattice(s)
        verdict, atoms = _boolean_reference([e.images for e in s.elements])
        assert (res.is_boolean, [a.images for a in res.atoms]) == (verdict, atoms)
        booleans += verdict
    return booleans


def _product_closed_subsets(n, maximal):
    """Every subsemilattice of T(n): each lies in a maximal family, so they are
    the product-closed nonempty subsets of the maximal families."""
    found = set()
    for s in maximal:
        tables = [e.images for e in s.elements]
        index = {a: i for i, a in enumerate(tables)}
        prod = [[1 << index[tuple(b[y] for y in a)] for b in tables] for a in tables]
        for mask in range(1, 1 << len(tables)):
            members = [i for i in range(len(tables)) if mask >> i & 1]
            if all(prod[i][j] & mask for i in members for j in members):
                found.add(tuple(tables[i] for i in members))
    return [sl.Semilattice(n, tuple(T(n, a) for a in key)) for key in found]


def test_boolean_lattice_matches_the_reference_on_every_subsemilattice(
    oracle_by_n, maximal_by_n
):
    subs3 = _product_closed_subsets(3, maximal_by_n[3])
    assert set(subs3) == set(oracle_by_n[3]) and len(subs3) == 49
    _check_boolean_against_reference(subs3)
    subs4 = _product_closed_subsets(4, maximal_by_n[4])
    assert len(maximal_by_n[4]) == 76 and len(subs4) == 1273
    assert sl.verify_semilattice(4, _SHARED_ATOM_SET) in subs4
    assert _check_boolean_against_reference(subs4) == 361


def test_boolean_lattice_matches_the_reference_on_maximal_families(maximal_by_n):
    for n in range(1, 6):
        _check_boolean_against_reference(maximal_by_n[n])


@pytest.mark.slow
def test_boolean_lattice_matches_the_reference_on_maximal_families_n6():
    _check_boolean_against_reference(sl.enumerate_maximal_semilattices(6, cap=6))


def test_transitivity_order_examples():
    discrete = sl.transitivity_order(sl.verify_semilattice(3, [sl.identity(3)]))
    for x in range(3):
        for y in range(3):
            assert discrete.leq[x][y] == (x == y)

    order = sl.transitivity_order(sl.collapse_semilattice(3, 0))
    assert order.leq[0][1] and order.leq[0][2]
    assert not order.leq[1][2] and not order.leq[2][1]
    assert not order.leq[1][0] and not order.leq[2][0]

    lone = sl.transitivity_order(sl.verify_semilattice(3, [sl.constant(3, 1)]))
    assert all(lone.leq[1][y] for y in range(3))


def test_transitivity_order_is_a_poset_everywhere(oracle_by_n):
    for n in (2, 3):
        for s in oracle_by_n[n]:
            sl.transitivity_order(s)  # constructor validates the axioms


def test_semilattice_of_size_examples():
    assert sl.semilattice_of_size(3, 0, 4) == sl.collapse_semilattice(3, 0)
    assert {e.images for e in sl.semilattice_of_size(3, 0, 3)} == {
        (0, 0, 0),
        (0, 1, 0),
        (0, 0, 2),
    }
    assert sl.semilattice_of_size(3, 0, 1).elements == (sl.constant(3, 0),)
    with pytest.raises(ValueError):
        sl.semilattice_of_size(3, 0, 5)
    with pytest.raises(ValueError):
        sl.semilattice_of_size(3, 0, 0)


def test_semilattice_of_size_rejects_n_above_max_points_before_building():
    # 2^39 kept-sets would be listed before any map checked n
    message = r"ground-set size must be in \[1, 16\], got 40"
    with pytest.raises(ValueError, match=message):
        sl.semilattice_of_size(40, 0, 1)
    with pytest.raises(ValueError, match=message):
        sl.collapse_semilattice(40, 0)


@pytest.mark.parametrize("n", [0, -3])
def test_collapse_semilattice_rejects_n_below_one(n):
    # checked before 2^(n-1) is formed, which fails on a negative shift count
    message = rf"^ground-set size must be in \[1, 16\], got {n}$"
    with pytest.raises(ValueError, match=message):
        sl.collapse_semilattice(n, 0)


@pytest.mark.parametrize("n", [0, -2])
def test_collapse_map_rejects_n_below_one_before_the_sink(n):
    message = rf"^ground-set size must be in \[1, 16\], got {n}$"
    with pytest.raises(ValueError, match=message):
        sl.collapse_map(n, 0, [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sl.semilattice_of_size(3, 9, 1), "t=9 outside [0, 3)"),
        (lambda: sl.collapse_map(3, 5, []), "t=5 outside [0, 3)"),
        (lambda: sl.is_injective_except_sink(5, sl.identity(3)), "t=5 outside [0, 3)"),
        (lambda: sl.semilattice_of_size(3, 0, 9), "m=9 outside [1, 4]"),
    ],
    ids=["size-sink", "map-sink", "injective-sink", "size-m"],
)
def test_argument_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_membership_is_carrier_membership():
    s = sl.collapse_semilattice(3, 0)
    assert [e in s for e in (T(3, [0, 1, 0]), sl.constant(3, 1))] == [True, False]


def test_semilattice_of_size_every_size_verifies():
    for n in range(1, 5):
        for t in range(n):
            for m in range(1, (1 << (n - 1)) + 1):
                s = sl.semilattice_of_size(n, t, m)
                assert len(s) == m
                assert sl.verify_semilattice(n, s.elements) == s


def test_semilattice_of_size_is_deterministic():
    assert sl.semilattice_of_size(5, 2, 9) == sl.semilattice_of_size(5, 2, 9)


@settings(max_examples=150)
@given(st.data())
def test_intersection_closed_subfamilies_verify(data):
    # any intersection-closed family of kept-sets gives a subsemilattice
    n = data.draw(st.integers(2, 5))
    t = data.draw(st.integers(0, n - 1))
    others = [x for x in range(n) if x != t]
    seeds = data.draw(
        st.lists(st.sets(st.sampled_from(others)), min_size=1, max_size=4)
    )
    family = {frozenset(a) for a in seeds}
    changed = True
    while changed:
        changed = False
        items = list(family)
        for a in items:
            for b in items:
                c = a & b
                if c not in family:
                    family.add(c)
                    changed = True
    s = sl.verify_semilattice(n, [sl.collapse_map(n, t, a) for a in family])
    assert len(s) == len(family)


@settings(max_examples=100)
@given(st.data())
def test_natural_order_matches_subset_order_on_collapse_maps(data):
    n = data.draw(st.integers(2, 5))
    t = data.draw(st.integers(0, n - 1))
    s = sl.collapse_semilattice(n, t)
    order = sl.natural_order(s)
    i = data.draw(st.integers(0, len(s) - 1))
    j = data.draw(st.integers(0, len(s) - 1))
    kept_i = {x for x in range(n) if x != t and s.elements[i].images[x] == x}
    kept_j = {x for x in range(n) if x != t and s.elements[j].images[x] == x}
    assert order.leq[i][j] == (kept_i <= kept_j)
