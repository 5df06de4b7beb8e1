"""Anchors, the redirect homomorphism, and the collapse embedding."""

import random

import pytest

import semilat as sl
from semilat import Transformation as T


def test_find_anchor_examples():
    a = sl.find_anchor(sl.verify_semilattice(2, [sl.identity(2)]))
    assert (a.t, a.u) == (0, 1)
    a = sl.find_anchor(sl.collapse_semilattice(3, 0))
    assert (a.t, a.u) == (0, 1)
    a = sl.find_anchor(sl.verify_semilattice(3, [sl.constant(3, 1), sl.identity(3)]))
    assert (a.t, a.u) == (1, 0)


def test_find_anchor_needs_two_points():
    with pytest.raises(ValueError):
        sl.find_anchor(sl.verify_semilattice(1, [sl.constant(1, 0)]))


def test_anchor_validation():
    with pytest.raises(ValueError):
        sl.Anchor(1, 1)
    s = sl.collapse_semilattice(3, 0)
    assert sl.is_valid_anchor(s, sl.Anchor(0, 1))
    assert sl.is_valid_anchor(s, sl.Anchor(0, 2))
    assert not sl.is_valid_anchor(s, sl.Anchor(1, 0))
    assert not sl.is_valid_anchor(s, sl.Anchor(0, 5))


def test_found_anchors_are_valid_everywhere(oracle_by_n, maximal_by_n):
    for n in (2, 3):
        for s in oracle_by_n[n]:
            assert sl.is_valid_anchor(s, sl.find_anchor(s))
    for n in (2, 3, 4):
        for s in maximal_by_n[n]:
            assert sl.is_valid_anchor(s, sl.find_anchor(s))


def test_find_anchor_is_the_least_valid_anchor(oracle_by_n, maximal_by_n):
    pool = [s for n in (2, 3) for s in oracle_by_n[n]]
    pool += [s for n in (2, 3, 4, 5) for s in maximal_by_n[n]]
    for s in pool:
        least = min(
            (t, u)
            for t in range(s.n)
            for u in range(s.n)
            if u != t and sl.is_valid_anchor(s, sl.Anchor(t, u))
        )
        assert sl.find_anchor(s) == sl.Anchor(*least)


def test_redirect_examples():
    anchor = sl.Anchor(0, 1)
    assert sl.redirect(T(3, [0, 1, 0]), anchor) == T(3, [0, 0, 0])
    assert sl.redirect(T(3, [0, 0, 2]), anchor) == T(3, [0, 0, 2])  # u not in image
    assert sl.redirect(sl.constant(3, 0), anchor) == sl.constant(3, 0)
    assert 1 not in sl.redirect(sl.identity(3), anchor).images


def test_reduce_collapse_family():
    r = sl.reduce_semilattice(sl.collapse_semilattice(3, 0))
    assert (r.anchor.t, r.anchor.u) == (0, 1)
    assert r.source_size == 4
    assert {e.images for e in r.star_image} == {(0, 0, 0), (0, 0, 2)}
    assert {e.images for e in r.restricted} == {(0, 0), (0, 1)}
    assert r.source_size <= 2 * len(r.star_image)


def test_reduce_singleton_identity():
    # The identity hits u, so its redirect sends u to t and fixes the rest;
    # the restriction to the remaining points is the identity again.
    for n in (2, 3, 4):
        r = sl.reduce_semilattice(sl.verify_semilattice(n, [sl.identity(n)]))
        expected = sl.redirect(sl.identity(n), r.anchor)
        assert r.star_image.elements == (expected,)
        assert r.anchor.u not in expected.images
        assert r.restricted.elements == (sl.identity(n - 1),)


def _anchored(semis):
    for s in semis:
        yield s, sl.find_anchor(s)


def test_redirect_is_a_homomorphism_exhaustively(oracle_by_n, maximal_by_n):
    pool = list(oracle_by_n[2]) + list(oracle_by_n[3]) + list(maximal_by_n[4])
    for s, anchor in _anchored(pool):
        for g in s.elements:
            for h in s.elements:
                assert sl.redirect(sl.compose(g, h), anchor) == sl.compose(
                    sl.redirect(g, anchor), sl.redirect(h, anchor)
                )


def test_redirect_is_a_homomorphism_randomized(maximal_by_n):
    rng = random.Random(1105)
    semis = maximal_by_n[5]
    for s in rng.sample(semis, 60):
        anchor = sl.find_anchor(s)
        for _ in range(10):
            g, h = rng.choice(s.elements), rng.choice(s.elements)
            assert sl.redirect(sl.compose(g, h), anchor) == sl.compose(
                sl.redirect(g, anchor), sl.redirect(h, anchor)
            )


def test_redirect_injective_on_maps_hitting_u(oracle_by_n, maximal_by_n):
    pool = list(oracle_by_n[2]) + list(oracle_by_n[3]) + list(maximal_by_n[4])
    for s, anchor in _anchored(pool):
        hitters = [g for g in s.elements if anchor.u in g.images]
        stars = [sl.redirect(g, anchor) for g in hitters]
        assert len(set(stars)) == len(hitters)


def test_counting_chain_on_enumerated_semilattices(oracle_by_n, maximal_by_n):
    pool = list(oracle_by_n[2]) + list(oracle_by_n[3]) + list(maximal_by_n[4])
    for s in pool:
        r = sl.reduce_semilattice(s)
        assert len(s) <= 2 * len(r.star_image) == 2 * len(r.restricted)
        assert r.restricted.n == s.n - 1


def test_common_image_contains_anchor_fixed_point(oracle_by_n, maximal_by_n):
    # the intersection of all element images is nonempty: it holds t
    pool = list(oracle_by_n[2]) + list(oracle_by_n[3]) + list(maximal_by_n[4])
    for s in pool:
        anchor = sl.find_anchor(s)
        assert all(anchor.t in e.images for e in s.elements)


def test_collapse_embedding_example():
    s = sl.verify_semilattice(3, [T(3, [0, 1, 1])])
    emb = sl.collapse_embedding(s, sl.Anchor(0, 1))
    assert emb[T(3, [0, 1, 1])] == T(3, [0, 1, 0])


def test_collapse_embedding_fixes_collapse_subfamilies(oracle_by_n):
    # a subsemilattice of the sink-t family embeds as itself, for every u
    target = {t: set(sl.collapse_semilattice(3, t).elements) for t in range(3)}
    for s in oracle_by_n[3]:
        for t in range(3):
            if not set(s.elements) <= target[t]:
                continue
            for u in range(3):
                if u == t:
                    continue
                emb = sl.collapse_embedding(s, sl.Anchor(t, u))
                assert all(emb[e] == e for e in s.elements)


def test_collapse_embedding_n16_collapse_subfamily_is_fixed():
    s = sl.semilattice_of_size(16, 0, 6)
    emb = sl.collapse_embedding(s, sl.Anchor(0, 1))
    assert len(set(emb.values())) == len(s)
    assert all(emb[e] == e for e in s.elements)


def test_collapse_embedding_names_an_image_that_is_no_collapse_map():
    # unchecked: 0 1 3 2 is no idempotent, yet (0, 1) passes the anchor test
    # and no point outside {0, 1} is hit twice, so its image 0 1 3 2 is wrong
    s = sl.Semilattice(4, (T(4, (0, 1, 3, 2)),))
    with pytest.raises(sl.ContractViolation) as exc:
        sl.collapse_embedding(s, sl.Anchor(0, 1))
    assert str(exc.value) == (
        "embedding sent [0 1 3 2] to [0 1 3 2], which is not a sink-0 collapse map"
    )


def test_collapse_embedding_rejects_invalid_anchor():
    s = sl.collapse_semilattice(3, 0)
    with pytest.raises(ValueError):
        sl.collapse_embedding(s, sl.Anchor(1, 0))


def test_collapse_embedding_hypothesis_violation():
    e = T(4, [0, 1, 2, 2])  # point 2 has two preimages, neither t nor u
    s = sl.verify_semilattice(4, [e])
    with pytest.raises(sl.EmbeddingHypothesisError) as exc:
        sl.collapse_embedding(s, sl.Anchor(0, 1))
    assert exc.value.element == e
    assert exc.value.point == 2


def _hypothesis_holds(s, anchor):
    for e in s.elements:
        for x in range(s.n):
            if x in (anchor.t, anchor.u):
                continue
            if e.images.count(x) > 1:
                return False
    return True


def test_collapse_embedding_injective_and_contained(oracle_by_n, maximal_by_n):
    pool = list(oracle_by_n[2]) + list(oracle_by_n[3]) + list(maximal_by_n[4])
    checked = 0
    for s in pool:
        for t in range(s.n):
            for u in range(s.n):
                if u == t:
                    continue
                anchor = sl.Anchor(t, u)
                if not sl.is_valid_anchor(s, anchor):
                    continue
                if not _hypothesis_holds(s, anchor):
                    continue
                emb = sl.collapse_embedding(s, anchor)
                family = set(sl.collapse_semilattice(s.n, t).elements)
                assert set(emb.values()) <= family
                assert len(set(emb.values())) == len(s)  # injective
                if any(
                    sum(1 for y in f.images if y == u) >= 2 for f in s.elements
                ):
                    assert set(emb.values()) < family  # strictly smaller
                checked += 1
    assert checked > 100
