"""Transformation arithmetic, checked against definition-level brute force."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import semilat as sl
from semilat import Transformation as T


def all_maps(n):
    for images in product(range(n), repeat=n):
        yield sl.Transformation(n, images)


IDEMS4 = sl.enumerate_idempotents(4)
IDEMS5 = sl.enumerate_idempotents(5)


def test_make_transformation_examples():
    assert T(3, [0, 1, 2]) == sl.identity(3)
    assert T(3, [0, 0, 0]) == sl.constant(3, 0)
    with pytest.raises(ValueError):
        T(3, [0, 3, 1])
    with pytest.raises(ValueError):
        T(3, [0, 1])
    with pytest.raises(ValueError):
        T(2, [0, -1])
    with pytest.raises(ValueError):
        T(17, list(range(17)))


def test_mask_helpers_roundtrip():
    assert sl.points(0b101) == (0, 2)
    for mask in range(64):
        assert sum(1 << x for x in sl.points(mask)) == mask


def test_compose_examples():
    a = T(3, [1, 1, 2])
    assert sl.compose(sl.identity(3), a) == a
    assert sl.compose(a, sl.identity(3)) == a
    assert sl.compose(a, T(3, [0, 0, 0])) == T(3, [0, 0, 0])
    swap = T(3, [1, 0, 2])
    assert sl.compose(swap, swap) == sl.identity(3)
    # left-to-right: x(fg) = (xf)g
    f, g = T(2, [1, 1]), T(2, [0, 0])
    assert sl.compose(f, g) == T(2, [0, 0])
    with pytest.raises(ValueError):
        sl.compose(T(2, [0, 0]), T(3, [0, 0, 0]))


@given(st.integers(1, 5), st.data())
def test_compose_matches_pointwise_evaluation(n, data):
    imgs = st.tuples(*[st.integers(0, n - 1)] * n)
    a = sl.Transformation(n, data.draw(imgs))
    b = sl.Transformation(n, data.draw(imgs))
    ab = sl.compose(a, b)
    for x in range(n):
        assert ab.images[x] == b.images[a.images[x]]


def test_is_idempotent_examples():
    assert sl.is_idempotent(sl.identity(3))
    assert not sl.is_idempotent(T(2, [1, 0]))
    assert sl.is_idempotent(T(3, [0, 0, 2]))


def test_is_idempotent_agrees_with_squaring():
    for n in (1, 2, 3):
        for a in all_maps(n):
            assert sl.is_idempotent(a) == (sl.compose(a, a) == a)


def test_commutes_examples():
    a = T(3, [0, 0, 2])
    assert sl.commutes(sl.identity(3), a)
    assert sl.commutes(a, T(3, [2, 2, 2]))
    assert not sl.commutes(a, T(3, [2, 1, 2]))


def test_commuting_masks_examples():
    e, f = T(3, [0, 0, 2]), sl.identity(3)
    maps = (T(3, [2, 2, 2]), T(3, [2, 1, 2]), sl.identity(3), T(3, [2, 2, 0]))
    # 2 2 0 swaps the blocks {0, 1} and {2} of e: it commutes with e but is no
    # idempotent; 2 1 2 sends the fixed point 0 into the block {2} but 1 into
    # the block {0, 1}
    assert sl.commuting_masks(3, (e, f), maps) == (0b1101, 0b1111)
    assert sl.commuting_masks(3, (e,), ()) == (0,)
    assert sl.commuting_masks(3, (), maps) == ()
    with pytest.raises(ValueError, match=r"^not idempotent: 1 0 2$"):
        sl.commuting_masks(3, (e, T(3, [1, 0, 2])), maps)
    with pytest.raises(ValueError, match=r"^ground-set mismatch: 2 vs 3$"):
        sl.commuting_masks(3, (e,), maps + (T(2, [0, 0]),))
    with pytest.raises(ValueError, match=r"^ground-set mismatch: 2 vs 3$"):
        sl.commuting_masks(3, (T(2, [0, 0]),), maps)


def test_block_test_agrees_with_naive_exhaustively():
    for n in (1, 2, 3, 4):
        idems, maps = sl.enumerate_idempotents(n), tuple(all_maps(n))
        masks = sl.commuting_masks(n, idems, maps)
        for e, mask in zip(idems, masks):
            for j, a in enumerate(maps):
                assert (mask >> j) & 1 == sl.commutes(e, a)


@settings(max_examples=300)
@given(st.data())
def test_block_test_agrees_with_naive_randomized(data):
    n = data.draw(st.sampled_from([4, 5]))
    e = data.draw(st.sampled_from(IDEMS4 if n == 4 else IDEMS5))
    a = sl.Transformation(n, data.draw(st.tuples(*[st.integers(0, n - 1)] * n)))
    assert sl.commuting_masks(n, (e,), (a,)) == (int(sl.commutes(e, a)),)


def _commuting_idempotent_pairs(n):
    idems = sl.enumerate_idempotents(n)
    for e in idems:
        for f in idems:
            if sl.commutes(e, f):
                yield e, f


def test_commuting_pair_fixes_crossed_representatives():
    # For commuting idempotents e, f: whenever y.f lands in the e-class of an
    # image point x of e, that x must be fixed by f.
    for n in (2, 3):
        for e, f in _commuting_idempotent_pairs(n):
            # e sends each point p to the fixed point of p's block
            by_rep = {}
            for p, x in enumerate(e.images):
                by_rep[x] = by_rep.get(x, 0) | 1 << p
            for x, cls in by_rep.items():
                for y in range(n):
                    if (cls >> f.images[y]) & 1:
                        assert f.images[x] == x
                        break


def test_product_of_commuting_idempotents_is_idempotent():
    for n in (2, 3):
        for e, f in _commuting_idempotent_pairs(n):
            ef = sl.compose(e, f)
            assert sl.is_idempotent(ef)
            assert ef == sl.compose(f, e)


@settings(max_examples=200)
@given(st.data())
def test_cyclic_chain_forces_a_noncommuting_pair(data):
    # Distinct points x_1..x_k with idempotents e_i sending x_i to x_{i+1}
    # (cyclically) can never all commute with e_1.
    n = data.draw(st.sampled_from([3, 4, 5]))
    k = data.draw(st.integers(2, n))
    pts = data.draw(st.permutations(range(n)))[:k]
    idems = sl.enumerate_idempotents(n)
    chain = []
    for i in range(k):
        nxt = pts[(i + 1) % k]
        candidates = [e for e in idems if e.images[pts[i]] == nxt]
        chain.append(data.draw(st.sampled_from(candidates)))
    assert any(not sl.commutes(chain[0], chain[j]) for j in range(1, k))


def test_enumerate_idempotents_counts_and_order():
    assert len(sl.enumerate_idempotents(1)) == 1
    assert len(sl.enumerate_idempotents(2)) == 3
    assert len(sl.enumerate_idempotents(3)) == 10
    for n in (1, 2, 3, 4):
        brute = sorted(
            (a for a in all_maps(n) if sl.compose(a, a) == a),
            key=lambda t: t.images,
        )
        assert list(sl.enumerate_idempotents(n)) == brute
    for n in range(1, 9):
        expected = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        assert len(sl.enumerate_idempotents(n)) == expected


@settings(max_examples=200)
@given(st.data())
def test_centralizer_listing_matches_the_naive_filter(data):
    # arbitrary maps as well as idempotents: the search must handle any map
    # it is asked to commute with
    n = data.draw(st.integers(1, 5))
    idems = sl.enumerate_idempotents(n)
    maps = st.builds(
        lambda images: T(n, images), st.tuples(*[st.integers(0, n - 1)] * n)
    )
    others = data.draw(st.lists(st.one_of(maps, st.sampled_from(idems)), max_size=4))
    assert sl.enumerate_idempotents(n, others) == tuple(
        f for f in idems if all(sl.commutes(f, e) for e in others)
    )


def test_centralizer_listing_rejects_a_map_on_another_ground_set():
    with pytest.raises(ValueError, match="ground-set mismatch: 2 vs 3"):
        sl.enumerate_idempotents(3, [sl.identity(3), sl.identity(2)])


def test_idempotent_count_validation():
    with pytest.raises(ValueError):
        sl.enumerate_idempotents(0)
    with pytest.raises(ValueError):
        sl.enumerate_idempotents(17)
