"""Acceptance criteria, one test per criterion, all exact (no tolerances).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 10 compares against the frozen fixtures under
``tests/data``; regenerate them with ``scripts/freeze_spectrum.py`` only
after the rest of the suite is green.
"""

import random
import time
from pathlib import Path

import pytest

import semilat as sl
from semilat import formats

DATA_DIR = Path(__file__).parent / "data"


def _ok(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k:2d} PASS: {message}")


@pytest.fixture(scope="module")
def all_maximal():
    return {n: sl.enumerate_maximal_semilattices(n) for n in range(1, 6)}


@pytest.fixture(scope="module")
def all_oracle():
    return {n: sl.brute_force_subsemilattices(n) for n in (1, 2, 3)}


def test_criterion_01_maximum_cardinality():
    # Cold by construction: the library keeps no cache between calls.
    start = time.perf_counter()
    tops = {}
    for n in range(1, 6):
        semis = sl.enumerate_maximal_semilattices(n)
        tops[n] = max(len(s) for s in semis)
    elapsed = time.perf_counter() - start
    assert tops == {1: 1, 2: 2, 3: 4, 4: 8, 5: 16}
    assert elapsed <= 60.0, f"enumeration for n <= 5 took {elapsed:.1f}s"
    _ok(1, f"max sizes 1,2,4,8,16 for n=1..5 in {elapsed:.1f}s")


def test_criterion_02_uniqueness_of_maximum(all_maximal):
    for n in range(1, 6):
        top = 1 << (n - 1)
        winners = {s for s in all_maximal[n] if len(s) == top}
        expected = {sl.collapse_semilattice(n, t) for t in range(n)}
        assert winners == expected
        assert len(winners) == n
    _ok(2, "maximum-size semilattices are exactly the n collapse families, n=1..5")


def test_criterion_03_boolean_structure(all_maximal):
    for n in range(1, 6):
        top = 1 << (n - 1)
        for s in all_maximal[n]:
            if len(s) != top:
                continue
            res = sl.is_boolean_lattice(s)
            assert res.is_boolean
            assert len(res.atoms) == n - 1
    _ok(3, "every maximum-size semilattice is Boolean with n-1 atoms, n=1..5")


def test_criterion_04_oracle_equivalence(all_maximal, all_oracle):
    for n in (1, 2, 3):
        semis = all_oracle[n]
        carriers = [set(s.elements) for s in semis]
        brute_maximal = {
            s for s in semis if not any(set(s.elements) < c for c in carriers)
        }
        assert brute_maximal == set(all_maximal[n])
    _ok(4, "maximal cliques equal brute-force maximal subsemilattices, n<=3")


def test_criterion_05_commuting_criterion():
    disagreements = 0
    idems3 = sl.enumerate_idempotents(3)
    from itertools import product

    maps3 = [sl.Transformation(3, images) for images in product(range(3), repeat=3)]
    pairs = 0
    for e, mask in zip(idems3, sl.commuting_masks(3, idems3, maps3)):
        for j, a in enumerate(maps3):
            if (mask >> j) & 1 != sl.commutes(e, a):
                disagreements += 1
            pairs += 1
    assert pairs == 10 * 27

    rng = random.Random(20260810)
    idems5 = sl.enumerate_idempotents(5)
    drawn = [[] for _ in idems5]  # the random maps drawn for each idempotent
    for _ in range(100_000):
        i = rng.randrange(len(idems5))
        drawn[i].append(sl.Transformation(5, tuple(rng.randrange(5) for _ in range(5))))
    for e, maps in zip(idems5, drawn):
        (mask,) = sl.commuting_masks(5, (e,), maps)
        for j, a in enumerate(maps):
            if (mask >> j) & 1 != sl.commutes(e, a):
                disagreements += 1
        pairs += len(maps)
    assert pairs == 270 + 100_000
    assert disagreements == 0
    _ok(5, "block test agrees with naive products: 270 exhaustive + 100000 random")


def test_criterion_06_reduction_chain(all_maximal):
    checked = 0
    for n in range(2, 6):
        for s in all_maximal[n]:
            r = sl.reduce_semilattice(s)
            assert len(s) <= 2 * len(r.star_image)
            assert len(r.star_image) == len(r.restricted)
            assert r.restricted.n == n - 1
            assert sl.verify_semilattice(n - 1, r.restricted.elements) == r.restricted
            checked += 1
    _ok(6, f"|S| <= 2|S*| = 2|S*_u| with valid S*_u on {checked} maximal semilattices")


def test_criterion_07_anchor_existence(all_maximal, all_oracle):
    checked = 0
    for n in (2, 3):
        for s in all_oracle[n]:
            anchor = sl.find_anchor(s)
            assert sl.is_valid_anchor(s, anchor)
            checked += 1
    for n in range(2, 6):
        for s in all_maximal[n]:
            anchor = sl.find_anchor(s)
            assert sl.is_valid_anchor(s, anchor)
            checked += 1
    _ok(7, f"anchors found on all {checked} enumerated semilattices")


def test_criterion_08_collapse_embedding(all_maximal, all_oracle):
    def hypothesis_holds(s, anchor):
        return all(
            e.images.count(x) <= 1
            for e in s.elements
            for x in range(s.n)
            if x not in (anchor.t, anchor.u)
        )

    pool = list(all_oracle[2]) + list(all_oracle[3]) + list(all_maximal[4])
    embedded = 0
    strict = 0
    for s in pool:
        for t in range(s.n):
            for u in range(s.n):
                if u == t:
                    continue
                anchor = sl.Anchor(t, u)
                if not sl.is_valid_anchor(s, anchor):
                    continue
                if not hypothesis_holds(s, anchor):
                    continue
                emb = sl.collapse_embedding(s, anchor)
                family = set(sl.collapse_semilattice(s.n, t).elements)
                assert set(emb.values()) <= family
                assert len(set(emb.values())) == len(s)
                embedded += 1
                if any(f.images.count(u) >= 2 for f in s.elements):
                    assert set(emb.values()) < family
                    strict += 1
    assert embedded > 0 and strict > 0
    _ok(8, f"{embedded} embeddings injective into the collapse family, "
           f"{strict} certified strict")


def test_criterion_09_size_realizability():
    for n in range(1, 6):
        for t in range(n):
            for m in range(1, (1 << (n - 1)) + 1):
                s = sl.semilattice_of_size(n, t, m)
                assert len(s) == m
                assert sl.verify_semilattice(n, s.elements) == s
    _ok(9, "every size in [1, 2^(n-1)] realized and verified, n=1..5, all t")


def test_criterion_10_spectrum_regression():
    for n in (3, 4, 5):
        path = DATA_DIR / f"spectrum_n{n}.json"
        if not path.exists():
            pytest.fail(
                f"missing fixture {path}; generate it with scripts/freeze_spectrum.py"
            )
        frozen = path.read_bytes()
        fresh = formats.spectrum_fixture_text(sl.spectrum(n)).encode("utf-8")
        assert fresh == frozen, f"spectrum for n={n} no longer reproduces its fixture"
    _ok(10, "spectrum reports for n=3,4,5 reproduce the frozen fixtures byte-for-byte")
