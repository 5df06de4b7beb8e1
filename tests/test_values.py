"""The value classes: construction, equality, hashing, repr and immutability.

One table row per class: its fields in constructor order, a positional
construction, the exact repr, and the messages its constructor checks.
Equality holds only between instances of one class, never with the plain
tuple of the fields, and the hash is the hash of that tuple.
"""

import copy
import pickle

import pytest

import semilat as sl
from semilat import enumeration, formats

T = sl.Transformation
c0, e1, e2 = T(3, (0, 0, 0)), T(3, (0, 1, 0)), T(3, (0, 0, 2))
S2 = sl.Semilattice(2, (T(2, (0, 0)), T(2, (0, 1))))
REDUCED = sl.reduce_semilattice(sl.collapse_semilattice(3, 0))
ENTRY = sl.SpectrumEntry(4, 36, S2)
VERTS2 = sl.enumerate_idempotents(2)

S2_REPR = (
    "Semilattice(n=2, elements=(Transformation(n=2, images=(0, 0)), "
    "Transformation(n=2, images=(0, 1))))"
)

# class, field names, positional arguments, exact repr
VALUES = {
    "Transformation": (
        T, ("n", "images"), (3, (0, 1, 2)), "Transformation(n=3, images=(0, 1, 2))"
    ),
    "Semilattice": (sl.Semilattice, ("n", "elements"), (2, S2.elements), S2_REPR),
    "Violation": (
        sl.Violation, ("axiom", "elements", "product"), ("closure", (e1, e2), c0),
        f"Violation(axiom='closure', elements=({e1!r}, {e2!r}), product={c0!r})",
    ),
    "PosetRelation": (
        sl.PosetRelation, ("carrier", "leq"), ((0, 1), ((True, True), (False, True))),
        "PosetRelation(carrier=(0, 1), leq=((True, True), (False, True)))",
    ),
    "MaximalityResult": (
        sl.MaximalityResult, ("is_maximal", "witness"), (False, c0),
        f"MaximalityResult(is_maximal=False, witness={c0!r})",
    ),
    "BooleanLatticeResult": (
        sl.BooleanLatticeResult, ("is_boolean", "atoms"), (True, (e1,)),
        f"BooleanLatticeResult(is_boolean=True, atoms=({e1!r},))",
    ),
    "Anchor": (sl.Anchor, ("t", "u"), (0, 1), "Anchor(t=0, u=1)"),
    "ReductionResult": (
        sl.ReductionResult, ("anchor", "source_size", "star_image", "restricted"),
        (REDUCED.anchor, 4, REDUCED.star_image, REDUCED.restricted),
        f"ReductionResult(anchor=Anchor(t=0, u=1), source_size=4, "
        f"star_image={REDUCED.star_image!r}, restricted={REDUCED.restricted!r})",
    ),
    "ParsedFile": (
        formats.ParsedFile, ("n", "transformations"), (3, (c0, c0)),
        f"ParsedFile(n=3, transformations=({c0!r}, {c0!r}))",
    ),
    "CommutingGraph": (
        sl.CommutingGraph, ("n", "vertices", "rows"), (2, VERTS2, (0b010, 0b101, 0b010)),
        f"CommutingGraph(n=2, vertices={VERTS2!r}, rows=(2, 5, 2))",
    ),
    "_SinkZeroOrbits": (
        enumeration._SinkZeroOrbits,
        ("n", "vertices", "tables", "moves", "fixed", "cliques", "counts"),
        (1, (), None, [(1,)], 1, (1,), {1: 1}),
        "_SinkZeroOrbits(n=1, vertices=(), tables=None, moves=[(1,)], fixed=1, "
        "cliques=(1,), counts={1: 1})",
    ),
    "SpectrumEntry": (
        sl.SpectrumEntry, ("size", "count", "witness"), (4, 36, S2),
        f"SpectrumEntry(size=4, count=36, witness={S2_REPR})",
    ),
    "SpectrumReport": (
        sl.SpectrumReport, ("n", "entries", "total_maximal", "max_size"),
        (4, (ENTRY,), 36, 4),
        f"SpectrumReport(n=4, entries=(SpectrumEntry(size=4, count=36, "
        f"witness={S2_REPR}),), total_maximal=36, max_size=4)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_a_value_is_its_fields(name):
    cls, fields, args, shown = VALUES[name]
    x = cls(*args)
    assert tuple(getattr(x, f) for f in fields) == args
    assert repr(x) == shown
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == x and not by_keyword != x
    assert x != args and not x == args
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    try:
        expected = hash(args)
    except TypeError:  # a field is a list or a dict, as it is for the search
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("name", VALUES)
def test_a_value_is_frozen(name):
    cls, fields, args, _ = VALUES[name]
    x = cls(*args)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert tuple(getattr(x, f) for f in fields) == args


def test_equal_fields_in_different_classes_are_not_equal():
    assert sl.Anchor(0, 1) != formats.ParsedFile(0, 1)
    assert formats.ParsedFile(2, S2.elements) != S2


def test_defaults_and_normalised_images():
    assert sl.Violation("idempotence", (e1,)).product is None
    assert sl.MaximalityResult(True).witness is None
    assert T(3, [0, 1, 2]).images == (0, 1, 2)
    assert T(n=3, images=[0, 1, 2]) == T(3, (0, 1, 2))
    assert bool(sl.MaximalityResult(True)) and not sl.BooleanLatticeResult(False, ())


@pytest.mark.parametrize("make, error, message", [
    (lambda: T(0, ()), ValueError, "ground-set size must be in [1, 16], got 0"),
    (lambda: T(3, (0, 1)), ValueError, "expected 3 image entries, got 2"),
    (lambda: T(2, (0, 2)), ValueError, "image of point 1 is 2, outside [0, 2)"),
    (lambda: sl.Semilattice(2, ()), ValueError, "a semilattice is nonempty"),
    (lambda: sl.Semilattice(3, (e1, e2)), ValueError,
     "carrier must be strictly sorted by image table"),
    (lambda: sl.Semilattice(2, (c0,)), ValueError,
     "element [0 0 0] lives on 3 points, expected 2"),
    (lambda: sl.PosetRelation((0, 1), ((True, True),)), ValueError,
     "relation matrix does not match the carrier"),
    (lambda: sl.PosetRelation((0, 1), ((True, True), (True, True))), ValueError,
     "not antisymmetric at indices 0, 1"),
    (lambda: sl.Anchor(1, 1), ValueError, "anchor points must differ"),
    (lambda: sl.Anchor(-1, 0), ValueError, "anchor points must be nonnegative"),
    (lambda: sl.ReductionResult(REDUCED.anchor, 9, REDUCED.star_image,
                                REDUCED.restricted),
     sl.ContractViolation, "source size 9 exceeds twice the redirected image size 2"),
    (lambda: sl.ReductionResult(REDUCED.anchor, 4, REDUCED.star_image,
                                REDUCED.star_image),
     sl.ContractViolation, "restricted semilattice must drop one point"),
    (lambda: sl.CommutingGraph(2, VERTS2, (0b010, 0b101)), ValueError,
     "adjacency rows do not match the vertex list"),
])
def test_constructors_check_their_fields(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message
