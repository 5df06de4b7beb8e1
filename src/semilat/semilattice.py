"""Verified sets of pairwise commuting idempotents and their order structure.

A subsemilattice of T(n) is a nonempty set of idempotents that pairwise
commute and is closed under composition.  :func:`verify_semilattice` is the
checked constructor; :func:`find_violation` is the same check as a pure
inspection that names the failing axiom and elements.  Both, and the
natural order and maximality test, compose members naively, point by point,
over the image tables as ``bytes`` (:func:`~semilat.transform.byte_tables`),
so each product is one ``bytes.translate`` call.

The extremal examples are the "collapse" semilattices: fix a sink point t,
and for each subset A of the remaining points take the map fixing A pointwise
and sending everything else to t.  Those 2^(n-1) maps commute (the product of
the maps for A and B is the map for A ∩ B) and form a maximal subsemilattice
isomorphic to the power set of the non-sink points.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record, _set
from .transform import (
    Transformation,
    byte_tables,
    check_listable,
    check_points,
    enumerate_idempotents,
    points,
)


class Violation(Record):
    """A concrete witness that a candidate set is not a semilattice."""

    __slots__ = ("axiom", "elements", "product")

    def __init__(
        self,
        axiom: str,  # "idempotence" | "commutativity" | "closure"
        elements: tuple[Transformation, ...],
        product: Transformation | None = None,
    ):
        super().__init__(axiom, elements, product)

    def describe(self) -> str:
        words = ", ".join(e.word() for e in self.elements)
        if self.axiom == "idempotence":
            return f"idempotence fails for [{words}]"
        if self.axiom == "commutativity":
            return f"commutativity fails for the pair [{words}]"
        missing = self.product.word() if self.product else "?"
        return f"closure fails for the pair [{words}]: product [{missing}] is missing"


class SemilatticeError(ValueError):
    """Raised by the checked constructor; carries the :class:`Violation`."""

    def __init__(self, violation: Violation):
        super().__init__(violation.describe())
        self.violation = violation


def _canonical(n: int, elements: Iterable[Transformation]) -> tuple[Transformation, ...]:
    elems = sorted(set(elements), key=lambda t: t.images)
    for e in elems:
        if e.n != n:
            raise ValueError(f"element [{e.word()}] lives on {e.n} points, expected {n}")
    return tuple(elems)


def _first_violation(elems: tuple[Transformation, ...]) -> Violation | None:
    """:func:`find_violation` on a canonical carrier.

    Composes the members' image tables naively, point by point, as bytes:
    ``a.translate(tb)`` is a then b, each pair both ways.  Only a reported
    witness becomes a :class:`Transformation`.
    """
    if not elems:
        raise ValueError("empty candidate")
    words, tables = byte_tables(elems)
    present = set(words)
    for e, a, ta in zip(elems, words, tables):
        if a.translate(ta) != a:
            return Violation("idempotence", (e,))
    for i, (a, ta) in enumerate(zip(words, tables)):
        for j in range(i + 1, len(words)):
            ab = a.translate(tables[j])
            if ab != words[j].translate(ta):
                return Violation("commutativity", (elems[i], elems[j]))
            if ab not in present:
                return Violation(
                    "closure", (elems[i], elems[j]), product=Transformation(len(a), ab)
                )
    return None


def find_violation(n: int, elements: Iterable[Transformation]) -> Violation | None:
    """First axiom failure of a candidate set, or None if it is a semilattice.

    Checks idempotence element by element, then commutativity and closure pair
    by pair, all in canonical order, so the reported witness is deterministic.
    Pairs are multiplied by naive composition of their image tables, point
    by point, over the tables as bytes.
    """
    return _first_violation(_canonical(n, elements))


class Semilattice(Record):
    """A subsemilattice of T(n), carried in canonical (lexicographic) order.

    Equality is set equality of the carriers.  The constructor enforces the
    structural invariants (nonempty, single ground set, sorted unique carrier);
    the algebraic axioms are the business of :func:`verify_semilattice`, which
    is the constructor everything untrusted should go through.  Construction,
    equality and hashing are written out here, as for
    :class:`~semilat.transform.Transformation`.
    """

    __slots__ = ("n", "elements")

    def __init__(self, n: int, elements: tuple[Transformation, ...]):
        _set(self, "n", n)
        _set(self, "elements", elements)
        self.__post_init__()

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a semilattice is nonempty")
        prev = None
        for e in self.elements:
            if e.n != self.n:
                raise ValueError(
                    f"element [{e.word()}] lives on {e.n} points, expected {self.n}"
                )
            if prev is not None and prev.images >= e.images:
                raise ValueError("carrier must be strictly sorted by image table")
            prev = e

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.elements == other.elements and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical sort/deduplication key: the tuple of image tables."""
        return tuple(e.images for e in self.elements)


def verify_semilattice(n: int, candidate: Iterable[Transformation]) -> Semilattice:
    """Checked constructor: raises :class:`SemilatticeError` on any violation.

    The carrier is sorted once; the axioms are checked on its image tables by
    naive composition, as in :func:`find_violation`.
    """
    elems = _canonical(n, candidate)
    violation = _first_violation(elems)
    if violation is not None:
        raise SemilatticeError(violation)
    return Semilattice(n, elems)


class PosetRelation(Record):
    """A partial order on an indexed carrier, as a boolean matrix.

    ``leq[i][j]`` means element i is below element j.  The constructor rejects
    relations that are not reflexive, antisymmetric, and transitive, checked on
    each row as a bit mask: for each i, reflexivity, then for each j above i,
    ascending, antisymmetry and the first point above j but not above i.
    """

    __slots__ = ("carrier", "leq")

    def __init__(self, carrier: tuple, leq: tuple[tuple[bool, ...], ...]):
        super().__init__(carrier, leq)

    def __post_init__(self):
        k = len(self.carrier)
        if len(self.leq) != k or any(len(row) != k for row in self.leq):
            raise ValueError("relation matrix does not match the carrier")
        rows = [sum(1 << j for j, v in enumerate(row) if v) for row in self.leq]
        for i, row in enumerate(rows):
            if not (row >> i) & 1:
                raise ValueError(f"not reflexive at index {i}")
            for j in points(row & ~(1 << i)):
                if (rows[j] >> i) & 1:
                    raise ValueError(f"not antisymmetric at indices {i}, {j}")
                missing = rows[j] & ~row
                if missing:
                    l = (missing & -missing).bit_length() - 1
                    raise ValueError(f"not transitive at indices {i}, {j}, {l}")


def natural_order(s: Semilattice) -> PosetRelation:
    """The order ``a ≤ b iff a = ab``; composition realizes the meet.

    Each product is a naive composition of image tables, point by point, as
    bytes: ``a.translate(tb)``.
    """
    words, tables = byte_tables(s.elements)
    leq = tuple(tuple(a == a.translate(tb) for tb in tables) for a in words)
    return PosetRelation(s.elements, leq)


def _check_sink(n: int, t: int) -> None:
    """Reject a sink outside the ground set [0, n)."""
    if not 0 <= t < n:
        raise ValueError(f"t={t} outside [0, {n})")


def collapse_map(n: int, t: int, kept: Iterable[int]) -> Transformation:
    """The map fixing each point of ``kept`` and sending every other point to t."""
    check_points(n)
    _check_sink(n, t)
    keep = set(kept)
    if t in keep:
        raise ValueError(f"kept set may not contain the sink {t}")
    images = [x if x in keep else t for x in range(n)]
    bad = keep.difference(range(n))
    if bad:
        raise ValueError(f"kept points {sorted(bad)} outside [0, {n})")
    return Transformation(n, tuple(images))


def collapse_semilattice(n: int, t: int) -> Semilattice:
    """All 2^(n-1) collapse maps with sink t: the extremal subsemilattice.

    Closure is by construction (the product of the maps keeping A and B is the
    map keeping A ∩ B), so the carrier is assembled directly: it is
    :func:`semilattice_of_size` with nothing deleted.
    """
    check_points(n)
    return semilattice_of_size(n, t, 1 << (n - 1))


def is_injective_except_sink(t: int, a: Transformation) -> bool:
    """True iff ``a`` fixes t and every image value other than t has exactly
    one preimage.

    The idempotents satisfying this for a fixed t are exactly the collapse
    maps with sink t.
    """
    _check_sink(a.n, t)
    if a.images[t] != t:
        return False
    counts = [0] * a.n
    for y in a.images:
        counts[y] += 1
    return all(counts[y] == 1 for y in set(a.images) if y != t)


class MaximalityResult(Record):
    __slots__ = ("is_maximal", "witness")

    def __init__(
        self,
        is_maximal: bool,
        witness: Transformation | None = None,  # an extending idempotent when not maximal
    ):
        super().__init__(is_maximal, witness)

    def __bool__(self) -> bool:
        return self.is_maximal


def is_maximal(s: Semilattice) -> MaximalityResult:
    """Whether no idempotent outside the carrier commutes with all of it.

    An outside idempotent commuting with everything would generate a strictly
    larger subsemilattice (products of commuting idempotents are idempotents
    commuting with every common centralizer), so a single extender decides
    maximality.  The witness is the first extender in canonical order: the
    first non-member of the carrier's centralizer among the idempotents.

    Only the centralizer of the generators (:func:`_generators`) is
    listed: whatever commutes with a and with b commutes with ab, so it is
    the carrier's centralizer, in the same order.  T(n) is refused above
    ``MAX_IDEMPOTENT_POINTS`` points before any product is formed.
    """
    check_listable(s.n)
    members = set(s.elements)
    centralizer = enumerate_idempotents(s.n, _generators(s))
    witness = next((f for f in centralizer if f not in members), None)
    return MaximalityResult(witness is None, witness)


def _generators(s: Semilattice) -> tuple[Transformation, ...]:
    """The members that are not the product of two other members, in carrier
    order.  They generate ``s``: a member that is the product ab of two
    others lies strictly below both a and b in the natural order, so by
    induction from the top every member is a product of generators.  Each
    product is a naive composition of image tables, point by point, as bytes.
    """
    words, tables = byte_tables(s.elements)
    products = set()
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            ab = a.translate(tables[j])
            if ab != a and ab != words[j]:
                products.add(ab)
    return tuple(e for e, a in zip(s.elements, words) if a not in products)


class BooleanLatticeResult(Record):
    """Outcome of the power-set recognition.

    ``atoms`` are the elements whose down-set is {bottom, itself}, in
    carrier order; they are reported whether or not the order is Boolean.
    """

    __slots__ = ("is_boolean", "atoms")

    def __init__(self, is_boolean: bool, atoms: tuple[Transformation, ...]):
        super().__init__(is_boolean, atoms)

    def __bool__(self) -> bool:
        return self.is_boolean


def is_boolean_lattice(s: Semilattice) -> BooleanLatticeResult:
    """Recognize whether the natural order is a power set of its atoms.

    Reads only the down-sets of :func:`natural_order`: the bottom is the
    element below every element, and the order is Boolean iff there are 2^a
    elements for a atoms and no two elements have the same atoms below them.

    Proof: an atom lies below xy iff it lies below both x and y, so in any
    semilattice x ↦ atoms-below(x) sends composition to intersection.  With
    2^a elements and no two alike, that map is onto the 2^a subsets of the
    atoms, so it is an isomorphism onto the power set ordered by inclusion.
    """
    leq = natural_order(s).leq
    k = len(leq)
    down = [frozenset(j for j in range(k) if leq[j][i]) for i in range(k)]
    bottom = next(i for i in range(k) if all(leq[i]))
    atom_idx = [i for i in range(k) if i != bottom and down[i] == {bottom, i}]
    atom_sets = {down[i].intersection(atom_idx) for i in range(k)}
    is_boolean = k == 1 << len(atom_idx) and len(atom_sets) == k
    return BooleanLatticeResult(is_boolean, tuple(s.elements[i] for i in atom_idx))


def transitivity_order(s: Semilattice) -> PosetRelation:
    """The order induced on points: ``x ≤ y`` iff x = y or x = y·e for some e.

    For a valid semilattice this is a partial order (the constructor checks).
    """
    n = s.n
    leq = tuple(
        tuple(
            x == y or any(e.images[y] == x for e in s.elements) for y in range(n)
        )
        for x in range(n)
    )
    return PosetRelation(tuple(range(n)), leq)


def semilattice_of_size(n: int, t: int, m: int) -> Semilattice:
    """A subsemilattice of the sink-t collapse family with exactly m elements.

    Starting from the full family, repeatedly delete a maximal element of the
    natural order: among the currently maximal kept-sets take those of largest
    size and delete the lexicographically smallest.  The currently maximal
    kept-sets are always exactly the largest remaining size class, so the
    deletion order is: size descending, lexicographic ascending within a size.
    Every prefix of deletions leaves a family closed under intersection.
    """
    check_points(n)
    _check_sink(n, t)
    total = 1 << (n - 1)
    if not 1 <= m <= total:
        raise ValueError(f"m={m} outside [1, {total}]")
    others = [x for x in range(n) if x != t]
    subsets = []
    for mask in range(total):
        subsets.append(tuple(others[i] for i in range(n - 1) if (mask >> i) & 1))
    subsets.sort(key=lambda pts: (-len(pts), pts))
    survivors = subsets[total - m :]
    elems = sorted(
        (collapse_map(n, t, pts) for pts in survivors), key=lambda e: e.images
    )
    return Semilattice(n, tuple(elems))
