"""Shrinking a semilattice from n points to n-1 while controlling its size.

Every subsemilattice of T(n) with n >= 2 admits an anchor: a point t fixed by
every element together with a second point u that every element moves only to
itself or to t.  Redirecting all u-valued outputs to t is a semigroup
homomorphism whose image loses at most half the elements and avoids u
entirely, so it restricts to an isomorphic copy on the remaining n-1 points.
That counting chain |S| <= 2|S*| = 2|S*_u| is what drives the extremal bound,
and :func:`collapse_embedding` supplies the complementary injection into the
sink-t collapse family when no point outside {t, u} is hit twice.
"""

from __future__ import annotations

from ._record import Record
from .semilattice import Semilattice, is_injective_except_sink, verify_semilattice
from .transform import Transformation, is_idempotent


class ContractViolation(RuntimeError):
    """An internally guaranteed property failed; the input was not what its
    type promised (or there is a bug upstream)."""


class Anchor(Record):
    """A pair (t, u): t is fixed by every element, u moves only to u or t."""

    __slots__ = ("t", "u")

    def __init__(self, t: int, u: int):
        super().__init__(t, u)

    def __post_init__(self):
        if self.t == self.u:
            raise ValueError("anchor points must differ")
        if self.t < 0 or self.u < 0:
            raise ValueError("anchor points must be nonnegative")


def _is_anchor(s: Semilattice, t: int, u: int) -> bool:
    """The anchor hypothesis on points of [0, n): every element fixes t and
    sends u to u or t."""
    return all(e.images[t] == t and e.images[u] in (u, t) for e in s.elements)


def is_valid_anchor(s: Semilattice, anchor: Anchor) -> bool:
    t, u = anchor.t, anchor.u
    return t < s.n and u < s.n and _is_anchor(s, t, u)


def find_anchor(s: Semilattice) -> Anchor:
    """The least valid anchor (t, u) in lexicographic order.

    Existence is guaranteed for every semilattice on at least two points, so
    exhausting the search means the input was not a semilattice.
    """
    if s.n < 2:
        raise ValueError("anchors need at least two points")
    for t in range(s.n):
        if not _is_anchor(s, t, t):  # some element moves t
            continue
        for u in range(s.n):
            if u != t and _is_anchor(s, t, u):
                return Anchor(t, u)
    raise ContractViolation("no anchor found: the input is not a semilattice")


def redirect(g: Transformation, anchor: Anchor) -> Transformation:
    """Rewrite every u-valued output of ``g`` to t; u leaves the image."""
    t, u = anchor.t, anchor.u
    return Transformation(g.n, tuple(t if y == u else y for y in g.images))


class ReductionResult(Record):
    """The redirected image and its isomorphic copy on n-1 points.

    ``source_size <= 2 * |star_image|`` and ``|restricted| = |star_image|``
    are enforced on construction.
    """

    __slots__ = ("anchor", "source_size", "star_image", "restricted")

    def __init__(
        self,
        anchor: Anchor,
        source_size: int,
        star_image: Semilattice,
        restricted: Semilattice,
    ):
        super().__init__(anchor, source_size, star_image, restricted)

    def __post_init__(self):
        if self.source_size > 2 * len(self.star_image):
            raise ContractViolation(
                f"source size {self.source_size} exceeds twice the redirected "
                f"image size {len(self.star_image)}"
            )
        if len(self.restricted) != len(self.star_image):
            raise ContractViolation(
                "restriction to the smaller ground set is not a bijection"
            )
        if self.restricted.n != self.star_image.n - 1:
            raise ContractViolation("restricted semilattice must drop one point")


def reduce_semilattice(s: Semilattice) -> ReductionResult:
    """Anchor, redirect, deduplicate, and restrict to n-1 relabeled points.

    Points above u shift down by one, so the restriction stays a first-class
    semilattice on [0, n-1).
    """
    anchor = find_anchor(s)
    u = anchor.u
    star_elems = {redirect(g, anchor) for g in s.elements}
    star_image = verify_semilattice(s.n, star_elems)
    restricted_elems = []
    for g in star_image.elements:
        images = []
        for x in range(s.n):
            if x == u:
                continue
            y = g.images[x]
            if y == u:
                raise ContractViolation("redirected map still hits u")
            images.append(y - 1 if y > u else y)
        restricted_elems.append(Transformation(s.n - 1, tuple(images)))
    if len(set(restricted_elems)) != len(restricted_elems):
        raise ContractViolation("restriction collapsed two redirected maps")
    restricted = verify_semilattice(s.n - 1, restricted_elems)
    return ReductionResult(anchor, len(s), star_image, restricted)


class EmbeddingHypothesisError(ValueError):
    """Some element hits a point outside {t, u} at least twice."""

    def __init__(self, element: Transformation, point: int):
        super().__init__(
            f"point {point} has {element.images.count(point)} preimages "
            f"under [{element.word()}]"
        )
        self.element = element
        self.point = point


def collapse_embedding(
    s: Semilattice, anchor: Anchor
) -> dict[Transformation, Transformation]:
    """The injection of ``s`` into the sink-t collapse family.

    Requires the anchor to be valid for ``s`` and every point outside
    {t, u} to have at most one preimage under every element.  Each element e
    maps to the transformation that keeps e's values except that u-valued
    outputs at points other than u are rewritten to t.  Each output is checked
    to be a collapse map: an idempotent that is injective except at the sink t.
    The map is injective, and it misses part of the collapse family whenever
    some element has two or more preimages of u.
    """
    if not is_valid_anchor(s, anchor):
        raise ValueError(
            f"anchor (t={anchor.t}, u={anchor.u}) is not valid for this semilattice"
        )
    t, u = anchor.t, anchor.u
    for e in s.elements:
        for x in range(s.n):
            if x != t and x != u and e.images.count(x) > 1:
                raise EmbeddingHypothesisError(e, x)
    out: dict[Transformation, Transformation] = {}
    for e in s.elements:
        images = tuple(
            t if (x != u and y == u) else y for x, y in enumerate(e.images)
        )
        lam = Transformation(s.n, images)
        if not (is_idempotent(lam) and is_injective_except_sink(t, lam)):
            raise ContractViolation(
                f"embedding sent [{e.word()}] to [{lam.word()}], "
                f"which is not a sink-{t} collapse map"
            )
        out[e] = lam
    return out
