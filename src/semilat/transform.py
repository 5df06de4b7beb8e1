"""Exact arithmetic on full transformations of a finite ground set.

A transformation is a total map on the points [0, n), stored as its image
table.  Maps act on the right and compose left to right: ``x (f g) = (x f) g``,
so ``compose(f, g)`` applies ``f`` first.  Point sets are bit masks (bit x set
means point x belongs), which keeps subset tests down to single mask ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import comb
from typing import Iterable

MAX_POINTS = 16  # masks must stay comfortably inside a machine word
MAX_IDEMPOTENT_POINTS = 8  # T(8) has 41 393 idempotents, T(9) 293 608


def check_points(n: int) -> None:
    """Reject a ground-set size outside [1, ``MAX_POINTS``]."""
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"ground-set size must be in [1, {MAX_POINTS}], got {n}")


def points(mask: int) -> tuple[int, ...]:
    """Decode a bit mask into its ascending tuple of points."""
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return tuple(out)


def mask_of(pts: Iterable[int]) -> int:
    """Encode an iterable of points as a bit mask."""
    m = 0
    for x in pts:
        m |= 1 << x
    return m


@dataclass(frozen=True)
class Transformation:
    """A total map [0, n) -> [0, n); ``images[x]`` is the image of point x.

    Value semantics: two transformations are equal iff their image tables are.
    Instances are immutable and hashable.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        check_points(self.n)
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.n:
            raise ValueError(
                f"expected {self.n} image entries, got {len(self.images)}"
            )
        for x, y in enumerate(self.images):
            if not 0 <= y < self.n:
                raise ValueError(f"image of point {x} is {y}, outside [0, {self.n})")

    def word(self) -> str:
        """The map as a whitespace-separated image word, e.g. ``"0 0 2"``."""
        return " ".join(str(y) for y in self.images)


def make_transformation(n: int, images: Iterable[int]) -> Transformation:
    """Build a validated transformation from any integer sequence."""
    return Transformation(n, tuple(images))


def identity(n: int) -> Transformation:
    return Transformation(n, tuple(range(n)))


def constant(n: int, value: int) -> Transformation:
    """The map sending every point to ``value``."""
    if not 0 <= value < n:
        raise ValueError(f"constant value {value} outside [0, {n})")
    return Transformation(n, (value,) * n)


def compose(a: Transformation, b: Transformation) -> Transformation:
    """Apply ``a`` first, then ``b``."""
    if a.n != b.n:
        raise ValueError(f"ground-set mismatch: {a.n} vs {b.n}")
    bi = b.images
    return Transformation(a.n, tuple(bi[y] for y in a.images))


def is_idempotent(a: Transformation) -> bool:
    # a∘a = a iff a fixes each of its image values
    imgs = a.images
    return all(imgs[y] == y for y in imgs)


def kernel_image(a: Transformation) -> tuple[tuple[int, ...], int]:
    """The kernel partition and the image of ``a``.

    Returns ``(classes, image_mask)`` where ``classes`` holds one bit mask per
    preimage class of [0, n), ordered by the image value the class maps to.
    """
    by_value: dict[int, int] = {}
    for x, y in enumerate(a.images):
        by_value[y] = by_value.get(y, 0) | (1 << x)
    values = sorted(by_value)
    return tuple(by_value[v] for v in values), mask_of(values)


@dataclass(frozen=True)
class IdempotentDecomposition:
    """Block form of an idempotent: pairs ``(A_i, x_i)`` with ``A_i`` a mask.

    Every point of block ``A_i`` maps to its representative ``x_i``; the
    representatives are exactly the image (= fixed points) of the idempotent,
    and the blocks partition the ground set.  Blocks are kept sorted by
    representative.
    """

    n: int
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("decomposition needs at least one block")
        covered = 0
        prev_rep = -1
        for mask, rep in self.blocks:
            if rep <= prev_rep:
                raise ValueError("block representatives must be strictly ascending")
            prev_rep = rep
            if not (mask >> rep) & 1:
                raise ValueError(f"representative {rep} not inside its block")
            if covered & mask:
                raise ValueError("blocks overlap")
            covered |= mask
        if covered != (1 << self.n) - 1:
            raise ValueError("blocks do not partition the ground set")

    @cached_property
    def _block_by_rep(self) -> dict[int, int]:
        return {rep: mask for mask, rep in self.blocks}


def orbit_decomposition(e: Transformation) -> IdempotentDecomposition:
    """Decompose an idempotent into its (block, fixed point) pairs."""
    if not is_idempotent(e):
        raise ValueError(f"not idempotent: {e.word()}")
    classes, _ = kernel_image(e)
    blocks = tuple((mask, e.images[points(mask)[0]]) for mask in classes)
    return IdempotentDecomposition(e.n, blocks)


def commutes(a: Transformation, b: Transformation) -> bool:
    """Naive commuting test: compare both products."""
    return compose(a, b) == compose(b, a)


def commutes_with_idempotent(e: IdempotentDecomposition, a: Transformation) -> bool:
    """Block-wise commuting test against an idempotent.

    ``a`` commutes with the idempotent iff every block maps into a single
    block whose representative is the image of its own representative:
    for each i there is j with ``x_i a = x_j`` and ``A_i a ⊆ A_j``.
    Agrees with :func:`commutes` on all inputs.
    """
    if e.n != a.n:
        raise ValueError(f"ground-set mismatch: {e.n} vs {a.n}")
    imgs = a.images
    by_rep = e._block_by_rep
    for mask, rep in e.blocks:
        target = by_rep.get(imgs[rep])
        if target is None:
            return False
        m = mask
        while m:
            lsb = m & -m
            if not (target >> imgs[lsb.bit_length() - 1]) & 1:
                return False
            m ^= lsb
    return True


@lru_cache(maxsize=None)
def enumerate_idempotents(n: int) -> tuple[Transformation, ...]:
    """All idempotents of T(n), lexicographically ordered by image table.

    An idempotent is determined by its set of fixed points B (= its image)
    together with a choice of target in B for every point outside B, so the
    full list is generated directly rather than by scanning all n^n maps.
    The list grows too fast to build above ``MAX_IDEMPOTENT_POINTS`` points.
    """
    check_points(n)
    if n > MAX_IDEMPOTENT_POINTS:
        count = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        raise ValueError(
            f"T({n}) has {count} idempotents, too many to list "
            f"(n must be at most {MAX_IDEMPOTENT_POINTS})"
        )
    found = []
    for image_mask in range(1, 1 << n):
        fixed = points(image_mask)
        movable = [x for x in range(n) if not (image_mask >> x) & 1]
        for choice in product(fixed, repeat=len(movable)):
            images = list(range(n))
            for x, y in zip(movable, choice):
                images[x] = y
            found.append(Transformation(n, tuple(images)))
    found.sort(key=lambda t: t.images)
    return tuple(found)
