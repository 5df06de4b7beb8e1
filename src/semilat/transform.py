"""Exact arithmetic on full transformations of a finite ground set.

A transformation is a total map on the points [0, n), stored as its image
table.  Maps act on the right and compose left to right: ``x (f g) = (x f) g``,
so ``compose(f, g)`` applies ``f`` first.  Point sets are bit masks (bit x set
means point x belongs), which keeps subset tests down to single mask ops.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class IdempotentDecomposition:
    """Block form of an idempotent: ``blocks`` maps each fixed point to its block.

    Every point of the block ``blocks[x]``, a mask, maps to the fixed point x;
    the keys are exactly the image (= fixed points) of the idempotent, and the
    blocks partition the ground set.
    """

    n: int
    blocks: dict[int, int]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("decomposition needs at least one block")
        covered = 0
        for rep, mask in self.blocks.items():
            if not (mask >> rep) & 1:
                raise ValueError(f"representative {rep} not inside its block")
            if covered & mask:
                raise ValueError("blocks overlap")
            covered |= mask
        if covered != (1 << self.n) - 1:
            raise ValueError("blocks do not partition the ground set")


def orbit_decomposition(e: Transformation) -> IdempotentDecomposition:
    """Decompose an idempotent into the map from each fixed point to the mask
    of the points it receives, built in one pass over the image table."""
    if not is_idempotent(e):
        raise ValueError(f"not idempotent: {e.word()}")
    blocks: dict[int, int] = {}
    for x, y in enumerate(e.images):
        blocks[y] = blocks.get(y, 0) | (1 << x)
    return IdempotentDecomposition(e.n, blocks)


def commutes(a: Transformation, b: Transformation) -> bool:
    """Naive commuting test: compare both products."""
    return compose(a, b) == compose(b, a)


def commutes_with_idempotent(e: IdempotentDecomposition, a: Transformation) -> bool:
    """Block-wise commuting test against an idempotent.

    ``a`` commutes with the idempotent iff, for each fixed point x with block
    ``A_x = e.blocks[x]``, ``x a`` is a fixed point too and ``A_x a ⊆ A_(x a)``.
    Reads ``e.blocks`` only, never a product, so it stays a separate route
    from :func:`commutes`, with which it agrees on all inputs.
    """
    if e.n != a.n:
        raise ValueError(f"ground-set mismatch: {e.n} vs {a.n}")
    imgs = a.images
    blocks = e.blocks
    for rep, mask in blocks.items():
        target = blocks.get(imgs[rep])
        if target is None:
            return False
        m = mask
        while m:
            lsb = m & -m
            if not (target >> imgs[lsb.bit_length() - 1]) & 1:
                return False
            m ^= lsb
    return True


def enumerate_idempotents(
    n: int, commuting_with: Iterable[Transformation] = ()
) -> tuple[Transformation, ...]:
    """The idempotents of T(n) commuting with each map of ``commuting_with``,
    in image-table order: an ordered backtracking search assigns f(0), f(1),
    ... in ascending order.  A point already hit must be fixed; any other
    point goes to itself, to an earlier fixed point, or to a later point,
    which must then be fixed.  Each equation ``f[e[p]] == e[f[p]]`` is checked
    once f(p) and f(e[p]) are assigned.  The full list grows too fast to
    build above ``MAX_IDEMPOTENT_POINTS`` points.
    """
    check_points(n)
    if n > MAX_IDEMPOTENT_POINTS:
        count = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        raise ValueError(
            f"T({n}) has {count} idempotents, too many to list "
            f"(n must be at most {MAX_IDEMPOTENT_POINTS})"
        )
    # due[x]: the equations (e, p, e[p]) decided once f(0..x) are assigned
    due: list[list] = [[] for _ in range(n)]
    for e in commuting_with:
        if e.n != n:
            raise ValueError(f"ground-set mismatch: {e.n} vs {n}")
        for p, q in enumerate(e.images):
            due[max(p, q)].append((e.images, p, q))
    f = [0] * n
    found: list[Transformation] = []

    def extend(x: int, fixed: tuple[int, ...], hit: int) -> None:
        if x == n:
            found.append(Transformation(n, tuple(f)))
            return
        # hit: a mask of the points chosen as images; only bits above x are read
        for y in (x,) if (hit >> x) & 1 else (*fixed, *range(x, n)):
            f[x] = y
            if all(f[q] == e[f[p]] for e, p, q in due[x]):
                extend(x + 1, fixed + (x,) if y == x else fixed, hit | 1 << y)

    extend(0, (), 0)
    return tuple(found)
