"""Exact arithmetic on full transformations of a finite ground set.

A transformation is a total map on the points [0, n), stored as its image
table.  Maps act on the right and compose left to right: ``x (f g) = (x f) g``,
so ``compose(f, g)`` applies ``f`` first.  Point sets are bit masks (bit x set
means point x belongs), which keeps subset tests down to single mask ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

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


def commutes(a: Transformation, b: Transformation) -> bool:
    """Naive commuting test: compare both products."""
    return compose(a, b) == compose(b, a)


def commuting_masks(
    n: int, idempotents: Sequence[Transformation], maps: Sequence[Transformation]
) -> tuple[int, ...]:
    """Block-wise commuting test of many maps against many idempotents: bit j
    of entry i is set iff ``maps[j]`` commutes with ``idempotents[i]``.

    An idempotent's image table is its block map: e(p) is the fixed point
    whose block holds p.  A map a commutes with e iff, at every point p, it
    sends p into the block of the fixed point a(e(p)), that is
    e(a(p)) = a(e(p)).  ``at[p][v]``, the mask of the maps that send p to v,
    is built once, so each (e, p) costs one union over v of
    ``at[p][v] & at[e(p)][e(v)]``.  Reads image tables only, never a
    product, so it stays a separate route from :func:`commutes`, with which
    it agrees on all inputs.
    """
    at = [[0] * n for _ in range(n)]
    for j, a in enumerate(maps):
        if a.n != n:
            raise ValueError(f"ground-set mismatch: {a.n} vs {n}")
        for p, v in enumerate(a.images):
            at[p][v] |= 1 << j
    out = []
    for e in idempotents:
        if e.n != n:
            raise ValueError(f"ground-set mismatch: {e.n} vs {n}")
        if not is_idempotent(e):
            raise ValueError(f"not idempotent: {e.word()}")
        imgs = e.images
        passing = (1 << len(maps)) - 1
        for p, q in enumerate(imgs):
            at_p, at_q = at[p], at[q]
            into = 0
            for v in range(n):
                into |= at_p[v] & at_q[imgs[v]]
            passing &= into
        out.append(passing)
    return tuple(out)


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
