"""The `families-n6` inputs and the expected result of every operation.

Families come from the library's public constructor `semilattice_of_size`,
conjugated by a seeded permutation of the points.  Every fifth family is
mutated onto the reject path, alternately by adding an idempotent that fails
to commute with some member and by removing a product of two other members.

The expected results are computed here from the definitions, on plain image
tuples, and never by the library: composition is left to right
(``x(ab) = (xa)b``), and the documented canonical orders decide which
violation, anchor and carrier order the program must report.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

N = 6
FULL = 1 << (N - 1)
COMMANDS = (
    ("verify",),
    ("maximal",),
    ("reduce",),
    ("order",),
    ("order", "--transitivity"),
)


def compose(a: tuple, b: tuple) -> tuple:
    return tuple(b[y] for y in a)


def word(a: tuple) -> str:
    return " ".join(map(str, a))


def _header(n: int, elems: list) -> list[str]:
    return [f"n={n} size={len(elems)}", *map(word, elems)]


def first_violation(elems) -> Optional[tuple[str, tuple, Optional[tuple]]]:
    """The first failing axiom in canonical order, as `find_violation` documents."""
    els = sorted(set(elems))
    present = set(els)
    for e in els:
        if compose(e, e) != e:
            return ("idempotence", (e,), None)
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            ab = compose(a, b)
            if ab != compose(b, a):
                return ("commutativity", (a, b), None)
            if ab not in present:
                return ("closure", (a, b), ab)
    return None


def describe(violation) -> str:
    axiom, elements, product = violation
    words = ", ".join(map(word, elements))
    if axiom == "idempotence":
        return f"idempotence fails for [{words}]"
    if axiom == "commutativity":
        return f"commutativity fails for the pair [{words}]"
    return f"closure fails for the pair [{words}]: product [{word(product)}] is missing"


def reduce_text(els: list) -> str:
    """Anchor (smallest t, then smallest u), redirect u to t, restrict."""
    t = next(t for t in range(N) if all(e[t] == t for e in els))
    u = next(
        u for u in range(N) if u != t and all(e[u] in (u, t) for e in els)
    )
    star = sorted({tuple(t if y == u else y for y in e) for e in els})
    restricted = sorted(
        tuple(y - 1 if y > u else y for x, y in enumerate(g) if x != u)
        for g in star
    )
    lines = [
        f"anchor: t={t} u={u}",
        f"sizes: S={len(els)} S_star={len(star)} S_star_u={len(restricted)}",
        "star:",
        *_header(N, star),
        "restricted:",
        *_header(N - 1, restricted),
    ]
    return "\n".join(lines) + "\n"


def _poset_text(name: str, shown: list[str], leq) -> str:
    lines = [f"order={name} n={N} size={len(shown)}", "carrier:"]
    lines.extend(f"{i}: {s}" for i, s in enumerate(shown))
    lines.append("leq:")
    lines.extend(" ".join("1" if v else "0" for v in row) for row in leq)
    return "\n".join(lines) + "\n"


def natural_order_text(els: list) -> str:
    leq = [[a == compose(a, b) for b in els] for a in els]
    return _poset_text("natural", [word(e) for e in els], leq)


def transitivity_order_text(els: list) -> str:
    leq = [
        [x == y or any(e[y] == x for e in els) for y in range(N)]
        for x in range(N)
    ]
    return _poset_text("transitivity", [str(x) for x in range(N)], leq)


_EXTEND_RE = re.compile(r"NOT-MAXIMAL extend-with: ([0-9 ]+)\n\Z")


def extends(els: list) -> Callable[[str], bool]:
    """Check of a NOT-MAXIMAL answer: its witness is an idempotent outside
    the family that commutes with every member."""

    def check(text: str) -> bool:
        m = _EXTEND_RE.match(text)
        if m is None:
            return False
        w = tuple(int(tok) for tok in m.group(1).split())
        return (
            len(w) == N
            and all(0 <= y < N for y in w)
            and compose(w, w) == w
            and w not in els
            and all(compose(a, w) == compose(w, a) for a in els)
        )

    return check


@dataclass(frozen=True)
class Expected:
    """One operation's expected exit code, output file and stderr.

    ``output`` is the exact file text, a predicate on it, or None when the
    operation must write no file."""

    code: int
    output: object
    stderr: str = ""

    def problems(self, code: int, output: Optional[str], stderr: str) -> list[str]:
        found = []
        if code != self.code:
            found.append(f"exit {code}, expected {self.code}")
        if self.output is None:
            if output is not None:
                found.append("wrote an output file, expected none")
        elif output is None:
            found.append("wrote no output file")
        elif callable(self.output):
            if not self.output(output):
                found.append(f"output fails its check: {output[:120]!r}")
        elif output != self.output:
            found.append(f"output differs: {output[:120]!r}")
        if stderr != self.stderr:
            found.append(f"stderr {stderr[:120]!r}, expected {self.stderr!r}")
        return found


@dataclass(frozen=True)
class Family:
    text: str  # the file handed to the program
    expected: tuple[Expected, ...]  # one per entry of COMMANDS
    mutation: Optional[str]
    size: int


def _random_idempotent(rng: random.Random) -> tuple:
    image = [x for x in range(N) if rng.random() < 0.5] or [rng.randrange(N)]
    return tuple(x if x in image else rng.choice(image) for x in range(N))


def _mutate(rng: random.Random, elems: set, kind: str) -> tuple[set, str]:
    if kind == "remove-product":
        products = sorted(
            p for p in elems
            if any(
                compose(a, b) == p
                for a in elems for b in elems if p not in (a, b)
            )
        )
        if products:
            return elems - {rng.choice(products)}, kind
    while True:
        f = _random_idempotent(rng)
        if f not in elems and any(compose(a, f) != compose(f, a) for a in elems):
            return elems | {f}, "add-noncommuting"


def expectations(elems: set) -> tuple[Expected, ...]:
    violation = first_violation(elems)
    if violation is not None:
        message = describe(violation)
        rejected = Expected(2, None, f"error: {message}\n")
        return (Expected(1, f"INVALID {message}\n"),) + (rejected,) * 4
    els = sorted(elems)
    k = len(els)
    if k == FULL:
        maximal = Expected(0, f"MAXIMAL n={N} size={k}\n")
    else:
        maximal = Expected(1, extends(els))
    return (
        Expected(0, f"VALID n={N} size={k}\n"),
        maximal,
        Expected(0, reduce_text(els)),
        Expected(0, natural_order_text(els)),
        Expected(0, transitivity_order_text(els)),
    )


def make_families(seed: int, count: int) -> list[Family]:
    """``count`` families on N points; the same seed gives the same files."""
    from semilat import semilattice_of_size

    rng = random.Random(seed)
    # Every sixth family is full; the others take the sizes 1..FULL-1 in turn,
    # in a seeded order, so that seeds vary the families but not the mix.
    sizes: list[int] = []
    while len(sizes) < count:
        cycle = list(range(1, FULL))
        rng.shuffle(cycle)
        sizes += cycle
    sizes.reverse()
    out = []
    for i in range(count):
        t = rng.randrange(N)
        size = FULL if i % 6 == 0 else sizes.pop()
        perm = list(range(N))
        rng.shuffle(perm)
        inverse = [perm.index(x) for x in range(N)]
        elems = {
            tuple(perm[e.images[inverse[x]]] for x in range(N))
            for e in semilattice_of_size(N, t, size)
        }
        mutation = None
        if i % 5 == 4:
            kind = "remove-product" if (i // 5) % 2 else "add-noncommuting"
            elems, mutation = _mutate(rng, elems, kind)
        lines = [word(e) for e in elems]
        rng.shuffle(lines)
        text = f"n={N} size={len(lines)}\n" + "\n".join(lines) + "\n"
        out.append(Family(text, expectations(elems), mutation, len(elems)))
    return out
