"""The 48-element group of invertible 2x2 matrices over F3.

Matrices are flat row-major 4-tuples of residues 0..2. Only the group and
its conjugacy classes are enumerated, by brute force, and they are the only
brute-force enumeration on any command path: every other table is read off
the class list, and that SL2(F3) has no subgroup of order 12 is read off one
closure of its squares.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError

Mat = tuple[int, int, int, int]

IDENTITY: Mat = (1, 0, 0, 1)


def mul(g: Mat, h: Mat) -> Mat:
    a, b, c, d = g
    e, f, i, j = h
    return ((a * e + b * i) % 3, (a * f + b * j) % 3, (c * e + d * i) % 3, (c * f + d * j) % 3)


def det(g: Mat) -> int:
    return (g[0] * g[3] - g[1] * g[2]) % 3


def trace(g: Mat) -> int:
    return (g[0] + g[3]) % 3


def fixed_dim(g: Mat) -> int:
    """Dimension of ker(g - I) over F3."""
    a, b, c, d = (g[0] - 1) % 3, g[1], g[2], (g[3] - 1) % 3
    if a == b == c == d == 0:
        return 2
    if (a * d - b * c) % 3 == 0:
        return 1
    return 0


@lru_cache(maxsize=1)
def enumerate_group() -> tuple[Mat, ...]:
    return tuple(
        g for g in itertools.product(range(3), repeat=4) if det(g) != 0
    )


def element_order(g: Mat) -> int:
    if det(g) == 0:
        raise ValueError("matrix is not invertible")
    n, h = 1, g
    while h != IDENTITY:
        h = mul(h, g)
        n += 1
    return n


@dataclass(frozen=True)
class ConjClass:
    representative: Mat
    size: int
    order: int
    det: int
    trace: int
    fixed_dim: int

    @property
    def square_fixed_dim(self) -> int:
        """Fixed dimension of the square of any member."""
        return fixed_dim(mul(self.representative, self.representative))


@lru_cache(maxsize=1)
def conjugacy_partition() -> tuple[tuple[ConjClass, frozenset[Mat]], ...]:
    """Conjugacy classes with member sets, by brute-force orbits."""
    group = enumerate_group()
    inverses = {h: _inverse(h) for h in group}
    seen: set[Mat] = set()
    out = []
    for g in group:
        if g in seen:
            continue
        orbit = frozenset(mul(mul(h, g), inverses[h]) for h in group)
        seen |= orbit
        rep = min(orbit)
        out.append(
            (
                ConjClass(rep, len(orbit), element_order(rep), det(rep), trace(rep), fixed_dim(rep)),
                orbit,
            )
        )
    assert sum(len(o) for _, o in out) == 48
    return tuple(out)


def conjugacy_classes() -> list[ConjClass]:
    return [cls for cls, _ in conjugacy_partition()]


def _inverse(g: Mat) -> Mat:
    a, b, c, d = g
    inv = det(g)  # det is 1 or 2, both self-inverse mod 3
    return ((d * inv) % 3, (-b * inv) % 3, (-c * inv) % 3, (a * inv) % 3)


def det_coset_stats(d: int) -> dict[tuple[int, int], int]:
    """Histogram {(order, fixed_dim): count} over the coset det = d."""
    if d not in (1, 2):
        raise ValueError("determinant must be 1 or 2")
    hist: dict[tuple[int, int], int] = {}
    for cls in conjugacy_classes():
        if cls.det == d:
            key = (cls.order, cls.fixed_dim)
            hist[key] = hist.get(key, 0) + cls.size
    return hist


def fixed_dim_density(d: int, i: int) -> Fraction:
    """Exact fraction of the det = d coset whose fixed space has dimension i."""
    if d not in (1, 2):
        raise ValueError("determinant must be 1 or 2")
    if i not in (0, 1, 2):
        raise ValueError("fixed dimension must be 0, 1 or 2")
    count = sum(c.size for c in conjugacy_classes() if c.det == d and c.fixed_dim == i)
    return Fraction(count, 24)


def sl2_elements() -> list[Mat]:
    return [g for g in enumerate_group() if det(g) == 1]


def _closure(gens: frozenset[Mat]) -> frozenset[Mat]:
    """The subgroup gens generate, as words in gens breadth-first from the
    identity; in a finite group every inverse is a power of its element."""
    elems = {IDENTITY}
    frontier = [IDENTITY]
    for g in frontier:  # the list grows as it is read
        for h in gens:
            prod = mul(g, h)
            if prod not in elems:
                elems.add(prod)
                frontier.append(prod)
    return frozenset(elems)


def sl2_subgroups() -> list[frozenset[Mat]]:
    """Every subgroup of SL2(F3), by closing generating sets breadth-first.

    Start from the cyclic subgroups and extend each known subgroup by each
    outside element until nothing new appears; every subgroup has a
    generating chain, so the sweep finds them all. No command calls it: it
    is kept only as the test oracle for `sl2_no_index2_normal` and as a
    target that `perfbench/tracing.py` wraps by name, until ROADMAP item 1
    drops it from `TARGETS`.
    """
    sl2 = sl2_elements()
    found = {frozenset({IDENTITY})}
    frontier = [frozenset({IDENTITY})]
    while frontier:
        h = frontier.pop()
        for g in sl2:
            if g in h:
                continue
            new = _closure(h | {g})
            if new not in found:
                found.add(new)
                frontier.append(new)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def sl2_no_index2_normal() -> bool:
    """True iff SL2(F3) has no subgroup of order 12, read off its squares.

    A subgroup of index 2 is normal with quotient Z/2, so it holds every
    square. Conversely the squares generate a normal subgroup whose quotient
    is an elementary abelian 2-group, which has a subgroup of index 2 unless
    it is trivial. So an order-12 subgroup exists exactly when the squares
    fail to generate all 24 elements; its 10 distinct squares generate them.
    """
    return len(_closure(frozenset(mul(g, g) for g in sl2_elements()))) == 24


def match_class(trace_mod3: int, det_mod3: int, fdim: int, fdim_square: int) -> ConjClass:
    """The unique class with the given trace, det, fixed dim, and fixed dim
    of the square. Raises if zero or several classes match."""
    signature = (trace_mod3 % 3, det_mod3 % 3, fdim, fdim_square)
    hits = [
        c
        for c in conjugacy_classes()
        if (c.trace, c.det, c.fixed_dim, c.square_fixed_dim) == signature
    ]
    if len(hits) != 1:
        raise ConsistencyError(
            f"class match for (trace={trace_mod3}, det={det_mod3}, "
            f"fdim={fdim}, fdim_sq={fdim_square}) found {len(hits)} candidates"
        )
    return hits[0]
