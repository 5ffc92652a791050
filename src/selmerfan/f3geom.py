"""Exact linear algebra and finite geometry over F3.

A subspace is built from any rows that span it: the constructor reduces
them once to reduced row-echelon form, the unique canonical basis, so
equality of subspaces is tuple equality.
Lagrangians are built by isotropic-line recursion, each exactly once: an
isotropic v and a partner u split off a plane, the Lagrangians of the
plane's orthogonal complement W' are built first, and each extends in
1 + 3^(k-1) ways, so N(W) = N(W')(1 + 3^(k-1)) at dim W = 2k (Taylor,
The Geometry of the Classical Groups, 1992). Coordinatewise Lagrangians
are built as direct sums of block Lagrangians.
The one bilinear form B(u, v) = u.G.v is `QuadSpace.pairing`, which reads
G.v from its space's image table; q(v) is B(v, v), with no halving.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError

# Hyperbolic dim 8 builds its 2240 Lagrangians in 0.13-0.15 s in-process on
# a 2-core VM, and `lagrangians --dim 8` takes 0.22-0.39 s with rendering.
# That is past the 0.1 s or so a default op should take, and no benchmark op
# times dim 8 yet, so the cap stays at 6 until one does.
MAX_AMBIENT_DIM = 6

Vec = tuple[int, ...]


def _rref(rows: Iterable[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Reduced row-echelon form over F3; zero rows dropped."""
    mat = [[x % 3 for x in row] for row in rows]
    pivot_row = 0
    for col in range(width):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = mat[pivot_row][col]  # 1 or 2; both are self-inverse mod 3
        mat[pivot_row] = [(x * inv) % 3 for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % 3 for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


def _combinations(rows: Sequence[Vec], width: int) -> Iterator[Vec]:
    """Every F3-linear combination of rows, the zero vector first."""
    for coeffs in itertools.product(range(3), repeat=len(rows)):
        yield tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % 3 for j in range(width))


def gaussian_binomial(n: int, k: int, q: int = 3) -> int:
    """Number of k-dimensional subspaces of F_q^n, by the product formula."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class Subspace:
    """The span of some rows in F3^ambient_dim.

    The constructor takes any spanning rows, dependent, unreduced or a
    generator, and stores their reduced row-echelon form as the basis.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be non-negative")
        rows = tuple(self.basis)
        for row in rows:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length does not match ambient_dim")
        object.__setattr__(self, "basis", _rref(rows, self.ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> Iterator[Vec]:
        """All 3^dim member vectors."""
        return _combinations(self.basis, self.ambient_dim)


@dataclass(frozen=True)
class QuadSpace:
    """F3^dim with a symmetric nondegenerate Gram matrix and a block split.

    `pairing` is the one bilinear form B(u, v) = u.G.v, and the quadratic
    form is q(v) = B(v, v) directly (no halving; the characteristic is 3, so
    the form and the pairing determine each other). Each space keeps a table
    of the images G.v of the residue vectors v it has paired, at most 3^dim.
    Blocks are n_blocks contiguous coordinate ranges of equal size.
    """

    dim: int
    gram: tuple[tuple[int, ...], ...]
    n_blocks: int = 1

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim % 2:
            raise ConfigError("dim must be a positive even integer")
        if self.dim > MAX_AMBIENT_DIM:
            raise ConfigError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
        gram = tuple(tuple(x % 3 for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        if len(gram) != self.dim or any(len(row) != self.dim for row in gram):
            raise ConfigError("gram must be dim x dim")
        for i in range(self.dim):
            for j in range(self.dim):
                if gram[i][j] != gram[j][i]:
                    raise ConfigError("gram must be symmetric")
        if len(_rref(gram, self.dim)) != self.dim:
            raise ConfigError("gram must be nondegenerate over F3")
        if self.n_blocks < 1 or self.dim % self.n_blocks:
            raise ConfigError("blocks must partition the coordinates evenly")
        object.__setattr__(self, "_images", {})

    @property
    def block_dim(self) -> int:
        return self.dim // self.n_blocks

    def block(self, i: int) -> QuadSpace:
        """Block i as a space of its own, under the Gram matrix's block i."""
        if not 0 <= i < self.n_blocks:
            raise ConfigError(f"block {i} out of range 0..{self.n_blocks - 1}")
        rng = range(i * self.block_dim, (i + 1) * self.block_dim)
        return QuadSpace(self.block_dim, tuple(tuple(self.gram[r][c] for c in rng) for r in rng))

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """B(u, v) = u.G.v mod 3; only residue vectors v enter the image table."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ConfigError("vector length does not match dim")
        key = tuple(v)
        image = self._images.get(key)
        if image is None:
            image = tuple(sum(g * x for g, x in zip(row, key)) % 3 for row in self.gram)
            if all(0 <= x <= 2 for x in key):
                self._images[key] = image
        return sum(a * b for a, b in zip(u, image)) % 3


def hyperbolic_space(dim: int, n_blocks: int = 1) -> QuadSpace:
    """Orthogonal sum of dim/2 hyperbolic planes [[0,1],[1,0]]."""
    gram = [[0] * dim for _ in range(dim)]
    for i in range(0, dim, 2):
        gram[i][i + 1] = gram[i + 1][i] = 1
    return QuadSpace(dim, tuple(tuple(r) for r in gram), n_blocks)


def enumerate_subspaces(space: QuadSpace, d: int) -> list[Subspace]:
    """All d-dimensional subspaces of the ambient space, canonically sorted.

    Walks the echelon parameterization: choose pivot columns, then fill the
    free entries (positions right of each pivot that are not pivot columns).
    Each subspace is produced exactly once, already in canonical form.
    """
    n = space.dim
    if not 0 <= d <= n:
        raise ConfigError(f"subspace dimension {d} out of range 0..{n}")
    out = []
    for pivots in itertools.combinations(range(n), d):
        free_pos = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, n)
            if j not in pivots
        ]
        for values in itertools.product(range(3), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(free_pos, values):
                rows[i][j] = val
            out.append(Subspace(n, rows))
    expected = gaussian_binomial(n, d)
    if len(out) != expected or len(set(out)) != expected:
        raise AssertionError("echelon enumeration does not match the Gaussian binomial")
    out.sort(key=lambda s: s.basis)
    return out


def is_totally_isotropic(space: QuadSpace, sub: Subspace) -> bool:
    """B vanishes on every pair i <= j of basis rows, so q(v) = B(v, v) does too."""
    pairs = itertools.combinations_with_replacement(sub.basis, 2)
    return all(space.pairing(u, v) == 0 for u, v in pairs)


def lagrangians(space: QuadSpace) -> list[Subspace]:
    """All maximal totally isotropic (dim/2) subspaces, canonically sorted.

    Built by isotropic-line recursion, each Lagrangian once: see
    _lagrangian_rows. A nondegenerate W of dim 2k splits as a plane
    <v, u> with v isotropic, plus W' = <v, u>^perp, and each Lagrangian of
    W' extends in 1 + 3^(k-1) ways, so N(W) = N(W')(1 + 3^(k-1)).
    """
    n = space.dim
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out = [Subspace(n, rows) for rows in _lagrangian_rows(space.pairing, identity)]
    out.sort(key=lambda s: s.basis)
    return out


def _lagrangian_rows(pair: Callable[[Vec, Vec], int], basis: Sequence[Vec]) -> list[list[Vec]]:
    """A spanning set for each Lagrangian of the nondegenerate span W of basis.

    Pick an isotropic v in W and u with B(v, u) = 1, and let W' be the
    vectors of W orthogonal to both. A Lagrangian L of W either contains v,
    and is <v> + L' for a Lagrangian L' of W', or meets v^perp in a subspace
    whose shadow in W' is some L'. Then L is spanned by the vectors
    e - B(w, e)v for e in L', and x + q(x)v with x = u + w, for exactly one
    w in a fixed complement of L' in W'. An anisotropic W has none.
    """
    if not basis:
        return [[]]
    n = len(basis[0])
    v = next((x for x in _combinations(basis, n) if any(x) and pair(x, x) == 0), None)
    if v is None:
        return []
    t = next(b for b in basis if pair(v, b))
    u = tuple(pair(v, t) * x % 3 for x in t)  # B(v, t) is 1 or 2, its own inverse
    uu = pair(u, u)
    # b - alpha v - beta u is the shadow of b in W', orthogonal to v and u;
    # the 2k shadows span W', and _rref drops the two dependent ones
    shadow = []
    for b in basis:
        beta = pair(b, v)
        alpha = pair(b, u) - beta * uu
        shadow.append(tuple((x - alpha * y - beta * z) % 3 for x, y, z in zip(b, v, u)))
    sub_basis = _rref(shadow, n)
    out = []
    for lag in _lagrangian_rows(pair, sub_basis):
        out.append([v, *lag])
        complement: list[Vec] = []
        for b in sub_basis:
            if len(_rref([*lag, *complement, b], n)) > len(lag) + len(complement):
                complement.append(b)
        for w in _combinations(complement, n):
            x = tuple((a + b) % 3 for a, b in zip(u, w))
            qx = pair(x, x)
            rows = [tuple((e_j - pair(w, e) * v_j) % 3 for e_j, v_j in zip(e, v)) for e in lag]
            rows.append(tuple((x_j + qx * v_j) % 3 for x_j, v_j in zip(x, v)))
            out.append(rows)
    return out


def _block_lagrangian_sums(space: QuadSpace) -> Iterator[tuple[tuple[Subspace, ...], Subspace]]:
    """Each choice of one Lagrangian per block, with its direct sum.

    A W whose block projections pi_i(W) are block Lagrangians lies in their
    sum and has its dimension, so W is that sum. Sums come out sorted by
    basis: block lists are sorted, and a sum's basis is theirs concatenated.
    """
    if space.block_dim % 2:
        raise ConfigError("block dimension must be even")
    per_block = []
    for i in range(space.n_blocks):
        try:
            per_block.append(lagrangians(space.block(i)))
        except ConfigError as e:
            raise ConfigError(f"block {i}: {e}") from e
    k = space.block_dim
    for parts in itertools.product(*per_block):
        rows = [
            (0,) * (i * k) + row + (0,) * (space.dim - (i + 1) * k)
            for i, part in enumerate(parts)
            for row in part.basis
        ]
        yield parts, Subspace(space.dim, rows)


def coordinatewise_lagrangians(space: QuadSpace) -> list[Subspace]:
    """Subspaces of dim n*(block_dim/2) whose every block projection is
    Lagrangian for that block's form: the direct sums of block Lagrangians."""
    return [w for _, w in _block_lagrangian_sums(space)]


def ramified_coordinatewise_lagrangians(
    space: QuadSpace, distinguished: Sequence[Subspace]
) -> list[Subspace]:
    """Coordinate-wise Lagrangians whose every block projection differs from
    the marked (unramified) Lagrangian of its block."""
    if len(distinguished) != space.n_blocks:
        raise ConfigError("need one marked subspace per block")
    for i, mark in enumerate(distinguished):
        if mark.ambient_dim != space.block_dim:
            raise ConfigError(f"marked subspace {i} has wrong ambient dimension")
        if mark.dim != space.block_dim // 2 or not is_totally_isotropic(space.block(i), mark):
            raise ConfigError(f"marked subspace {i} is not a Lagrangian of its block")
    return [
        w
        for parts, w in _block_lagrangian_sums(space)
        if all(part != mark for part, mark in zip(parts, distinguished))
    ]
