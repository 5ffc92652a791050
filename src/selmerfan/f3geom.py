"""Exact linear algebra and finite geometry over F3.

Subspaces are kept in reduced row-echelon form, which is the unique
canonical representative, so equality of subspaces is tuple equality.
Lagrangians are built row by row in echelon form, keeping a partial basis
only while it stays isotropic; coordinatewise Lagrangians are built as
direct sums of block Lagrangians.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError

MAX_AMBIENT_DIM = 6  # at dim 8 the row-by-row build takes seconds (2240 Lagrangians when hyperbolic)

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
    """A subspace of F3^ambient_dim with canonical echelon basis."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be non-negative")
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length does not match ambient_dim")
        if _rref(self.basis, self.ambient_dim) != self.basis:
            raise ValueError("basis is not in reduced row-echelon form")

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, _rref(vectors, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> Iterator[Vec]:
        """All 3^dim member vectors."""
        for coeffs in itertools.product(range(3), repeat=self.dim):
            yield tuple(
                sum(c * row[j] for c, row in zip(coeffs, self.basis)) % 3
                for j in range(self.ambient_dim)
            )

    def contains(self, v: Sequence[int]) -> bool:
        return _rref(list(self.basis) + [list(v)], self.ambient_dim) == self.basis


@dataclass(frozen=True)
class QuadSpace:
    """F3^dim with a symmetric nondegenerate Gram matrix and a block split.

    The quadratic form is q(v) = v.gram.v directly (no halving; the
    characteristic is 3, so the form and the pairing determine each other).
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

    @property
    def block_dim(self) -> int:
        return self.dim // self.n_blocks

    def block_range(self, i: int) -> range:
        return range(i * self.block_dim, (i + 1) * self.block_dim)

    def block_gram(self, i: int) -> tuple[tuple[int, ...], ...]:
        rng = self.block_range(i)
        return tuple(tuple(self.gram[r][c] for c in rng) for r in rng)

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise ConfigError("vector length does not match dim")
        return sum(u[i] * self.gram[i][j] * v[j] for i in range(self.dim) for j in range(self.dim)) % 3


def quad_value(space: QuadSpace, v: Sequence[int]) -> int:
    """q(v) = v.gram.v mod 3."""
    return space.pairing(v, v)


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
    if d == 0:
        return [Subspace(n, ())]
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
            out.append(Subspace(n, tuple(tuple(r) for r in rows)))
    expected = gaussian_binomial(n, d)
    if len(out) != expected or len(set(out)) != expected:
        raise AssertionError("echelon enumeration does not match the Gaussian binomial")
    out.sort(key=lambda s: s.basis)
    return out


def is_totally_isotropic(space: QuadSpace, sub: Subspace) -> bool:
    """Form and pairing both vanish on the subspace (basis checks suffice)."""
    rows = sub.basis
    for i, u in enumerate(rows):
        if quad_value(space, u) != 0:
            return False
        for v in rows[i + 1:]:
            if space.pairing(u, v) != 0:
                return False
    return True


def lagrangians(space: QuadSpace) -> list[Subspace]:
    """All maximal totally isotropic (dim/2) subspaces, canonically sorted.

    Walks the echelon parameterization of enumerate_subspaces one row at a
    time and keeps a row r only if B(r, r) = 0 and B(r, s) = 0 for every
    earlier row s. In characteristic 3, q(v) = B(v, v), so a basis that is
    isotropic under B spans a totally isotropic subspace.
    """
    n, half = space.dim, space.dim // 2
    out = []

    def extend(pivots: tuple[int, ...], rows: list[Vec], images: list[Vec]) -> None:
        # images[k] is gram . rows[k], so B(r, rows[k]) is a dot product
        if len(rows) == half:
            out.append(Subspace(n, tuple(rows)))
            return
        p = pivots[len(rows)]
        free = [j for j in range(p + 1, n) if j not in pivots]
        for values in itertools.product(range(3), repeat=len(free)):
            row = [0] * n
            row[p] = 1
            for j, x in zip(free, values):
                row[j] = x
            if any(sum(a * b for a, b in zip(row, im)) % 3 for im in images):
                continue
            image = tuple(sum(g * x for g, x in zip(col, row)) % 3 for col in space.gram)
            if sum(a * b for a, b in zip(row, image)) % 3 == 0:
                extend(pivots, rows + [tuple(row)], images + [image])

    for pivots in itertools.combinations(range(n), half):
        extend(pivots, [], [])
    out.sort(key=lambda s: s.basis)
    return out


def _block_space(space: QuadSpace, i: int) -> QuadSpace:
    return QuadSpace(space.block_dim, space.block_gram(i))


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
            per_block.append(lagrangians(_block_space(space, i)))
        except ConfigError as e:
            raise ConfigError(f"block {i}: {e}") from e
    k = space.block_dim
    for parts in itertools.product(*per_block):
        rows = [
            (0,) * (i * k) + row + (0,) * (space.dim - (i + 1) * k)
            for i, part in enumerate(parts)
            for row in part.basis
        ]
        yield parts, Subspace.span(rows, space.dim)


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
        if mark.dim != space.block_dim // 2 or not is_totally_isotropic(_block_space(space, i), mark):
            raise ConfigError(f"marked subspace {i} is not a Lagrangian of its block")
    return [
        w
        for parts, w in _block_lagrangian_sums(space)
        if all(part != mark for part, mark in zip(parts, distinguished))
    ]
