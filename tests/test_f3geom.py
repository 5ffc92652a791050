"""Finite-geometry layer: subspace enumeration and Lagrangian counts over F3."""
import functools
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selmerfan import f3geom
from selmerfan.f3geom import (
    QuadSpace,
    Subspace,
    coordinatewise_lagrangians,
    enumerate_subspaces,
    gaussian_binomial,
    hyperbolic_space,
    is_totally_isotropic,
    lagrangians,
    quad_value,
    ramified_coordinatewise_lagrangians,
)

vec = lambda n: st.tuples(*[st.integers(0, 2)] * n)


def brute_subspace_count(ambient, d):
    seen = set()
    for vs in itertools.product(itertools.product(range(3), repeat=ambient), repeat=d):
        sub = Subspace.span(vs, ambient)
        if sub.dim == d:
            seen.add(sub)
    return len(seen)


@functools.lru_cache(maxsize=None)
def half_subspaces(n):
    # the enumeration depends only on the ambient dimension, so share it
    # between the many Gram matrices checked below
    return enumerate_subspaces(hyperbolic_space(n), n // 2)


def brute_lagrangians(space):
    """Reference: every half-dimensional subspace, filtered for isotropy."""
    return [w for w in half_subspaces(space.dim) if is_totally_isotropic(space, w)]


def random_spaces(seed, dim, count):
    """`count` seeded random nondegenerate symmetric Gram matrices."""
    rng = random.Random(seed)
    spaces = []
    while len(spaces) < count:
        gram = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                gram[i][j] = gram[j][i] = rng.randrange(3)
        try:
            spaces.append(QuadSpace(dim, tuple(map(tuple, gram))))
        except ValueError:  # degenerate: draw again
            pass
    return spaces


RANDOM_SPACES = {2: random_spaces(2, 2, 12), 4: random_spaces(4, 4, 12), 6: random_spaces(6, 6, 8)}

OFFDIAG_4 = ((0, 1, 1, 0), (1, 0, 2, 1), (1, 2, 1, 0), (0, 1, 0, 2))
OFFDIAG_6 = (
    (0, 1, 1, 0, 0, 2),
    (1, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 0, 1),
    (0, 1, 0, 2, 2, 0),
    (0, 1, 0, 2, 0, 1),
    (2, 0, 1, 0, 1, 1),
)


def det_mod3(gram):
    """Determinant over F3, by elimination."""
    mat = [list(row) for row in gram]
    det = 1
    for col in range(len(mat)):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] % 3), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        lead = mat[col][col] % 3  # 1 or 2, its own inverse
        det *= lead
        for r in range(col + 1, len(mat)):
            f = mat[r][col] * lead
            mat[r] = [(a - f * b) % 3 for a, b in zip(mat[r], mat[col])]
    return det % 3


def closed_form_count(space):
    """Lagrangians of a nondegenerate space of dim 2k over F3: prod_{i<k} (3^i + 1)
    when (-1)^k det G = 1 mod 3 (the space is a sum of hyperbolic planes), else 0."""
    k = space.dim // 2
    if (-1) ** k * det_mod3(space.gram) % 3 != 1:
        return 0
    return math.prod(3**i + 1 for i in range(k))


def assert_complete(space, lags):
    # distinct, valid and as many as the closed form: so no Lagrangian is missing
    assert all(a.basis < b.basis for a, b in zip(lags, lags[1:]))
    for lag in lags:
        assert lag.dim == space.dim // 2
        assert is_totally_isotropic(space, lag)
    assert len(lags) == closed_form_count(space)


SPLIT_6 = next(space for space in RANDOM_SPACES[6] if closed_form_count(space))


def block_projections(space, sub):
    return [
        Subspace.span([[row[j] for j in space.block_range(i)] for row in sub.basis], space.block_dim)
        for i in range(space.n_blocks)
    ]


def brute_coordinatewise(space):
    """Reference: every half-dimensional subspace whose block projections are
    Lagrangians of their blocks, by filtering the full enumeration."""
    blocks = [QuadSpace(space.block_dim, space.block_gram(i)) for i in range(space.n_blocks)]
    return [
        w
        for w in half_subspaces(space.dim)
        if all(
            p.dim == space.block_dim // 2 and is_totally_isotropic(blk, p)
            for blk, p in zip(blocks, block_projections(space, w))
        )
    ]


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == 130
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 4) == 1
    assert gaussian_binomial(4, 1) == 40
    assert gaussian_binomial(4, 3) == 40
    assert gaussian_binomial(6, 3) == 33880


def test_gaussian_binomial_matches_brute_force():
    for ambient in (2, 3):
        for d in range(ambient + 1):
            assert brute_subspace_count(ambient, d) == gaussian_binomial(ambient, d)


@given(st.lists(vec(4), min_size=1, max_size=5), st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_span_contains_combinations(vectors, coeffs):
    sub = Subspace.span(vectors, 4)
    combo = [0, 0, 0, 0]
    for v, c in zip(vectors, coeffs):
        combo = [(x + c * y) % 3 for x, y in zip(combo, v)]
    assert sub.contains(combo)
    for v in vectors:
        assert sub.contains(v)


@given(st.lists(vec(4), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_span_is_generator_order_invariant(vectors, rng):
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    scaled = [tuple(2 * x % 3 for x in v) for v in shuffled]
    assert Subspace.span(vectors, 4) == Subspace.span(shuffled, 4) == Subspace.span(scaled + vectors, 4)


def test_subspace_vectors_enumerates_all_members():
    sub = Subspace.span([(1, 0, 1, 0), (0, 1, 0, 2)], 4)
    members = list(sub.vectors())
    assert len(members) == 9
    assert len(set(members)) == 9
    assert all(sub.contains(v) for v in members)


def test_enumerate_subspaces_counts():
    space = hyperbolic_space(4)
    for d in range(5):
        subs = enumerate_subspaces(space, d)
        assert len(subs) == gaussian_binomial(4, d)
        assert len(set(subs)) == len(subs)
    with pytest.raises(ValueError):
        enumerate_subspaces(space, 5)
    with pytest.raises(ValueError):
        enumerate_subspaces(space, -1)


def test_quadspace_validation():
    with pytest.raises(ValueError):
        QuadSpace(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        QuadSpace(2, ((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        QuadSpace(2, ((1, 1), (1, 1)))  # rank 1
    with pytest.raises(ValueError):
        QuadSpace(4, hyperbolic_space(4).gram, n_blocks=3)
    with pytest.raises(ValueError):
        hyperbolic_space(8)
    with pytest.raises(ValueError):
        hyperbolic_space(10)


def test_hyperbolic_plane_quad_values():
    h = hyperbolic_space(2)
    assert quad_value(h, (1, 0)) == 0
    assert quad_value(h, (0, 1)) == 0
    assert quad_value(h, (1, 1)) == 2
    assert quad_value(h, (1, 2)) == 1


@given(vec(4), st.integers(0, 2))
def test_quad_value_scales_by_square(v, c):
    h = hyperbolic_space(4)
    cv = tuple(c * x % 3 for x in v)
    assert quad_value(h, cv) == c * c * quad_value(h, v) % 3


@given(vec(4), vec(4))
def test_pairing_symmetric(u, v):
    h = hyperbolic_space(4)
    assert h.pairing(u, v) == h.pairing(v, u)


def test_lagrangian_counts():
    assert len(lagrangians(hyperbolic_space(2))) == 2
    assert len(lagrangians(hyperbolic_space(4))) == 8
    # x^2 + y^2 has no nonzero roots mod 3
    assert len(lagrangians(QuadSpace(2, ((1, 0), (0, 1))))) == 0


@pytest.mark.parametrize(
    "space",
    [
        hyperbolic_space(2),
        hyperbolic_space(4),
        hyperbolic_space(6),
        QuadSpace(2, ((1, 0), (0, 1))),
        QuadSpace(4, OFFDIAG_4),
        QuadSpace(6, OFFDIAG_6),
        *(space for spaces in RANDOM_SPACES.values() for space in spaces),
    ],
    ids=lambda space: f"dim{space.dim}-" + "".join(str(x) for row in space.gram for x in row),
)
def test_lagrangians_match_the_filter(space):
    lags = lagrangians(space)
    assert_complete(space, lags)
    assert lags == brute_lagrangians(space)


@pytest.mark.parametrize("dim", sorted(RANDOM_SPACES))
def test_random_grams_cover_split_and_nonsplit(dim):
    # a form with no Lagrangian exercises the recursion down to an anisotropic space
    assert {bool(lagrangians(space)) for space in RANDOM_SPACES[dim]} == {True, False}


def test_lagrangians_are_isotropic_half_dim():
    # q on every member, not only on the basis, checks the x + q(x)v term
    for space in (hyperbolic_space(4), QuadSpace(6, OFFDIAG_6), SPLIT_6):
        lags = lagrangians(space)
        assert lags
        for lag in lags:
            assert lag.dim == space.dim // 2
            assert is_totally_isotropic(space, lag)
            members = list(lag.vectors())
            assert len(set(members)) == 3**lag.dim
            assert all(quad_value(space, v) == 0 for v in members)
            for u in members:
                for v in members:
                    assert space.pairing(u, v) == 0


@pytest.mark.parametrize("kind", ["hyperbolic", "split", "nonsplit"])
def test_dim_8_complete_by_closed_form(kind, monkeypatch):
    # no brute oracle reaches dim 8: it has 75,913,222 four-dimensional subspaces
    monkeypatch.setattr(f3geom, "MAX_AMBIENT_DIM", 8)
    seeded = random_spaces(8, 8, 3)
    space = {
        "hyperbolic": hyperbolic_space(8),
        "split": next(s for s in seeded if closed_form_count(s)),
        "nonsplit": next(s for s in seeded if not closed_form_count(s)),
    }[kind]
    if kind == "hyperbolic":
        assert closed_form_count(space) == 2240
    assert_complete(space, lagrangians(space))


@pytest.mark.parametrize(
    "space, count",
    [
        (hyperbolic_space(4, n_blocks=2), 4),
        (hyperbolic_space(6, n_blocks=3), 8),
        (QuadSpace(4, OFFDIAG_4, 2), 4),
        # block 0 is x^2 + y^2, which is anisotropic over F3
        (QuadSpace(4, ((1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 1)), 2), 0),
        (QuadSpace(6, OFFDIAG_6, 3), 8),
    ],
    ids=["hyp-4-2", "hyp-6-3", "offdiag-4-2", "anisotropic-4-2", "offdiag-6-3"],
)
def test_coordinatewise_lagrangians_are_products(space, count):
    coord = coordinatewise_lagrangians(space)
    assert coord == brute_coordinatewise(space)
    assert len(coord) == count
    k = space.block_dim
    if all(space.gram[r][c] == 0 for r in range(space.dim) for c in range(space.dim) if r // k != c // k):
        # with orthogonal blocks every coordinatewise one is a genuine Lagrangian
        assert set(coord) <= set(lagrangians(space))


def test_coordinatewise_single_block_collapses():
    space = hyperbolic_space(4, n_blocks=1)
    assert coordinatewise_lagrangians(space) == lagrangians(space)


def test_coordinatewise_rejects_degenerate_block():
    # permutation gram: invertible overall, zero on both diagonal blocks
    gram = (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    space = QuadSpace(4, gram, n_blocks=2)
    with pytest.raises(ValueError, match="block 0"):
        coordinatewise_lagrangians(space)


def test_ramified_count_two_blocks():
    space = hyperbolic_space(4, n_blocks=2)
    mark = Subspace.span([(1, 0)], 2)
    ram = ramified_coordinatewise_lagrangians(space, [mark, mark])
    assert ram == [
        w for w in brute_coordinatewise(space) if mark not in block_projections(space, w)
    ]
    assert len(ram) == 1
    lone = ram[0]
    assert lone.contains((0, 1, 0, 0)) and lone.contains((0, 0, 0, 1))


def test_ramified_validates_marks():
    space = hyperbolic_space(4, n_blocks=2)
    mark = Subspace.span([(1, 0)], 2)
    with pytest.raises(ValueError):
        ramified_coordinatewise_lagrangians(space, [mark])
    with pytest.raises(ValueError):
        ramified_coordinatewise_lagrangians(space, [mark, Subspace.span([(1, 0, 0, 0)], 4)])
    with pytest.raises(ValueError):
        ramified_coordinatewise_lagrangians(space, [mark, Subspace.span([(1, 1)], 2)])


@pytest.mark.parametrize(
    "space, marks",
    [
        (hyperbolic_space(4, 2), [Subspace(2, ()), Subspace(2, ())]),
        (hyperbolic_space(4), [Subspace.span([(1, 0, 0, 0)], 4)]),
    ],
    ids=["zero-marks", "isotropic-line-in-dim-4"],
)
def test_ramified_rejects_isotropic_marks_below_half_dim(space, marks):
    # isotropic but not Lagrangian: such a mark equals no block projection,
    # so it would filter nothing and every coordinatewise one would pass
    assert all(is_totally_isotropic(QuadSpace(space.block_dim, space.block_gram(i)), m)
               for i, m in enumerate(marks))
    with pytest.raises(ValueError, match="not a Lagrangian"):
        ramified_coordinatewise_lagrangians(space, marks)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lagrangian_count_product_formula(m):
    # number of maximal isotropics of a rank-m hyperbolic sum: prod (3^i + 1)
    expected = 1
    for i in range(m):
        expected *= 3**i + 1
    assert len(lagrangians(hyperbolic_space(2 * m))) == expected
