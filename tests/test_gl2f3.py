"""Group-theory layer: the 2x2 invertible matrices over F3."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selmerfan.gl2f3 import (
    IDENTITY,
    _closure,
    conjugacy_classes,
    conjugacy_partition,
    det,
    det_coset_stats,
    element_order,
    enumerate_group,
    fixed_dim,
    fixed_dim_density,
    match_class,
    mul,
    sl2_elements,
    sl2_no_index2_normal,
    sl2_subgroups,
    trace,
)

group_elem = st.sampled_from(enumerate_group())


def brute_order(g):
    h, n = g, 1
    while h != IDENTITY:
        h = mul(h, g)
        n += 1
    return n


def test_group_size():
    assert len(enumerate_group()) == 48
    assert len(set(enumerate_group())) == 48


def test_element_order_example():
    assert element_order((0, 2, 1, 0)) == 4
    assert element_order(IDENTITY) == 1
    assert element_order((2, 0, 0, 2)) == 2
    with pytest.raises(ValueError):
        element_order((1, 1, 1, 1))


@given(group_elem)
def test_element_order_matches_brute_force(g):
    assert element_order(g) == brute_order(g)


@given(group_elem)
def test_order_divides_48(g):
    assert 48 % element_order(g) == 0


@given(group_elem, group_elem)
def test_det_is_multiplicative(g, h):
    assert det(mul(g, h)) == det(g) * det(h) % 3


def test_conjugacy_classes():
    classes = conjugacy_classes()
    assert len(classes) == 8
    assert sum(c.size for c in classes) == 48
    orders = sorted(c.order for c in classes)
    assert orders == [1, 2, 2, 3, 4, 6, 8, 8]
    # class sizes divide the group order
    assert all(48 % c.size == 0 for c in classes)
    # the signature used downstream separates all eight classes
    sigs = {
        (c.trace, c.det, c.fixed_dim, fixed_dim(mul(c.representative, c.representative)))
        for c in classes
    }
    assert len(sigs) == 8


def test_det_coset_stats():
    sl = det_coset_stats(1)
    assert sum(sl.values()) == 24
    assert sl[(1, 2)] == 1  # identity
    assert sl[(2, 0)] == 1  # -identity
    nonsplit = det_coset_stats(2)
    assert sum(nonsplit.values()) == 24
    # det -1 coset: twelve involutions fixing a line, twelve of order 8
    assert nonsplit[(2, 1)] == 12
    assert nonsplit[(8, 0)] == 12
    with pytest.raises(ValueError):
        det_coset_stats(0)
    with pytest.raises(ValueError):
        det_coset_stats(3)


def test_fixed_dim_density():
    assert fixed_dim_density(2, 1) == Fraction(1, 2)
    assert fixed_dim_density(2, 0) == Fraction(1, 2)
    assert fixed_dim_density(2, 2) == 0
    assert sum(fixed_dim_density(1, i) for i in (0, 1, 2)) == 1
    assert fixed_dim_density(1, 2) == Fraction(1, 24)
    with pytest.raises(ValueError):
        fixed_dim_density(3, 0)
    with pytest.raises(ValueError):
        fixed_dim_density(1, 5)


# The tables are read off the conjugacy classes; these count the 48 matrices.
@pytest.mark.parametrize("d", [1, 2])
def test_det_coset_stats_counts_the_coset(d):
    hist = {}
    for g in enumerate_group():
        if det(g) == d:
            key = (brute_order(g), fixed_dim(g))
            hist[key] = hist.get(key, 0) + 1
    assert det_coset_stats(d) == hist


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_fixed_dim_density_counts_the_coset(d, i):
    count = sum(1 for g in enumerate_group() if det(g) == d and fixed_dim(g) == i)
    assert fixed_dim_density(d, i) == Fraction(count, 24)


def test_square_fixed_dim_holds_for_every_member():
    group = enumerate_group()
    inverse = {h: next(k for k in group if mul(h, k) == IDENTITY) for h in group}
    for cls, members in conjugacy_partition():
        rep = cls.representative
        assert members == {mul(mul(h, rep), inverse[h]) for h in group}
        for g in members:
            assert cls.square_fixed_dim == fixed_dim(mul(g, g))


@given(group_elem)
def test_fixed_dim_counts_fixed_vectors(g):
    import itertools

    fixed = sum(
        1
        for v in itertools.product(range(3), repeat=2)
        if ((g[0] * v[0] + g[1] * v[1]) % 3, (g[2] * v[0] + g[3] * v[1]) % 3) == v
    )
    assert fixed == 3 ** fixed_dim(g)


def test_sl2_squares_generate_sl2():
    squares = frozenset(mul(g, g) for g in sl2_elements())
    assert len(squares) == 10
    assert _closure(squares) == frozenset(sl2_elements())


def test_gl2_squares_generate_only_sl2():
    # the closure can fall short: GL2(F3) has SL2(F3) as a subgroup of index 2
    squares = frozenset(mul(g, g) for g in enumerate_group())
    assert len(squares) == 16
    assert _closure(squares) == frozenset(sl2_elements())


# the subgroup sweep is the oracle for the squares' closure
def test_sl2_has_no_order12_subgroup():
    assert len(sl2_elements()) == 24
    subgroups = sl2_subgroups()
    sizes = sorted(len(s) for s in subgroups)
    assert sizes == [1, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 6, 6, 8, 24]
    # every recorded subgroup really is closed
    for s in subgroups:
        assert all(mul(a, b) in s for a in s for b in s)
    assert sl2_no_index2_normal() is (12 not in sizes)


def test_match_class_identifies_every_class():
    for c in conjugacy_classes():
        rep = c.representative
        got = match_class(trace(rep), det(rep), fixed_dim(rep), fixed_dim(mul(rep, rep)))
        assert got == c


def test_match_class_rejects_impossible_signature():
    from selmerfan.errors import ConsistencyError

    with pytest.raises(ConsistencyError):
        match_class(0, 1, 2, 2)
