import itertools

import pytest

import oracles
from mgffcross.combinat import (
    LocalShape,
    dyck_from_pairing,
    enumerate_pairings,
    flip_min_to_max,
    leq,
    local_shape,
    make_pairing,
    pairing_from_dyck,
)
from mgffcross.incidence import (
    arrow_relation,
    incidence_matrix,
    inverse_incidence,
    inverse_row,
)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_arrow_relation_matches_permutation_definition(n):
    ps = enumerate_pairings(n)
    for a, b in itertools.product(ps, ps):
        assert arrow_relation(a, b) == oracles.brute_arrow_relation(a.links, b.links)


def test_arrow_relation_examples():
    a = make_pairing([(1, 2), (3, 4)])
    b = make_pairing([(1, 4), (2, 3)])
    assert arrow_relation(a, a) == 1
    assert arrow_relation(a, b) == 1
    assert arrow_relation(b, a) == 0
    with pytest.raises(ValueError):
        arrow_relation(a, make_pairing([(1, 2)]))


def test_frozen_small_matrices():
    assert incidence_matrix(1).entries == ((1,),)
    assert inverse_incidence(1).entries == ((1,),)
    m2 = incidence_matrix(2)
    # lexicographic Dyck order puts the zigzag {12}{34} first
    assert m2.order[0].links == ((1, 2), (3, 4))
    assert m2.order[1].links == ((1, 4), (2, 3))
    assert m2.entries == ((1, 1), (0, 1))
    assert inverse_incidence(2).entries == ((1, -1), (0, 1))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_inverse_is_exact(n):
    m = incidence_matrix(n)
    inv = inverse_incidence(n)
    k = m.size
    for i in range(k):
        for j in range(k):
            s = sum(m.entries[i][l] * inv.entries[l][j] for l in range(k))
            assert s == (1 if i == j else 0)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_unit_upper_triangular(n):
    m = incidence_matrix(n)
    for i, row in enumerate(m.entries):
        assert row[i] == 1
        assert all(v == 0 for v in row[:i])
        assert all(v in (0, 1) for v in row)
        assert sum(row) >= 1


@pytest.mark.parametrize("n", (2, 3, 4))
def test_inverse_support_is_the_pointwise_order(n):
    m = incidence_matrix(n)
    inv = inverse_incidence(n)
    # entry nonzero exactly when alpha <= beta pointwise
    paths = [dyck_from_pairing(p) for p in inv.order]
    for i, pa in enumerate(paths):
        for j, pb in enumerate(paths):
            assert (inv.entries[i][j] != 0) == leq(pa, pb)
    # M itself is supported on the same order
    for i, pa in enumerate(paths):
        for j, pb in enumerate(paths):
            if m.entries[i][j] and not leq(pa, pb):
                pytest.fail(f"M nonzero off-order at {pa}, {pb}")


@pytest.mark.parametrize("n", (2, 3, 4))
def test_inverse_sign_flip_under_min_raises(n):
    """Flipping a local minimum of the column path at a position where the
    row path has no local maximum negates the inverse entry."""
    inv = inverse_incidence(n)
    paths = [dyck_from_pairing(p) for p in inv.order]
    checked = 0
    for i, pa in enumerate(paths):
        for j, pb in enumerate(paths):
            for pos in range(1, 2 * n):
                if local_shape(pa, pos) is LocalShape.MAX:
                    continue
                if local_shape(pb, pos) is not LocalShape.MIN:
                    continue
                up = pairing_from_dyck(flip_min_to_max(pb, pos))
                assert inv.entries[i][j] == -inv.entries[i][inv.index(up)]
                # and the order equivalence backing the support statement
                assert leq(pa, pb) == leq(pa, flip_min_to_max(pb, pos))
                checked += 1
    assert checked > 0


def test_inverse_row_helper():
    row = inverse_row(make_pairing([(1, 2), (3, 4)]))
    assert [(p.links, c) for p, c in row] == [
        (((1, 2), (3, 4)), 1),
        (((1, 4), (2, 3)), -1),
    ]
