import itertools
import math

import pytest

import oracles
from mgffcross import combinat as C
from mgffcross.combinat import (
    DyckPath,
    LinkPattern,
    LocalShape,
    PairPartition,
    dyck_from_pairing,
    enumerate_dyck_paths,
    enumerate_link_patterns,
    enumerate_pairings,
    flip_min_to_max,
    leq,
    local_shape,
    make_pairing,
    make_pattern,
    pairing_from_dyck,
    tau,
)
from mgffcross.errors import CapacityError


def test_catalan_values():
    assert [C.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(12):
        assert C.catalan(n) == math.comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_dyck_enumeration_matches_brute_force(n):
    paths = enumerate_dyck_paths(n)
    assert len(paths) == C.catalan(n)
    assert sorted(p.heights for p in paths) == oracles.brute_dyck_heights(n)
    # lexicographic in height sequence, no duplicates
    assert list(paths) == sorted(set(paths))


def test_dyck_validation():
    with pytest.raises(ValueError):
        DyckPath((0, 1, 2))  # does not return to 0
    with pytest.raises(ValueError):
        DyckPath((0, 1, 0, -1, 0))  # dips below 0
    with pytest.raises(ValueError):
        DyckPath((0, 2, 0))  # step size 2
    with pytest.raises(ValueError):
        DyckPath((1, 2, 1))  # starts above 0


def test_local_shapes():
    w = DyckPath((0, 1, 0, 1, 0))
    assert local_shape(w, 1) is LocalShape.MAX
    assert local_shape(w, 2) is LocalShape.MIN
    assert local_shape(w, 3) is LocalShape.MAX
    tall = DyckPath((0, 1, 2, 1, 0))
    assert local_shape(tall, 1) is LocalShape.SLOPE
    assert local_shape(tall, 2) is LocalShape.MAX
    with pytest.raises(ValueError):
        local_shape(w, 0)
    with pytest.raises(ValueError):
        local_shape(w, 4)


def test_flip_min_to_max_moves_up_in_order():
    w = DyckPath((0, 1, 0, 1, 0))
    up = flip_min_to_max(w, 2)
    assert up.heights == (0, 1, 2, 1, 0)
    assert leq(w, up) and not leq(up, w)
    with pytest.raises(ValueError):
        flip_min_to_max(w, 1)  # that's a max


def test_leq_is_a_partial_order():
    paths = enumerate_dyck_paths(3)
    for a in paths:
        assert leq(a, a)
    for a, b in itertools.permutations(paths, 2):
        if leq(a, b) and leq(b, a):
            assert a == b
    for a, b, c in itertools.product(paths, repeat=3):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)
    bottom = DyckPath((0, 1, 0, 1, 0, 1, 0))
    top = DyckPath((0, 1, 2, 3, 2, 1, 0))
    assert all(leq(bottom, p) and leq(p, top) for p in paths)


@pytest.mark.parametrize("n", range(1, 5))
def test_pairings_match_brute_force(n):
    ps = enumerate_pairings(n)
    assert sorted(p.links for p in ps) == oracles.brute_noncrossing_pairings(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_pairing_dyck_bijection(n):
    for path in enumerate_dyck_paths(n):
        assert dyck_from_pairing(pairing_from_dyck(path)) == path
    for p in enumerate_pairings(n):
        assert pairing_from_dyck(dyck_from_pairing(p)) == p


def test_pairing_endpoint_split():
    p = make_pairing([(1, 4), (2, 3)])
    assert p.ups == frozenset({1, 2})
    # the cached set holds the opening end of every link ...
    for n in range(1, 5):
        for q in enumerate_pairings(n):
            assert q.ups == {a for a, _ in q.links}
    # ... and plays no part in equality or repr
    assert p == make_pairing([(2, 3), (1, 4)]) and "ups" not in repr(p)


def test_pairing_validation():
    with pytest.raises(ValueError):
        make_pairing([(1, 3), (2, 4)])  # crossing
    with pytest.raises(ValueError):
        make_pairing([(1, 2), (2, 3)])  # reused point
    with pytest.raises(ValueError):
        make_pairing([(1, 2), (4, 5)])  # gap in labels


def test_remove_link():
    p = make_pairing([(1, 2), (3, 4)])
    assert oracles.remove_link(p, 3).links == ((1, 2),)
    nested = make_pairing([(1, 4), (2, 3)])
    assert oracles.remove_link(nested, 2).links == ((1, 2),)
    with pytest.raises(ValueError):
        oracles.remove_link(nested, 1)


def test_link_pattern_counts():
    # valence-2 patterns on 2, 4, 6, 8 points
    for npoints, count in ((2, 1), (4, 3), (6, 15), (8, 91)):
        assert len(enumerate_link_patterns((2,) * npoints)) == count


@pytest.mark.parametrize("npoints", (2, 4, 6))
def test_link_patterns_match_brute_force(npoints):
    pats = enumerate_link_patterns((2,) * npoints)
    assert sorted(p.links for p in pats) == oracles.brute_valence2_patterns(npoints)


def test_pattern_validation():
    with pytest.raises(ValueError):
        make_pattern([(1, 3), (1, 3), (2, 4), (2, 4)])  # doubled crossing
    ring = make_pattern([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert ring.valences == (2, 2, 2, 2)
    doubled = make_pattern([(1, 2), (1, 2), (3, 4), (3, 4)])
    assert doubled.links.count((1, 2)) == 2


@pytest.mark.parametrize("npoints", (2, 4, 6, 8))
def test_tau_is_the_unique_noncrossing_lift(npoints):
    pats = enumerate_link_patterns((2,) * npoints)
    seen = set()
    for p in pats:
        lift = tau(p)
        assert isinstance(lift, PairPartition)
        assert lift.n == npoints  # 2*npoints slots
        # projecting slots back to points recovers the pattern
        proj = sorted(tuple(sorted(((a + 1) // 2, (b + 1) // 2))) for a, b in lift.links)
        assert tuple(proj) == p.links
        # no chord joins the two slots of one point
        assert all((a + 1) // 2 != (b + 1) // 2 for a, b in lift.links)
        seen.add(lift)
    assert len(seen) == len(pats)  # injective


def test_tau_frozen_four_point_dictionary():
    cases = {
        ((1, 2), (1, 2), (3, 4), (3, 4)): ((1, 4), (2, 3), (5, 8), (6, 7)),
        ((1, 2), (1, 4), (2, 3), (3, 4)): ((1, 8), (2, 3), (4, 5), (6, 7)),
        ((1, 4), (1, 4), (2, 3), (2, 3)): ((1, 8), (2, 7), (3, 6), (4, 5)),
    }
    for links, lift in cases.items():
        assert tau(make_pattern(links)).links == lift


def test_all_valence2_lifts_are_unique():
    for npoints in (2, 4, 6):
        free = list(C._slot_lifts((2,) * npoints))
        pats = enumerate_link_patterns((2,) * npoints)
        # every free matching projects to a distinct pattern
        assert len(free) == len(pats)
        for p in pats:
            assert len(list(C._slot_lifts(p.valences, p.links))) == 1


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_dyck_paths(40)
    with pytest.raises(CapacityError):
        enumerate_link_patterns((2,) * 40)
