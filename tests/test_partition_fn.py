import math
from fractions import Fraction as F

import pytest

import oracles
from mgffcross import partition_fn as P
from mgffcross.combinat import (
    enumerate_link_patterns,
    enumerate_pairings,
    make_pairing,
    make_pattern,
    tau,
)
from mgffcross.coulomb import MonomialCombo, _canon_exponents, evaluate
from mgffcross.incidence import arrow_relation, inverse_row

X4 = (0.0, 1.0, 2.0, 3.0)


def test_constants():
    c = P.CONSTANTS
    assert c.kappa == 4.0
    assert c.h == F(1, 4)
    assert c.H == F(1)


def test_point_config():
    xs = (0.0, 1.5, 2.0)
    assert P.point_values(3, xs) is xs  # the warm tuple path copies nothing
    assert P.point_values(3, [0.0, 1.5, 2.0]) == xs
    assert P.point_values(3, {3: 2.0, 1: 0.0, 2: 1.5}) == xs
    assert P.point_values(6, range(6)) == (0, 1, 2, 3, 4, 5)
    for bad in [(1.0, 1.0), (0.0, math.inf), (0.0,), (0.0, 1.0, 2.0), {1: 0.0, 3: 1.0}]:
        with pytest.raises(ValueError):
            P.point_values(2, bad)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_theta_signs_split_by_endpoint_class(n):
    # U_a is one monomial: +1/2 on every pair of same-class endpoints
    # (both opening or both closing a link), -1/2 on every mixed pair
    for a in enumerate_pairings(n):
        opens = {x for x, _ in a.links}
        ((key, coeff),) = P.conformal_block(a).terms.items()
        assert coeff == 1
        want = {
            (i, j): 1 if (i in opens) == (j in opens) else -1
            for i in range(1, 2 * n + 1)
            for j in range(i + 1, 2 * n + 1)
        }
        assert dict(key) == want


def test_conformal_block_frozen_values():
    zz = make_pairing([(1, 2), (3, 4)])
    rb = make_pairing([(1, 4), (2, 3)])
    assert evaluate(P.conformal_block(zz), X4) == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert evaluate(P.conformal_block(rb), X4) == pytest.approx(1 / math.sqrt(12), rel=1e-15)
    # the block is one monomial with exponents +-1/2 by endpoint class
    ((key, coeff),) = P.conformal_block(zz).terms.items()
    assert coeff == 1
    assert dict(key) == {
        (1, 2): -1, (1, 3): 1, (1, 4): -1, (2, 3): -1, (2, 4): 1, (3, 4): -1,
    }


def test_pure_partition_is_the_inverse_row_combination():
    for n in (1, 2, 3):
        for a in enumerate_pairings(n):
            want = MonomialCombo.zero()
            for b, c in inverse_row(a):
                want = want + P.conformal_block(b).scale(c)
            assert P.pure_partition(a).terms == want.terms


def test_pure_partition_frozen_ratio():
    zz = make_pairing([(1, 2), (3, 4)])
    rb = make_pairing([(1, 4), (2, 3)])
    z = evaluate(P.pure_partition(zz), X4)
    u = evaluate(P.conformal_block(zz), X4)
    assert z / u == pytest.approx(0.75, rel=1e-14)
    # the rainbow is maximal, so its Z equals its block
    assert P.pure_partition(rb).terms == P.conformal_block(rb).terms


@pytest.mark.parametrize("n", (1, 2, 3))
def test_fuse_once_linked_removes_the_link(n):
    """Collapsing a linked adjacent pair reproduces the smaller pure
    partition function exactly, as symbolic combos.  The collapsed
    insertion keeps label j, so the smaller function's points shift by
    one from label j on."""
    for a in enumerate_pairings(n):
        for j in range(1, 2 * n):
            if (j, j + 1) not in a.links:
                continue
            got = P.fuse_once(a, j)
            if n == 1:
                assert got.terms == {(): F(1)}
            else:
                want = oracles.rename(
                    P.pure_partition(oracles.remove_link(a, j)),
                    {m: m + 1 for m in range(j, 2 * n - 1)},
                )
                assert got.terms == want.terms


def test_fuse_once_unlinked_matches_sympy_limit():
    rb = make_pairing([(1, 4), (2, 3)])
    pt = {1: F(0), 3: F(1), 4: F(2)}  # x2 collapses onto x1
    got = P.fuse_once(rb, 1)  # labels close up to 1..3
    mine = evaluate(got, {1: 0.0, 2: 1.0, 3: 2.0})
    want = float(oracles.sympy_fused_limit(P.pure_partition(rb), 1, 2, F(1, 2), pt))
    assert mine == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        P.fuse_once(rb, 4)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_fuse_once_equals_series_oracle(n):
    """The closed form over the inverse-incidence row equals the generic
    series extraction of Z_a, with every lower order checked to cancel,
    as symbolic combos for every pairing and every position."""
    for a in enumerate_pairings(n):
        z = P.pure_partition(a)
        for j in range(1, 2 * n):
            r = F(-1, 2) if (j, j + 1) in a.links else F(1, 2)
            want = oracles.fuse_pair(z, j, j + 1, j, r)
            shift = {k: k - 1 for k in range(j + 2, 2 * n + 1)}
            assert P.fuse_once(a, j).terms == oracles.rename(want, shift).terms


def test_fused_pure_partition_single_pair():
    p = make_pattern([(1, 2), (1, 2)])
    assert P.fused_pure_partition(p).terms == {(((1, 2), -4),): F(1)}


@pytest.mark.parametrize("npoints", (2, 4, 6))
def test_fused_pure_partition_equals_sequential_oracle(npoints):
    for p in enumerate_link_patterns((2,) * npoints):
        seq = oracles.sequential_fused_pure_partition(p)
        grp = P.fused_pure_partition(p)
        assert seq.terms == grp.terms


@pytest.mark.parametrize("npoints", (2, 4, 6, 8))
def test_sum_rule(npoints):
    """Reachable-pattern fused functions add up to the total mass."""
    om = P.omega_pairing(npoints)
    total = MonomialCombo.zero()
    for p in enumerate_link_patterns((2,) * npoints):
        if arrow_relation(om, tau(p)):
            total = total + P.fused_pure_partition(p)
    assert total.terms == P.z_mgff_total(npoints).terms


@pytest.mark.parametrize("npoints", (2, 4, 6, 8))
def test_term_streams_write_canonical_keys(npoints):
    """Each builder writes its keys sorted, pair-ordered and without zero
    exponents, so `collect` needs no canonicalising pass."""
    combos = [P.fused_pure_partition(p) for p in enumerate_link_patterns((2,) * npoints)]
    for a in enumerate_pairings(npoints // 2):
        combos.append(P.pure_partition(a))
        combos += [P.fuse_once(a, j) for j in range(1, npoints)]
    for c in combos:
        for key in c.terms:
            assert key == _canon_exponents(key)


def test_z_mgff_total_structure():
    z = P.z_mgff_total(4)
    ((key, coeff),) = z.terms.items()
    assert coeff == 1
    assert dict(key) == {
        (1, 2): -4, (1, 3): 4, (1, 4): -4, (2, 3): -4, (2, 4): 4, (3, 4): -4,
    }
    assert evaluate(z, X4) == pytest.approx(16 / 9, rel=1e-14)
    with pytest.raises(ValueError):
        P.z_mgff_total(3)


def test_omega_is_the_lift_of_the_all_doubled_pattern():
    for npoints in (2, 4, 6):
        doubled = make_pattern(
            [(2 * j - 1, 2 * j) for j in range(1, npoints // 2 + 1) for _ in (0, 1)]
        )
        assert P.omega_pairing(npoints) == tau(doubled)
