"""Crossing probabilities, rectangle geometry, and the cluster dictionary."""

import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from mgffcross import coulomb, incidence, partition_fn, probability
from mgffcross.cli import MAX_REL_ERROR
from mgffcross.combinat import enumerate_link_patterns, enumerate_pairings, tau
from mgffcross.probability import (
    OutcomeDistribution,
    RectanglePolygon,
    canonical_partition,
    cluster_pattern_table,
    cross_ratio,
    cross_ratio_rectangle,
    outcome_distribution,
    rect_boundary_to_halfplane,
    rectangle_distribution,
)

from oracles import (
    brute_cluster_pattern_table,
    connection_probability,
    theta_constants,
    theta_moduli,
    theta_modulus_from_ratio,
)


def random_points(n, rng, lo=0.25, hi=1.75):
    xs = [0.0]
    for _ in range(n - 1):
        xs.append(xs[-1] + rng.uniform(lo, hi))
    return tuple(xs)


def closed_forms_n2(q):
    """The three 4-point pattern probabilities in enumeration order."""
    return (
        (1 - q) ** 4,
        2 * q * (1 - q) * (2 - q + q * q),
        q ** 4,
    )


# ---------------------------------------------------------------------------
# cross ratio


def test_cross_ratio_frozen():
    assert cross_ratio((0.0, 1.0, 2.0, 3.0)) == pytest.approx(0.25, rel=1e-15)


def test_cross_ratio_needs_four_points():
    with pytest.raises(ValueError):
        cross_ratio((0.0, 1.0, 2.0))


def test_cross_ratio_affine_invariant():
    rng = random.Random(5)
    for _ in range(5):
        y = random_points(4, rng)
        a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)
        mapped = tuple(a * v + b for v in y)
        assert cross_ratio(mapped) == pytest.approx(cross_ratio(y), rel=1e-12)


def test_cross_ratio_mobius_invariant():
    # full fractional-linear map with the pole left of every point
    y = (0.0, 0.7, 1.9, 3.2)
    phi = lambda v: (2.0 * v + 3.0) / (v + 5.0)
    mapped = tuple(phi(v) for v in y)
    assert mapped == tuple(sorted(mapped))
    assert cross_ratio(mapped) == pytest.approx(cross_ratio(y), rel=1e-12)


# ---------------------------------------------------------------------------
# four-point closed forms


def test_four_point_distribution_matches_closed_forms():
    rng = random.Random(11)
    for _ in range(5):
        y = random_points(4, rng)
        q = cross_ratio(y)
        dist = outcome_distribution(4, y)
        want = closed_forms_n2(q)
        for got, ref in zip(dist.probs, want):
            assert got == pytest.approx(ref, rel=1e-10)


def test_four_point_frozen_values():
    dist = outcome_distribution(4, (0.0, 1.0, 2.0, 3.0))
    assert dist.probs[0] == pytest.approx(0.31640625, rel=1e-12)
    assert dist.probs[1] == pytest.approx(0.6796875, rel=1e-12)
    assert dist.probs[2] == pytest.approx(0.00390625, rel=1e-12)


def test_four_point_pattern_identity():
    # index 2 carries the doubled chords {1,4},{2,3}: the q^4 outcome
    dist = outcome_distribution(4, (0.0, 1.0, 2.0, 3.0))
    pats = enumerate_link_patterns((2, 2, 2, 2))
    assert dist.patterns == pats
    assert pats[2].links.count((1, 4)) == 2
    assert pats[2].links.count((2, 3)) == 2
    assert pats[0].links.count((1, 2)) == 2


# ---------------------------------------------------------------------------
# distributions at higher N


@pytest.mark.parametrize("npoints", [2, 4, 6])
def test_distribution_is_normalized(npoints):
    rng = random.Random(npoints)
    y = random_points(npoints, rng)
    dist = outcome_distribution(npoints, y)  # constructor checks sum == 1
    assert len(dist.patterns) == len(enumerate_link_patterns((2,) * npoints))
    assert all(p >= 0.0 for p in dist.probs)


def test_distribution_support_is_reachable_set():
    y = random_points(6, random.Random(3))
    dist = outcome_distribution(6, y)
    om = partition_fn.omega_pairing(6)
    for pat, prob in zip(dist.patterns, dist.probs):
        reachable = incidence.arrow_relation(om, tau(pat))
        assert (prob > 1e-12) == reachable


def test_crossing_probability_mobius_invariant():
    # same-weight covariance in numerator and denominator cancels, so the
    # probabilities only depend on the configuration up to fractional-linear
    # order-preserving maps
    rng = random.Random(17)
    y = random_points(4, rng)
    want = outcome_distribution(4, y).probs
    for a, b, c, d in ((1.7, 0.4, 0.0, 1.0), (1.0, 0.0, 0.05, 3.0), (0.6, -0.2, 0.1, 5.0)):
        phi = lambda v: (a * v + b) / (c * v + d)
        mapped = tuple(phi(v) for v in y)
        assert mapped == tuple(sorted(mapped))
        assert outcome_distribution(4, mapped).probs == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("npoints", [4, 6])
def test_probabilities_are_the_plain_ratio_of_evaluations(npoints):
    # the benchmark's replay divides the two evaluations itself and
    # expects the program's probabilities bit for bit
    rng = random.Random(60 + npoints)
    total = partition_fn.z_mgff_total(npoints)
    om = partition_fn.omega_pairing(npoints)
    for _ in range(3):
        y = random_points(npoints, rng)
        ys = {i + 1: v for i, v in enumerate(y)}
        dist = outcome_distribution(npoints, y)
        for p, prob in zip(dist.patterns, dist.probs):
            if incidence.arrow_relation(om, tau(p)):
                fused = partition_fn.fused_pure_partition(p)
                want = float(coulomb.evaluate(fused, ys) / coulomb.evaluate(total, ys))
                twin = coulomb.MonomialCombo(dict(fused.terms))
                assert coulomb.evaluate(twin, ys) == coulomb.evaluate(fused, ys)
            else:
                want = 0.0
            assert prob == want


def per_combo(npoints):
    """Probabilities and largest condition at a configuration, one
    evaluation per combo, as the benchmark's replay forms them; copies of
    the combos keep tables off the cached numerators."""
    om = partition_fn.omega_pairing(npoints)
    total = coulomb.MonomialCombo(dict(partition_fn.z_mgff_total(npoints).terms))
    nums = [
        coulomb.MonomialCombo(dict(partition_fn.fused_pure_partition(p).terms))
        if incidence.arrow_relation(om, tau(p))
        else None
        for p in enumerate_link_patterns((2,) * npoints)
    ]

    tables = [coulomb.Compiled((c,)) for c in nums if c is not None]

    def at(y):
        ys = {i + 1: v for i, v in enumerate(y)}
        den = coulomb.evaluate(total, ys)
        probs = tuple(0.0 if c is None else float(coulomb.evaluate(c, ys) / den) for c in nums)
        return probs, max(t.sums_and_conditions(ys)[1][0] for t in tables)

    return at


def assert_table_bits(npoints, configs):
    at = per_combo(npoints)
    for y in configs:
        probs, cond = at(y)
        assert outcome_distribution(npoints, y).probs == probs
        assert probability.conditioned_distribution(npoints, y)[1] == cond


def test_table_matches_per_combo_bits_on_rectangles():
    Ls = [0.6 * 10.0 ** (k / 199) for k in range(200)]
    images = [rect_boundary_to_halfplane(RectanglePolygon.corners(L)) for L in Ls]
    assert_table_bits(4, images)
    # the traced benchmark replays each corner rectangle this way: each
    # numerator over Z_total at the corner frame, read as a mapping
    at = per_combo(4)
    for L, y in zip(Ls, images):
        assert rectangle_distribution(RectanglePolygon.corners(L)).probs == at(y)[0]


def test_table_matches_per_combo_bits_at_six_points():
    rng = random.Random(66)
    configs = []
    for _ in range(50):
        y = random_points(6, rng, 0.05, 3.0)
        pole = y[0] - rng.uniform(0.2, 4.0)
        configs += [y, tuple(-1.0 / (v - pole) for v in y), tuple(-v for v in reversed(y))]
    assert_table_bits(6, configs)


def test_table_matches_per_combo_bits_at_eight_points():
    # reuses the fusion test_partition_fn::test_sum_rule[8] caches
    assert_table_bits(8, [(0.0, 1.0, 2.5, 3.0, 4.2, 5.0, 6.1, 7.7)])


def _outcome(call, *args):
    """call(*args), or the type and message of the error it raises."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("npoints, count", [(2, 30), (4, 60), (6, 60), (8, 15)])
def test_conditioned_distribution_is_the_outcome_distribution(npoints, count):
    # one pass gives the bits of `outcome_distribution`, or its error, and
    # the largest condition of the numerators evaluated one by one at the
    # points the table read: the `_centred` ones where the raw ones overflow
    at = per_combo(npoints)
    rng = random.Random(27 + npoints)
    for _ in range(count):
        gaps = [math.exp(rng.uniform(math.log(1e-5), math.log(10.0))) for _ in range(npoints - 1)]
        y = tuple(itertools.accumulate(gaps, initial=rng.uniform(-3.0, 3.0)))
        for scale in (1.0, 1e150, 1e-150):
            ys = tuple(v * scale for v in y)
            want = _outcome(outcome_distribution, npoints, ys)
            got = _outcome(probability.conditioned_distribution, npoints, ys)
            if isinstance(want, OutcomeDistribution):
                assert got[0].probs == want.probs
                assert got[1] == probability._scale_free(at, ys)[1]
            else:
                assert got == want


def test_table_keeps_numerators_bare_and_errors_unchanged():
    # the one table per point count is the only one: no numerator keeps a
    # table of its own, which would double the memory of the 8-point case
    model = probability._model(6)
    nums = [
        partition_fn.fused_pure_partition(p) for p, live in zip(model.patterns, model.live) if live
    ]
    for num in nums:
        num._compiled = None  # other tests evaluate the cached combos directly
    y = random_points(6, random.Random(8))
    outcome_distribution(6, y)
    probability.conditioned_distribution(6, y)[1]
    assert all(num._compiled is None for num in nums)
    # the point check refuses a mapping before the table reads it
    with pytest.raises(ValueError, match="strictly increasing"):
        outcome_distribution(4, {1: 0.0, 2: 1.0, 3: 1.0, 4: 3.0})
    with pytest.raises(ValueError, match="strictly increasing"):
        probability.conditioned_distribution(
            6, {1: 0.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 4.0, 6: 4.0}
        )[1]
    with pytest.raises(ValueError, match="strictly increasing"):
        outcome_distribution(4, {1: 0.0, 2: 2.0, 3: 1.0, 4: 3.0})


@pytest.mark.parametrize("spacing", [1e200, 1e-200])
def test_overflowing_points_are_scaled_by_a_power_of_two(spacing):
    y = (0.0, spacing, 2 * spacing, 3 * spacing)
    want = outcome_distribution(4, (0.0, 1.0, 2.0, 3.0)).probs
    assert outcome_distribution(4, y).probs == pytest.approx(want, rel=1e-15, abs=0.0)
    assert probability.conditioned_distribution(4, y)[1] == pytest.approx(
        probability.conditioned_distribution(4, (0.0, 1.0, 2.0, 3.0))[1], rel=1e-15
    )
    assert cross_ratio(y) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize(
    "y",
    [(0.0, 1.0, 2.0, 3.5), (0.0, 0.7, 1.5, 2.4, 3.0, 4.1), (0.0, 0.6, 1.5, 2.3, 3.1, 3.8, 4.9, 5.6)],
    ids=["4", "6", "8"],
)
def test_every_scale_of_the_points_gives_their_distribution(y):
    # far from 1 some partial products underflow before any overflows; a
    # lost term must send the points to `_centred`, not into the answer
    want = outcome_distribution(len(y), y).probs
    for k in range(-300, 301):
        got = outcome_distribution(len(y), tuple(v * 10.0**k for v in y)).probs
        assert got == pytest.approx(want, rel=0.0, abs=1e-13), k


def test_points_that_overflow_when_scaled_still_raise():
    y = (0.0, 1e-200, 1e200, 2e200)
    with pytest.raises(OverflowError, match="a term leaves the float range"):
        outcome_distribution(4, y)
    with pytest.raises(OverflowError, match="a term leaves the float range"):
        probability.conditioned_distribution(4, y)[1]


def test_distribution_as_json():
    y = (0.0, 1.0, 2.0, 3.0)
    dist = outcome_distribution(4, y)
    rows = dist.as_json()
    assert len(rows) == 3
    assert rows[2]["prob"] == dist.probs[2]
    assert rows[0]["pattern"] == [list(l) for l in dist.patterns[0].links]


def test_distribution_rejects_negative_probability():
    pats = enumerate_link_patterns((2, 2, 2, 2))
    with pytest.raises(ArithmeticError):
        OutcomeDistribution(pats, (1.0, 1e-16, -1e-16))
    with pytest.raises(ArithmeticError):
        OutcomeDistribution(pats, (math.nan,) * 3)


@pytest.mark.parametrize(
    "probs", [(0.5, math.nan, 0.5), (0.5, 0.5, math.inf), (math.nan, 0.5, 0.5), (-math.inf, 1.0, 1.0)]
)
def test_distribution_rejects_non_finite_probability_anywhere(probs):
    # min and max alone skip a NaN that is not first
    with pytest.raises(ArithmeticError, match="non-finite"):
        OutcomeDistribution(enumerate_link_patterns((2, 2, 2, 2)), probs)


class _GivenSums:
    """A stand-in for a model's table whose sums are given."""

    def __init__(self, sums):
        self.given = sums

    def sums(self, values, dps=None):
        return list(self.given)


@pytest.mark.parametrize(
    "sums, error",
    [
        ((1.0, 0.5, 0.6, -0.1), ArithmeticError),
        ((1.0, 0.5, math.nan, 0.5), ArithmeticError),
        ((1.0, 0.5, 0.25, 0.25 + 1e-9), ValueError),
        ((1.0, 0.5, 0.25, 0.25 - 1e-9), ValueError),
    ],
    ids=["negative", "nan", "over", "under"],
)
def test_table_route_keeps_every_distribution_check(monkeypatch, sums, error):
    # the distribution a table's sums make is checked as the constructor
    # checks the same entries
    model = probability._model(4)
    monkeypatch.setattr(model, "table", _GivenSums(sums))
    with pytest.raises(error) as table_route:
        outcome_distribution(4, (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(error) as constructor:
        OutcomeDistribution(model.patterns, tuple(s / sums[0] for s in sums[1:]))
    assert table_route.type is constructor.type is error


def test_unreachable_entries_are_positive_zeros(monkeypatch):
    y = (0.0, 0.7, 1.5, 2.4, 3.0, 4.1)
    model = probability._model(6)
    zeros = [i for i, k in enumerate(model.where) if not k]
    probs = outcome_distribution(6, y).probs
    assert zeros and all(math.copysign(1.0, probs[i]) == 1.0 for i in zeros)
    # a negative Z_total and numerators: each ratio is positive, and an
    # unreachable entry stays +0.0 rather than 0.0 / Z_total = -0.0
    nums = (-2.0,) * 4 + (-1.0,) * 8
    assert len(nums) == max(model.where)
    monkeypatch.setattr(model, "table", _GivenSums((-16.0, *nums)))
    probs = outcome_distribution(6, y).probs
    assert probs == tuple(nums[k - 1] / -16.0 if k else 0.0 for k in model.where)
    assert all(math.copysign(1.0, p) == 1.0 for p in probs)


def test_distribution_rejects_non_finite_or_unordered_points():
    for y in [(0.0, math.nan, 2.0, 3.0), (0.0, 1.0, 2.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            outcome_distribution(4, y)
    with pytest.raises(ValueError, match="increasing"):
        outcome_distribution(4, (0.0, 2.0, 1.0, 3.0))


@pytest.mark.parametrize(
    "y,match",
    [
        ({1: 0, 2: 2, 3: 1, 4: 3}, "increasing"),
        ({1: 0.0, 2: math.nan, 3: 2.0, 4: 3.0}, "finite"),
        ([0, 1, 2, 3, 100, 200], "need 4"),
        ({1: 0, 2: 1, 3: 2, 4: 3, 7: 9}, "labels"),
    ],
)
@pytest.mark.parametrize(
    "call", [outcome_distribution, probability.conditioned_distribution, cross_ratio]
)
def test_entry_points_check_points_alike(call, y, match):
    # a mapping is checked like a sequence, and extra points are refused
    with pytest.raises(ValueError, match=match):
        call(y) if call is cross_ratio else call(4, y)


def test_mp_points_keep_their_precision():
    with mpmath.workdps(50):
        y = [mpmath.mpf(0), mpmath.mpf(1), 1 + mpmath.mpf("1e-20"), mpmath.mpf(3)]
    seq = outcome_distribution(4, y, dps=50).probs
    assert seq == outcome_distribution(4, dict(enumerate(y, 1)), dps=50).probs
    assert seq[0] == pytest.approx(1.637e-51, rel=1e-3)
    assert seq[1] == pytest.approx(6e-20, rel=1e-6)
    # numpy integers, which mpf refuses, enter the mp sums through int()
    assert outcome_distribution(4, np.arange(4), dps=30).probs == outcome_distribution(4, range(4)).probs


def test_dps_reads_rational_and_numpy_integer_points_exactly():
    # cross ratio q = 1/4: the entries (1 - q)^4, 1 - (1 - q)^4 - q^4 and q^4
    # exactly, where 1/3 and 2/3 through float gave 0.31640624999999994
    y = (F(0), F(1, 3), F(2, 3), F(1))
    assert outcome_distribution(4, y, dps=50).probs == (81 / 256, 87 / 128, 1 / 256)
    # 2^53 + 1 keeps its last bit, which its float drops
    table = probability._model(4).table
    ints = (0, 1, 3, 2**53 + 1)
    assert table.sums(tuple(map(np.int64, ints)), dps=40) == table.sums(ints, dps=40)


# every dps entry reads these number types exactly; the float route reads
# them at the float of their value
NUMBER_TYPES = [float, int, F, np.float32, np.float64, mpmath.mpf]
TYPE_IDS = ["float", "int", "Fraction", "float32", "float64", "mpf"]


@pytest.mark.parametrize("num", NUMBER_TYPES, ids=TYPE_IDS)
@pytest.mark.parametrize("y", [(0, 1, 3, 4), (0, 1, 3, 4, 6, 9)])
def test_distribution_reads_every_number_type(num, y):
    # integer-valued points, exact in every type: the same answers as floats
    for dps in (None, 30):
        got = outcome_distribution(len(y), tuple(map(num, y)), dps=dps)
        assert got.probs == outcome_distribution(len(y), tuple(map(float, y)), dps=dps).probs


@pytest.mark.parametrize("num", NUMBER_TYPES, ids=TYPE_IDS)
@pytest.mark.parametrize(
    "L, marks",
    [(2, (5, 0, 2, 3)), (4, (9, 0, 1, 3, 6, 8))],
    ids=["corners", "six-marks"],
)
def test_rectangle_reads_every_number_type(num, L, marks):
    # the same images, equal mpfs at dps, and the same floats without it
    R = RectanglePolygon(num(L), tuple(map(num, marks)))
    ref = RectanglePolygon(float(L), tuple(map(float, marks)))
    for dps in (None, 30):
        assert rect_boundary_to_halfplane(R, dps) == rect_boundary_to_halfplane(ref, dps)
        assert rectangle_distribution(R, dps).probs == rectangle_distribution(ref, dps).probs


def test_rational_rectangle_is_read_exactly():
    # marks no float holds: the dps images are those of the exact rationals,
    # and the float images their nearest floats
    R = RectanglePolygon(F(2), (F(26, 5), 0, F(7, 10), 2, 3, F(39, 10)))
    exact = rect_boundary_to_halfplane(R, 40)
    rounded = RectanglePolygon(2.0, tuple(map(float, R.marks)))
    assert exact != rect_boundary_to_halfplane(rounded, 40)
    assert rect_boundary_to_halfplane(R) == tuple(map(float, exact))
    assert rectangle_distribution(R, dps=30).probs == pytest.approx(rectangle_distribution(R).probs, rel=1e-9)


# ---------------------------------------------------------------------------
# connection probabilities between pairings


@pytest.mark.parametrize("n", [1, 2, 3])
def test_connection_rows_sum_to_one(n):
    rng = random.Random(40 + n)
    x = random_points(2 * n, rng)
    for a in enumerate_pairings(n):
        total = 0.0
        for b in enumerate_pairings(n):
            p = connection_probability(a, b, x)
            if not incidence.arrow_relation(a, b):
                assert p == 0.0
            else:
                assert p > 0.0
            total += p
        assert total == pytest.approx(1.0, rel=1e-10)


def test_connection_probability_from_rainbow():
    # the fully nested pairing reaches only itself, so that row is certain
    from mgffcross.combinat import make_pairing

    rainbow = make_pairing([(1, 4), (2, 3)])
    x = (0.0, 1.0, 2.5, 3.0)
    assert connection_probability(rainbow, rainbow, x) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# elliptic modulus and rectangle cross ratio


def test_solve_modulus_square():
    k, kp, K, Kp = theta_moduli(1.0)
    assert k == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert kp == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert K == pytest.approx(Kp, rel=1e-15)


@pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0, 1.7, 3.0, 8.0])
def test_solve_modulus_against_theta_oracle(ratio):
    k, kp, K, Kp = theta_moduli(ratio)
    assert k == pytest.approx(theta_modulus_from_ratio(ratio), rel=1e-12, abs=1e-15)
    assert kp == pytest.approx(theta_modulus_from_ratio(1.0 / ratio), rel=1e-12, abs=1e-15)
    assert k * k + kp * kp == pytest.approx(1.0, rel=1e-14)
    assert Kp / K == pytest.approx(ratio, rel=1e-14)
    with mpmath.workdps(30):
        # K = (pi/2) theta3^2 at the nome e^(-pi ratio)
        want = mpmath.pi / 2 * mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * ratio)) ** 2
    assert K == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_solve_modulus_rejects_bad_ratio(bad):
    with pytest.raises(ValueError):
        theta_moduli(bad)


def test_cross_ratio_rectangle_is_the_generic_theta_series():
    # five terms of each theta series, smallest first, in either code
    def generic(L):
        th2, _, th4 = theta_constants(L)
        t2, t4 = th2**4, th4**4
        return (t2 if L >= 1.0 else t4) / (t2 + t4)

    Ls = [1e-3 * 1e6 ** (j / 9999) for j in range(10000)] + [0.5, 1.0, 2.0, 57.0]
    assert [cross_ratio_rectangle(L) for L in Ls] == [generic(L) for L in Ls]
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            cross_ratio_rectangle(bad)


def test_cross_ratio_rectangle_square():
    assert cross_ratio_rectangle(1.0) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("L", [0.2, 0.5, 0.8, 1.3, 2.0, 5.0, 1 / 25, 1 / 10, 15.0])
def test_cross_ratio_rectangle_duality(L):
    assert cross_ratio_rectangle(L) + cross_ratio_rectangle(1.0 / L) == pytest.approx(
        1.0, abs=1e-15
    )


def _lambda_mp(L):
    """q(L) and 1 - q(L) in mpmath, from the theta constants at nome e^(-pi L)."""
    with mpmath.workdps(60):
        nome = mpmath.exp(-mpmath.pi * mpmath.mpf(L))
        th2, th3, th4 = (mpmath.jtheta(j, 0, nome) for j in (2, 3, 4))
        return float((th2 / th3) ** 4), float((th4 / th3) ** 4)


def _rectangle_closed_forms(L):
    """`closed_forms_n2` at q(L), with 1 - q(L) from its own theta quotient."""
    q, one_minus_q = _lambda_mp(L)
    return (one_minus_q**4, 2 * q * one_minus_q * (2 - q + q * q), q**4)


@pytest.mark.parametrize("L", [1 / 25, 1 / 10, 0.15, 0.5, 1.0, 2.0, 12.0, 20.0, 25.0])
def test_cross_ratio_rectangle_against_jtheta(L):
    q, one_minus_q = _lambda_mp(L)
    assert cross_ratio_rectangle(L) == pytest.approx(q, rel=1e-12)
    # 1 - q through the dual ratio keeps its digits where 1 - q underflows
    # against 1 (about 1e-33 at L = 1/25)
    assert cross_ratio_rectangle(1.0 / L) == pytest.approx(one_minus_q, rel=1e-12)


def test_cross_ratio_rectangle_monotone():
    Ls = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    qs = [cross_ratio_rectangle(L) for L in Ls]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert qs[-1] < 0.05  # wide boxes make the long doubled crossing rare


# ---------------------------------------------------------------------------
# rectangle polygons and the boundary map


def test_corner_rectangle_marks():
    R = RectanglePolygon.corners(2.0)
    assert R.marks == (5.0, 0.0, 2.0, 3.0)
    assert R.perimeter == 6.0
    assert R.npoints == 4


def _built(make, L):
    try:
        R = make(L)
    except ValueError as exc:
        return str(exc)
    return R, [type(v) for v in (R.L, *R.marks)]


def test_corners_accept_and_reject_what_the_constructor_does():
    edges = [5e-324, 1e-17, 1e16, 8.9e307, 1e308, math.inf, math.nan, 0.0, -1.0]
    edges.append(np.float32(0.61082166))
    # each power of two and its neighbours, across the whole float range
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    near = [math.nextafter(x, d) for x in powers for d in (0.0, math.inf)]
    checked = lambda L: RectanglePolygon(float(L), probability._corner_marks(float(L)))
    seen = set()
    for L in edges + powers + near:
        got = _built(RectanglePolygon.corners, L)
        assert got == _built(checked, L), L
        seen.add(isinstance(got, str))
    assert seen == {False, True}
    assert _built(RectanglePolygon.corners, 1e-17) == "marked points must be in ccw cyclic order"
    assert _built(RectanglePolygon.corners, math.nan) == "aspect ratio must be positive and finite"


def test_rectangle_validation():
    with pytest.raises(ValueError):
        RectanglePolygon(0.0, (3.0, 0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        RectanglePolygon(1.0, (3.0, 0.5, 1.0, 2.0))  # y_2 off the origin
    with pytest.raises(ValueError):
        RectanglePolygon(1.0, (3.0, 0.0, 2.0, 1.0))  # out of cyclic order
    with pytest.raises(ValueError):
        RectanglePolygon(1.0, (3.0, 0.0, 1.0))  # odd count


@pytest.mark.parametrize("at", [0, 2, 3])
def test_rectangle_rejects_a_nan_mark(at):
    marks = [3.0, 0.0, 1.0, 2.0]
    marks[at] = math.nan
    with pytest.raises(ValueError, match="arc lengths"):
        RectanglePolygon(1.0, tuple(marks))


def test_rectangle_rejects_a_mark_at_the_perimeter():
    with pytest.raises(ValueError, match="arc lengths"):
        RectanglePolygon(1.0, (4.0, 0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="arc lengths"):
        RectanglePolygon(1.0, (3.0, 0.0, 1.0, -0.5))


def test_halfplane_images_of_corners():
    for L in (0.5, 1.0, 2.0, 15.0, 25.0):
        y = rect_boundary_to_halfplane(RectanglePolygon.corners(L))
        assert list(y) == sorted(set(y))
        assert cross_ratio(y) == pytest.approx(_lambda_mp(L)[0], rel=1e-12)


def test_halfplane_map_preserves_cross_ratio():
    for L in (0.5, 1.0, 3.0):
        y = rect_boundary_to_halfplane(RectanglePolygon.corners(L))
        assert cross_ratio(y) == pytest.approx(cross_ratio_rectangle(L), rel=1e-9)


def _ellipfun_images(R, dps=100):
    """Raw images of R's marks from mpmath.ellipfun.  k and k' come from
    their own nomes e^(-2 pi/L) and e^(-pi L/2), and dps 100 resolves
    1 - k'^2 ~ 1e-67 at L = 1/25."""
    with mpmath.workdps(dps):
        L = mpmath.mpf(R.L)
        k = mpmath.kfrom(q=mpmath.exp(-2 * mpmath.pi / L))
        kp = mpmath.kfrom(q=mpmath.exp(-mpmath.pi * L / 2))
        K, Kp = mpmath.ellipk(k**2), mpmath.ellipk(kp**2)
        sn = lambda x: mpmath.ellipfun("sn", 2 * K * (x - L / 2) / L, k=k)
        dn = lambda v: mpmath.ellipfun("dn", Kp * v, k=kp)
        out = []
        for s in map(mpmath.mpf, R.marks):
            if s <= L:
                out.append(sn(s))
            elif s <= L + 1:
                out.append(1 / dn(s - L))
            elif s <= 2 * L + 1:
                out.append(1 / (k * sn(2 * L + 1 - s)))
            else:
                out.append(-1 / dn(2 * L + 2 - s))
        return out


def _float_image(L):
    """The float route's image of a mark: the mpmath map at the route's
    working precision, rounded once."""
    with mpmath.workdps(probability._MAP_DPS):
        image = probability._mp_boundary_map(L)

    def rounded(s):
        with mpmath.workdps(probability._MAP_DPS):
            return float(image(s))

    return rounded


def _marked(L):
    """The corners, and six marks on every edge: y_1 on the left, y_2 at
    the origin, two on the bottom, one on the right and one on the top,
    whose raw images already increase."""
    six = (2 * L + 2 - 0.37, 0.0, 0.31 * L, 0.83 * L, L + 0.85, 1.45 * L + 1)
    return [RectanglePolygon.corners(L), RectanglePolygon(L, six)]


@pytest.mark.parametrize(
    "L",
    [25.0 ** (j / 6) for j in range(-6, 7)]
    + [math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0), 1.999, 2.001],
)
def test_halfplane_images_against_ellipfun(L):
    image = _float_image(L)
    for R in _marked(L):
        for s, want in zip(R.marks, _ellipfun_images(R)):
            assert abs(image(s) - float(want)) <= math.ulp(float(want))


@pytest.mark.parametrize("L", [1 / 64, 1 / 32])
def test_thin_rectangle_images_near_the_top_corners(L):
    # q = e^(-2 pi/L) lies below the epsilon of dps 30, so the side
    # quotient th2(iy)/th3(iy) would lose th3's q cosh(2y) term, which
    # nears 1 at the top corners; the edge midpoints map to 0 and inf
    R = RectanglePolygon(L, (2 * L + 1.99, 0.0, L + 0.6, L + 0.9, L + 0.99, 1.3 * L + 1.0))
    want = _ellipfun_images(R, 250)
    rounded = _float_image(L)
    for s, w in zip(R.marks, want):
        assert abs(rounded(s) - float(w)) <= math.ulp(float(w))
    assert (rounded(0.5 * L), rounded(1.5 * L + 1.0)) == (0.0, math.inf)
    with mpmath.workdps(30):
        image = probability._mp_boundary_map(L)
        for s, w in zip(R.marks, want):
            assert abs(image(s) - w) <= 1e-25 * abs(w)
        assert (image(0.5 * L), image(1.5 * L + 1.0)) == (0, mpmath.inf)


@pytest.mark.parametrize("L", [25.0 ** (j / 6) for j in range(-6, 7)])
def test_corners_map_to_exact_images(L):
    # -1 and 1 exactly; +-1/k from one quotient, checked against ellipfun above
    image = _float_image(L)
    assert (image(0.0), image(L)) == (-1.0, 1.0)
    assert image(2.0 * L + 1.0) == -image(L + 1.0)
    with mpmath.workdps(30):
        image = probability._mp_boundary_map(L)
        assert (image(0.0), image(L)) == (mpmath.mpf(-1), mpmath.mpf(1))
        assert image(2.0 * L + 1.0) == -image(L + 1.0)


def test_corner_rectangle_builds_no_boundary_map(monkeypatch):
    def refuse(L):
        raise AssertionError("a boundary map was built")

    monkeypatch.setattr(probability, "_mp_boundary_map", refuse)
    for L in (0.6, 1.0, 2.0, 2.5, 6.0, 15.0, 25.0):
        assert len(rectangle_distribution(RectanglePolygon.corners(L)).probs) == 3
    with pytest.raises(AssertionError, match="boundary map"):  # other marks still use it
        rect_boundary_to_halfplane(_marked(2.0)[1])


def test_corners_of_a_float32_ratio_are_those_of_its_float():
    L32 = np.float32(0.61082166)
    R32, R = RectanglePolygon.corners(L32), RectanglePolygon.corners(float(L32))
    assert R32 == R and all(type(m) is float for m in (R32.L, *R32.marks))
    assert rect_boundary_to_halfplane(R32) == rect_boundary_to_halfplane(R)
    six = (5.5, 0.0, 1.0, 2.0, 2.5, 4.0)  # the float route through mpmath
    want = rect_boundary_to_halfplane(RectanglePolygon(2.0, six))
    assert rect_boundary_to_halfplane(RectanglePolygon(np.float32(2.0), six)) == want
    assert rect_boundary_to_halfplane(RectanglePolygon(2.0, tuple(map(np.float32, six)))) == want


@pytest.mark.parametrize("L", [6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0])
def test_long_rectangle_top_corner_is_the_nearest_float_to_one_over_k(L):
    # a marked rectangle's top corners come from the map: rounded once,
    # 1/k keeps the gap 1/k - 1 ~ 8 e^(-pi L/2) to its last bit
    with mpmath.workdps(50):
        inv_k = float(1 / mpmath.kfrom(q=mpmath.exp(-2 * mpmath.pi / L)))
    assert _float_image(L)(L + 1.0) == inv_k


@pytest.mark.parametrize("L", [0.6, 1.0, 2.0, 6.0])
def test_six_mark_rectangle_keeps_y2_at_minus_one(L):
    y = rect_boundary_to_halfplane(_marked(L)[1])  # raw images, no Moebius move
    assert y[1] == -1.0


def test_rectangle_distribution_reads_its_own_images():
    # the benchmark's traced replay evaluates these images itself and
    # requires the program's bits
    rng = random.Random(16)
    for _ in range(200):
        R = RectanglePolygon.corners(math.exp(rng.uniform(math.log(0.6), math.log(6.0))))
        want = outcome_distribution(4, rect_boundary_to_halfplane(R)).probs
        assert rectangle_distribution(R).probs == want


def test_long_corner_rectangles_keep_their_relative_accuracy():
    # q sits in the frame's gap at 0, so q^4 keeps the relative accuracy
    # of q until it leaves the normal float range past L = 57
    for L in (57.0 ** (j / 99) for j in range(100)):
        got = rectangle_distribution(RectanglePolygon.corners(L)).probs
        assert got == pytest.approx(_rectangle_closed_forms(L), rel=1e-10, abs=0.0)


def test_corner_rectangles_are_right_or_refused():
    # each corner call raises, or has a condition number that `prob`
    # refuses, or matches the closed forms: no wrong answer passes unseen
    for j in range(401):
        L = 0.01 * 25000.0 ** (j / 400)
        R = RectanglePolygon.corners(L)
        try:
            got = rectangle_distribution(R).probs
        except ArithmeticError:
            continue
        cond = probability.conditioned_distribution(4, rect_boundary_to_halfplane(R))[1]
        if cond * 2.0**-53 > MAX_REL_ERROR:
            continue
        assert got == pytest.approx(_rectangle_closed_forms(L), rel=MAX_REL_ERROR, abs=0.0)


@pytest.mark.parametrize("L", [10.0 ** (j / 4) for j in range(-12, 13)])
def test_halfplane_images_stay_finite_at_extreme_ratios(L):
    # sides at heights v where e^(pi v/L) < 1e273; the top edge and the
    # corners reach 1/k ~ e^(pi/L)/4, beyond float range for L < 0.0044
    v = min(0.2, 0.2 * L)
    marks = [0.0, 0.3 * L, 0.8 * L, L + v, 2 * L + 2 - v, 2 * L + 2 - v / 2]
    top = [L + 1.0, 1.3 * L + 1.0, 2.0 * L + 1.0]
    image = _float_image(L)
    for s in marks + top:
        w = image(s)
        assert isinstance(w, float) and not math.isnan(w)
        assert math.isfinite(w) or (s in top and L < 0.0045)
    for R in _marked(L):
        try:
            y = rect_boundary_to_halfplane(R)
        except ArithmeticError as exc:  # collapsed or overflowing images
            assert type(exc) is ArithmeticError
        else:
            assert all(map(math.isfinite, y)) and list(y) == sorted(set(y))


@pytest.mark.parametrize("L", [0.6, 2.0, 6.0])
def test_halfplane_images_at_dps(L):
    for R in _marked(L):
        got = rect_boundary_to_halfplane(R, dps=30)
        assert all(isinstance(w, mpmath.mpf) for w in got)
        for w, want in zip(got, _ellipfun_images(R, 60)):
            assert abs(w - want) <= 1e-25 * abs(want)


def test_rectangle_distribution_at_dps_covers_the_geometry():
    # at L = 0.5 the float route is off by 2e-10 in (1-q)^4; dps=30
    # carries images and sums at 30 digits
    got = rectangle_distribution(RectanglePolygon.corners(0.5), dps=30).probs
    assert got == pytest.approx(_rectangle_closed_forms(0.5), rel=1e-14, abs=0.0)


def test_six_mark_rectangle_maps_and_normalizes():
    R = RectanglePolygon(2.0, (5.5, 0.0, 1.0, 2.0, 2.5, 4.0))
    y = rect_boundary_to_halfplane(R)
    assert len(y) == 6
    assert all(math.isfinite(v) for v in y)
    assert list(y) == sorted(y)
    dist = rectangle_distribution(R)  # constructor checks normalization
    assert len(dist.probs) == 15
    assert all(p >= 0.0 for p in dist.probs)


def test_rectangle_distribution_square():
    dist = rectangle_distribution(RectanglePolygon.corners(1.0))
    assert dist.probs[0] == pytest.approx(0.0625, rel=1e-10)
    assert dist.probs[1] == pytest.approx(0.875, rel=1e-10)
    assert dist.probs[2] == pytest.approx(0.0625, rel=1e-10)


def test_rectangle_distribution_reflection():
    wide = rectangle_distribution(RectanglePolygon.corners(2.0))
    tall = rectangle_distribution(RectanglePolygon.corners(0.5))
    assert wide.probs[0] == pytest.approx(tall.probs[2], rel=1e-9)
    assert wide.probs[2] == pytest.approx(tall.probs[0], rel=1e-9)
    assert wide.probs[1] == pytest.approx(tall.probs[1], rel=1e-9)
    assert wide.probs[2] < wide.probs[0]  # long doubled crossing is rarer


# ---------------------------------------------------------------------------
# cluster dictionary


def test_canonical_partition():
    assert canonical_partition([(3, 1), (2,)]) == ((1, 3), (2,))
    assert canonical_partition([]) == ()


def test_pattern_from_clusters_all_singletons_is_ring():
    singles = ((1,), (2,))
    pat = cluster_pattern_table(2)[singles, singles]
    assert sorted(pat.links) == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_pattern_from_clusters_wired_positive():
    pat = cluster_pattern_table(2)[((1, 2),), ((1,), (2,))]
    assert sorted(pat.links) == [(1, 4), (1, 4), (2, 3), (2, 3)]


def test_pattern_from_clusters_wired_negative():
    pat = cluster_pattern_table(2)[((1,), (2,)), ((1, 2),)]
    assert sorted(pat.links) == [(1, 2), (1, 2), (3, 4), (3, 4)]


def test_pattern_from_clusters_rejects_interleaving():
    # both sides wired: the positive and the negative cluster would cross
    assert (((1, 2),), ((1, 2),)) not in cluster_pattern_table(2)


@pytest.mark.parametrize("n,size", [(1, 1), (2, 3), (3, 12)])
def test_cluster_table_size(n, size):
    assert len(cluster_pattern_table(n)) == size


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cluster_table_bijects_onto_reachable_patterns(n):
    table = cluster_pattern_table(n)
    values = list(table.values())
    assert len(set(values)) == len(values)  # injective
    om = partition_fn.omega_pairing(2 * n)
    reachable = {
        p
        for p in enumerate_link_patterns((2,) * 2 * n)
        if incidence.arrow_relation(om, tau(p))
    }
    assert set(values) == reachable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cluster_table_entries_are_consistent(n):
    assert cluster_pattern_table(n) == brute_cluster_pattern_table(n)


def test_cluster_table_starts_no_fusion_build():
    misses = partition_fn.fused_pure_partition.cache_info().misses
    cluster_pattern_table.cache_clear()
    probability._model.cache_clear()
    cluster_pattern_table(4)
    assert partition_fn.fused_pure_partition.cache_info().misses == misses
