"""Crossing probabilities, rectangle geometry, and the cluster dictionary."""

import math
import random
import re

import mpmath
import numpy as np
import pytest

from mgffcross import coulomb, incidence, partition_fn, probability
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

    def at(y):
        ys = {i + 1: v for i, v in enumerate(y)}
        den = coulomb.evaluate(total, ys)
        probs = tuple(0.0 if c is None else float(coulomb.evaluate(c, ys) / den) for c in nums)
        return probs, max(coulomb.condition(c, ys) for c in nums if c is not None)

    return at


def assert_table_bits(npoints, configs):
    at = per_combo(npoints)
    for y in configs:
        probs, cond = at(y)
        assert outcome_distribution(npoints, y).probs == probs
        assert probability.condition(npoints, y) == cond


def test_table_matches_per_combo_bits_on_rectangles():
    Ls = [0.6 * 10.0 ** (k / 199) for k in range(200)]
    images = [rect_boundary_to_halfplane(RectanglePolygon.corners(L)) for L in Ls]
    assert_table_bits(4, images)


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


def test_table_keeps_numerators_bare_and_errors_unchanged():
    # the one table per point count is the only one: no numerator keeps a
    # table of its own, which would double the memory of the 8-point case
    nums = [num for _, num in probability._numerators(6) if num is not None]
    for num in nums:
        num._compiled = None  # other tests evaluate the cached combos directly
    y = random_points(6, random.Random(8))
    outcome_distribution(6, y)
    probability.condition(6, y)
    assert all(num._compiled is None for num in nums)
    # the point check refuses a mapping before the table reads it
    with pytest.raises(ValueError, match="strictly increasing"):
        outcome_distribution(4, {1: 0.0, 2: 1.0, 3: 1.0, 4: 3.0})
    with pytest.raises(ValueError, match="strictly increasing"):
        probability.condition(6, {1: 0.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 4.0, 6: 4.0})
    with pytest.raises(ValueError, match="strictly increasing"):
        outcome_distribution(4, {1: 0.0, 2: 2.0, 3: 1.0, 4: 3.0})


@pytest.mark.parametrize("spacing", [1e200, 1e-200])
def test_overflowing_points_are_scaled_by_a_power_of_two(spacing):
    y = (0.0, spacing, 2 * spacing, 3 * spacing)
    want = outcome_distribution(4, (0.0, 1.0, 2.0, 3.0)).probs
    assert outcome_distribution(4, y).probs == pytest.approx(want, rel=1e-15, abs=0.0)
    assert probability.condition(4, y) == pytest.approx(
        probability.condition(4, (0.0, 1.0, 2.0, 3.0)), rel=1e-15
    )
    assert cross_ratio(y) == pytest.approx(0.25, rel=1e-15)


def test_points_that_overflow_when_scaled_still_raise():
    y = (0.0, 1e-200, 1e200, 2e200)
    with pytest.raises(OverflowError, match="a term leaves the float range"):
        outcome_distribution(4, y)
    with pytest.raises(OverflowError, match="a term leaves the float range"):
        probability.condition(4, y)


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
@pytest.mark.parametrize("call", [outcome_distribution, probability.condition, cross_ratio])
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
    # numpy integers, which mpf refuses, enter the mp sums as floats
    assert outcome_distribution(4, np.arange(4), dps=30).probs == outcome_distribution(4, range(4)).probs


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
    for L in (0.5, 1.0, 2.0):
        R = RectanglePolygon.corners(L)
        y = rect_boundary_to_halfplane(R)
        k, _, _, _ = theta_moduli(2.0 / L)
        assert y[0] == pytest.approx(-1.0 / k, rel=1e-9)
        assert y[1] == pytest.approx(-1.0, rel=1e-9)
        assert y[2] == pytest.approx(1.0, rel=1e-9)
        assert y[3] == pytest.approx(1.0 / k, rel=1e-9)
        assert list(y) == sorted(y)


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
    for R in _marked(L):
        image = probability._BoundaryMap(L)
        for s, want in zip(R.marks, _ellipfun_images(R)):
            assert image(s) == pytest.approx(float(want), rel=1e-14, abs=1e-17)


@pytest.mark.parametrize("L", [25.0 ** (j / 6) for j in range(-6, 7)])
def test_corners_map_to_exact_images(L):
    # -1 and 1 exactly; +-1/k from one quotient, checked against ellipfun above
    image = probability._BoundaryMap(L)
    assert (image(0.0), image(L)) == (-1.0, 1.0)
    assert image(2.0 * L + 1.0) == -image(L + 1.0)
    with mpmath.workdps(30):
        image = probability._mp_boundary_map(L)
        assert (image(0.0), image(L)) == (mpmath.mpf(-1), mpmath.mpf(1))
        assert image(2.0 * L + 1.0) == -image(L + 1.0)


def test_corner_route_returns_the_bits_of_the_map():
    # the four corners skip the map exactly where its raw images are
    # finite and increasing, and otherwise fail the way it does
    Ls = [25.0 ** (j / 200) for j in range(-200, 201)] + [1e-3, 0.004, 30.0, 100.0]
    for L in Ls:
        R = RectanglePolygon.corners(L)
        try:
            want = probability._normalized(R, probability._BoundaryMap(L))
        except ArithmeticError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                rect_boundary_to_halfplane(R)
        else:
            assert rect_boundary_to_halfplane(R) == want


def test_corner_rectangle_builds_no_boundary_map(monkeypatch):
    def refuse(L):
        raise AssertionError("a boundary map was built")

    monkeypatch.setattr(probability, "_BoundaryMap", refuse)
    for L in (0.6, 1.0, 2.0, 2.5, 6.0):
        assert len(rectangle_distribution(RectanglePolygon.corners(L)).probs) == 3
    with pytest.raises(AssertionError, match="boundary map"):  # other marks still use it
        rect_boundary_to_halfplane(_marked(2.0)[1])


def test_corners_of_a_float32_ratio_are_those_of_its_float():
    L32 = np.float32(0.61082166)
    R32, R = RectanglePolygon.corners(L32), RectanglePolygon.corners(float(L32))
    assert R32 == R and all(type(m) is float for m in (R32.L, *R32.marks))
    assert rect_boundary_to_halfplane(R32) == rect_boundary_to_halfplane(R)
    y = rect_boundary_to_halfplane(R32)
    assert y[0] == -y[3]


@pytest.mark.parametrize("L", [6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0])
def test_long_rectangle_top_corner_is_the_nearest_float_to_one_over_k(L):
    # 1/k - 1 ~ 8 e^(-pi L/2) is the whole corner gap, and q(L) moves
    # with every ulp of 1/k
    with mpmath.workdps(50):
        inv_k = float(1 / mpmath.kfrom(q=mpmath.exp(-2 * mpmath.pi / L)))
    assert probability._BoundaryMap(L)(L + 1.0) == inv_k


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


@pytest.mark.parametrize("L", [10.0 ** (j / 4) for j in range(-12, 13)])
def test_halfplane_images_stay_finite_at_extreme_ratios(L):
    # sides at heights v where e^(pi v/L) < 1e273; the top edge and the
    # corners reach 1/k ~ e^(pi/L)/4, beyond float range for L < 0.0044
    v = min(0.2, 0.2 * L)
    marks = [0.0, 0.3 * L, 0.8 * L, L + v, 2 * L + 2 - v, 2 * L + 2 - v / 2]
    top = [L + 1.0, 1.3 * L + 1.0, 2.0 * L + 1.0]
    image = probability._BoundaryMap(L)
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
    q, one_minus_q = _lambda_mp(0.5)
    want = (one_minus_q**4, 2 * q * one_minus_q * (2 - q + q * q), q**4)
    got = rectangle_distribution(RectanglePolygon.corners(0.5), dps=30).probs
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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
    probability._reachable.cache_clear()
    cluster_pattern_table(4)
    assert partition_fn.fused_pure_partition.cache_info().misses == misses
