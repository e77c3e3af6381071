import math
from fractions import Fraction as F

import mpmath
import pytest

import oracles
from mgffcross import incidence, partition_fn
from mgffcross.combinat import enumerate_link_patterns, tau
from mgffcross.coulomb import (
    SERIES_ORDER_CAP,
    Compiled,
    MonomialCombo,
    condition,
    evaluate,
    fuse_pair,
    half_binomial,
    series_coefficient,
)
from mgffcross.errors import DivergenceError, TruncationLimitError


def _m(coeff, exps):
    return MonomialCombo.monomial(coeff, exps)


def test_half_binomial_against_product_formula():
    for e2 in range(-9, 10):
        a = F(e2, 2)
        for k in range(8):
            want = F(1)
            for i in range(k):
                want *= (a - i) / (i + 1)
            assert half_binomial(e2, k) == want
    # integer exponents reduce to ordinary binomials
    assert half_binomial(6, 2) == math.comb(3, 2)
    assert half_binomial(6, 5) == 0


def test_algebra_against_direct_evaluation():
    x = {1: 0.3, 2: 1.7, 3: 2.2}
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)})
    g = _m(F(-1, 4), {(1, 3): F(3, 2)})

    def direct_f(v):
        return (2 / 3) * (v[2] - v[1]) ** -0.5 * (v[3] - v[2]) ** 0.5

    def direct_g(v):
        return (-1 / 4) * (v[3] - v[1]) ** 1.5

    assert evaluate(f, x) == pytest.approx(direct_f(x), rel=1e-15)
    assert evaluate(f + g, x) == pytest.approx(direct_f(x) + direct_g(x), rel=1e-14)
    assert evaluate(f - g, x) == pytest.approx(direct_f(x) - direct_g(x), rel=1e-14)
    assert evaluate(f * g, x) == pytest.approx(direct_f(x) * direct_g(x), rel=1e-14)
    assert evaluate(f.scale(F(5, 2)), x) == pytest.approx(2.5 * direct_f(x), rel=1e-15)
    assert evaluate(3 * f, x) == pytest.approx(3 * direct_f(x), rel=1e-15)
    assert (f - f).is_zero()


def test_like_terms_merge_and_cancel():
    a = _m(F(1, 2), {(1, 2): F(1)})
    b = _m(F(1, 2), {(1, 2): F(1)})
    s = a + b
    assert len(s.terms) == 1 and list(s.terms.values()) == [F(1)]
    assert (a + a.scale(-1)).is_zero()
    # multiplying merges exponents on the shared pair
    p = _m(1, {(1, 2): F(1, 2)}) * _m(1, {(1, 2): F(3, 2)})
    ((key, c),) = p.terms.items()
    assert key == (((1, 2), 4),) and c == 1


def test_evaluate_mpmath_mode_and_positivity_guard():
    f = _m(1, {(1, 2): F(-1, 2)})
    v = evaluate(f, {1: 0.0, 2: 4.0}, dps=40)
    assert isinstance(v, mpmath.mpf)
    assert mpmath.almosteq(v, mpmath.mpf("0.5"), rel_eps=mpmath.mpf("1e-38"))
    with pytest.raises(ValueError):
        evaluate(f, {1: 4.0, 2: 0.0})  # negative base under a half power
    g = _m(1, {(1, 2): F(-1)})
    assert evaluate(g, {1: 4.0, 2: 0.0}) == -0.25  # integer powers are fine
    with pytest.raises((ValueError, ZeroDivisionError)):
        evaluate(g, {1: 1.0, 2: 1.0})


def test_integer_powers_of_mixed_sign_bases_against_direct_product():
    # x2 < x3 < x1 < x4: the bases of (1, 2) and (1, 3) are negative, all powers integral
    x = {1: 2.5, 2: -0.75, 3: 1.25, 4: 3.0}
    c = (
        _m(F(3, 2), {(1, 2): F(1), (1, 3): F(-3), (3, 4): F(2)})
        + _m(-5, {(1, 2): F(-2), (2, 3): F(1), (2, 4): F(-1)})
        + _m(F(1, 7), {(1, 2): F(3), (1, 4): F(1), (2, 3): F(-2)})
    )
    d = lambda a, b: x[b] - x[a]
    want = (
        1.5 * d(1, 2) * d(1, 3) ** -3 * d(3, 4) ** 2
        - 5 * d(1, 2) ** -2 * d(2, 3) / d(2, 4)
        + d(1, 2) ** 3 * d(1, 4) * d(2, 3) ** -2 / 7
    )
    assert evaluate(c, x) == pytest.approx(want, rel=1e-14)
    assert float(evaluate(c, x, dps=30)) == pytest.approx(want, rel=1e-14)


def test_condition_number():
    x = {1: 0.0, 2: 1.0, 3: 3.0}
    f = _m(2, {(1, 2): F(1, 2), (2, 3): F(-1)})
    assert condition(f, x) == 1.0
    g = f + _m(-1, {(1, 3): F(1, 2)})  # the terms 1 and -sqrt(3)
    want = (1 + math.sqrt(3)) / (math.sqrt(3) - 1)
    assert condition(g, x) == pytest.approx(want, rel=1e-12)


def test_table_of_combos_gives_each_combo_its_own_bits():
    # a table over the union of the pairs: each combo's sum, condition and
    # mpmath value equal those of the combo compiled alone
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    g = _m(F(5, 3), {(3, 4): F(-2), (1, 4): F(1, 2)}) + _m(3, {(2, 4): F(1)})
    combos = (f, g, MonomialCombo.zero(), MonomialCombo.constant(F(1, 3)), f * g)
    table = Compiled(combos)
    x = {1: 0.3, 2: 1.7, 3: 2.2, 4: 5.1}
    alone = [MonomialCombo(dict(c.terms)) for c in combos]
    assert table.sums(x) == [evaluate(c, x) for c in alone]
    assert table.sums(x, dps=30) == [evaluate(c, x, dps=30) for c in alone]
    assert table.conditions(x)[:2] == [condition(c, x) for c in alone[:2]]
    assert table.conditions(x)[2] == math.inf
    # the table checks every pair any combo uses: f alone is defined here
    below = {1: 0.3, 2: 1.7, 3: 2.2, 4: 0.1}
    assert math.isfinite(evaluate(alone[0], below))
    with pytest.raises(ValueError, match="half-integer"):
        table.sums(below)
    with pytest.raises(ValueError, match="coincident"):
        table.sums({1: 0.3, 2: 1.7, 3: 2.2, 4: 2.2})
    assert Compiled(()).sums(x) == []


@pytest.mark.parametrize("npoints", [4, 6])
def test_float_route_within_condition_bound_of_mpmath(npoints):
    # every reachable fused numerator: |float - exact| <= cond * 2^-53 * 8 * |exact|
    om = partition_fn.omega_pairing(npoints)
    combos = [
        partition_fn.fused_pure_partition(p)
        for p in enumerate_link_patterns((2,) * npoints)
        if incidence.arrow_relation(om, tau(p))
    ]
    configs = [(0.0, 1.0, 2.5, 3.0, 4.2, 5.0)[:npoints], (-1.0, 0.1, 0.4, 2.0, 2.2, 7.5)[:npoints]]
    for y in configs:
        x = {i + 1: v for i, v in enumerate(y)}
        for c in combos:
            exact = evaluate(c, x, dps=50)
            err = abs(evaluate(c, x) - exact) / abs(exact)
            assert err <= condition(c, x) * 2.0**-53 * 8


def test_rename_orientation_rules():
    f = _m(F(3), {(1, 2): F(1)})  # (x2-x1)^1
    flipped = f.rename({1: 2, 2: 1})
    ((key, c),) = flipped.terms.items()
    assert key == (((1, 2), 2),) and c == -3  # odd integer power flips sign
    g = _m(1, {(1, 2): F(2)})
    assert g.rename({1: 2, 2: 1}).terms == g.terms  # even power, no sign
    h = _m(1, {(1, 2): F(1, 2)})
    with pytest.raises(ValueError):
        h.rename({1: 2, 2: 1})  # half power cannot flip
    with pytest.raises(ValueError):
        f.rename({1: 3, 2: 3})
    shifted = h.rename({1: 5, 2: 7})
    assert list(shifted.terms) == [(((5, 7), 1),)]


def _random_combo(rng, labels=(1, 2, 3, 4)):
    terms = MonomialCombo.zero()
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    for _ in range(3):
        exps = {}
        for p in pairs:
            e2 = rng.integers(-3, 4)
            if e2:
                exps[p] = F(int(e2), 2)
        coeff = F(int(rng.integers(-8, 9)) or 1, int(rng.integers(1, 5)))
        terms = terms + _m(coeff, exps)
    return terms


@pytest.mark.parametrize("order", (F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)))
def test_series_coefficient_matches_sympy(order):
    import numpy as np

    rng = np.random.default_rng(7)
    pt = {1: F(0), 2: F(1), 3: F(5, 2)}  # label 4 collapses onto 3
    for trial in range(3):
        c = _random_combo(rng)
        mine = series_coefficient(c, 3, 4, order)
        got = float(evaluate(mine, {k: float(v) for k, v in pt.items()})) if not mine.is_zero() else 0.0
        want = float(oracles.sympy_series_coefficient(c, 3, 4, order, pt))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_series_requires_adjacency_and_half_integer_order():
    c = _m(1, {(1, 3): F(1, 2), (2, 3): F(1, 2)})
    with pytest.raises(ValueError):
        series_coefficient(c, 1, 3, F(1, 2))  # label 2 sits between
    c2 = _m(1, {(1, 2): F(1, 2)})
    with pytest.raises(ValueError):
        series_coefficient(c2, 1, 2, F(1, 3))


def test_fuse_pair_leading_order():
    # (x2-x1)^(-1/2) (x3-x2)^(-1/2) (x3-x1)^(1/2), collapse 2 -> 1
    c = _m(1, {(1, 2): F(-1, 2), (2, 3): F(-1, 2), (1, 3): F(1, 2)})
    out = fuse_pair(c, 1, 2, 1, F(-1, 2))
    # remaining dependence cancels to (x3-x1)^0 = 1
    assert out.terms == {(): F(1)} or out.terms == {}
    assert evaluate(out, {1: 0.0, 3: 2.0}) == pytest.approx(1.0)


def test_fuse_pair_matches_sympy_limit_and_richardson():
    import numpy as np

    rng = np.random.default_rng(11)
    pt = {1: F(0), 2: F(1), 3: F(5, 2)}
    ptf = {k: float(v) for k, v in pt.items()}
    for trial in range(4):
        c = _random_combo(rng)
        key = min(c.terms)
        lead2 = dict(key).get((3, 4), 0)
        lead = min(F(dict(k).get((3, 4), 0), 2) for k in c.terms)
        fused = fuse_pair(c, 3, 4, 3, lead)
        mine = float(evaluate(fused, ptf))
        want = float(oracles.sympy_fused_limit(c, 3, 4, lead, pt))
        assert mine == pytest.approx(want, rel=1e-12, abs=1e-12)

        def at_eps(eps):
            vals = dict(ptf)
            vals[4] = mpmath.mpf(ptf[3]) + eps
            return evaluate(c, vals, dps=40)

        # mixed exponent parities advance the series in half-integer steps
        rich = oracles.richardson_collapse(
            at_eps, float(lead), gaps=(1e-3, 1e-4, 1e-5, 1e-6), step=0.5
        )
        assert mine == pytest.approx(rich, rel=1e-6, abs=1e-9)


def test_fuse_pair_divergence_and_truncation():
    c = _m(1, {(1, 2): F(-1, 2)})
    with pytest.raises(DivergenceError):
        fuse_pair(c, 1, 2, 1, F(1, 2))  # the -1/2 order survives below
    with pytest.raises(TruncationLimitError):
        fuse_pair(c, 1, 2, 1, F(-1, 2) + SERIES_ORDER_CAP + 1)
    # exact cancellation of the leading order is fine
    d = _m(1, {(1, 2): F(-1, 2), (1, 3): F(1)}) - _m(1, {(1, 2): F(-1, 2), (2, 3): F(1)})
    out = fuse_pair(d, 1, 2, 1, F(1, 2))
    # (x3-x1) - (x3-x2) = x2-x1 -> eps exactly, so the limit is 1
    assert out.terms == {(): F(1)}


def test_fuse_pair_relabels_to_target():
    # (x3-x2)(x3-x1) collapses to eps * (x2-x1) at x3 = x2 + eps
    c = _m(1, {(2, 3): F(1), (1, 3): F(1)})
    out = fuse_pair(c, 2, 3, 2, F(1))
    assert out.terms == {(((1, 2), 2),): F(1)}
    # and the fused label can move elsewhere
    moved = fuse_pair(c, 2, 3, 9, F(1))
    assert set(moved.variables()) == {1, 9}
