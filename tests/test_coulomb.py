import math
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

import oracles
from mgffcross import incidence, partition_fn, probability
from mgffcross.combinat import enumerate_link_patterns, tau
from mgffcross.coulomb import Compiled, MonomialCombo, condition, evaluate
from oracles import (
    SERIES_ORDER_CAP,
    DivergenceError,
    TruncationLimitError,
    fuse_pair,
    half_binomial,
    series_coefficient,
)


def _m(coeff, exps):
    return MonomialCombo.monomial(coeff, exps)


# The generic series extractor lives in `oracles` as the reference for
# `partition_fn.fuse_once`; these tests keep it honest.


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
    assert evaluate(f + g.scale(-1), x) == pytest.approx(direct_f(x) - direct_g(x), rel=1e-14)
    assert evaluate(f.scale(F(5, 2)), x) == pytest.approx(2.5 * direct_f(x), rel=1e-15)
    assert (f + f.scale(-1)).is_zero()


def test_like_terms_merge_and_cancel():
    a = _m(F(1, 2), {(1, 2): F(1)})
    b = _m(F(1, 2), {(1, 2): F(1)})
    s = a + b
    assert len(s.terms) == 1 and list(s.terms.values()) == [F(1)]
    assert (a + a.scale(-1)).is_zero()
    # a monomial merges repeated exponents on one pair
    p = _m(1, [((1, 2), F(1, 2)), ((1, 2), F(3, 2))])
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
    # four terms over all six pairs
    h = (
        _m(F(10, 9), {(1, 2): F(-1, 2), (2, 3): F(1, 2), (3, 4): F(-2), (1, 4): F(1, 2)})
        + _m(2, {(1, 2): F(-1, 2), (2, 3): F(1, 2), (2, 4): F(1)})
        + _m(F(-5, 21), {(1, 3): F(3), (3, 4): F(-2), (1, 4): F(1, 2)})
        + _m(F(-3, 7), {(1, 3): F(3), (2, 4): F(1)})
    )
    combos = (f, g, MonomialCombo.zero(), MonomialCombo({(): F(1, 3)}), h)
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


@pytest.mark.parametrize("npoints, factors", [(4, 19), (6, 57), (8, 109)])
def test_table_computes_only_the_factors_it_gathers(npoints, factors):
    table = probability._table(npoints)
    assert len(table.base) == len(table.e2) == factors
    # each (pair, power) factor some term takes, d^0 of a pair it lacks included
    combos = [partition_fn.z_mgff_total(npoints)]
    combos += [num for _, num in probability._numerators(npoints) if num is not None]
    col = {pair: j for j, pair in enumerate(table.pairs)}
    want = set()
    for c in combos:
        for key in c.terms:
            want.update((col[pair], e2) for pair, e2 in key)
            if len(key) < len(col):
                want.update((col[pair], 0) for pair in col.keys() - dict(key).keys())
    assert sorted(zip(table.base.tolist(), table.e2.tolist())) == sorted(want)
    gathered = set().union(*(np.unique(block).tolist() for block in table.slots))
    assert gathered == set(range(factors))


@pytest.mark.parametrize("npoints, terms, keys", [(4, 15, 7), (6, 983, 184), (8, 139038, 8642)])
def test_table_forms_one_product_per_distinct_key(npoints, terms, keys):
    table = probability._table(npoints)
    combos = [partition_fn.z_mgff_total(npoints)]
    combos += [num for _, num in probability._numerators(npoints) if num is not None]
    in_order = [key for c in combos for key in c.terms]
    assert len(table.key_of) == len(table.coef) == len(in_order) == terms
    assert sum(block.shape[1] for block in table.slots) == keys
    # the keys in first-seen order, each term pointing at its own
    distinct = list(dict.fromkeys(in_order))
    assert len(distinct) == keys
    assert [distinct[k] for k in table.key_of.tolist()] == in_order


def test_combos_sharing_keys_keep_their_bits_in_both_routes():
    # the same keys in other orders and with other coefficients, so each
    # term must read its own key's factors in the float and the dps route
    keys = [
        {(1, 2): F(-1, 2), (2, 3): F(1, 2)},
        {(1, 3): F(3), (2, 4): F(1)},
        {(1, 2): F(1), (3, 4): F(-3, 2), (1, 4): F(1, 2)},
        {(2, 3): F(5, 2)},
        {},
    ]
    coefs = [F(2, 3), F(-1, 7), F(10, 9), F(-5, 21), F(3)]
    combos = [
        sum((_m(c, keys[i]) for c, i in zip(coefs, order)), MonomialCombo.zero())
        for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0], [2, 0], [4, 3, 2, 1, 0], [1])
    ]
    table = Compiled(combos)
    assert len(table.key_of) == 17 and sum(b.shape[1] for b in table.slots) == 5
    x = {1: 0.3, 2: 1.7, 3: 2.2, 4: 5.1}
    alone = [MonomialCombo(dict(c.terms)) for c in combos]
    assert table.sums(x) == [evaluate(c, x) for c in alone]
    assert table.conditions(x) == [condition(c, x) for c in alone]
    want = [evaluate(c, x, dps=50) for c in alone]
    assert table.sums(x, dps=50) == want
    assert all(math.isclose(w, v, rel_tol=1e-13) for w, v in zip(want, table.sums(x)))


def test_empty_table_has_no_sums():
    x = {1: 0.3, 2: 1.7}
    assert Compiled(()).sums(x) == []
    assert Compiled(()).conditions(x) == []


def test_table_reads_a_sequence_as_labels_from_one():
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    table = Compiled((f,))
    y = (0.3, 1.7, 2.2)
    assert table.sums(y) == table.sums(dict(enumerate(y, 1)))
    assert table.conditions(list(y)) == table.conditions(dict(enumerate(y, 1)))
    with pytest.raises(ValueError, match="no value for variable 3"):
        table.sums(y[:2])
    with pytest.raises(ValueError, match="no value for variable 0"):
        Compiled((_m(1, {(0, 1): F(1)}),)).sums(y)


@pytest.mark.parametrize("spacing", [1e200, 1e-200])
def test_overflowing_terms_raise_from_sums_and_conditions(spacing):
    table = probability._table(4)
    x = (0.0, spacing, 2 * spacing, 3 * spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the float pass keeps numpy quiet
        with pytest.raises(OverflowError, match="a term leaves the float range"):
            table.sums(x)
        with pytest.raises(OverflowError, match="a term leaves the float range"):
            table.conditions(x)


def test_mixed_sign_integer_powers_evaluate_without_warning():
    # negative bases: only integer powers of them are computed
    x = {1: 2.5, 2: -0.75, 3: 1.25}
    c = _m(F(3, 2), {(1, 2): F(1), (1, 3): F(-3)}) + _m(1, {(2, 3): F(1, 2)})
    want = 1.5 * (x[2] - x[1]) * (x[3] - x[1]) ** -3 + math.sqrt(x[3] - x[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(c, x) == pytest.approx(want, rel=1e-15)
        assert math.isfinite(condition(c, x))


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
    flipped = oracles.rename(f, {1: 2, 2: 1})
    ((key, c),) = flipped.terms.items()
    assert key == (((1, 2), 2),) and c == -3  # odd integer power flips sign
    g = _m(1, {(1, 2): F(2)})
    assert oracles.rename(g, {1: 2, 2: 1}).terms == g.terms  # even power, no sign
    h = _m(1, {(1, 2): F(1, 2)})
    with pytest.raises(ValueError):
        oracles.rename(h, {1: 2, 2: 1})  # half power cannot flip
    with pytest.raises(ValueError):
        oracles.rename(f, {1: 3, 2: 3})
    shifted = oracles.rename(h, {1: 5, 2: 7})
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
    d = _m(1, {(1, 2): F(-1, 2), (1, 3): F(1)}) + _m(-1, {(1, 2): F(-1, 2), (2, 3): F(1)})
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
    assert oracles.variables(moved) == (1, 9)
