import itertools
import math
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

import oracles
from mgffcross import incidence, partition_fn, probability
from mgffcross.combinat import enumerate_link_patterns, enumerate_pairings, tau
from mgffcross.coulomb import Compiled, MonomialCombo, evaluate
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
    assert Compiled((f,)).sums_and_conditions(x)[1] == [1.0]
    g = f + _m(-1, {(1, 3): F(1, 2)})  # the terms 1 and -sqrt(3)
    want = (1 + math.sqrt(3)) / (math.sqrt(3) - 1)
    assert Compiled((g,)).sums_and_conditions(x)[1][0] == pytest.approx(want, rel=1e-12)


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
    assert table.sums_and_conditions(x)[1][:2] == [
        Compiled((c,)).sums_and_conditions(x)[1][0] for c in alone[:2]
    ]
    assert table.sums_and_conditions(x)[1][2] == math.inf
    # the table checks every pair any combo uses: f alone is defined here
    below = {1: 0.3, 2: 1.7, 3: 2.2, 4: 0.1}
    assert math.isfinite(evaluate(alone[0], below))
    with pytest.raises(ValueError, match="half-integer"):
        table.sums(below)
    with pytest.raises(ValueError, match="coincident"):
        table.sums({1: 0.3, 2: 1.7, 3: 2.2, 4: 2.2})
    assert Compiled(()).sums(x) == []


def _numerators(npoints):
    """The reachable fused numerators of the model's table, in its order."""
    model = probability._model(npoints)
    return [
        partition_fn.fused_pure_partition(p) for p, live in zip(model.patterns, model.live) if live
    ]


@pytest.mark.parametrize(
    "npoints, factors, entries", [(4, 14, 26), (6, 43, 1340), (8, 82, 94820)]
)
def test_table_computes_only_the_factors_it_gathers(npoints, factors, entries):
    table = probability._model(npoints).table
    combos = [partition_fn.z_mgff_total(npoints), *_numerators(npoints)]
    keys = list(dict.fromkeys(key for c in combos for key in sorted(c.terms)))
    col = {pair: j for j, pair in enumerate(table.pairs)}
    # the flat index lists each key's own (pair, power) factors in pair
    # order, one key after another: no d^0 of a pair the key lacks
    factor = list(zip(table.base.tolist(), table.e2.tolist()))
    gathered = [factor[f] for f in table.flat.tolist()]
    assert gathered == [(col[pair], e2) for key in keys for pair, e2 in key]
    assert len(gathered) == entries and 0 not in table.e2.tolist()
    assert table.firsts.tolist() == [0, *itertools.accumulate(map(len, keys[:-1]))]
    # and the table computes each factor some key gathers, once
    assert factor == sorted(set(gathered)) and len(factor) == factors


@pytest.mark.parametrize("npoints, terms, keys", [(4, 15, 7), (6, 983, 184), (8, 139038, 8642)])
def test_table_forms_one_product_per_distinct_key(npoints, terms, keys):
    table = probability._model(npoints).table
    combos = [partition_fn.z_mgff_total(npoints), *_numerators(npoints)]
    # each combo's terms in canonical order, sorted by key
    in_order = [key for c in combos for key in sorted(c.terms)]
    assert len(table.key_of) == len(table.coef) == len(in_order) == terms
    assert len(table.firsts) == keys and not table.unit
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
    # four keys gather 2 + 2 + 3 + 1 factors; the key {} gathers none
    assert len(table.key_of) == 17 and len(table.firsts) == 4 and len(table.flat) == 8
    assert table.unit
    x = {1: 0.3, 2: 1.7, 3: 2.2, 4: 5.1}
    alone = [MonomialCombo(dict(c.terms)) for c in combos]
    assert table.sums(x) == [evaluate(c, x) for c in alone]
    assert table.sums_and_conditions(x)[1] == [
        Compiled((c,)).sums_and_conditions(x)[1][0] for c in alone
    ]
    want = [evaluate(c, x, dps=50) for c in alone]
    assert table.sums(x, dps=50) == want
    assert all(math.isclose(w, v, rel_tol=1e-13) for w, v in zip(want, table.sums(x)))


def test_key_without_factors_has_product_one():
    # the key {} multiplies no factor: its product is 1 in a table with
    # pairs and in one without, in float and in mpf
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    x = {1: 0.3, 2: 1.7, 3: 2.2}
    table = Compiled((f, _m(1, {}), _m(F(-5, 21), {})))
    assert table.unit and table.sums(x) == [evaluate(f, x), 1.0, float(F(-5, 21))]
    assert table.sums_and_conditions(x)[1][1:] == [1.0, 1.0]
    assert table.sums(x, dps=30)[1] == 1
    bare = Compiled((_m(1, {}),))
    assert bare.pairs == () and len(bare.flat) == 0
    for y in (x, {}, ()):
        assert bare.sums(y) == [1.0] and bare.sums(y, dps=30) == [1]


def test_equal_combos_inserted_in_any_order_give_equal_bits():
    # each combo sums its terms sorted by key, so the order its terms were
    # inserted in does not reach the float sums, alone or in one table
    rng = np.random.default_rng(11)
    combos = _numerators(6)[:4]
    shuffled = []
    for c in combos:
        items = list(c.terms.items())
        shuffled.append(MonomialCombo(dict(items[i] for i in rng.permutation(len(items)))))
    assert shuffled == combos
    assert all(list(s.terms) != list(c.terms) for s, c in zip(shuffled, combos))
    table = Compiled((*combos, *shuffled))
    for _ in range(20):
        y = tuple(np.sort(rng.uniform(-2.0, 6.0, 6)).tolist())
        alone = [evaluate(c, y) for c in combos]
        assert [evaluate(s, y) for s in shuffled] == alone
        assert table.sums(y) == alone + alone
        assert table.sums_and_conditions(y)[1][:4] == table.sums_and_conditions(y)[1][4:]


def test_zero_combos_sum_to_zero_between_and_after_other_combos():
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    g = _m(3, {(2, 4): F(1)})
    zero = MonomialCombo.zero()
    x = {1: 0.3, 2: 1.7, 3: 2.2, 4: 5.1}
    table = Compiled((f, zero, zero, g, zero))
    assert table.sums(x) == [evaluate(f, x), 0.0, 0.0, evaluate(g, x), 0.0]
    assert table.sums_and_conditions(x)[1][1:3] == [math.inf, math.inf]
    assert table.sums_and_conditions(x)[1][4] == math.inf
    assert Compiled((zero,)).sums(x) == [0.0]
    assert Compiled((zero, zero)).sums(x, dps=30) == [0, 0]


def test_span_with_opposite_infinite_terms_raises_overflow_quietly():
    # d^-2 of 1e-200 and of 2e-200 both overflow: +inf - inf within one span
    c = _m(1, {(1, 2): F(-2)}) + _m(-1, {(1, 3): F(-2)})
    x = {1: 0.0, 2: 1e-200, 3: 2e-200}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in (Compiled((c,)), Compiled((_m(1, {(2, 3): F(1)}), c, MonomialCombo.zero()))):
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums(x)
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums_and_conditions(x)[1]


def test_term_with_an_underflowing_partial_product_raises_overflow_quietly():
    # d12 d13 / d23 = 2e-200, but its partial product d12 d13 = 2e-400
    # underflows to 0.0 on the way: refused, not summed as 0.0
    c = _m(1, {(1, 2): F(1), (1, 3): F(1), (2, 3): F(-1)})
    x = {1: 0.0, 2: 1e-200, 3: 2e-200}
    assert evaluate(c, x, dps=30) == pytest.approx(2e-200, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table in (Compiled((c,)), Compiled((_m(1, {(2, 3): F(1)}), c, MonomialCombo.zero()))):
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums(x)
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums_and_conditions(x)[1]


def _roundings(c):
    """The roundings, in units of 2^-53, of the float term of c that takes
    most: per factor its difference (|e| times over in the power), its
    `pow` (up to one ulp, two roundings) and its product; then the
    coefficient's float and the multiple by it."""
    return max(sum(abs(e2) / 2 + 3 for _, e2 in key) + 2 for key in c.terms)


@pytest.mark.parametrize("npoints, count", [(6, 200), (8, 20)])
def test_float_sums_within_first_order_bound_of_dps_50(npoints, count):
    # the summation adds at most span length - 1 roundings to each term's
    # own: |float - exact| <= (roundings + len - 1) 2^-53 sum|t|, over
    # seeded configurations with gaps log-uniform in [0.05, 5]
    table = probability._model(npoints).table
    combos = [partition_fn.z_mgff_total(npoints), *_numerators(npoints)]
    steps = [_roundings(c) + len(c) - 1 for c in combos]
    rng = np.random.default_rng(npoints)
    for _ in range(count):
        gaps = np.exp(rng.uniform(math.log(0.05), math.log(5.0), npoints - 1))
        y = tuple(np.concatenate([rng.uniform(-3.0, 3.0, 1), gaps]).cumsum().tolist())
        got, cond = table.sums(y), table.sums_and_conditions(y)[1]
        for g, w, c, k in zip(got, table.sums(y, dps=50), cond, steps):
            assert abs(g - float(w)) <= k * 2.0**-53 * c * abs(g)


def _within(got, want, rel):
    return len(got) == len(want) and all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("npoints", [4, 6])
def test_dps_table_matches_the_per_term_oracle(npoints):
    # the table pass in mpf against the per-term product, at float points
    # and at mpf points that no float holds
    table = probability._model(npoints).table
    combos = [partition_fn.z_mgff_total(npoints), *_numerators(npoints)]
    configs = [(0.0, 1.0, 2.5, 3.0, 4.2, 5.0)[:npoints], (-1.0, 0.1, 0.4, 2.0, 2.2, 7.5)[:npoints]]
    with mpmath.workdps(30):
        configs += [tuple(mpmath.mpf(k) + mpmath.sqrt(k + 2) / 7 for k in range(npoints))]
    for y in configs:
        assert _within(table.sums(y, dps=30), oracles.mp_term_sums(combos, y, 30), 1e-25)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dps_half_integer_powers_match_the_per_term_oracle(n):
    y = (0.0, 0.7, 1.9, 2.4, 3.8, 5.1)[: 2 * n]
    with mpmath.workdps(30):
        ym = tuple(mpmath.mpf(k) / 3 + mpmath.sqrt(k + 1) for k in range(2 * n))
    for a in enumerate_pairings(n):
        for c in (partition_fn.pure_partition(a), partition_fn.conformal_block(a)):
            for x in (y, ym):
                assert _within([evaluate(c, x, dps=30)], oracles.mp_term_sums([c], x, 30), 1e-25)


def test_empty_table_has_no_sums():
    x = {1: 0.3, 2: 1.7}
    assert Compiled(()).sums(x) == []
    assert Compiled(()).sums_and_conditions(x)[1] == []


def test_table_reads_a_sequence_as_labels_from_one():
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    table = Compiled((f,))
    y = (0.3, 1.7, 2.2)
    assert table.sums(y) == table.sums(dict(enumerate(y, 1)))
    assert (
        table.sums_and_conditions(list(y))[1]
        == table.sums_and_conditions(dict(enumerate(y, 1)))[1]
    )
    with pytest.raises(ValueError, match="no value for variable 3"):
        table.sums(y[:2])
    with pytest.raises(ValueError, match="no value for variable 0"):
        Compiled((_m(1, {(0, 1): F(1)}),)).sums(y)


def _forms(y):
    """The forms a float evaluation reads alike: a tuple, a list, a mapping
    of labels 1..n, a numpy array and a tuple of mpf values."""
    return (tuple(y), list(y), dict(enumerate(y, 1)), np.array(y), tuple(map(mpmath.mpf, y)))


def test_float_route_reads_every_form_alike():
    f = _m(F(2, 3), {(1, 2): F(-1, 2), (2, 3): F(1, 2)}) + _m(F(-1, 7), {(1, 3): F(3)})
    table = Compiled((f, _m(5, {(1, 2): F(2), (2, 3): F(-1)})))
    y = (0.3, 1.7, 2.2)
    want, cond = table.sums(y), table.sums_and_conditions(y)[1]
    for x in _forms(y):
        assert table.sums(x) == want
        assert table.sums_and_conditions(x)[1] == cond
    bad = [
        ((0.3, 0.3, 2.2), r"coincident points for pair \(1, 2\)"),
        ((0.3, 1.7, 1.2), r"negative base for half-integer power on pair \(2, 3\)"),
        ((0.3, 1.7), "no value for variable 3"),
    ]
    for y, match in bad:
        for x in _forms(y):
            with pytest.raises(ValueError, match=match):
                table.sums(x)
            with pytest.raises(ValueError, match=match):
                table.sums_and_conditions(x)[1]


@pytest.mark.parametrize("spacing", [1e200, 1e-200])
def test_overflowing_terms_raise_from_sums_and_conditions(spacing):
    table = probability._model(4).table
    y = (0.0, spacing, 2 * spacing, 3 * spacing)
    want = probability.outcome_distribution(4, y).probs
    for x in _forms(y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float pass keeps numpy quiet
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums(x)
            with pytest.raises(OverflowError, match="a term leaves the float range"):
                table.sums_and_conditions(x)[1]
        # and the distribution rescales them, whatever their form
        assert probability.outcome_distribution(4, x).probs == want


def test_mixed_sign_integer_powers_evaluate_without_warning():
    # negative bases: only integer powers of them are computed
    x = {1: 2.5, 2: -0.75, 3: 1.25}
    c = _m(F(3, 2), {(1, 2): F(1), (1, 3): F(-3)}) + _m(1, {(2, 3): F(1, 2)})
    want = 1.5 * (x[2] - x[1]) * (x[3] - x[1]) ** -3 + math.sqrt(x[3] - x[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(c, x) == pytest.approx(want, rel=1e-15)
        assert math.isfinite(Compiled((c,)).sums_and_conditions(x)[1][0])


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
            assert err <= Compiled((c,)).sums_and_conditions(x)[1][0] * 2.0**-53 * 8


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
