"""Differential, covariance, asymptotic and bound checks on the exact functions."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mgffcross import partition_fn
from mgffcross.combinat import enumerate_link_patterns, make_pairing
from mgffcross.coulomb import MonomialCombo
from mgffcross.partition_fn import CONSTANTS
from mgffcross.verify import (
    asymptotics_check,
    bounds_check,
    mobius_covariance_check,
    pde2_residual,
    pde3_residual,
    perturb_combo,
    run_suite,
    upper_bound_combo,
)

from oracles import mp_pde_residual

ZIGZAG = make_pairing([(1, 2), (3, 4)])
RAINBOW = make_pairing([(1, 4), (2, 3)])
X4 = (0.0, 0.9, 2.1, 3.4)


def uniform_weights(npoints, w):
    return tuple(Fraction(w) for _ in range(npoints))


# ---------------------------------------------------------------------------
# differential residuals


@pytest.mark.parametrize("a", [ZIGZAG, RAINBOW])
def test_pde2_clean(a):
    f = partition_fn.pure_partition(a)
    for j in range(1, 5):
        assert pde2_residual(f, X4, j) < 1e-5


def test_pde3_clean():
    for p in enumerate_link_patterns((2, 2, 2, 2)):
        f = partition_fn.fused_pure_partition(p)
        for j in range(1, 5):
            assert pde3_residual(f, X4, j) < 1e-4


def test_pde2_flags_perturbation():
    f = perturb_combo(partition_fn.pure_partition(ZIGZAG), 1e-2)
    assert pde2_residual(f, X4, 1) > 1e-4


def test_pde3_flags_perturbation():
    p = enumerate_link_patterns((2, 2, 2, 2))[0]
    f = perturb_combo(partition_fn.fused_pure_partition(p), 1e-2)
    assert max(pde3_residual(f, X4, j) for j in range(1, 5)) > 1e-3


def test_pde2_rejects_vanishing_function():
    f = MonomialCombo.monomial(0, {})
    with pytest.raises(ValueError):
        pde2_residual(f + MonomialCombo.zero(), X4, 1)


def test_residuals_reject_unordered_points():
    f = partition_fn.pure_partition(ZIGZAG)
    with pytest.raises(ValueError, match="increase"):
        pde2_residual(f, {1: 0.0, 2: 2.1, 3: 0.9, 4: 3.4}, 1)
    with pytest.raises(ValueError, match="increase"):
        pde3_residual(f, {1: 0.0, 2: 0.9, 3: 0.9, 4: 3.4}, 1)


@pytest.mark.parametrize("order", [2, 3])
def test_residuals_match_mpmath_diff_oracle(order):
    # perturbed, so the residuals are order 1e-3 rather than rounding noise
    if order == 2:
        combos, residual = [partition_fn.pure_partition(a) for a in (ZIGZAG, RAINBOW)], pde2_residual
    else:
        pats = enumerate_link_patterns((2, 2, 2, 2))
        combos, residual = [partition_fn.fused_pure_partition(p) for p in pats], pde3_residual
    for f in combos:
        g = perturb_combo(f, 1e-2)
        for j in range(1, 5):
            assert residual(g, X4, j) == pytest.approx(mp_pde_residual(g, X4, j, order), rel=1e-9)


# ---------------------------------------------------------------------------
# Moebius covariance


def test_covariance_identity_map():
    f = partition_fn.pure_partition(ZIGZAG)
    w = uniform_weights(4, CONSTANTS.h)
    assert mobius_covariance_check(f, w, X4, (1.0, 0.0, 0.0, 1.0)) < 1e-20


def test_covariance_affine_and_inversion():
    f = partition_fn.fused_pure_partition(enumerate_link_patterns((2, 2, 2, 2))[1])
    w = uniform_weights(4, CONSTANTS.H)
    assert mobius_covariance_check(f, w, X4, (2.0, 1.0, 0.0, 1.0)) < 1e-12
    assert mobius_covariance_check(f, w, X4, (1.0, 0.0, 0.2, 4.0)) < 1e-9


def test_covariance_rejects_bad_maps():
    f = partition_fn.pure_partition(ZIGZAG)
    w = uniform_weights(4, CONSTANTS.h)
    with pytest.raises(ValueError):
        mobius_covariance_check(f, w, X4, (1.0, 0.0, 0.0, -1.0))  # det < 0
    with pytest.raises(ValueError):
        mobius_covariance_check(f, w, X4, (1.0, 0.0, 1.0, -2.0))  # pole at 2.0


def test_covariance_flags_perturbation():
    f = perturb_combo(partition_fn.pure_partition(RAINBOW), 1e-2)
    w = uniform_weights(4, CONSTANTS.h)
    assert mobius_covariance_check(f, w, X4, (1.3, 0.0, 0.0, 0.7)) > 1e-6


# ---------------------------------------------------------------------------
# collapse asymptotics


def test_asymptotics_linked_position():
    rep = asymptotics_check(partition_fn.pure_partition(ZIGZAG), ZIGZAG, 1)
    assert rep["order"] == Fraction(-1, 2)
    assert rep["rel_error"] < 1e-6


def test_asymptotics_unlinked_position():
    rep = asymptotics_check(partition_fn.pure_partition(ZIGZAG), ZIGZAG, 2)
    assert rep["order"] == Fraction(1, 2)
    assert rep["rel_error"] < 1e-6


def test_asymptotics_all_positions_n3():
    a = make_pairing([(1, 4), (2, 3), (5, 6)])
    z = partition_fn.pure_partition(a)
    for j in range(1, 6):
        assert asymptotics_check(z, a, j)["rel_error"] < 1e-6


def test_asymptotics_custom_configuration():
    z = partition_fn.pure_partition(ZIGZAG)
    rep = asymptotics_check(z, ZIGZAG, 3, x=(0.0, 1.3, 2.9))
    assert rep["rel_error"] < 1e-6
    with pytest.raises(ValueError):
        asymptotics_check(z, ZIGZAG, 3, x=(0.0, 1.3))


# ---------------------------------------------------------------------------
# number types


NUMBER_TYPES = [float, int, Fraction, np.float32, np.float64, mpmath.mpf]
TYPE_IDS = ["float", "int", "Fraction", "float32", "float64", "mpf"]


@pytest.mark.parametrize("num", NUMBER_TYPES, ids=TYPE_IDS)
def test_covariance_reads_every_number_type(num):
    # integer-valued points and map, exact in every type: the float answer
    f = partition_fn.pure_partition(RAINBOW)
    w = uniform_weights(4, CONSTANTS.h)
    x, abcd = (1, 2, 4, 7), (2, 1, 1, 3)
    want = mobius_covariance_check(f, w, tuple(map(float, x)), tuple(map(float, abcd)))
    assert mobius_covariance_check(f, w, tuple(map(num, x)), tuple(map(num, abcd))) == want


@pytest.mark.parametrize("num", NUMBER_TYPES, ids=TYPE_IDS)
def test_asymptotics_reads_every_number_type(num):
    # points and gaps as integers: the limit at 1024 and 2048 from the
    # gaps 16, 4 and 1
    x, gaps = (0, 1024, 2048), (16, 4, 1)
    z = partition_fn.pure_partition(ZIGZAG)
    want = asymptotics_check(z, ZIGZAG, 2, tuple(map(float, x)), tuple(map(float, gaps)))
    assert asymptotics_check(z, ZIGZAG, 2, tuple(map(num, x)), tuple(map(num, gaps))) == want


# ---------------------------------------------------------------------------
# bounds


def test_bound_is_strict_for_nested_pairing():
    rep = bounds_check(partition_fn.pure_partition(RAINBOW), RAINBOW, X4)
    assert rep["ok"]
    assert rep["z"] < rep["bound"]


def test_bound_attained_for_single_link():
    a = make_pairing([(1, 2)])
    rep = bounds_check(partition_fn.pure_partition(a), a, (0.0, 1.7))
    assert rep["ok"]
    assert rep["z"] == pytest.approx(rep["bound"], rel=1e-12)


def test_upper_bound_combo_exponents():
    ub = upper_bound_combo(RAINBOW)
    # doubled-exponent storage: -1 encodes the power -1/2 on each link
    assert ub.terms == {(((1, 4), -1), ((2, 3), -1)): Fraction(1)}


# ---------------------------------------------------------------------------
# perturbation helper


def test_perturb_combo_properties():
    f = partition_fn.pure_partition(ZIGZAG)
    assert perturb_combo(f, 0.0) is f
    g = perturb_combo(f, 1e-3)
    assert g != f
    assert len(g.terms) > len(f.terms) or g.terms.keys() != f.terms.keys()
    with pytest.raises(ValueError):
        perturb_combo(MonomialCombo.monomial(3, {}), 1e-3)


# ---------------------------------------------------------------------------
# named suites


@pytest.mark.parametrize("suite", ["pde", "cov", "asy", "bounds"])
def test_suites_pass_clean(suite):
    checks = run_suite(suite, npoints=4, seed=0, configs=1)
    assert checks
    assert all(c["ok"] for c in checks)
    for c in checks:
        assert set(c) == {"name", "value", "tol", "ok"}


@pytest.mark.parametrize("suite", ["pde", "cov", "asy", "bounds"])
def test_suite_fails_perturbed(suite):
    # npoints = 4: with a single link the distorted power stays inside the
    # two-point kernel, so the negative control needs at least two links
    checks = run_suite(suite, npoints=4, seed=0, configs=1, perturb=0.05)
    bad = [c for c in checks if not c["ok"]]
    assert bad
    if suite == "cov":
        assert len(bad) > len(checks) // 2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("spectral")
