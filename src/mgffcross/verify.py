"""Independent numerical checks: null-field PDEs, Moebius covariance,
collapse asymptotics, positivity and upper bounds.

The differential checks take every derivative in closed form, term by
term: a term T = c * prod (x_b - x_a)^e has d_i T = T * sum +-e/(x_b - x_a),
so each derivative the operators use is T times a polynomial in such
sums, evaluated in one float pass and summed by `math.fsum`.  Residuals
are reported relative to |f| times the natural scale min_gap^(-order),
so a correct function scores near rounding (~1e-11 or better) while a
perturbed one scores order one.  Nothing here shares code with the
symbolic fusion route beyond the evaluator, which is the point: these
are the cross-checks.  Every check takes the function under test as its
first argument, and `run_suite` builds each such function once, so its
`perturb` corrupts the checked function in every suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from . import coulomb, partition_fn
from .combinat import (
    PairPartition,
    enumerate_link_patterns,
    enumerate_pairings,
)
from .coulomb import MonomialCombo, to_mpf
from .partition_fn import CONSTANTS, point_values


def _residual(f: MonomialCombo, x, j: int, order: int, op) -> float:
    """|sum_T T * op(g, dg, ddg, others)| / (|f| * min_gap^-order), one
    float pass over the terms T = c * prod (x_b - x_a)^e of f.

    d_i T = T g_i with g_i = sum e s_i/(x_b - x_a), s_i = d_i (x_b - x_a)
    in {-1, 0, 1}; op receives g, dg[i] = d_i g_j = -sum e s_i s_j/d^2,
    ddg = d_j^2 g_j = sum 2 e s_j/d^3, and the pairs (i, x_i - x_j) over
    the labels i != j, so every derivative is closed form.
    """
    xs = point_values(len(x), x)
    xd = dict(enumerate(xs, 1))
    labels = list(xd)
    gap = min(b - a for a, b in zip(xs, xs[1:]))
    others = [(i, xd[i] - xd[j]) for i in labels if i != j]
    values, parts = [], []
    for key, c in f.terms.items():
        t, g, dg, ddg = float(c), dict.fromkeys(labels, 0.0), dict.fromkeys(labels, 0.0), 0.0
        for (a, b), e2 in key:
            d, e = xd[b] - xd[a], e2 / 2
            t *= d**e
            g[a] -= e / d
            g[b] += e / d
            if j in (a, b):
                s = e / d**2 if j == b else -e / d**2
                dg[a] += s
                dg[b] -= s
                ddg += 2 * s / d
        values.append(t)
        parts.append(t * op(g, dg, ddg, others))
    scale = abs(math.fsum(values)) / gap**order
    if scale == 0:
        raise ValueError("function vanishes at the test point")
    return abs(math.fsum(parts)) / scale


def pde2_residual(f: MonomialCombo, x, j: int) -> float:
    """Normalized residual of the second-order null-field operator at point j,
    weight h = 1/4 at every point:

        (kappa/2) d_j^2 f + sum_{i != j} [ 2/(x_i - x_j) d_i f
                                           - 2 h/(x_i - x_j)^2 f ].

    Scale: |f| * min_gap^-2.
    """
    k2, w = CONSTANTS.kappa / 2, float(CONSTANTS.h)

    def op(g, dg, ddg, others):
        out = k2 * (g[j] ** 2 + dg[j])
        for i, d in others:
            out += 2 * g[i] / d - 2 * w / d**2
        return out

    return _residual(f, x, j, 2, op)


def pde3_residual(f: MonomialCombo, y, j: int) -> float:
    """Normalized residual of the third-order operator at fused point j,
    weight H = 1 at every point:

        d_j^3 f - 4 sum_{i != j} [ H/(y_i - y_j)^2 d_j f
                                   - 1/(y_i - y_j) d_i d_j f ]
                + 2 sum_{i != j} [ 2 H/(y_i - y_j)^3 f
                                   - 1/(y_i - y_j)^2 d_i f ].

    Scale: |f| * min_gap^-3.
    """
    w = float(CONSTANTS.H)

    def op(g, dg, ddg, others):
        gj = g[j]
        out = gj**3 + 3 * gj * dg[j] + ddg
        for i, d in others:
            out -= 4 * (w * gj / d**2 - (g[i] * gj + dg[i]) / d)
            out += 2 * (2 * w / d**3 - g[i] / d**2)
        return out

    return _residual(f, y, j, 3, op)


def mobius_covariance_check(
    f: MonomialCombo,
    weights: tuple[Fraction, ...],
    x,
    abcd: tuple[float, float, float, float],
    dps: int = 40,
) -> float:
    """Relative error of f(x) = prod phi'(x_i)^{w_i} f(phi(x)) for the
    Moebius map phi = (a z + b)/(c z + d).

    Requires ad - bc > 0 and the pole -d/c outside the convex hull of
    the points, so phi preserves their order.
    """
    a, b, c, d = abcd
    det = a * d - b * c
    if det <= 0:
        raise ValueError("need positive determinant")
    xs = point_values(len(x), x)
    xd = dict(enumerate(xs, 1))
    if c != 0:
        pole = -d / c
        if xs[0] <= pole <= xs[-1]:
            raise ValueError("Moebius pole inside the configuration")
    with mpmath.workdps(dps):
        am, bm, cm, dm = map(to_mpf, abcd)
        detm = am * dm - bm * cm
        mapped = {}
        jac = mpmath.mpf(1)
        for idx, (lab, v) in enumerate(sorted(xd.items())):
            vm = to_mpf(v)
            mapped[lab] = (am * vm + bm) / (cm * vm + dm)
            dphi = detm / (cm * vm + dm) ** 2
            jac *= dphi ** to_mpf(weights[idx])
        lhs = coulomb.evaluate(f, xd, dps=dps)
        rhs = jac * coulomb.evaluate(f, mapped, dps=dps)
        return float(abs(lhs - rhs) / abs(lhs))


def asymptotics_check(
    z: MonomialCombo,
    a: PairPartition,
    j: int,
    x=None,
    gaps: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    dps: int = 40,
) -> dict:
    """Compare the symbolic collapse of Z_a at position j against the
    numerically extrapolated limit of z, the function under test in
    place of Z_a.

    The unfused z is evaluated at x_{j+1} = x_j + eps for the given
    gaps, normalized by eps^r with the proper collapse order r, and
    Richardson-extrapolated assuming the integer series ladder; the
    result must match the exact fused value.
    """
    n2 = 2 * a.n
    if x is None:
        x = tuple(float(t) for t in range(1, n2))  # collapsed configuration
    xs = point_values(n2 - 1, x)
    linked = (j, j + 1) in a.links
    r = Fraction(-1, 2) if linked else Fraction(1, 2)
    fused = partition_fn.fuse_once(a, j)
    with mpmath.workdps(dps):
        exact = coulomb.evaluate(fused, xs, dps=dps)
        vals = []
        xm = list(map(to_mpf, xs))
        for eps in gaps:
            em = to_mpf(eps)
            # x_(j+1) = x_j + eps, and the points past it move up one label
            raw = coulomb.evaluate(z, xm[:j] + [xm[j - 1] + em] + xm[j:], dps=dps)
            vals.append(raw / em ** to_mpf(r))
        e1, e2 = to_mpf(gaps[-2]), to_mpf(gaps[-1])
        extrap = (e1 * vals[-1] - e2 * vals[-2]) / (e1 - e2)
        rel = float(abs(extrap - exact) / abs(exact))
    return {
        "pairing": a.links,
        "position": j,
        "order": r,
        "values": [float(v) for v in vals],
        "extrapolated": float(extrap),
        "exact": float(exact),
        "rel_error": rel,
    }


def upper_bound_combo(a: PairPartition) -> MonomialCombo:
    """prod over links (x_b - x_a)^(-1/2), the refined pointwise bound."""
    return MonomialCombo.monomial(1, {l: Fraction(-1, 2) for l in a.links})


def bounds_check(z: MonomialCombo, a: PairPartition, x, slack: float = 1e-12) -> dict:
    """0 < z(x) <= prod_links (x_b - x_a)^(-1/2) over the links of a, for
    z the function under test in place of Z_a, with tiny slack for the
    configurations where the bound is attained."""
    xs = point_values(len(x), x)
    v = coulomb.evaluate(z, xs)
    ub = coulomb.evaluate(upper_bound_combo(a), xs)
    ok = (v > 0.0) and (v <= ub * (1.0 + slack))
    return {"pairing": a.links, "z": v, "bound": ub, "ok": bool(ok)}


def perturb_combo(f: MonomialCombo, rel: float) -> MonomialCombo:
    """Add rel * c0 * m0 * (x_b - x_a) built from the first term of f: a
    shape distortion (not a global rescale, which every relation here is
    blind to) that any residual check must flag."""
    if f.is_zero() or rel == 0:
        return f
    key = sorted(f.terms)[0]
    if not key:
        raise ValueError("cannot perturb a constant")
    frac = Fraction(rel).limit_denominator(10**12)
    (pair, e2), rest = key[0], key[1:]
    bumped = (((pair, e2 + 2),) if e2 != -2 else ()) + rest
    bump = MonomialCombo({tuple(sorted(bumped)): f.terms[key] * frac})
    return f + bump


# ---------------------------------------------------------------------------
# Named suites for the command line


def _sample_configs(npoints: int, count: int, rng) -> list[tuple[float, ...]]:
    out = []
    for _ in range(count):
        gaps = rng.uniform(0.25, 1.75, size=npoints)
        start = rng.uniform(-2.0, 2.0)
        xs = start + gaps.cumsum()
        out.append(tuple(float(v) for v in xs))
    return out


def run_suite(
    suite: str,
    npoints: int = 4,
    seed: int = 0,
    perturb: float = 0.0,
    configs: int = 3,
) -> list[dict]:
    """Run one named check suite; returns a list of check records with
    fields name, value, tol, ok.  Each checked function is built once:
    Z_a per pairing, then for `pde` and `cov` alone U_a per pairing (both
    weight h = 1/4), each fused Zhat_p and Z_total (weight H = 1).
    `perturb` != 0 corrupts each of them once, so every suite checks the
    corrupted function (negative control: checks should then fail, but
    at one link `pde` and `asy` pass, the added term being itself a
    two-point solution).  ValueError for an unknown suite, fewer than 2
    points or fewer than one configuration per function."""
    import numpy as np

    if suite not in ("pde", "cov", "asy", "bounds"):
        raise ValueError(f"unknown suite {suite!r} (use pde, cov, asy or bounds)")
    if npoints < 2:
        raise ValueError(f"need at least 2 points (n >= 1), got {npoints}")
    if configs < 1:
        raise ValueError(f"need at least 1 configuration per function, got {configs}")
    h, H = CONSTANTS.h, CONSTANTS.H
    pairings = enumerate_pairings(npoints // 2)
    # (name, function, weight at every point), the Z_a first as in `pairings`
    built = [(f"Z{a.links}", partition_fn.pure_partition(a), h) for a in pairings]
    if suite in ("pde", "cov"):
        built += [(f"U{a.links}", partition_fn.conformal_block(a), h) for a in pairings]
        built += [
            (f"Zhat{p.links}", partition_fn.fused_pure_partition(p), H)
            for p in enumerate_link_patterns((2,) * npoints)
        ]
        built.append(("Ztotal", partition_fn.z_mgff_total(npoints), H))
    targets = [(name, perturb_combo(f, perturb), w) for name, f, w in built]
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(name: str, value: float, tol: float):
        checks.append({"name": name, "value": value, "tol": tol, "ok": bool(value <= tol)})

    if suite == "pde":
        for name, g, w in targets:
            order, residual, tol = (2, pde2_residual, 1e-5) if w == h else (3, pde3_residual, 1e-4)
            for x in _sample_configs(npoints, configs, rng):
                for j in range(1, npoints + 1):
                    record(f"pde{order} {name} j={j}", residual(g, x, j), tol)
    elif suite == "cov":
        maps = [(1.0, 0.3, 0.0, 1.0), (1.3, 0.0, 0.0, 0.7)]
        for _ in range(20):
            c = float(rng.uniform(0.05, 0.3))
            d = float(rng.uniform(3.0, 6.0))
            maps.append((float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.5, 0.5)), c, d))
        for name, g, w in targets:
            for x in _sample_configs(npoints, configs, rng):
                for abcd in maps:
                    xs = sorted(x)
                    if abcd[2] != 0 and xs[0] <= -abcd[3] / abcd[2] <= xs[-1]:
                        continue
                    record(
                        f"mobius {name} {abcd}",
                        mobius_covariance_check(g, (w,) * npoints, x, abcd),
                        1e-9,
                    )
    elif suite == "asy":
        for a, (name, z, _) in zip(pairings, targets):
            for j in range(1, 2 * a.n):
                rep = asymptotics_check(z, a, j)
                record(f"asy {name} j={j} r={rep['order']}", rep["rel_error"], 1e-6)
    else:
        for x in _sample_configs(npoints, max(configs * 10, 20), rng):
            for a, (name, z, _) in zip(pairings, targets):
                rep = bounds_check(z, a, x)
                # the bound is positive, so a failing check has a positive margin
                margin = 0.0 if rep["ok"] else abs(rep["z"] - rep["bound"])
                record(f"bound {name}", margin, 0.0)
    return checks
