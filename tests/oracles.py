"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the production code paths: brute
force enumeration instead of recursive constructions, a generic series
extractor (`fuse_pair`, itself checked against sympy symbolic series)
instead of the closed-form collapses read off the inverse-incidence row,
repeated pairwise fusion instead of the grouped closed form, dense
sparse-matrix solves instead of the DST solver, one sparse percolation
graph per trial instead of the labelled site image of a chunk, a fresh
generator per trial instead of one re-keyed per chunk, and an
exact-skeleton Brownian bridge estimator instead of the closed-form
crossing probability, and the cluster dictionary built forward from
every pair of set partitions, with its own interleaving rule, instead of
read off the faces of the reachable patterns' slot lifts.
Two lattice helpers only tests need live here too: the vertex id of a
grid point and the discrete Laplacian residual of a field; so do the
complete elliptic integrals K, K' of a rectangle, which the theta-quotient
boundary map no longer reads, from the generic theta-constant series
that the straight-line corner cross ratio replaced, and the connection
probability between pairings, which no library route uses, and the
relabelling of a combo's variables (`variables`, `rename`), which the
series extractor needs and the library's term streams do not, and the
per-term mpmath sums (`mp_term_sums`) that the `dps` route's table pass
replaced.  The null-field residuals are
recomputed with `mpmath.diff` derivatives instead of the closed-form
term derivatives.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.sparse
import sympy as sp
from scipy.sparse.csgraph import connected_components

from mgffcross import coulomb, incidence, partition_fn
from mgffcross.combinat import LinkPattern, PairPartition, make_pairing, make_pattern, tau
from mgffcross.probability import canonical_partition


# ---------------------------------------------------------------------------
# Combinatorics by brute force


def brute_dyck_heights(n: int) -> list[tuple[int, ...]]:
    """All nonnegative +-1 walks of length 2n from 0 to 0, as height tuples."""
    out = []
    for steps in itertools.product((1, -1), repeat=2 * n):
        h = [0]
        for s in steps:
            h.append(h[-1] + s)
        if min(h) >= 0 and h[-1] == 0:
            out.append(tuple(h))
    return sorted(out)


def _all_matchings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    a, rest = items[0], items[1:]
    for i, b in enumerate(rest):
        for sub in _all_matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + sub


def _crossing(l1: tuple[int, int], l2: tuple[int, int]) -> bool:
    (a, b), (c, d) = sorted(l1), sorted(l2)
    if a > c:
        (a, b), (c, d) = (c, d), (a, b)
    return a < c < b < d


def brute_noncrossing_pairings(n: int) -> list[tuple[tuple[int, int], ...]]:
    out = []
    for m in _all_matchings(tuple(range(1, 2 * n + 1))):
        if not any(_crossing(p, q) for p, q in itertools.combinations(m, 2)):
            out.append(tuple(sorted(tuple(sorted(l)) for l in m)))
    return sorted(out)


def brute_valence2_patterns(npoints: int) -> list[tuple[tuple[int, int], ...]]:
    """Planar valence-2 link patterns on npoints boundary points, found by
    matching 2*npoints interleaved slots (point j owns slots 2j-1, 2j),
    discarding matchings that pair a point with itself, and projecting
    slots back to points."""
    seen = set()
    for m in _all_matchings(tuple(range(1, 2 * npoints + 1))):
        if any(_crossing(p, q) for p, q in itertools.combinations(m, 2)):
            continue
        if any((a + 1) // 2 == (b + 1) // 2 for a, b in m):
            continue
        proj = tuple(
            sorted(tuple(sorted(((a + 1) // 2, (b + 1) // 2))) for a, b in m)
        )
        seen.add(proj)
    return sorted(seen)


def brute_arrow_relation(a_links, b_links) -> bool:
    """Permutation definition: b must re-pair the left endpoints of a with
    a permutation of the right endpoints of a."""
    a_pts = sorted(l[0] for l in a_links)
    b_pts = [dict(a_links)[p] for p in a_pts]
    want = set(tuple(sorted(l)) for l in b_links)
    for perm in itertools.permutations(b_pts):
        trial = set(tuple(sorted((p, q))) for p, q in zip(a_pts, perm))
        if trial == want:
            return True
    return False



def remove_link(p: PairPartition, j: int) -> PairPartition:
    """Delete the link {j, j+1} and close the gap, relabeling k > j+1 to k-2."""
    if (j, j + 1) not in p.links:
        raise ValueError(f"{{{j},{j + 1}}} is not a link of the pairing")
    out = []
    for a, b in p.links:
        if (a, b) == (j, j + 1):
            continue
        out.append((a if a < j else a - 2, b if b < j else b - 2))
    return make_pairing(out)


def sequential_fused_pure_partition(p):
    """Zhat of a valence-2 link pattern by repeated pairwise fusion.

    Starts from Z of the slot lift tau(p) on 4N points and fuses each slot
    pair (2j-1, 2j) at order +1/2 with `fuse_pair`, which checks exactly
    that every lower order cancels; it shares only these primitives with
    the grouped closed form in `partition_fn`."""
    c = partition_fn.pure_partition(tau(p))
    for j in range(1, p.npoints + 1):
        c = fuse_pair(c, 2 * j - 1, 2 * j, 2 * j - 1, Fraction(1, 2))
    return rename(c, {2 * j - 1: j for j in range(1, p.npoints + 1)})


# ---------------------------------------------------------------------------
# Cluster dictionary by pairs of set partitions


def set_partitions(n: int):
    """All set partitions of {1..n} in canonical form."""
    if n == 0:
        yield ()
        return
    for smaller in set_partitions(n - 1):
        for i in range(len(smaller)):
            yield canonical_partition(smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :])
        yield canonical_partition(smaller + ((n,),))


def _cyclic_cross(xpos: tuple[int, ...], ypos: tuple[int, ...]) -> bool:
    """Do two disjoint position sets interleave on the cycle?  Walking the
    cycle, they cross exactly when the membership changes four or more times."""
    seq = [s for _, s in sorted([(p, 0) for p in xpos] + [(p, 1) for p in ypos])]
    return sum(a != b for a, b in zip(seq, seq[1:] + seq[:1])) >= 4


def pattern_from_cluster_partitions(n: int, pos, neg) -> LinkPattern | None:
    """Boundary link pattern imprinted by wired arcs, or None when the two
    partitions cannot coexist planarly.

    Positive arc a spans points (2a-1, 2a), negative arc a spans
    (2a, 2a+1 mod 2n); on the cycle of arcs positive arc a sits at
    position 2a-1 and negative arc a at 2a, and no two blocks may
    interleave.  Each cluster touching arcs a_1 < ... < a_m contributes
    the chords {end(a_i), start(a_(i+1 mod m))}; a singleton contributes
    one chord joining its own arc's endpoints."""
    blocks = [(b, 0) for b in pos] + [(b, 1) for b in neg]
    positions = [tuple(2 * a - 1 + sign for a in b) for b, sign in blocks]
    if any(_cyclic_cross(p, q) for p, q in itertools.combinations(positions, 2)):
        return None
    links = []
    for b, sign in blocks:
        for a, anext in zip(b, b[1:] + b[:1]):
            links.append(((2 * a + sign - 1) % (2 * n) + 1, 2 * anext - 1 + sign))
    try:
        return make_pattern(links)
    except ValueError:
        return None


def brute_cluster_pattern_table(n: int) -> dict:
    """(pos blocks, neg blocks) -> LinkPattern over every jointly planar pair."""
    parts = list(set_partitions(n))
    table = {}
    for pos in parts:
        for neg in parts:
            pat = pattern_from_cluster_partitions(n, pos, neg)
            if pat is not None:
                table[pos, neg] = pat
    return table


# ---------------------------------------------------------------------------
# Fusion by series extraction


# Hard cap on how deep a series is developed past its leading order.
SERIES_ORDER_CAP = 16


class DivergenceError(ArithmeticError):
    """A normalized fusion limit does not exist: some series order below the
    requested one has a nonzero total coefficient."""


class TruncationLimitError(Exception):
    """A series expansion would need more orders than the hard cap allows."""


def half_binomial(e2: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(e2/2, k) for integer e2."""
    num = Fraction(1)
    for t in range(k):
        num *= Fraction(e2 - 2 * t, 2)
    return num / math.factorial(k)


def variables(c: coulomb.MonomialCombo) -> tuple[int, ...]:
    """The labels some term of c depends on, sorted."""
    return tuple(sorted({v for key in c.terms for pair, _ in key for v in pair}))


def rename(c: coulomb.MonomialCombo, mapping: dict[int, int]) -> coulomb.MonomialCombo:
    """Relabel variables.  A pair whose orientation flips picks up
    (-1)^e; that is only legal for integer exponents (even e2)."""
    img = {v: mapping.get(v, v) for v in variables(c)}
    if len(set(img.values())) != len(img):
        raise ValueError("relabeling must be injective on the variables")

    def renamed(key, coeff):
        items = []
        sign = 1
        for (a, b), e2 in key:
            na, nb = img[a], img[b]
            if na > nb:
                if e2 % 2:
                    raise ValueError(f"orientation flip of pair ({a},{b}) with half-integer power")
                na, nb = nb, na
                if (e2 // 2) % 2:
                    sign = -sign
            items.append(((na, nb), e2))
        return coulomb._canon_exponents(items), sign * coeff

    return coulomb.collect(renamed(key, coeff) for key, coeff in c.terms.items())


def mp_term_sums(combos, values, dps: int) -> list:
    """Each combo's mpf value at x = values (a mapping of labels, or a
    sequence holding labels 1, 2, ...) at dps digits, one term at a time:
    the coefficient times each factor of its key in pair order, d^(e2/2)
    as d^(e2 // 2) times sqrt(d) when e2 is odd, and one `mpmath.fsum` per
    combo.  Points enter as mpf, ints and floats exactly."""
    with mpmath.workdps(dps):
        x = values if hasattr(values, "keys") else dict(enumerate(values, 1))
        x = {v: w if isinstance(w, mpmath.mpf) else mpmath.mpf(w) for v, w in x.items()}
        sums = []
        for c in combos:
            terms = []
            for key, coef in c.terms.items():
                t = mpmath.mpf(coef.numerator) / coef.denominator
                for (a, b), e2 in key:
                    d = x[b] - x[a]
                    t *= d ** (e2 // 2) * (mpmath.sqrt(d) if e2 % 2 else 1)
                terms.append(t)
            sums.append(mpmath.fsum(terms))
        return sums


def _check_adjacent(c: coulomb.MonomialCombo, u: int, v: int) -> None:
    if not u < v:
        raise ValueError("need u < v")
    between = [w for w in variables(c) if u < w < v]
    if between:
        raise ValueError(f"variables {between} lie strictly between fused pair ({u},{v})")


def _term_series(key, coeff: Fraction, u: int, v: int, r2: int):
    """Contribution of one monomial to the eps^(r2/2) coefficient after
    substituting x_v = x_u + eps.  Yields (exp_key, coeff) pieces."""
    e2uv = 0
    others: list[tuple[int, int]] = []  # (i, e2 of pair with v)
    base = []
    for (a, b), e2 in key:
        if (a, b) == (u, v):
            e2uv = e2
        elif b == v:
            others.append((a, e2))
            base.append(((min(a, u), max(a, u)), e2))
        elif a == v:
            others.append((b, e2))
            base.append(((min(b, u), max(b, u)), e2))
        else:
            base.append(((a, b), e2))
    k2 = r2 - e2uv
    if k2 < 0 or k2 % 2:
        return
    k = k2 // 2
    if k > SERIES_ORDER_CAP:
        raise TruncationLimitError(f"series depth {k} exceeds cap {SERIES_ORDER_CAP}")
    if k == 0:
        yield coulomb._canon_exponents(base), coeff
        return

    # distribute k among the regular factors (x_i - x_v)^(e2/2):
    #   i < u: (x_u - x_i) + eps, expansion sign +1
    #   i > v: (x_i - x_u) - eps, expansion sign -1
    def distribute(idx: int, left: int, extra: list, factor: Fraction):
        if idx == len(others):
            if left == 0:
                yield coulomb._canon_exponents(base + extra), coeff * factor
            return
        i, e2 = others[idx]
        pair = (min(i, u), max(i, u))
        for ki in range(left + 1):
            f = half_binomial(e2, ki)
            if f == 0:
                continue
            if ki % 2 and i > v:
                f = -f
            piece = extra + [(pair, -2 * ki)] if ki else extra
            yield from distribute(idx + 1, left - ki, piece, factor * f)

    yield from distribute(0, k, [], Fraction(1))


def series_coefficient(c: coulomb.MonomialCombo, u: int, v: int, order) -> coulomb.MonomialCombo:
    """Coefficient of eps^order in c after x_v = x_u + eps, exact.

    The result keeps label u for the fusion point and drops v.  Requires
    no other variable of c between u and v, so that all non-fused factors
    stay bounded away from zero as eps -> 0+.
    """
    _check_adjacent(c, u, v)
    order = coulomb._as_fraction(order)
    r2 = order * 2
    if r2.denominator != 1:
        raise ValueError("order must be a half-integer")
    r2 = int(r2)
    return coulomb.collect(
        piece for key, coeff in c.terms.items() for piece in _term_series(key, coeff, u, v, r2)
    )


def fuse_pair(c: coulomb.MonomialCombo, u: int, v: int, target: int, r) -> coulomb.MonomialCombo:
    """Normalized fusion limit lim eps^-r [c at x_v = x_u + eps].

    Every series order below r must cancel exactly across the combo,
    otherwise DivergenceError reports the first surviving order.  The
    fused point is relabeled u -> target.
    """
    _check_adjacent(c, u, v)
    r = coulomb._as_fraction(r)
    r2 = r * 2
    if r2.denominator != 1:
        raise ValueError("fusion order must be a half-integer")
    r2 = int(r2)
    if c.is_zero():
        return coulomb.MonomialCombo()
    min_e2 = min(
        (dict(key).get((u, v), 0) for key in c.terms),
        default=0,
    )
    if r2 - min_e2 > 2 * SERIES_ORDER_CAP:
        raise TruncationLimitError(
            f"{(r2 - min_e2) / 2} orders from leading exceeds cap {SERIES_ORDER_CAP}"
        )
    for o2 in range(min_e2, r2):
        low = series_coefficient(c, u, v, Fraction(o2, 2))
        if not low.is_zero():
            raise DivergenceError(
                f"order {Fraction(o2, 2)} below requested {r} has nonzero coefficient"
            )
    res = series_coefficient(c, u, v, r)
    if target != u:
        res = rename(res, {u: target})
    return res


# ---------------------------------------------------------------------------
# Symbolic series via sympy


def _sympy_expr(combo, subs: dict[int, sp.Expr]) -> sp.Expr:
    total = sp.Integer(0)
    for key, coeff in combo.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for (a, b), e2 in key:
            term *= (subs[b] - subs[a]) ** sp.Rational(e2, 2)
        total += term
    return total


def _rational_subs(point: dict[int, Fraction]) -> dict[int, sp.Expr]:
    return {lab: sp.Rational(val.numerator, val.denominator) for lab, val in point.items()}


def sympy_series_coefficient(combo, u: int, v: int, order: Fraction, point: dict[int, Fraction]):
    """Exact coefficient of eps^order of combo at x_v = x_u + eps,
    evaluated at the rational collapsed configuration `point` (which maps
    every variable except v).

    Substituting eps = d^2 turns the half-integer ladder into an ordinary
    integer Laurent series in d; the wanted coefficient sits at d^(2 order).
    """
    d = sp.Symbol("d", positive=True)
    subs = _rational_subs(point)
    subs[v] = subs[u] + d**2
    expr = _sympy_expr(combo, subs)
    k2 = Fraction(order) * 2
    if k2.denominator != 1:
        raise ValueError("order must be a half-integer")
    k2 = int(k2)
    ser = sp.series(expr, d, 0, k2 + 1).removeO()
    return sp.expand(ser).coeff(d, k2)


def sympy_fused_limit(combo, u: int, v: int, r: Fraction, point: dict[int, Fraction]):
    """lim_{eps->0+} eps^-r combo(x_v = x_u + eps) at a rational point."""
    d = sp.Symbol("d", positive=True)
    subs = _rational_subs(point)
    subs[v] = subs[u] + d**2
    r = Fraction(r)
    expr = _sympy_expr(combo, subs) * d ** sp.Rational(-2 * r.numerator, r.denominator)
    return sp.limit(expr, d, 0, "+")


# ---------------------------------------------------------------------------
# Numeric collapse by Richardson extrapolation


def richardson_collapse(f, r: float, gaps=(1e-2, 1e-3, 1e-4), dps: int = 40, step: float = 1.0) -> float:
    """Extrapolated limit of eps^-r f(eps).

    The normalized values are assumed to have an expansion in powers of
    s = eps^step (step=1 for an integer correction ladder, 1/2 when the
    series advances in half-integer powers); Lagrange extrapolation to
    s = 0 over all supplied gaps kills the first len(gaps)-1 corrections.
    """
    with mpmath.workdps(dps):
        ss = [mpmath.mpf(e) ** step for e in gaps]
        vals = [f(mpmath.mpf(e)) / mpmath.mpf(e) ** r for e in gaps]
        total = mpmath.mpf(0)
        for i, (si, vi) in enumerate(zip(ss, vals)):
            w = mpmath.mpf(1)
            for j, sj in enumerate(ss):
                if j != i:
                    w *= sj / (sj - si)
            total += w * vi
        return float(total)


# ---------------------------------------------------------------------------
# Connection probabilities and null-field residuals


def connection_probability(a: PairPartition, b: PairPartition, x) -> float:
    """Probability that level lines with boundary pairing a hook up as b:
    arrow(a, b) * Z_b(x) / U_a(x), zero unless every link of b joins an
    up-position of a to a down-position."""
    if not incidence.arrow_relation(a, b):
        return 0.0
    xs = partition_fn.point_values(len(x), x)
    num = coulomb.evaluate(partition_fn.pure_partition(b), xs)
    return num / coulomb.evaluate(partition_fn.conformal_block(a), xs)


def mp_pde_residual(f, x, j: int, order: int, dps: int = 30) -> float:
    """The normalized residual of `verify.pde2_residual` (order 2, weight
    h) or `pde3_residual` (order 3, weight H) with every derivative taken
    by `mpmath.diff`.  diff raises the working precision for its step, so
    each evaluation runs at the precision current at the call."""
    xd = dict(enumerate(partition_fn.point_values(len(x), x), 1))
    labels = list(xd)
    c = partition_fn.CONSTANTS
    with mpmath.workdps(dps):
        x0 = [mpmath.mpf(xd[k]) for k in labels]
        w = c.h if order == 2 else c.H
        w = mpmath.mpf(w.numerator) / w.denominator

        def F(*v):
            return coulomb.evaluate(f, dict(zip(labels, v)), dps=mpmath.mp.dps)

        def D(*idx):  # partial derivative along the listed labels
            return mpmath.diff(F, x0, tuple(idx.count(k) for k in labels))

        f0 = F(*x0)
        xj = x0[labels.index(j)]
        others = [(i, xi - xj) for i, xi in zip(labels, x0) if i != j]
        if order == 2:
            total = mpmath.mpf(c.kappa) / 2 * D(j, j)
            for i, d in others:
                total += 2 / d * D(i) - 2 * w / d**2 * f0
        else:
            total, dj = D(j, j, j), D(j)
            for i, d in others:
                total -= 4 * (w / d**2 * dj - D(i, j) / d)
                total += 2 * (2 * w / d**3 * f0 - D(i) / d**2)
        gap = min(b - a for a, b in zip(x0, x0[1:]))
        return float(abs(total) * gap**order / abs(f0))


# ---------------------------------------------------------------------------
# Lattice reference solves


def lattice_vertex(spec, row: int, col: int) -> int:
    """Vertex id of grid point (row, col) of a LatticeSpec."""
    return row * (spec.nx + 1) + col


def laplacian_residual(f) -> float:
    """max over interior vertices of |4 u - sum of neighbors| of a LatticeField."""
    u = f.values
    lap = 4.0 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
    return float(np.max(np.abs(lap))) if lap.size else 0.0


def dense_interior_laplacian(shape: tuple[int, int]):
    """Standard 5-point Dirichlet Laplacian on an (m, n) interior grid."""
    import scipy.sparse as spr

    m, n = shape
    idx = np.arange(m * n).reshape(m, n)
    rows, cols, vals = [], [], []
    for i in range(m):
        for j in range(n):
            rows.append(idx[i, j])
            cols.append(idx[i, j])
            vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < m and 0 <= b < n:
                    rows.append(idx[i, j])
                    cols.append(idx[a, b])
                    vals.append(-1.0)
    return spr.csc_matrix((vals, (rows, cols)), shape=(m * n, m * n))


def dense_harmonic_extension(boundary: np.ndarray) -> np.ndarray:
    """Solve the discrete Dirichlet problem on the full (ny+1, nx+1) grid
    given boundary values (interior entries of `boundary` are ignored)."""
    import scipy.sparse.linalg as sla

    grid = boundary.astype(float).copy()
    m, n = grid.shape[0] - 2, grid.shape[1] - 2
    A = dense_interior_laplacian((m, n))
    rhs = np.zeros((m, n))
    rhs[0, :] += grid[0, 1:-1]
    rhs[-1, :] += grid[-1, 1:-1]
    rhs[:, 0] += grid[1:-1, 0]
    rhs[:, -1] += grid[1:-1, -1]
    sol = sla.spsolve(A, rhs.ravel()).reshape(m, n)
    grid[1:-1, 1:-1] = sol
    return grid


def dense_gff_variances(shape: tuple[int, int]) -> np.ndarray:
    """diag((-Delta)^-1) on the interior grid: exact pointwise variances."""
    import scipy.sparse.linalg as sla

    A = dense_interior_laplacian(shape).tocsc()
    lu = sla.splu(A)
    n = shape[0] * shape[1]
    out = np.empty(n)
    eye = np.eye(n)
    sol = lu.solve(eye)
    out[:] = np.diag(sol)
    return out.reshape(shape)


def bridge_same_sign_probability(a: float, b: float, samples: int, rng, steps: int = 32) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the probability that a unit
    time Brownian bridge from a to b never hits zero.

    Uses a coarse Gaussian skeleton plus the exact per-segment bridge
    no-hit factor 1 - exp(-2 v w / dt), so the estimator is unbiased at
    any step count."""
    dt = 1.0 / steps
    t = np.linspace(0.0, 1.0, steps + 1)
    w = rng.standard_normal((samples, steps)).cumsum(axis=1) * math.sqrt(dt)
    w = np.concatenate([np.zeros((samples, 1)), w], axis=1)
    bridge = w - t[None, :] * w[:, -1:]
    path = a + (b - a) * t[None, :] + bridge
    v0, v1 = path[:, :-1], path[:, 1:]
    seg = np.where(v0 * v1 > 0, -np.expm1(-2.0 * v0 * v1 / dt), 0.0)
    est = seg.prod(axis=1)
    return float(est.mean()), float(est.std(ddof=1) / math.sqrt(samples))


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """The reference stream of one Monte-Carlo trial: a fresh Philox
    generator keyed (seed, index), both reduced mod 2**64."""
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def percolate_per_trial(values, uniforms, spec):
    """Arc-connectivity bitmasks (pos, neg) of a batch of trials, one
    scipy graph per trial: fancy-indexed endpoint values, boundary
    vertices attached to their arc's supernode by extra edges."""
    B, nv = values.shape
    edge_a = spec.edge_a.astype(np.int64)
    edge_b = spec.edge_b.astype(np.int64)
    arc_of = spec.arc_of.astype(np.int64)
    narcs = spec.narcs
    nn = nv + narcs
    half = narcs // 2
    prod = values[:, edge_a] * values[:, edge_b]
    popen = np.where(prod > 0.0, -np.expm1(-2.0 * prod), 0.0)
    is_open = uniforms < popen
    bvert = np.nonzero(arc_of >= 0)[0]
    attach_b = nv + arc_of[bvert]
    out_pos = np.zeros(B, dtype=np.int64)
    out_neg = np.zeros(B, dtype=np.int64)
    for t in range(B):
        rows = np.concatenate([edge_a[is_open[t]], bvert])
        cols = np.concatenate([edge_b[is_open[t]], attach_b])
        g = scipy.sparse.coo_matrix(
            (np.ones(rows.shape[0], dtype=np.int8), (rows, cols)), shape=(nn, nn)
        )
        _, labels = connected_components(g, directed=False)
        pos = 0
        neg = 0
        bit = 0
        for i in range(half):
            for j in range(i + 1, half):
                if labels[nv + 2 * i] == labels[nv + 2 * j]:
                    pos |= 1 << bit
                if labels[nv + 2 * i + 1] == labels[nv + 2 * j + 1]:
                    neg |= 1 << bit
                bit += 1
        out_pos[t] = pos
        out_neg[t] = neg
    return out_pos, out_neg


def mask_to_partition(mask: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Pairwise-connectivity bitmask -> canonical set partition of 1..n."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> bit & 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
            bit += 1
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x + 1)
    return tuple(sorted(tuple(b) for b in blocks.values()))

# ---------------------------------------------------------------------------
# Elliptic modulus via theta constants


def theta_modulus_from_ratio(ratio: float, dps: int = 30) -> float:
    """k with K(k')/K(k) = ratio through the nome: q_n = exp(-pi ratio),
    k = (theta2/theta3)^2."""
    with mpmath.workdps(dps):
        qn = mpmath.exp(-mpmath.pi * mpmath.mpf(ratio))
        k = (mpmath.jtheta(2, 0, qn) / mpmath.jtheta(3, 0, qn)) ** 2
        return float(k)


def theta_constants(ratio: float) -> tuple[float, float, float]:
    """theta2, theta3, theta4 at z = 0 and nome e^(-pi a), a = max(ratio, 1/ratio):
    five terms of each series, smallest first."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise ValueError("ratio must be positive and finite")
    a = max(ratio, 1.0 / ratio)
    q, n = math.exp(-math.pi * a), range(5, 0, -1)  # smallest terms first
    return (
        2.0 * math.exp(-math.pi * a / 4.0) * (1.0 + sum(q ** (j * j + j) for j in n)),
        1.0 + 2.0 * sum(q ** (j * j) for j in n),
        1.0 + 2.0 * sum((-q) ** (j * j) for j in n),
    )


def theta_moduli(ratio: float) -> tuple[float, float, float, float]:
    """(k, k', K, K') with K'/K = ratio: k = theta2^2/theta3^2, k' =
    theta4^2/theta3^2 and K = (pi/2) theta3^2 at nome e^(-pi ratio); for
    ratio < 1 the dual nome e^(-pi/ratio) gives k', k and K'."""
    th2, th3, th4 = theta_constants(ratio)
    k, kp, K = (th2 / th3) ** 2, (th4 / th3) ** 2, 0.5 * math.pi * th3 * th3
    return (k, kp, K, ratio * K) if ratio >= 1.0 else (kp, k, K / ratio, K)
