"""Connection and crossing probabilities, and rectangle geometry.

Connection probabilities of level lines started from a boundary pairing
are ratios Z_beta / U_alpha weighted by the incidence matrix.  Crossing
probabilities of the two-valued boundary structure (sign clusters
touching prescribed boundary arcs) are ratios Zhat_pattern / Z_total in
the fused variables.  `outcome_distribution` and `condition` read one
compiled table per point count, holding Z_total and every reachable
numerator, so one pass evaluates a configuration; each probability keeps
the bits of `crossing_probability`'s division.

For a rectangle with alternating-sign boundary arcs the marked points
are carried to the real line by the elliptic map of the rectangle onto
the upper half plane.  Its moduli k, k' (with K(k')/K(k) = 2/L) and
the corner cross-ratio q(L) = lambda(iL) are theta-series quotients
(DLMF 20.2, 23.15); the duality L <-> 1/L keeps the nome at most e^(-pi),
so five terms reach full float precision at any ratio.

The cluster dictionary at the end converts a pair of arc partitions
(which positive arcs are wired together, which negative arcs) into the
boundary link pattern they imprint, raising IncompatiblePartitionsError
when the two partitions cannot coexist planarly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import ellipj

from . import coulomb, incidence, partition_fn
from .combinat import (
    LinkPattern,
    PairPartition,
    enumerate_link_patterns,
    make_pattern,
    tau,
)
from .errors import IncompatiblePartitionsError
from .partition_fn import as_point_dict


# ---------------------------------------------------------------------------
# Probabilities in half-plane coordinates


def connection_probability(a: PairPartition, b: PairPartition, x, dps: int | None = None):
    """Probability that level lines with boundary pairing a hook up as b.

    Equals arrow(a, b) * Z_b(x) / U_a(x); zero unless every link of b
    joins an up-position of a to a down-position.
    """
    if not incidence.arrow_relation(a, b):
        return 0.0
    xs = as_point_dict(x)
    num = coulomb.evaluate(partition_fn.pure_partition(b), xs, dps=dps)
    den = coulomb.evaluate(partition_fn.conformal_block(a), xs, dps=dps)
    return num / den


def crossing_probability(p: LinkPattern, y, dps: int | None = None):
    """Probability that the sign clusters imprint link pattern p on the
    marked points y_1 < ... < y_2N.

    Equals arrow(omega, tau(p)) * Zhat_p(y) / Z_total(y); patterns whose
    slot lift is not reachable from the ground-state pairing have
    probability zero.
    """
    n2 = p.npoints
    om = partition_fn.omega_pairing(n2)
    if not incidence.arrow_relation(om, tau(p)):
        return 0.0
    ys = as_point_dict(y)
    num = coulomb.evaluate(partition_fn.fused_pure_partition(p), ys, dps=dps)
    den = coulomb.evaluate(partition_fn.z_mgff_total(n2), ys, dps=dps)
    return num / den


@lru_cache(maxsize=None)
def _numerators(npoints: int) -> tuple[tuple[LinkPattern, coulomb.MonomialCombo | None], ...]:
    """Every valence-2 pattern on `npoints` points with its fused partition
    function, or None when the lift is unreachable (probability zero)."""
    om = partition_fn.omega_pairing(npoints)
    return tuple(
        (p, partition_fn.fused_pure_partition(p) if incidence.arrow_relation(om, tau(p)) else None)
        for p in enumerate_link_patterns((2,) * npoints)
    )


@lru_cache(maxsize=None)
def _table(npoints: int) -> coulomb.Compiled:
    """Z_total and the reachable numerators of `_numerators`, in that order,
    as one table built from their terms: one pass evaluates them all, and
    no numerator caches a table of its own."""
    nums = (num for _, num in _numerators(npoints) if num is not None)
    return coulomb.Compiled((partition_fn.z_mgff_total(npoints), *nums))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Full crossing-pattern distribution at a point configuration."""

    patterns: tuple[LinkPattern, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.patterns) != len(self.probs):
            raise ValueError("length mismatch")
        if any(not 0 <= pr < math.inf for pr in self.probs):
            raise ArithmeticError(f"negative or non-finite probability in {self.probs!r}")
        s = sum(self.probs)
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {s!r}, not 1")

    def prob_of(self, p: LinkPattern) -> float:
        return self.probs[self.patterns.index(p)]

    def as_json(self) -> list[dict]:
        return [
            {"pattern": [list(l) for l in p.links], "prob": pr}
            for p, pr in zip(self.patterns, self.probs)
        ]


def outcome_distribution(npoints: int, y, dps: int | None = None) -> OutcomeDistribution:
    """Distribution over all valence-2 patterns on `npoints` marked points;
    entry by entry the division `crossing_probability` does, with the total
    and every reachable numerator read from one compiled table."""
    den, *nums = _table(npoints).sums(as_point_dict(y), dps)
    nums = iter(nums)
    table = _numerators(npoints)
    probs = tuple(0.0 if num is None else float(next(nums) / den) for _, num in table)
    return OutcomeDistribution(tuple(p for p, _ in table), probs)


def condition(npoints: int, y) -> float:
    """Largest summation condition number over the reachable numerators at y."""
    return max(_table(npoints).conditions(as_point_dict(y))[1:])


def cross_ratio(y) -> float:
    """(y2-y1)(y4-y3) / ((y3-y1)(y4-y2)) for four increasing reals."""
    ys = sorted(as_point_dict(y).items())
    if len(ys) != 4:
        raise ValueError("cross ratio needs exactly four points")
    (_, y1), (_, y2), (_, y3), (_, y4) = ys
    return (y2 - y1) * (y4 - y3) / ((y3 - y1) * (y4 - y2))


# ---------------------------------------------------------------------------
# Rectangle geometry


@dataclass(frozen=True)
class RectanglePolygon:
    """Rectangle [0, L] x [0, 1] with marked boundary points.

    `marks[k-1]` is the arc length of marked point y_k along the
    counterclockwise boundary walk from the origin corner.  Convention:
    y_2 sits at the origin (marks[1] == 0) and arc lengths increase
    with the index except for y_1, which closes the cycle just before
    the walk returns to the origin.  Arcs (y_odd -> y_even) carry the
    positive boundary value.
    """

    L: float
    marks: tuple[float, ...]

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError("aspect ratio must be positive and finite")
        m = self.marks
        if len(m) < 2 or len(m) % 2:
            raise ValueError("need an even number of marked points")
        per = self.perimeter
        if m[1] != 0.0:
            raise ValueError("y_2 must sit at the origin corner (arc length 0)")
        cyc = m[1:] + (m[0],)
        if any(not 0 <= s < per for s in m):
            raise ValueError("arc lengths must lie in [0, perimeter)")
        if any(a >= b for a, b in zip(cyc, cyc[1:])):
            raise ValueError("marked points must be in ccw cyclic order")

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.L + 1.0)

    @property
    def npoints(self) -> int:
        return len(self.marks)

    @classmethod
    def corners(cls, L: float) -> "RectanglePolygon":
        """The four corners: y_2 origin, y_3 = (L,0), y_4 = (L,1), y_1 = (0,1).
        Positive arcs are then the left and right edges."""
        return cls(float(L), (2.0 * L + 1.0, 0.0, float(L), L + 1.0))

    def point_xy(self, s: float) -> tuple[float, float]:
        """Arc length -> cartesian coordinates on the boundary."""
        L = self.L
        s = s % self.perimeter
        if s <= L:
            return (s, 0.0)
        if s <= L + 1.0:
            return (L, s - L)
        if s <= 2.0 * L + 1.0:
            return (2.0 * L + 1.0 - s, 1.0)
        return (0.0, 2.0 * L + 2.0 - s)


def _theta_constants(ratio: float) -> tuple[float, float, float]:
    """theta2, theta3, theta4 at z = 0 and nome e^(-pi a), a = max(ratio, 1/ratio)."""
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
    th2, th3, th4 = _theta_constants(ratio)
    k, kp, K = (th2 / th3) ** 2, (th4 / th3) ** 2, 0.5 * math.pi * th3 * th3
    return (k, kp, K, ratio * K) if ratio >= 1.0 else (kp, k, K / ratio, K)


def cross_ratio_rectangle(L: float) -> float:
    """Corner cross-ratio of the [0,L]x[0,1] rectangle: q = theta2^4/theta3^4
    at nome e^(-pi L), or 1 - q(1/L) = theta4^4/theta3^4 at e^(-pi/L) for
    L < 1; over theta3^4 = theta2^4 + theta4^4 (DLMF 20.7.3), q(1) = 1/2
    and q(L) + q(1/L) = 1 hold to rounding."""
    th2, _, th4 = _theta_constants(L)
    t2, t4 = th2**4, th4**4
    return (t2 if L >= 1.0 else t4) / (t2 + t4)


def _sn(u: float, k: float) -> float:
    return float(ellipj(u, k * k)[0])


def _dn(u: float, k: float) -> float:
    return float(ellipj(u, k * k)[2])


def _halfplane_image(
    R: RectanglePolygon, k: float, kp: float, K: float, Kp: float, s: float
) -> float:
    """Image of the boundary point at arc length s under the rectangle ->
    half plane map z -> sn(2K(z - L/2)/L, k).  Returns +-inf at the top
    edge midpoint, where the map wraps through infinity."""
    L = R.L
    s = s % R.perimeter
    if s <= L:
        return _sn(2.0 * K * (s - L / 2.0) / L, k)
    if s <= L + 1.0:
        return 1.0 / _dn(Kp * (s - L), kp)
    if s <= 2.0 * L + 1.0:
        x = 2.0 * L + 1.0 - s
        val = k * _sn(2.0 * K * (x - L / 2.0) / L, k)
        if val == 0.0:
            return math.inf
        return 1.0 / val
    y = 2.0 * L + 2.0 - s
    return -1.0 / _dn(Kp * y, kp)


def rect_boundary_to_halfplane(R: RectanglePolygon) -> tuple[float, ...]:
    """Real images y_1 < ... < y_2N of the marked points.

    The elliptic map fixes a particular real embedding; when the raw
    images fail to be finite and increasing (some marked point beyond
    the top-edge midpoint), a Moebius transform w -> -1/(w - p) with p
    inside the unmarked boundary gap between y_2N and y_1 restores an
    increasing finite configuration.  Moebius moves leave all
    probability ratios invariant.
    """
    k, kp, K, Kp = theta_moduli(2.0 / R.L)
    raw = [_halfplane_image(R, k, kp, K, Kp, s) for s in R.marks]
    finite = all(math.isfinite(w) for w in raw)
    increasing = finite and all(a < b for a, b in zip(raw, raw[1:]))
    if increasing:
        return tuple(raw)
    s_last, s_first = R.marks[-1], R.marks[0]
    gap = s_first - s_last
    for frac in (0.5, 0.375, 0.625, 0.25, 0.75):
        p = _halfplane_image(R, k, kp, K, Kp, s_last + frac * gap)
        if math.isfinite(p) and all(w != p for w in raw):
            break
    else:
        raise ArithmeticError("could not place a Moebius pole in the boundary gap")
    out = tuple(-1.0 / (w - p) if math.isfinite(w) else 0.0 for w in raw)
    if not all(a < b for a, b in zip(out, out[1:])):
        raise ArithmeticError("normalized images are not increasing")
    return out


def rectangle_distribution(R: RectanglePolygon, dps: int | None = None) -> OutcomeDistribution:
    """Crossing-pattern distribution of a marked rectangle."""
    return outcome_distribution(R.npoints, rect_boundary_to_halfplane(R), dps=dps)


# ---------------------------------------------------------------------------
# Cluster dictionary


def canonical_partition(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@dataclass(frozen=True)
class ClusterPartitions:
    """Which positive arcs are wired together, and which negative arcs.

    Arcs are 1..n on each side; `pos` and `neg` are set partitions in
    canonical form (blocks sorted).  Positive arc j spans marked points
    (2j-1, 2j); negative arc j spans (2j, 2j+1 mod 2n).
    """

    n: int
    pos: tuple[tuple[int, ...], ...]
    neg: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for side in (self.pos, self.neg):
            seen = [x for b in side for x in b]
            if sorted(seen) != list(range(1, self.n + 1)):
                raise ValueError("blocks must partition 1..n")
            if canonical_partition(side) != side:
                raise ValueError("blocks must be in canonical form")


def _cyclic_cross(xpos: tuple[int, ...], ypos: tuple[int, ...]) -> bool:
    """Do two disjoint position sets interleave on the cycle?

    Walking the cycle and recording which set each met position belongs
    to, the sets cross exactly when the cyclic block count is >= 4.
    """
    labels = [(p, 0) for p in xpos] + [(p, 1) for p in ypos]
    labels.sort()
    seq = [l for _, l in labels]
    changes = sum(a != b for a, b in zip(seq, seq[1:] + seq[:1]))
    return changes >= 4


def pattern_from_cluster_partitions(cp: ClusterPartitions) -> LinkPattern:
    """Boundary link pattern imprinted by the wired arcs.

    Each cluster touching arcs a_1 < ... < a_m contributes the chords
    {end(a_i), start(a_{i+1 mod m})}; a singleton contributes its own
    arc's endpoints as a doubled-point chord.  The two partitions must
    be jointly planar: positive arcs sit at odd cyclic slots, negative
    at even slots, and no two blocks may interleave.
    """
    n = cp.n
    allblocks = [(b, 0) for b in cp.pos] + [(b, 1) for b in cp.neg]
    positions = [
        tuple(2 * a - 1 + sign for a in b) for b, sign in allblocks
    ]
    for (p1, _), (p2, _) in itertools.combinations(zip(positions, allblocks), 2):
        if _cyclic_cross(p1, p2):
            raise IncompatiblePartitionsError(
                "arc partitions interleave and cannot coexist planarly"
            )
    links: list[tuple[int, int]] = []
    n2 = 2 * n
    for b in cp.pos:
        arcs = sorted(b)
        for a, anext in zip(arcs, arcs[1:] + arcs[:1]):
            end_a = 2 * a
            start_next = 2 * anext - 1
            links.append((end_a, start_next))
    for b in cp.neg:
        arcs = sorted(b)
        for a, anext in zip(arcs, arcs[1:] + arcs[:1]):
            end_a = (2 * a + 1 - 1) % n2 + 1
            start_next = 2 * anext
            links.append((end_a, start_next))
    try:
        return make_pattern(links)
    except ValueError as exc:
        raise IncompatiblePartitionsError(str(exc)) from exc


def _set_partitions(n: int):
    """All set partitions of {1..n} in canonical form."""
    if n == 0:
        yield ()
        return
    for smaller in _set_partitions(n - 1):
        for i in range(len(smaller)):
            yield canonical_partition(
                smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :]
            )
        yield canonical_partition(smaller + ((n,),))


@lru_cache(maxsize=None)
def cluster_pattern_table(n: int) -> dict:
    """Map (pos blocks, neg blocks) -> LinkPattern over all compatible pairs."""
    table = {}
    parts = list(_set_partitions(n))
    for pos in parts:
        for neg in parts:
            try:
                pat = pattern_from_cluster_partitions(ClusterPartitions(n, pos, neg))
            except IncompatiblePartitionsError:
                continue
            table[(pos, neg)] = pat
    return table
