"""Crossing probabilities and rectangle geometry.

Crossing probabilities of the two-valued boundary structure (sign
clusters touching prescribed boundary arcs) are ratios
Zhat_pattern / Z_total in the fused variables, zero for a pattern whose
slot lift is unreachable from the ground-state pairing.
`outcome_distribution` and `conditioned_distribution` read one compiled
table per point count, holding Z_total and every reachable numerator, so
one pass evaluates a configuration; each probability is the plain float
division of the two sums, with the bits of evaluating each combo on its
own.  `_outcomes` divides the sums pattern by pattern, in `where` order,
into the tuple of entries, and builds the distribution from it after
`_check_probs`, the one check that `OutcomeDistribution(...)` runs too,
without the dataclass's `__init__` round trip.
`conditioned_distribution` takes the numerators' summation condition
numbers from the pass that made its probabilities.
Points come as a sequence or as a mapping labelled 1..npoints, and
`partition_fn.point_values` checks both the same way before the table
reads them, unrounded, so mpf points keep their precision under `dps`.
Points whose float terms leave the float range are scaled once by an
even power of two, which leaves every probability and condition number
as it is (`_scale_free`); other points go to the table directly.

Inputs are validated by builtins over whole tuples (`min`, `max`,
`sum`, `map`) rather than by generator expressions: marks must lie in
[0, perimeter) in cyclic order, and a distribution's entries must be
finite and non-negative.  A NaN anywhere fails each check, because
finiteness is read from `math.isfinite` or a sum, never from `min` or
`max` alone, which skip a NaN that is not first.

For a rectangle with alternating-sign boundary arcs the marked points
are carried to the real line by the elliptic map of the rectangle onto
the upper half plane, z -> sn(2K(z - L/2)/L, k) with K(k')/K(k) = 2/L.
Its boundary values sn and 1/dn are theta-series quotients (DLMF 20.2,
22.2), computed by one routine, `_mp_boundary_map`, through
`mpmath.jtheta`: at `dps` digits when `dps` is set, and otherwise at
`_MAP_DPS` digits with each raw image rounded once to float before the
Moebius step.  It reads the aspect ratio and the marks exactly, through
`coulomb.to_mpf`.  A mark at a corner skips the series: sn(-+K) = -+1 and
sn(+-K + iK') = +-1/k, and y_2, at the origin, is exactly -1.  The
corner cross-ratio q(L) = lambda(iL) is a float theta quotient (DLMF
23.15), and it is all the four marks of `RectanglePolygon.corners` need:
in float they go to the Moebius frame (0, eps, 1, 2), eps = 2q/(1 + q),
whose cross ratio is q and whose small gap eps sits exactly at 0, so
q^4 at a long rectangle keeps the relative accuracy of q.  The frame is
refused where eps rounds onto 1 (L below about 0.08) or q^4 falls below
the normal float range (L above about 57).  So corner rectangles run in
float alone, while a float rectangle with other marks costs an mpmath
evaluation of about a millisecond.  Nothing here imports scipy, and only
the map imports mpmath.

The cluster dictionary at the end maps a pair of arc partitions
(which positive arcs are wired together, which negative arcs) to the
boundary link pattern they imprint.  It is read off the slot lift of
each reachable pattern: the arcs on one face of the lift's chord
diagram are wired together.  A pair that no reachable pattern has is
absent; the simulator counts it as an anomaly.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import coulomb, incidence, partition_fn
from .combinat import LinkPattern, enumerate_link_patterns, tau
from .partition_fn import point_values


# ---------------------------------------------------------------------------
# Probabilities in half-plane coordinates


class _Model:
    """The exact model on `npoints` points: every valence-2 pattern in
    enumeration order; `live`, whether each one's slot lift is reachable
    from the ground-state pairing, arrow(omega, tau(p)); and `where`, for
    each pattern 0 when it is unreachable (probability zero) or else 1 +
    its numerator's position after Z_total in `table`.  The table holds
    Z_total and the reachable fused numerators, in that order, built from
    their terms: one pass evaluates them all, and no numerator caches a
    table of its own.  It is built on first use, so the cluster
    dictionary starts no fusion."""

    def __init__(self, npoints: int):
        om = partition_fn.omega_pairing(npoints)
        self.npoints = npoints
        self.patterns = tuple(enumerate_link_patterns((2,) * npoints))
        self.live = tuple(incidence.arrow_relation(om, tau(p)) for p in self.patterns)
        self.where = tuple(
            k if live else 0 for live, k in zip(self.live, itertools.accumulate(self.live))
        )

    @cached_property
    def table(self) -> coulomb.Compiled:
        nums = (
            partition_fn.fused_pure_partition(p)
            for p, live in zip(self.patterns, self.live)
            if live
        )
        return coulomb.Compiled((partition_fn.z_mgff_total(self.npoints), *nums))


@lru_cache(maxsize=None)
def _model(npoints: int) -> _Model:
    return _Model(npoints)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Full crossing-pattern distribution at a point configuration."""

    patterns: tuple[LinkPattern, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        _check_probs(self.patterns, self.probs)

    def as_json(self) -> list[dict]:
        return [
            {"pattern": [list(l) for l in p.links], "prob": pr}
            for p, pr in zip(self.patterns, self.probs)
        ]


def outcome_distribution(npoints: int, y, dps: int | None = None) -> OutcomeDistribution:
    """Distribution over all valence-2 patterns on `npoints` marked points:
    entry by entry arrow(omega, tau(p)) * Zhat_p(y) / Z_total(y), with the
    total and every reachable numerator read from one compiled table."""
    return _distribution(npoints, point_values(npoints, y), dps)


def conditioned_distribution(npoints: int, y) -> tuple[OutcomeDistribution, float]:
    """The float `outcome_distribution` at y and the largest summation
    condition number over its reachable numerators, both from one table
    pass."""
    model = _model(npoints)
    sums, conds = _scale_free(model.table.sums_and_conditions, point_values(npoints, y))
    return _outcomes(model, sums), max(conds[1:])


def _check_probs(patterns: tuple, probs: tuple) -> None:
    """The checks of every `OutcomeDistribution`: one finite, non-negative
    entry per pattern, summing to 1 within 1e-12."""
    if len(patterns) != len(probs):
        raise ValueError("length mismatch")
    s = sum(probs)
    # a NaN or an infinity among the entries makes the sum non-finite;
    # finite entries can only overflow it
    finite = math.isfinite(s) or all(map(math.isfinite, probs))
    if not (finite and min(probs, default=0.0) >= 0):
        raise ArithmeticError(f"negative or non-finite probability in {probs!r}")
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {s!r}, not 1")


def _distribution(npoints: int, values, dps: int | None) -> OutcomeDistribution:
    model = _model(npoints)
    try:
        sums = model.table.sums(values, dps)
    except OverflowError:
        sums = _scale_free(model.table.sums, values, dps)
    return _outcomes(model, sums)


def _outcomes(model: _Model, sums: list) -> OutcomeDistribution:
    """The distribution of the table's sums: each numerator over Z_total,
    in `where` order, and 0.0 for an unreachable pattern; checked as the
    constructor checks it, without its round trip through `__init__`."""
    den = sums[0]
    probs = tuple([float(sums[k] / den) if k else 0.0 for k in model.where])
    _check_probs(model.patterns, probs)
    dist = object.__new__(OutcomeDistribution)
    object.__setattr__(dist, "patterns", model.patterns)
    object.__setattr__(dist, "probs", probs)
    return dist


def _centred(xs: tuple) -> tuple:
    """Increasing points times 2^e, e even and chosen so that the smallest
    and the largest pair difference lie about equally far from 1."""
    gap = min(map(operator.sub, xs[1:], xs))
    e = -2 * ((math.frexp(gap)[1] + math.frexp(xs[-1] - xs[0])[1]) // 4)
    return tuple(math.ldexp(x, e) for x in xs)


def _scale_free(read, xs: tuple, *args):
    """read(xs, *args), or where a term leaves the float range
    read(_centred(xs), *args) once.  The total and every numerator are
    homogeneous of one degree, so an even power of two scales all their
    terms exactly and alike: the probabilities and condition numbers are
    those of xs.  Points that succeed keep their bits; the first
    OverflowError stands when the scaled points overflow too."""
    try:
        return read(xs, *args)
    except OverflowError as exc:
        try:
            return read(_centred(xs), *args)
        except OverflowError:
            raise exc from None


def cross_ratio(y) -> float:
    """(y2-y1)(y4-y3) / ((y3-y1)(y4-y2)) for four increasing reals, of the
    `_centred` points where a product leaves the float range."""
    y1, y2, y3, y4 = ys = point_values(4, y)
    num, den = (y2 - y1) * (y4 - y3), (y3 - y1) * (y4 - y2)
    if not (0.0 < num and den < math.inf):
        y1, y2, y3, y4 = _centred(ys)
        num, den = (y2 - y1) * (y4 - y3), (y3 - y1) * (y4 - y2)
    return num / den


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
        if m[1] != 0.0:
            raise ValueError("y_2 must sit at the origin corner (arc length 0)")
        # min and max skip a NaN that is not first; the sum does not
        if not (0 <= min(m) and max(m) < self.perimeter) or math.isnan(sum(m)):
            raise ValueError("arc lengths must lie in [0, perimeter)")
        if not all(map(operator.lt, m[1:], m[2:] + m[:1])):
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
        Positive arcs are then the left and right edges.  L is made a
        float first, so the marks are the float arc lengths of its value
        whatever its type."""
        L = float(L)
        marks = _corner_marks(L)
        # these marks pass every check of the constructor exactly when
        # 0 = y_2 < y_3 < y_4 < y_1 < perimeter < inf holds; where it does
        # not, the constructor raises its own error
        if 0.0 < L < marks[3] < marks[0] < 2.0 * (L + 1.0) < math.inf:
            R = object.__new__(cls)
            object.__setattr__(R, "L", L)
            object.__setattr__(R, "marks", marks)
            return R
        return cls(L, marks)


def cross_ratio_rectangle(L: float) -> float:
    """Corner cross-ratio of the [0,L]x[0,1] rectangle: q = theta2^4/theta3^4
    at nome e^(-pi L), or 1 - q(1/L) = theta4^4/theta3^4 at e^(-pi/L) for
    L < 1; over theta3^4 = theta2^4 + theta4^4 (DLMF 20.7.3), q(1) = 1/2
    and q(L) + q(1/L) = 1 hold to rounding.

    theta2 and theta4 at z = 0 sum five terms each, smallest first.  At
    the nome e^(-pi a) <= e^(-pi) the terms past n = 3 lie below 2^-53 of
    the leading one; they are kept so that q is the five-term series'
    float, operation for operation, at every ratio."""
    L = float(L)  # a numpy float32 would keep the series in float32
    if not 0.0 < L < math.inf:
        raise ValueError("ratio must be positive and finite")
    a = L if L >= 1.0 else 1.0 / L
    q = math.exp(-math.pi * a)
    m = -q
    th2 = 2.0 * math.exp(-math.pi * a / 4.0) * (1.0 + (q**30 + q**20 + q**12 + q**6 + q**2))
    th4 = 1.0 + 2.0 * (m**25 + m**16 + m**9 + m**4 + m)
    t2, t4 = th2**4, th4**4
    return (t2 if L >= 1.0 else t4) / (t2 + t4)


# decimal digits at which the mpmath map computes a float image before
# rounding it once
_MAP_DPS = 30


def _corner_marks(L: float) -> tuple[float, float, float, float]:
    """Arc lengths of the corners (0, 1), (0, 0), (L, 0) and (L, 1): the
    marks of `RectanglePolygon.corners`, whose images are -1/k, -1, 1, 1/k."""
    return (2.0 * L + 1.0, 0.0, L, L + 1.0)


def _mp_boundary_map(L: float):
    """Arc length on the boundary of [0, L] x [0, 1] -> real image under
    z -> sn(2K(z - L/2)/L, k), the map onto the upper half plane with
    K'/K = 2/L, as theta quotients (DLMF 22.2) through `mpmath.jtheta`
    at the working precision.

    With t = x - L/2 on the bottom and top edges and v the height on the
    sides, the bottom edge maps to sn(2Kt/L, k) and the top edge to
    1/(k sn(2Kt/L, k)), with x = 2L + 1 - s there, and the right and left
    sides to +-1/dn(K'v, k').  For L <= 2 these run at the nome
    q = e^(-2 pi/L): sn = c th1(pi t/L)/th4(pi t/L) and 1/dn =
    c th2(i pi v/L)/th3(i pi v/L), with c = th3/th2, or past v = 1/2,
    when q is below the working epsilon, dn(K'(1 - v), k')/k =
    c th3(i pi (1 - v)/L)/th2(i pi (1 - v)/L).  For L > 2 they run
    at q = e^(-pi L/2), after Jacobi's imaginary transformation (DLMF
    20.7.30, 22.6.iv): sn = c th1(i pi t/2)/(i th2(i pi t/2)) and 1/dn =
    c th4(pi v/2)/th3(pi v/2), with c = th3/th4.  Either way c^2 = 1/k
    and q <= e^(-pi).  L and each mark are read by `coulomb.to_mpf`, so
    an int, Fraction or numpy number counts at its exact value.  A mark at
    a corner's arc length, as `_corner_marks` writes it, maps to its exact
    image -1/k, -1, 1 or 1/k without a series.  The images are mpf: the
    bottom edge midpoint maps to 0 and the top edge midpoint, where the
    map wraps through infinity, to +inf."""
    import mpmath
    from mpmath import jtheta, mpf, pi

    marks = map(coulomb.to_mpf, _corner_marks(L))
    L = coulomb.to_mpf(L)
    wide = L > 2
    q = mpmath.exp(-pi * (L / 2 if wide else 2 / L))
    c = jtheta(3, 0, q) / jtheta(4 if wide else 2, 0, q)  # c^2 = 1/k
    corners = dict(zip(marks, (-c * c, mpf(-1), mpf(1), c * c)))

    def image(s):
        s = coulomb.to_mpf(s) % (2 * L + 2)
        w = corners.get(s)
        if w is not None:
            return w
        if L < s <= L + 1 or s > 2 * L + 1:  # sides
            right = s <= L + 1
            v = s - L if right else 2 * L + 2 - s
            if wide:
                w = c * jtheta(4, pi * v / 2, q) / jtheta(3, pi * v / 2, q)
            elif v > 0.5 and q < mpmath.eps:
                # jtheta sums th3(iy) while q^(n^2) exceeds its working
                # epsilon, whatever cosh(2ny) adds, but q cosh(2y) nears 1
                # as v does: take dn(K'(1 - v), k')/k, whose terms all stay
                # below sqrt(q) of the leading one
                y = mpmath.mpc(0, pi * (1 - v) / L)
                w = c * (jtheta(3, y, q) / jtheta(2, y, q)).real
            else:
                y = mpmath.mpc(0, pi * v / L)
                w = c * (jtheta(2, y, q) / jtheta(3, y, q)).real
            return w if right else -w
        top = s > L
        t = (2 * L + 1 - s if top else s) - L / 2
        if wide:
            y = mpmath.mpc(0, pi * t / 2)
            sn = c * (jtheta(1, y, q) / jtheta(2, y, q)).imag
        elif t:
            sn = c * jtheta(1, pi * t / L, q) / jtheta(4, pi * t / L, q)
        else:  # an edge midpoint: jtheta(1, 0, q) is rounding noise, not 0
            sn = mpf(0)
        if top:
            return c * c / sn if sn else mpmath.inf
        return sn

    return image


def rect_boundary_to_halfplane(R: RectanglePolygon, dps: int | None = None) -> tuple:
    """Real images y_1 < ... < y_2N of the marked points: floats, or mpf
    at `dps` digits.

    The elliptic map fixes a particular real embedding; when the raw
    images fail to be finite and increasing (some marked point beyond
    the top-edge midpoint, or an image beyond float range), a Moebius
    transform w -> -1/(w - p) with p inside the unmarked boundary gap
    between y_2N and y_1 restores an increasing finite configuration.
    Moebius moves leave all probability ratios invariant.

    In float, the four marks of `RectanglePolygon.corners` map to the
    Moebius frame (0, eps, 1, 2), eps = 2q/(1 + q) with q the corner
    cross-ratio, and no mpmath; ArithmeticError where eps rounds onto 1
    or q^4 is not a normal float, since the frame then collapses two
    images or loses the digits of the q^4 entry.  Every other float
    input takes `_mp_boundary_map` at _MAP_DPS digits and rounds each raw
    image to float before the Moebius step, so an image beyond float
    range is infinite there and moved like any other.
    """
    if dps is None and R.marks == _corner_marks(R.L):
        q = cross_ratio_rectangle(R.L)
        eps = 2.0 * q / (1.0 + q)
        if not (sys.float_info.min <= q**4 and eps < 1.0):
            raise ArithmeticError(f"corner frame out of float range at L = {R.L!r} (q = {q!r})")
        return (0.0, eps, 1.0, 2.0)
    import mpmath

    with mpmath.workdps(_MAP_DPS if dps is None else dps):
        image = _mp_boundary_map(R.L)
        return _normalized(R, image if dps is not None else lambda s: float(image(s)))


def _normalized(R: RectanglePolygon, image) -> tuple:
    finite = lambda w: abs(w) < math.inf  # an mpf beyond float range is finite
    raw = list(map(image, R.marks))
    # strictly increasing (no NaN) with finite ends: finite throughout
    if -math.inf < raw[0] and raw[-1] < math.inf and all(map(operator.lt, raw, raw[1:])):
        return tuple(raw)
    s_last, s_first = R.marks[-1], R.marks[0]
    gap = s_first - s_last
    for frac in (0.5, 0.375, 0.625, 0.25, 0.75):
        p = image(s_last + frac * gap)
        if finite(p) and all(w != p for w in raw):
            break
    else:
        raise ArithmeticError("could not place a Moebius pole in the boundary gap")
    out = tuple(-1.0 / (w - p) if finite(w) else 0.0 for w in raw)
    if not all(map(operator.lt, out, out[1:])):
        raise ArithmeticError("normalized images are not increasing")
    return out


def rectangle_distribution(R: RectanglePolygon, dps: int | None = None) -> OutcomeDistribution:
    """Crossing-pattern distribution of a marked rectangle; with `dps`
    set, the images too are computed at that precision."""
    return _distribution(R.npoints, rect_boundary_to_halfplane(R, dps), dps)


# ---------------------------------------------------------------------------
# Cluster dictionary


def canonical_partition(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@lru_cache(maxsize=None)
def cluster_pattern_table(n: int) -> dict:
    """Map (pos blocks, neg blocks) -> LinkPattern over the reachable
    patterns on 2n points, blocks in `canonical_partition` form.

    Positive arc j runs from y_(2j-1) to y_2j, negative arc j from y_2j
    to y_(2j+1 mod 2n).  In the slot lift point k owns slots 2k-1 and 2k,
    and the boundary gap after slot 2k is arc k from y_k to y_(k+1):
    positive arc (k+1)/2 for odd k, negative arc k/2 for even k.  The
    faces of the lift are the orbits of g -> partner(g mod 4n + 1), and
    the arcs on one face are wired together.
    """
    table = {}
    model = _model(2 * n)
    for p, live in zip(model.patterns, model.live):
        if not live:
            continue
        partner = {}
        for a, b in tau(p).links:
            partner[a], partner[b] = b, a
        blocks, seen = ([], []), set()
        for start in range(2, 4 * n + 1, 2):
            face, g = [], start
            while g not in seen:
                seen.add(g)
                if g % 2 == 0:
                    face.append(g // 2)
                g = partner[g % (4 * n) + 1]
            if face:  # arcs of one sign: positive for odd k
                blocks[face[0] % 2 == 0].append([(k + 1) // 2 for k in face])
        table[canonical_partition(blocks[0]), canonical_partition(blocks[1])] = p
    return table
