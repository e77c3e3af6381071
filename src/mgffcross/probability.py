"""Crossing probabilities and rectangle geometry.

Crossing probabilities of the two-valued boundary structure (sign
clusters touching prescribed boundary arcs) are ratios
Zhat_pattern / Z_total in the fused variables, zero for a pattern whose
slot lift is unreachable from the ground-state pairing.
`outcome_distribution` and `condition` read one compiled table per point
count, holding Z_total and every reachable numerator, so one pass
evaluates a configuration; each probability is the plain float division
of the two sums, with the bits of evaluating each combo on its own.
Points come as a sequence or as a mapping labelled 1..npoints, and
`partition_fn.point_values` checks both the same way before the table
reads them, unrounded, so mpf points keep their precision under `dps`.
Points whose float terms leave the float range are scaled once by an
even power of two, which leaves every probability and condition number
as it is (`_scale_free`).

Inputs are validated by builtins over whole tuples (`min`, `max`,
`sum`, `map`) rather than by generator expressions: marks must lie in
[0, perimeter) in cyclic order, and a distribution's entries must be
finite and non-negative.  A NaN anywhere fails each check, because
finiteness is read from `math.isfinite` or a sum, never from `min` or
`max` alone, which skip a NaN that is not first.

For a rectangle with alternating-sign boundary arcs the marked points
are carried to the real line by the elliptic map of the rectangle onto
the upper half plane, z -> sn(2K(z - L/2)/L, k) with K(k')/K(k) = 2/L.
Its boundary values sn and 1/dn, and the corner cross-ratio
q(L) = lambda(iL), are theta-series quotients (DLMF 20.2, 22.2, 23.15).
Jacobi's imaginary transformation keeps every nome at most e^(-pi), so
five terms reach full float precision at any ratio; with `dps` set the
same quotients run through `mpmath.jtheta`.  A mark at a corner skips
the series: sn(-+K) = -+1 and sn(+-K + iK') = +-1/k, with 1/k a quotient
of theta constants computed once, by `_inverse_k`, and y_2, at the
origin, is exactly -1.  The four marks of `RectanglePolygon.corners`
build no map at all: in float they go straight to (-1/k, -1, 1, 1/k)
whenever 1 < 1/k < inf, which is exactly when the map's raw images are
finite and increasing, and otherwise take the map's route and fail as
it does.  Nothing here imports scipy.

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
from dataclasses import dataclass
from functools import lru_cache

from . import coulomb, incidence, partition_fn
from .combinat import LinkPattern, enumerate_link_patterns, tau
from .partition_fn import point_values


# ---------------------------------------------------------------------------
# Probabilities in half-plane coordinates


@lru_cache(maxsize=None)
def _reachable(npoints: int) -> tuple[tuple[LinkPattern, bool], ...]:
    """Every valence-2 pattern on `npoints` points, in enumeration order,
    with whether its slot lift is reachable from the ground-state
    pairing: arrow(omega, tau(p)).  An unreachable pattern has
    probability zero."""
    om = partition_fn.omega_pairing(npoints)
    return tuple(
        (p, incidence.arrow_relation(om, tau(p))) for p in enumerate_link_patterns((2,) * npoints)
    )


@lru_cache(maxsize=None)
def _numerators(npoints: int) -> tuple[tuple[LinkPattern, coulomb.MonomialCombo | None], ...]:
    """Every pattern of `_reachable` with its fused partition function, or
    None when the lift is unreachable."""
    return tuple(
        (p, partition_fn.fused_pure_partition(p) if live else None)
        for p, live in _reachable(npoints)
    )


@lru_cache(maxsize=None)
def _layout(npoints: int) -> tuple[tuple[LinkPattern, ...], tuple[int, ...]]:
    """The patterns of `_numerators` and, for each, 0 when unreachable or
    else 1 + its numerator's position after Z_total in `_table`."""
    table = _numerators(npoints)
    live = itertools.accumulate(num is not None for _, num in table)
    return tuple(p for p, _ in table), tuple(
        0 if num is None else k for (_, num), k in zip(table, live)
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
        probs = self.probs
        if not (all(map(math.isfinite, probs)) and min(probs, default=0.0) >= 0):
            raise ArithmeticError(f"negative or non-finite probability in {probs!r}")
        s = sum(probs)
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {s!r}, not 1")

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


def _distribution(npoints: int, values, dps: int | None) -> OutcomeDistribution:
    patterns, where = _layout(npoints)
    den, *nums = _scale_free(_table(npoints).sums, values, dps)
    ratios = [0.0] + [float(num / den) for num in nums]
    return OutcomeDistribution(patterns, tuple(map(ratios.__getitem__, where)))


def condition(npoints: int, y) -> float:
    """Largest summation condition number over the reachable numerators at y."""
    return max(_scale_free(_table(npoints).conditions, point_values(npoints, y))[1:])


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
        return cls(L, _corner_marks(L))


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


def cross_ratio_rectangle(L: float) -> float:
    """Corner cross-ratio of the [0,L]x[0,1] rectangle: q = theta2^4/theta3^4
    at nome e^(-pi L), or 1 - q(1/L) = theta4^4/theta3^4 at e^(-pi/L) for
    L < 1; over theta3^4 = theta2^4 + theta4^4 (DLMF 20.7.3), q(1) = 1/2
    and q(L) + q(1/L) = 1 hold to rounding."""
    th2, _, th4 = _theta_constants(L)
    t2, t4 = th2**4, th4**4
    return (t2 if L >= 1.0 else t4) / (t2 + t4)


# a series term at most e^(-_CUT) = 2^-60 times its leading term is dropped
_CUT = 60.0 * math.log(2.0)
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_HALF_PI = 0.5 * math.pi


def _split(a: float) -> tuple[float, float]:
    """a = hi + lo with hi holding 26 bits (Veltkamp): products of halves are exact."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _times_exp(x: float, e: float) -> float:
    """x * e^e; infinite, with the sign of x, where that leaves float range."""
    try:
        return x * math.exp(e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _corner_marks(L: float) -> tuple[float, float, float, float]:
    """Arc lengths of the corners (0, 1), (0, 0), (L, 0) and (L, 1): the
    marks of `RectanglePolygon.corners`, whose images are -1/k, -1, 1, 1/k."""
    return (2.0 * L + 1.0, 0.0, L, L + 1.0)


def _orders(pa: float) -> tuple[range, range]:
    """The n of the series terms kept at the nome e^(-pa), smallest terms
    first: q^(n(n+1)) for n <= 4 while q^(n^2) counts, and q^(n^2) for
    1 <= n <= 5 while q^(n(n-1)), the most a q^(n^2) cosh(2ny) term
    reaches, counts."""
    cut = _CUT / pa
    odd = range(min(4, int(math.sqrt(cut))), -1, -1)
    return odd, range(min(5, int(0.5 + math.sqrt(0.25 + cut))), 0, -1)


def _inverse_k(L: float) -> tuple:
    """1/k of the map of `_BoundaryMap` at ratio L, with what that map
    shares of its computation: (1/k, pa, c, narrow).  The nome is
    e^(-pa), pa = pi max(2/L, L/2).  For L > 2, c = th3/th4 and 1/k = c^2
    = 1 + (th3 - th4)(th3 + th4)/th4^2, rounded once, with th3 - th4 =
    4(q + q^9 + ...) free of cancellation: the corner gap 1/k - 1 ~ 8q is
    all that sets q(L) at large L; narrow is None.  For L <= 2, c = th3/th2
    with the factor 2 q^(1/4) of th2 taken out, 1/k = c * top with top =
    (c/4) e^(pi/L), and narrow = (ph, ph_split, pl, top), where pi/L = ph +
    pl to twice float precision and ph_split is ph in `_split` halves."""
    wide = L > 2.0
    pa = math.pi * (0.5 * L if wide else 2.0 / L)
    odd_n, even_n = _orders(pa)
    exp = math.exp
    even = [2.0 * exp(-pa * n * n) for n in even_n]
    th3 = 1.0 + sum(even)
    if wide:
        even4 = [-e if n & 1 else e for n, e in zip(even_n, even)]
        th4 = 1.0 + sum(even4)
        d = sum([e - e4 for e, e4 in zip(even, even4)])
        return 1.0 + d * (th3 + th4) / (th4 * th4), pa, th3 / th4, None
    c = th3 / sum([exp(-(pa * n * (n + 1) if n else 0.0)) for n in odd_n])
    # e^(pi v/L) is as accurate as its exponent is absolutely, and pi/L
    # reaches 3e3 at L = 1e-3
    ph = math.pi / L
    ph_split = (ph, 0.0) if ph > 1e300 else _split(ph)
    (ah, al), (bh, bl) = ph_split, _split(L)
    err = ((ah * bh - ph * L) + ah * bl + al * bh) + al * bl  # ph L - fl(ph L)
    pl = (((math.pi - ph * L) - err) + _PI_LO) / L
    # 1/(k sn) = (c/4) e^(pi/L) th4/th1 on the top edge
    top = _times_exp(0.25 * c * (1.0 + pl), ph)
    return c * top, pa, c, (ph, ph_split, pl, top)


class _BoundaryMap:
    """Arc length on the boundary of [0, L] x [0, 1] -> real image under
    z -> sn(2K(z - L/2)/L, k), the map onto the upper half plane with
    K'/K = 2/L, as theta quotients (DLMF 22.2).

    With t = x - L/2 on the bottom and top edges and v the height on the
    sides, the images are sn(2Kt/L, k) = (th3/th2) th1(pi t/L)/th4(pi t/L)
    at the nome e^(-2 pi/L), its top-edge counterpart 1/(k sn(2Kt/L, k)),
    and +-1/dn(K'v, k') = +-(th3/th4) th4(pi v/2)/th3(pi v/2) at the nome
    e^(-pi L/2).  Whichever nome exceeds e^(-pi) moves to the other by
    Jacobi's imaginary transformation (DLMF 20.7.30, 22.6.iv), so every
    series runs at q = e^(-pa), pa = pi max(2/L, L/2) >= pi.  The moved
    series take imaginary arguments iy, 0 <= y <= pa/2: sums of
    q^(n(n+1)) sinh or cosh((2n+1)y) and of q^(n^2) cosh(2ny).  Each such
    term is one exp of its summed exponent less the leading term's, so no
    term overflows at any L; the leading factor e^y multiplies the
    quotient last and is infinite only where the image leaves float
    range.  The nome powers and the corners' arc lengths are computed once
    per rectangle, and the two series an image divides run in one call
    (th1 and th4, th3 and th4 over one cosine per term, or th2 and th3 at
    iy), each summed in the same order as on its own.

    A mark at a corner's arc length, 0, L, L + 1 or 2L + 1 as
    `_corner_marks` writes them, maps to its exact image -1, 1, 1/k or
    -1/k without a series, 1/k and the constants c and top coming from
    `_inverse_k`.
    """

    __slots__ = (
        "L", "per", "up", "back", "wide", "c", "odd", "even", "ph", "pl", "ph_split", "top",
        "corners",
    )

    def __init__(self, L: float):
        self.L = L
        marks = _corner_marks(L)
        # arc lengths of the corners (0, 1) and (L, 1) and of the whole walk
        self.back, _, _, self.up = marks
        self.per = 2.0 * L + 2.0
        inv_k, pa, self.c, narrow = _inverse_k(L)
        self.corners = dict(zip(marks, (-inv_k, -1.0, 1.0, inv_k)))
        self.wide = narrow is None
        if narrow:
            self.ph, self.ph_split, self.pl, self.top = narrow
        # smallest terms first: (2n, -log q^(n(n+1)), (-1)^n, (-1)^n q^(n(n+1)))
        # and (2n, -log q^(n^2), 2 q^(n^2), 2 (-1)^n q^(n^2))
        odd_n, even_n = _orders(pa)
        exp = math.exp
        self.odd = odd = []
        for n in odd_n:
            a, sign = pa * n * (n + 1) if n else 0.0, -1.0 if n & 1 else 1.0
            odd.append((2 * n, a, sign, sign * exp(-a)))
        self.even = even = []
        for n in even_n:
            b = pa * n * n
            e = 2.0 * exp(-b)
            even.append((2 * n, b, e, -e if n & 1 else e))

    def _th14(self, z: float) -> tuple[float, float]:
        """th1(z) / (2 q^(1/4)) and th4(z)."""
        sin, cos, th1, th4 = math.sin, math.cos, 0.0, 1.0
        for n2, _, _, o in self.odd:
            th1 += o * sin((n2 + 1) * z)
        for n2, _, _, e in self.even:
            th4 += e * cos(n2 * z)
        return th1, th4

    def _th34(self, z: float) -> tuple[float, float]:
        """th3(z) and th4(z), one cosine per term."""
        cos, th3, th4 = math.cos, 1.0, 1.0
        for n2, _, e3, e4 in self.even:
            c = cos(n2 * z)
            th3 += e3 * c
            th4 += e4 * c
        return th3, th4

    def _sh_ch(self, y: float) -> tuple[float, float]:
        """2 e^(-y) th1(iy) / (2i q^(1/4)) and 2 e^(-y) th2(iy) / (2 q^(1/4)), y >= 0."""
        exp, expm1, sh, ch = math.exp, math.expm1, 0.0, 0.0
        for n2, a, sign, _ in self.odd:
            g, x = exp(n2 * y - a), expm1(-(2 * n2 + 2) * y)
            sh -= sign * g * x
            ch += g * (2.0 + x)
        return sh, ch

    def _ch_ch3(self, y: float) -> tuple[float, float]:
        """The second value of `_sh_ch`, and th3(iy) for 0 <= y <= pa/2."""
        exp, expm1, ch, ch3 = math.exp, math.expm1, 0.0, 1.0
        for n2, a, _, _ in self.odd:
            ch += exp(n2 * y - a) * (2.0 + expm1(-(2 * n2 + 2) * y))
        for n2, b, _, _ in self.even:
            ch3 += exp(n2 * y - b) * (1.0 + exp(-2 * n2 * y))
        return ch, ch3

    def _side(self, parts: tuple[float, ...]) -> float:
        """1/dn(K'v, k') for L <= 2 and v = sum(parts) in [0, 1]: c e^y
        th2(iy)/th3(iy) with y = pi v/L, or for v > 1/2, through
        dn(K' - u, k') = k/dn(u, k'), c e^y th3(iy')/th2(iy') with
        y' = pi (1 - v)/L, so that no series term nears its leader."""
        fsum, ph = math.fsum, self.ph
        vh = fsum(parts)
        yh = ph * vh
        if yh > 710.0:  # e^y alone leaves float range
            return math.inf
        if vh <= 0.5:
            ch, ch3 = self._ch_ch3(yh)
            ratio = 0.5 * ch / ch3
        else:
            ch, ch3 = self._ch_ch3(-ph * fsum((*parts, -1.0)))  # at y'
            ratio = 0.5 * ch3 / ch
        # e^(pi v/L) = e^yh (1 + yl), yl = pi v/L - yh
        (ah, al), (bh, bl) = self.ph_split, _split(vh)
        yl = ((ah * bh - yh) + ah * bl + al * bh) + al * bl
        yl += ph * fsum((*parts, -vh)) + self.pl * vh
        return _times_exp(self.c * ratio * (1.0 + yl), yh)

    def __call__(self, s: float) -> float:
        """Image of the boundary point at arc length s; +inf at the top
        edge midpoint, where the map wraps through infinity."""
        s = s % self.per
        w = self.corners.get(s)
        if w is not None:
            return w
        L, up = self.L, self.up
        if L < s <= up or s > self.back:  # sides
            right = s <= up
            parts = (s, -L) if right else (L, L, 2.0, -s)
            if self.wide:
                z = _HALF_PI * math.fsum(parts)
                th3, th4 = self._th34(z)
                w = self.c * th4 / th3
            else:
                w = self._side(parts)
            return w if right else -w
        top = s > L
        # x - L/2 with x = 2L + 1 - s on the top edge, rounded once: near
        # the midpoint the image is about 1/t
        t = math.fsum((L, 0.5 * L, 1.0, -s)) if top else s - 0.5 * L
        if self.wide:
            sh, ch = self._sh_ch(_HALF_PI * abs(t))
            if top:
                return math.copysign(self.c * ch / sh, t) if sh else math.inf
            return math.copysign(self.c * sh / ch, t)
        z = math.pi * t / L
        th1, th4 = self._th14(z)
        if top:
            return self.top * th4 / th1 if th1 else math.inf
        return self.c * th1 / th4


def _mp_boundary_map(L: float):
    """`_BoundaryMap` in mpmath at the working precision: the same
    quotients through `mpmath.jtheta` at the same nome, and the same
    exact corner images."""
    import mpmath
    from mpmath import jtheta, mpf, pi

    marks = _corner_marks(L)
    L = mpf(L)
    wide = L > 2
    q = mpmath.exp(-pi * (L / 2 if wide else 2 / L))
    c = jtheta(3, 0, q) / jtheta(4 if wide else 2, 0, q)  # c^2 = 1/k
    corners = dict(zip(marks, (-c * c, mpf(-1), mpf(1), c * c)))  # an mpf hashes as its float

    def image(s):
        s = mpf(s) % (2 * L + 2)
        w = corners.get(s)
        if w is not None:
            return w
        if L < s <= L + 1 or s > 2 * L + 1:  # sides
            right = s <= L + 1
            v = s - L if right else 2 * L + 2 - s
            if wide:
                w = c * jtheta(4, pi * v / 2, q) / jtheta(3, pi * v / 2, q)
            else:
                y = mpmath.mpc(0, pi * v / L)
                w = c * (jtheta(2, y, q) / jtheta(3, y, q)).real
            return w if right else -w
        top = s > L
        t = (2 * L + 1 - s if top else s) - L / 2
        if wide:
            y = mpmath.mpc(0, pi * t / 2)
            sn = c * (jtheta(1, y, q) / jtheta(2, y, q)).imag
        else:
            sn = c * jtheta(1, pi * t / L, q) / jtheta(4, pi * t / L, q)
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

    The four marks of `RectanglePolygon.corners` map to (-1/k, -1, 1, 1/k)
    with no map built, when 1 < 1/k < inf; that is exactly when the map's
    raw images are finite and increasing.
    """
    if dps is None:
        if R.marks == _corner_marks(R.L):
            inv_k = _inverse_k(R.L)[0]
            if 1.0 < inv_k < math.inf:
                return (-inv_k, -1.0, 1.0, inv_k)
        return _normalized(R, _BoundaryMap(R.L))
    import mpmath

    with mpmath.workdps(dps):
        return _normalized(R, _mp_boundary_map(R.L))


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
    for p, live in _reachable(2 * n):
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
