"""Pure partition functions at kappa = 4 and their valence-2 fusions.

Conformal blocks are the difference-product monomials

    U_alpha = prod_{i<j} (x_j - x_i)^(theta_alpha(i,j)/2),

where theta is +1 when i and j are both up-step or both down-step
positions of the pairing alpha and -1 otherwise: it is read off the
pairing's cached up-step set `ups`, never tabulated.  Pure partition
functions are the integer recombinations Z_alpha = sum_beta
Minv[alpha, beta] U_beta with the inverse incidence matrix; they are
positive on ordered configurations and satisfy the null-field second
order PDEs.

Every fusion limit is written in closed form over the inverse-incidence
row (whose entries are an integer back-substitution, see `incidence`),
with each row entry's peaks, valleys and slopes read off the same `ups`.
`fuse_once` collapses one adjacent pair x_{j+1} -> x_j of Z_a.  Fusing
the points pairwise, x_{2j} -> x_{2j-1}, at normalized order +1/2 per
pair produces the partition functions of valence-2 insertions: Zhat of a
link pattern is the full pairwise fusion of Z over the slot lift of the
pattern, grouped over the row of that lift.  The total partition
function normalizes crossing probabilities.

Each builder is one stream of (exponent key, coefficient) terms into
`coulomb.collect`, with every key written sorted and without zero
exponents, in the labels of the result: no intermediate combo is built,
multiplied or relabelled.

All variable labels are 1-based; fused functions live on labels 1..2N.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import coulomb
from .combinat import LinkPattern, PairPartition, make_pairing, tau
from .coulomb import MonomialCombo
from .incidence import inverse_row


@dataclass(frozen=True)
class Constants:
    """Fixed parameters of the critical model.

    kappa: SLE parameter of the level lines.
    h: boundary weight of a single marked point.
    H: boundary weight of a fused (valence 2) marked point.
    """

    kappa: float = 4.0
    h: Fraction = Fraction(1, 4)
    H: Fraction = Fraction(1)


CONSTANTS = Constants()


# ---------------------------------------------------------------------------
# Point configurations


def point_values(npoints: int, y) -> tuple:
    """y_1..y_npoints as given, from a sequence or from a mapping whose
    labels are exactly 1..npoints.  ValueError unless there are npoints
    values, finite and strictly increasing.  The values are compared as
    they are and never rounded, so mpf points keep their precision."""
    if hasattr(y, "keys"):
        if y.keys() != set(range(1, npoints + 1)):
            raise ValueError(f"point labels must be exactly 1..{npoints}, got {list(y)}")
        y = [y[k] for k in range(1, npoints + 1)]
    xs = y if type(y) is tuple else tuple(y)
    if len(xs) != npoints:
        raise ValueError(f"need {npoints} coordinates, got {len(xs)}")
    # strictly increasing (no NaN) with finite ends: finite throughout
    if npoints and not (
        -math.inf < xs[0] and xs[-1] < math.inf and all(map(operator.lt, xs, xs[1:]))
    ):
        if not all(-math.inf < x < math.inf for x in xs):
            raise ValueError("coordinates must be finite")
        raise ValueError("coordinates must be strictly increasing: each must increase with its label")
    return xs


def _theta(ups: frozenset[int], i: int, j: int) -> int:
    """+1 when i and j are both up-step or both down-step positions, else -1."""
    return 1 if (i in ups) == (j in ups) else -1


# ---------------------------------------------------------------------------
# Conformal blocks and pure partition functions


def _block_key(ups: frozenset[int], n2: int) -> coulomb.ExpKey:
    """U's exponent key: theta(i, k) (a doubled power) on every pair i < k of 1..n2."""
    pairs = itertools.combinations(range(1, n2 + 1), 2)
    return tuple(((i, k), _theta(ups, i, k)) for i, k in pairs)


def conformal_block(a: PairPartition) -> MonomialCombo:
    """U_a as an exact monomial: exponent theta(i,j)/2 on every pair i<j."""
    return MonomialCombo({_block_key(a.ups, 2 * a.n): 1})


@lru_cache(maxsize=None)
def pure_partition(a: PairPartition) -> MonomialCombo:
    """Z_a = sum over beta of Minv[a, beta] * U_beta, exact."""
    n2 = 2 * a.n
    return coulomb.collect((_block_key(beta.ups, n2), Fraction(c)) for beta, c in inverse_row(a))


def fuse_once(a: PairPartition, j: int) -> MonomialCombo:
    """Collapse x_{j+1} -> x_j in Z_a at the order set by the link structure.

    If {j, j+1} is a link of a, the two points close a level line and
    the normalized limit sits at order -1/2 (it reproduces the smaller
    pure partition function with that link removed).  Otherwise the
    limit sits at order +1/2 and is a partition function with one
    valence-2 insertion.  Result keeps labels 1..2N-1, gap closed.

    Closed form over the inverse-incidence row of a, with s_i = +1 for an
    up-step i of beta and -1 otherwise, so that theta(i, k) = s_i s_k.
    At x_{j+1} = x_j + eps, U_beta's factor on (j, j+1) is eps^(-1/2) at a
    peak or valley of beta at j and eps^(+1/2) on a slope.  Linked j: each
    peak or valley gives its coefficient times U_beta without j and j+1,
    the limit of its other factors.  Unlinked j: a slope gives U_beta with
    j+1 merged into j, exponent theta(i, j) on each pair (i, j); a peak's
    entry is minus that of the valley with the same other steps (the flip
    identity of the inverse), so their eps^(-1/2) parts cancel and their
    eps^(+1/2) parts are equal: the valley's, doubled, is -c U_beta without
    j and j+1 times sum_i s_i / (x_i - x_j), and the peak adds nothing.
    """
    n2 = 2 * a.n
    if not 1 <= j <= n2 - 1:
        raise ValueError(f"position {j} out of range")
    return coulomb.collect(_collapse_terms(a, j, n2))


def _collapse_terms(a: PairPartition, j: int, n2: int):
    """The (key, coefficient) terms of `fuse_once`, in the closed labels:
    a label i above j+1 is written as i - 1, which keeps pairs ordered."""
    linked = (j, j + 1) in a.links
    rest = tuple(i for i in range(1, n2 + 1) if i not in (j, j + 1))
    label = {i: i - (i > j) for i in rest}
    # the pair of i with the collapsed point, which keeps label j
    with_j = {i: (label[i], j) if i < j else (j, label[i]) for i in rest}
    for beta, coeff in inverse_row(a):
        ups = beta.ups
        slope = (j in ups) == (j + 1 in ups)
        peak = j in ups and j + 1 not in ups
        # a linked j takes peaks and valleys, an unlinked j slopes and valleys
        if slope if linked else peak:
            continue
        c = Fraction(coeff)
        # U_beta without the points j and j+1
        block = tuple(
            ((label[i], label[k]), _theta(ups, i, k)) for i, k in itertools.combinations(rest, 2)
        )
        if linked:
            yield block, c
        elif slope:
            merged = tuple((with_j[i], 2 * _theta(ups, i, j)) for i in rest)
            yield tuple(sorted(block + merged)), c
        else:  # a valley, where s_i = theta(i, j+1)
            # s_i / (x_i - x_j) is s_i (x_i - x_j)^-1 above j, -s_i (x_j - x_i)^-1 below
            for i in rest:
                s = _theta(ups, i, j + 1) * (1 if i > j else -1)
                yield tuple(sorted(block + ((with_j[i], -2),))), -c * s


# ---------------------------------------------------------------------------
# Full pairwise fusion


def _partial_matchings(items: tuple[int, ...]):
    """All ways to pick disjoint unordered pairs from items (possibly none).

    Yields (pairs, unmatched)."""
    if not items:
        yield (), ()
        return
    first, rest = items[0], items[1:]
    # first stays unmatched
    for pairs, un in _partial_matchings(rest):
        yield pairs, (first,) + un
    # first pairs with a later item
    for idx, second in enumerate(rest):
        others = rest[:idx] + rest[idx + 1 :]
        for pairs, un in _partial_matchings(others):
            yield ((first, second),) + pairs, un


@lru_cache(maxsize=None)
def fused_pure_partition(p: LinkPattern) -> MonomialCombo:
    """Zhat of a valence-2 link pattern on 2N points, in labels 1..2N.

    The full pairwise fusion of Z over the slot lift tau(p), with each
    slot pair (2j-1, 2j) collapsed at order +1/2, grouped in closed form:
    it runs over the base pairings beta in the inverse-incidence row of
    the lift whose Dyck path has no peak at any odd position.  Odd
    positions carrying a valley form the set J; the fused limit of the
    grouped series is an explicit sum over partial matchings of J: each
    matched pair (a, b) takes the factor 2 (x_b - x_a)^-2, and each
    unmatched u the factor sum_i 2 theta(2i, 2u-1) / (x_i - x_u) over the
    i outside J.
    """
    if set(p.valences) != {2}:
        raise ValueError("pattern must have valence 2 at every point")
    return coulomb.collect(_fused_terms(tau(p), p.npoints))


def _fused_terms(alpha: PairPartition, n2: int):
    """The (key, coefficient) terms of `fused_pure_partition`: one per
    surviving beta of the row, partial matching of J, and choice of one
    pole i_u outside J for every unmatched u.  Its key joins the block on
    the pairs outside J, (x_b - x_a)^-2 on each matched pair and
    (x_i - x_u)^-1 on each pole: disjoint sets of pairs with nonzero
    exponents, so the sorted items are the key."""
    for beta, coeff in inverse_row(alpha):
        ups = beta.ups
        # step 2j-1 up and step 2j down is a peak at 2j-1; down then up, a valley
        if any(2 * j - 1 in ups and 2 * j not in ups for j in range(1, n2 + 1)):
            continue
        jset = tuple(j for j in range(1, n2 + 1) if 2 * j - 1 not in ups and 2 * j in ups)
        rest = tuple(i for i in range(1, n2 + 1) if i not in jset)
        block = tuple(
            ((i, i2), 4 * _theta(ups, 2 * i, 2 * i2))
            for i, i2 in itertools.combinations(rest, 2)
        )
        # each u's poles 2 theta(2i, 2u-1) / (x_i - x_u), as (key item, coefficient)
        poles = {
            u: [
                (
                    ((min(i, u), max(i, u)), -2),
                    2 * _theta(ups, 2 * i, 2 * u - 1) * (1 if i > u else -1),
                )
                for i in rest
            ]
            for u in jset
        }
        for pairs, unmatched in _partial_matchings(jset):
            # jset is sorted, so every matched pair (a, b) has a < b
            fixed = block + tuple((pair, -4) for pair in pairs)
            c = coeff * 2 ** len(pairs)
            # no pole to choose (J is everything) yields no term: that factor is zero
            for choice in itertools.product(*(poles[u] for u in unmatched)):
                items = fixed + tuple(item for item, _ in choice)
                yield tuple(sorted(items)), Fraction(c * math.prod(s for _, s in choice))


# ---------------------------------------------------------------------------
# Total partition function and the ground-state pairing


@lru_cache(maxsize=None)
def z_mgff_total(npoints: int) -> MonomialCombo:
    """Total partition function in fused variables y_1..y_npoints:
    prod_{i<j} (y_j - y_i)^(2 (-1)^(j-i)).  Equals the sum of Zhat over
    all patterns whose lift is reachable from the ground state."""
    if npoints < 2 or npoints % 2:
        raise ValueError("need an even number of points >= 2")
    exps = [
        ((i, j), 4 * (-1) ** (j - i))
        for i in range(1, npoints + 1)
        for j in range(i + 1, npoints + 1)
    ]
    return MonomialCombo.from_doubled(1, exps)


@lru_cache(maxsize=None)
def omega_pairing(npoints: int) -> PairPartition:
    """Pairing of the ground-state path: {4j+1, 4j+4} and {4j+2, 4j+3}."""
    pairs = []
    for j in range(npoints // 2):
        pairs.append((4 * j + 1, 4 * j + 4))
        pairs.append((4 * j + 2, 4 * j + 3))
    return make_pairing(pairs)
