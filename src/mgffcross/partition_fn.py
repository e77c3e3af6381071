"""Pure partition functions at kappa = 4 and their valence-2 fusions.

Conformal blocks are the difference-product monomials

    U_alpha = prod_{i<j} (x_j - x_i)^(theta_alpha(i,j)/2),

where theta is +1 when i and j are both up-step or both down-step
positions of the pairing alpha and -1 otherwise: it is read off the
pairing's cached up-step set `ups`, never tabulated.  Pure partition
functions are the integer recombinations Z_alpha = sum_beta
Minv[alpha, beta] U_beta with the inverse incidence matrix, summed in
one pass by `coulomb.combo_sum`; they are positive on ordered
configurations and satisfy the null-field second order PDEs.

Fusing the points pairwise, x_{2j} -> x_{2j-1}, at normalized order
+1/2 per pair produces the partition functions of valence-2 insertions:
Zhat of a link pattern is the full pairwise fusion of Z over the slot
lift of the pattern, computed in closed form by grouping the fusion
series of the inverse-incidence row of that lift (whose entries are an
integer back-substitution, see `incidence`).  A row entry's peaks and
valleys at odd positions are read off the same `ups`, and its grouped
pieces are summed once.  The total partition function normalizes
crossing probabilities.

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


@dataclass(frozen=True)
class PointConfig:
    """Strictly increasing finite tuple of real boundary coordinates."""

    xs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", increasing_floats(self.xs))

    def __len__(self) -> int:
        return len(self.xs)

    def as_dict(self) -> dict[int, float]:
        return {i + 1: x for i, x in enumerate(self.xs)}


def increasing_floats(xs) -> tuple[float, ...]:
    """xs as floats, checked finite and strictly increasing."""
    xs = tuple(map(float, xs))
    if not all(map(math.isfinite, xs)):
        raise ValueError("coordinates must be finite")
    if not all(map(operator.lt, xs, xs[1:])):
        raise ValueError("coordinates must be strictly increasing")
    return xs


def as_point_dict(x) -> dict[int, float]:
    """Accept a PointConfig, a mapping, or a plain increasing sequence."""
    if isinstance(x, PointConfig):
        return x.as_dict()
    if hasattr(x, "keys"):
        return {int(k): v for k, v in x.items()}
    return PointConfig(tuple(x)).as_dict()


def _theta(ups: frozenset[int], i: int, j: int) -> int:
    """+1 when i and j are both up-step or both down-step positions, else -1."""
    return 1 if (i in ups) == (j in ups) else -1


# ---------------------------------------------------------------------------
# Conformal blocks and pure partition functions


def conformal_block(a: PairPartition) -> MonomialCombo:
    """U_a as an exact monomial: exponent theta(i,j)/2 on every pair i<j."""
    n2 = 2 * a.n
    pairs = itertools.combinations(range(1, n2 + 1), 2)
    return MonomialCombo.from_doubled(1, [((i, j), _theta(a.ups, i, j)) for i, j in pairs])


@lru_cache(maxsize=None)
def pure_partition(a: PairPartition) -> MonomialCombo:
    """Z_a = sum over beta of Minv[a, beta] * U_beta, exact."""
    return coulomb.combo_sum(conformal_block(beta).scale(coeff) for beta, coeff in inverse_row(a))


def fuse_once(a: PairPartition, j: int) -> MonomialCombo:
    """Collapse x_{j+1} -> x_j in Z_a at the order set by the link structure.

    If {j, j+1} is a link of a, the two points close a level line and
    the normalized limit sits at order -1/2 (it reproduces the smaller
    pure partition function with that link removed).  Otherwise the
    limit sits at order +1/2 and is a partition function with one
    valence-2 insertion.  Result keeps labels 1..2N-1, gap closed.
    """
    n2 = 2 * a.n
    if not 1 <= j <= n2 - 1:
        raise ValueError(f"position {j} out of range")
    linked = (j, j + 1) in a.links
    r = Fraction(-1, 2) if linked else Fraction(1, 2)
    c = coulomb.fuse_pair(pure_partition(a), j, j + 1, j, r)
    shift = {k: k - 1 for k in range(j + 2, n2 + 1)}
    return c.rename(shift) if shift else c


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
    grouped series is an explicit sum over partial matchings of J.
    """
    if set(p.valences) != {2}:
        raise ValueError("pattern must have valence 2 at every point")
    return coulomb.combo_sum(_grouped_pieces(tau(p), p.npoints))


def _grouped_pieces(alpha: PairPartition, n2: int):
    """One piece of `fused_pure_partition` per surviving beta of the row."""
    for beta, coeff in inverse_row(alpha):
        ups = beta.ups
        # step 2j-1 up and step 2j down is a peak at 2j-1; down then up, a valley
        if any(2 * j - 1 in ups and 2 * j not in ups for j in range(1, n2 + 1)):
            continue
        jset = tuple(j for j in range(1, n2 + 1) if 2 * j - 1 not in ups and 2 * j in ups)
        rest = tuple(i for i in range(1, n2 + 1) if i not in jset)
        g_exps = [
            ((i, i2), 4 * _theta(ups, 2 * i, 2 * i2))
            for i, i2 in itertools.combinations(rest, 2)
        ]
        gmono = MonomialCombo.from_doubled(1, g_exps)
        zus = {
            u: coulomb.combo_sum(
                MonomialCombo.from_doubled(
                    2 * _theta(ups, 2 * i, 2 * u - 1) * (1 if i > u else -1),
                    [((min(i, u), max(i, u)), -2)],
                )
                for i in rest
            )
            for u in jset
        }
        ssum = coulomb.combo_sum(_matching_terms(jset, zus))
        yield (gmono * ssum).scale(coeff)


def _matching_terms(jset: tuple[int, ...], zus: dict[int, MonomialCombo]):
    """Per partial matching of J: (2 (x_b - x_a)^-2) per matched pair times
    the factor zus[u] per unmatched u; a zero factor drops the matching."""
    for pairs, unmatched in _partial_matchings(jset):
        if any(zus[u].is_zero() for u in unmatched):
            continue
        # jset is sorted, so every matched pair (a, b) has a < b
        term = MonomialCombo.from_doubled(2 ** len(pairs), [(pair, -4) for pair in pairs])
        for u in unmatched:
            term = term * zus[u]
        yield term


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
