"""Incidence matrix between planar pair partitions and its exact inverse.

M[alpha, beta] = 1 when every link of beta connects an up-step position
of alpha to a down-step position of alpha (in Dyck path terms), else 0.
M is unit upper triangular when both axes carry the lexicographic Dyck
order, because M[alpha, beta] = 1 forces alpha <= beta pointwise and
lex order extends the pointwise order.  So each row of the inverse is
an integer back-substitution over the pointwise up-set of alpha; its
entries are integers whose signs alternate with the area between the
two paths, and it vanishes off the pointwise order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    DyckPath,
    PairPartition,
    catalan,
    dyck_from_pairing,
    enumerate_dyck_paths,
    leq,
    pairing_from_dyck,
)
from .errors import CapacityError

MATRIX_SIZE_CAP = 2000


def arrow_relation(a: PairPartition, b: PairPartition) -> int:
    """1 if every link of b joins an a-point of a to a b-point of a, else 0."""
    if a.n != b.n:
        raise ValueError("pairings must have equal size")
    ups = a.ups
    for x, y in b.links:
        if (x in ups) == (y in ups):
            return 0
    return 1


@dataclass(frozen=True)
class IncidenceMatrix:
    """Square integer matrix indexed by the pairings in `order`."""

    order: tuple[PairPartition, ...]
    entries: tuple[tuple[int, ...], ...]

    def index(self, p: PairPartition) -> int:
        return self.order.index(p)

    @property
    def size(self) -> int:
        return len(self.order)


@lru_cache(maxsize=None)
def _dyck_order(n: int) -> tuple[tuple[PairPartition, DyckPath], ...]:
    """Planar pair partitions of {1..2n} with their Dyck paths, in lex Dyck order."""
    if catalan(n) > MATRIX_SIZE_CAP:
        raise CapacityError(f"matrix size {catalan(n)} exceeds cap {MATRIX_SIZE_CAP}")
    return tuple((pairing_from_dyck(d), d) for d in enumerate_dyck_paths(n))


@lru_cache(maxsize=None)
def incidence_matrix(n: int) -> IncidenceMatrix:
    """M over all planar pair partitions of {1..2n} in lexicographic Dyck order."""
    order = tuple(p for p, _ in _dyck_order(n))
    rows = tuple(tuple(arrow_relation(a, b) for b in order) for a in order)
    return IncidenceMatrix(order, rows)


@lru_cache(maxsize=None)
def inverse_row(alpha: PairPartition) -> tuple[tuple[PairPartition, int], ...]:
    """Nonzero entries of the alpha row of the inverse, as (beta, coeff).

    Solves X M = I row-wise in lex Dyck order: X[alpha, beta] =
    [alpha = beta] - sum over gamma before beta of X[alpha, gamma] M[gamma, beta],
    running only over the beta >= alpha pointwise, where the row lives.
    """
    top = dyck_from_pairing(alpha)
    row: list[tuple[PairPartition, int]] = []
    for beta, path in _dyck_order(alpha.n):
        if not leq(top, path):
            continue
        c = int(beta == alpha) - sum(x * arrow_relation(g, beta) for g, x in row)
        if c:
            row.append((beta, c))
    return tuple(row)


@lru_cache(maxsize=None)
def inverse_incidence(n: int) -> IncidenceMatrix:
    """The full inverse of M, stacked from `inverse_row`."""
    order = tuple(p for p, _ in _dyck_order(n))
    rows = (dict(inverse_row(a)) for a in order)
    return IncidenceMatrix(order, tuple(tuple(r.get(b, 0) for b in order) for r in rows))
