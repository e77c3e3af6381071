"""Incidence matrix between planar pair partitions and its exact inverse.

M[alpha, beta] = 1 when every link of beta connects an up-step position
of alpha to a down-step position of alpha (in Dyck path terms), else 0.
M is unit upper triangular when both axes carry the lexicographic Dyck
order, because M[alpha, beta] = 1 forces alpha <= beta pointwise and
lex order extends the pointwise order.  The inverse is computed exactly
over the rationals and is integer valued; its support is contained in
the pointwise order and its signs alternate with the area between the
two paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import PairPartition, enumerate_pairings
from .errors import CapacityError

MATRIX_SIZE_CAP = 2000


def arrow_relation(a: PairPartition, b: PairPartition) -> int:
    """1 if every link of b joins an a-point of a to a b-point of a, else 0."""
    if a.n != b.n:
        raise ValueError("pairings must have equal size")
    ups = a.a_points()
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
        return self._index_map()[p]

    def _index_map(self) -> dict[PairPartition, int]:
        if not hasattr(self, "_imap"):
            object.__setattr__(self, "_imap", {p: i for i, p in enumerate(self.order)})
        return self._imap

    def entry(self, a: PairPartition, b: PairPartition) -> int:
        return self.entries[self.index(a)][self.index(b)]

    @property
    def size(self) -> int:
        return len(self.order)


@lru_cache(maxsize=None)
def incidence_matrix(n: int) -> IncidenceMatrix:
    """M over all planar pair partitions of {1..2n} in lexicographic Dyck order."""
    order = enumerate_pairings(n)
    if len(order) > MATRIX_SIZE_CAP:
        raise CapacityError(f"matrix size {len(order)} exceeds cap {MATRIX_SIZE_CAP}")
    rows = tuple(tuple(arrow_relation(a, b) for b in order) for a in order)
    return IncidenceMatrix(order, rows)


def inverse_incidence_matrix(m: IncidenceMatrix) -> IncidenceMatrix:
    """Exact inverse of M; raises if it fails to be integer valued.

    Plain Gauss-Jordan over Fraction.  M is unit upper triangular in the
    stored order, so elimination never needs pivoting and most row
    operations are skipped.
    """
    n = m.size
    a = [[Fraction(x) for x in row] for row in m.entries]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("incidence matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        if d != 1:
            a[col] = [x / d for x in a[col]]
            inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f == 0:
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError(f"inverse entry {x} is not an integer")
            irow.append(int(x))
        out.append(tuple(irow))
    return IncidenceMatrix(m.order, tuple(out))


@lru_cache(maxsize=None)
def inverse_incidence(n: int) -> IncidenceMatrix:
    return inverse_incidence_matrix(incidence_matrix(n))


def inverse_row(alpha: PairPartition) -> tuple[tuple[PairPartition, int], ...]:
    """Nonzero entries of the alpha row of the inverse, as (beta, coeff)."""
    inv = inverse_incidence(alpha.n)
    i = inv.index(alpha)
    return tuple(
        (beta, c) for beta, c in zip(inv.order, inv.entries[i]) if c != 0
    )
