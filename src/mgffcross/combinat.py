"""Dyck paths, planar pair partitions, and planar link patterns.

A Dyck path of size N is a walk of 2N steps +-1 from height 0 back to
height 0 staying nonnegative.  Up-steps and down-steps pair up by the
matching-parenthesis rule (a down-step closes the most recent unmatched
up-step), which is a bijection onto planar (non-crossing) pair
partitions of {1..2N}.  Both carriers are counted by the Catalan
numbers.  A pairing records its up-step positions once, as `ups`; the
arrow relation, the Dyck path and the conformal-block signs all read it.

Link patterns generalize pair partitions to points of higher valence:
a multiset of chords on points 1..p, point i meeting s_i chord ends,
drawable in the disk without crossings.  Splitting point j into s_j
consecutive boundary slots turns a planar link pattern into an ordinary
non-crossing perfect matching of the slots; for patterns without
isolated doubled points that lift is unique, and `tau` computes it.
One stack scan, `_slot_lifts`, serves both directions: given a
pattern's links it finds that pattern's lifts (for `LinkPattern` and
`tau`); given none it yields every slot matching whose chords join
distinct points, which `enumerate_link_patterns` projects to valence-2
patterns.

Points are 1-based throughout.  Pairs are stored as (a, b) with a < b,
link lists sorted, so equal objects compare and hash equal.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import CapacityError

# Refuse enumerations larger than this many objects.
ENUMERATION_CAP = 10**6


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Dyck paths


@dataclass(frozen=True, order=True)
class DyckPath:
    """Height sequence (h_0, ..., h_2N), h_0 = h_2N = 0, steps +-1, h >= 0.

    Ordering is lexicographic on the height sequence, which matches
    lexicographic order on the step sequence with down < up.
    """

    heights: tuple[int, ...]

    def __post_init__(self):
        h = self.heights
        if len(h) < 1 or len(h) % 2 == 0:
            raise ValueError("height sequence must have odd length 2N+1")
        if h[0] != 0 or h[-1] != 0:
            raise ValueError("path must start and end at height 0")
        for a, b in zip(h, h[1:]):
            if abs(b - a) != 1:
                raise ValueError("steps must be +-1")
        if min(h) < 0:
            raise ValueError("path must stay nonnegative")

    @property
    def n(self) -> int:
        return (len(self.heights) - 1) // 2

    def steps(self) -> tuple[int, ...]:
        h = self.heights
        return tuple(b - a for a, b in zip(h, h[1:]))


class LocalShape(Enum):
    """Shape of a path at an interior position j: step j followed by step j+1."""

    MAX = "max"      # up then down, a local maximum at height h(j)
    MIN = "min"      # down then up, a local minimum
    SLOPE = "slope"  # two equal steps


def local_shape(path: DyckPath, j: int) -> LocalShape:
    """Shape at position j, 1 <= j <= 2N-1."""
    if not 1 <= j <= 2 * path.n - 1:
        raise ValueError(f"position {j} out of range for size {path.n}")
    h = path.heights
    if h[j - 1] < h[j] > h[j + 1]:
        return LocalShape.MAX
    if h[j - 1] > h[j] < h[j + 1]:
        return LocalShape.MIN
    return LocalShape.SLOPE


def leq(a: DyckPath, b: DyckPath) -> bool:
    """Pointwise partial order: a <= b iff a.heights[k] <= b.heights[k] for all k."""
    if a.n != b.n:
        raise ValueError("paths must have equal size")
    return all(x <= y for x, y in zip(a.heights, b.heights))


def flip_min_to_max(path: DyckPath, j: int) -> DyckPath:
    """Raise a local minimum at j by 2, turning it into a local maximum."""
    if local_shape(path, j) is not LocalShape.MIN:
        raise ValueError(f"no local minimum at position {j}")
    h = list(path.heights)
    h[j] += 2
    return DyckPath(tuple(h))


def enumerate_dyck_paths(n: int) -> tuple[DyckPath, ...]:
    """All Dyck paths of size n in lexicographic order of the step sequence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if catalan(n) > ENUMERATION_CAP:
        raise CapacityError(f"Catalan({n}) = {catalan(n)} exceeds cap {ENUMERATION_CAP}")
    out: list[DyckPath] = []
    heights = [0] * (2 * n + 1)

    def walk(k: int) -> None:
        if k == 2 * n:
            out.append(DyckPath(tuple(heights)))
            return
        h = heights[k]
        rest = 2 * n - k
        # down before up gives lexicographic order on step sequences
        if h > 0:
            heights[k + 1] = h - 1
            walk(k + 1)
        if h + 1 <= rest - 1:
            heights[k + 1] = h + 1
            walk(k + 1)

    walk(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# Planar pair partitions


@dataclass(frozen=True, order=True)
class PairPartition:
    """Non-crossing perfect pairing of {1..2N}.

    Stored as ((a_1,b_1), ..., (a_N,b_N)) with a_j < b_j and
    a_1 < a_2 < ... < a_N.  The a_j are the up-step positions of the
    corresponding Dyck path and the b_j the matching down-steps; `ups`
    holds the a_j as a set, worked out once here.
    """

    links: tuple[tuple[int, int], ...]
    ups: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen: set[int] = set()
        for a, b in self.links:
            if not a < b:
                raise ValueError(f"pair ({a},{b}) not ordered")
            seen.update((a, b))
        n = len(self.links)
        if seen != set(range(1, 2 * n + 1)):
            raise ValueError("pairs must cover {1..2N} exactly once")
        if any(x > y for x, y in zip([l[0] for l in self.links], [l[0] for l in self.links][1:])):
            raise ValueError("pairs must be sorted by first element")
        for i, (a, b) in enumerate(self.links):
            for c, d in self.links[i + 1 :]:
                if a < c < b < d:
                    raise ValueError(f"pairs ({a},{b}) and ({c},{d}) cross")
        object.__setattr__(self, "ups", frozenset(a for a, _ in self.links))

    @property
    def n(self) -> int:
        return len(self.links)


def make_pairing(pairs) -> PairPartition:
    """Normalize an iterable of index pairs into a PairPartition."""
    canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
    return PairPartition(canon)


def dyck_from_pairing(p: PairPartition) -> DyckPath:
    """Up-step at each a_j, down-step at each b_j."""
    heights = [0]
    for k in range(1, 2 * p.n + 1):
        heights.append(heights[-1] + (1 if k in p.ups else -1))
    return DyckPath(tuple(heights))


def pairing_from_dyck(path: DyckPath) -> PairPartition:
    """Match each down-step with the most recent unmatched up-step."""
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for k, s in enumerate(path.steps(), start=1):
        if s == 1:
            stack.append(k)
        else:
            pairs.append((stack.pop(), k))
    return make_pairing(pairs)


def enumerate_pairings(n: int) -> tuple[PairPartition, ...]:
    """All planar pair partitions of {1..2n}, ordered as their Dyck paths."""
    return tuple(pairing_from_dyck(d) for d in enumerate_dyck_paths(n))


# ---------------------------------------------------------------------------
# Link patterns


@dataclass(frozen=True, order=True)
class LinkPattern:
    """Planar multiset of chords on points 1..p.

    `links` is sorted, each entry (a, b) with a < b; parallel copies of
    a chord appear as repeated entries.  `valences` gives the number of
    chord ends at each point.  Planarity means the chords can be drawn
    in the disk, boundary points in cyclic order, pairwise disjoint
    except possibly at endpoints.
    """

    links: tuple[tuple[int, int], ...]
    valences: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if not self.links:
            raise ValueError("empty pattern")
        if tuple(sorted(tuple(sorted(l)) for l in self.links)) != self.links:
            raise ValueError("links must be sorted pairs in canonical order")
        p = max(b for _, b in self.links)
        val = [0] * p
        for a, b in self.links:
            if a == b:
                raise ValueError("chords need distinct endpoints")
            val[a - 1] += 1
            val[b - 1] += 1
        if 0 in val:
            raise ValueError("every point in 1..p must meet a chord")
        object.__setattr__(self, "valences", tuple(val))
        if next(_slot_lifts(self.valences, self.links), None) is None:
            raise ValueError("links cannot be drawn without crossings")

    @property
    def npoints(self) -> int:
        return len(self.valences)


def make_pattern(links) -> LinkPattern:
    canon = tuple(sorted(tuple(sorted(l)) for l in links))
    return LinkPattern(canon)


def _slot_lifts(valences, links=None):
    """Yield the non-crossing perfect matchings of the slot circle.

    Point i owns slots start_i .. start_i + s_i - 1 in boundary order.
    Scans slots left to right keeping a stack of open chord ends: each
    slot either closes the most recent open slot, which must belong to
    another point, or opens.  With `links` given, each closing chord
    also consumes one link between the two owning points, so the
    matchings yielded are exactly the lifts realizing `links`.
    """
    slot_point = [0] + [i for i, s in enumerate(valences, start=1) for _ in range(s)]
    total = len(slot_point) - 1
    free = links is None
    remaining = Counter(links or ())
    stack: list[int] = []
    acc: list[tuple[int, int]] = []

    def scan(s: int):
        if s > total:
            if not stack:
                yield tuple(acc)
            return
        if stack:
            u = stack[-1]
            key = (slot_point[u], slot_point[s])  # slots run in point order
            if key[0] != key[1] and (free or remaining[key] > 0):
                remaining[key] -= 1
                stack.pop()
                acc.append((u, s))
                yield from scan(s + 1)
                acc.pop()
                stack.append(u)
                remaining[key] += 1
        if total - s >= len(stack) + 1:
            stack.append(s)
            yield from scan(s + 1)
            stack.pop()

    yield from scan(1)


@lru_cache(maxsize=None)
def tau(p: LinkPattern) -> PairPartition:
    """The planar pair partition of the slot circle lifting pattern p.

    Point j becomes the block of slots sum(s_i, i<j)+1 .. sum(s_i, i<=j).
    For the patterns arising here (no chord joins two slots of the same
    point, and the drawing is rigid) the lift is unique; ambiguity or
    absence raises ValueError.
    """
    lifts = list(itertools.islice(_slot_lifts(p.valences, p.links), 2))
    if not lifts:
        raise ValueError("pattern admits no non-crossing slot lift")
    if len(lifts) > 1:
        raise ValueError("pattern admits more than one slot lift")
    return make_pairing(lifts[0])


def enumerate_link_patterns(valences: tuple[int, ...]) -> tuple[LinkPattern, ...]:
    """All planar link patterns with the given valence vector, sorted by links.

    Only all-2 valence vectors are supported.  Their patterns are the
    projections of the slot matchings that never join the two slots of
    one point, and distinct matchings project to distinct patterns.
    """
    p = len(valences)
    if p == 0:
        raise ValueError("empty valence vector")
    if set(valences) != {2}:
        raise ValueError(f"unsupported valence vector {valences}")
    if catalan(p) > ENUMERATION_CAP:
        raise CapacityError(f"lift count bound Catalan({p}) exceeds cap")
    pats = (make_pattern(((u + 1) // 2, (v + 1) // 2) for u, v in m) for m in _slot_lifts(valences))
    return tuple(sorted(pats))
