"""Output checks against references computed apart from the program.

Nothing here imports mgffcross.  Distributions arrive as dicts mapping a
link pattern (tuple of (i, j) links) to its probability.

* Rectangles: the corner cross-ratio q comes from mpmath (`kfrom` of the
  nome exp(-2 pi / L)), and the three N=2 probabilities must match the
  closed forms (1-q)^4, 2q(1-q)(2-q+q^2), q^4 to relative REL_TOL.
* Six points: every probability is non-negative, and the distribution is
  unchanged by an order-preserving Moebius map and by the reflection
  x -> -x with the pattern relabelled i -> 7-i.
* Monte-Carlo: counts plus anomalies equal the trials, no anomalies, and
  each frequency within the acceptance band of the exact q = 1/2 values.
"""

from __future__ import annotations

import mpmath

REL_TOL = 1e-10

# N=2 rectangle patterns in the order of the closed forms below
RECT_PATTERNS = (
    ((1, 2), (1, 2), (3, 4), (3, 4)),
    ((1, 2), (1, 4), (2, 3), (3, 4)),
    ((1, 4), (1, 4), (2, 3), (2, 3)),
)

# exact q = 1/2 (square) values of the closed forms
SQUARE = {RECT_PATTERNS[0]: 1 / 16, RECT_PATTERNS[1]: 7 / 8, RECT_PATTERNS[2]: 1 / 16}

# acceptance criterion 6: |freq - exact| <= BAND + half the 95% interval
BAND = 0.02


def rectangle_closed_forms(L: float) -> tuple[float, float, float]:
    with mpmath.workdps(60):
        k = mpmath.kfrom(q=mpmath.exp(-2 * mpmath.pi / mpmath.mpf(L)))
        q = ((1 - k) / (1 + k)) ** 2
        p = 4 * k / (1 + k) ** 2  # 1 - q without cancellation
        return (float(p**4), float(2 * q * p * (2 - q + q * q)), float(q**4))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def rectangle_ok(dist: dict, ref: tuple[float, float, float]) -> bool:
    if set(dist) != set(RECT_PATTERNS):
        return False
    return all(dist[p] >= 0 and close(dist[p], r) for p, r in zip(RECT_PATTERNS, ref))


def mirrored(links, npoints: int):
    """Relabel i -> npoints + 1 - i and put the pattern back in canonical order."""
    return tuple(sorted(tuple(sorted((npoints + 1 - a, npoints + 1 - b))) for a, b in links))


def six_point_ok(dist: dict, moebius: dict, mirror: dict) -> bool:
    if any(p < 0 for d in (dist, moebius, mirror) for p in d.values()):
        return False
    if set(dist) != set(moebius) or {mirrored(p, 6) for p in dist} != set(mirror):
        return False
    return all(
        close(pr, moebius[p]) and close(pr, mirror[mirrored(p, 6)]) for p, pr in dist.items()
    )


def moebius_image(ys, pole: float) -> tuple[float, ...]:
    """x -> -1/(x - pole), increasing on (pole, inf); needs pole < min(ys)."""
    return tuple(-1.0 / (y - pole) for y in ys)


def mirror_image(ys) -> tuple[float, ...]:
    return tuple(-y for y in reversed(ys))


def simulate_ok(report: dict, trials: int) -> bool:
    """One mesh of a `simulate` JSON report at L = 1."""
    pats = [tuple(tuple(l) for l in p) for p in report["patterns"]]
    if set(pats) != set(SQUARE):
        return False
    mesh = report["meshes"][0]
    if sum(mesh["counts"]) + mesh["anomalies"] != trials or mesh["anomalies"] != 0:
        return False
    for p, f, lo, hi in zip(pats, mesh["freqs"], mesh["ci_low"], mesh["ci_high"]):
        if not abs(f - SQUARE[p]) <= BAND + (hi - lo) / 2:
            return False
    return True
