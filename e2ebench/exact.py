"""The `exact` workload: warm exact-path calls, as a fixed mix.

A round is SAMPLES timed samples, each RECTS warm 4-corner
`rectangle_distribution` calls over moderate aspect ratios (rectangle
geometry, 4-point evaluation) and one warm 6-point
`outcome_distribution` (6-point evaluation), about equal shares of the
time today; then the extreme aspect ratios, timed apart and counted as
failed operations when they fail.  Checks follow the timed calls.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from mgffcross import probability

import checks
import layers
from common import Outcome, attempt, rounds
from tracing import Tracer

RECTS = 10
SAMPLES = 10
# aspect ratios whose N=2 answers are accurate to REL_TOL today
MIDDLE = (0.6, 6.0)
# outside the middle; every one fails today: solve_modulus raises
# (L <= 0.15), a negative probability (0.2), relative errors of 1.8e-3
# (0.3), 4.8e-7 (15), 0.98 (20) and 9.6e3 (25)
EXTREME = (1 / 25, 1 / 10, 0.15, 0.2, 0.3, 15.0, 20.0, 25.0)


def six_point_input(rng) -> tuple[tuple[float, ...], float]:
    """Points with gaps in [0.3, 1.5], and a Moebius pole 0.5 to 3 left of
    the first point."""
    ys = rng.uniform(-2.0, 2.0) + np.concatenate(([0.0], np.cumsum(rng.uniform(0.3, 1.5, 5))))
    ys = tuple(float(y) for y in ys)
    return ys, ys[0] - float(rng.uniform(0.5, 3.0))


def as_map(dist) -> dict:
    return {p.links: pr for p, pr in zip(dist.patterns, dist.probs)}


def rectangle(L: float):
    return probability.rectangle_distribution(probability.RectanglePolygon.corners(L))


def run(seed: int, seconds: float, tr) -> Outcome:
    rng = np.random.default_rng(seed)
    extreme_refs = [checks.rectangle_closed_forms(L) for L in EXTREME]
    # The first calls build the partition functions: about 7 s at 6 points
    # (incidence inverse and fusion), a few ms at 4.  Warm them untimed;
    # the traced run times the 6-point build layer by layer.
    if tr:
        model6 = layers.build(tr, 6)
        model4 = layers.build(Tracer(), 4)
    else:
        rectangle(1.0)
        probability.outcome_distribution(6, range(6))
    out = Outcome()
    for r in rounds(seconds):
        Ls = [float(x) for x in np.exp(rng.uniform(*np.log(MIDDLE), RECTS * SAMPLES))]
        six = [six_point_input(rng) for _ in range(SAMPLES)]
        rects, dists = [], []
        for i, (ys, _) in enumerate(six):
            t0 = time.perf_counter()
            rects += [attempt(rectangle, L) for L in Ls[i * RECTS:(i + 1) * RECTS]]
            dists.append(attempt(probability.outcome_distribution, 6, ys))
            out.rates.append((RECTS + 1) / (time.perf_counter() - t0))
        extreme = []
        for L in EXTREME:
            with tr.span("probability.extreme") if tr else nullcontext():
                extreme.append(attempt(rectangle, L))
        out.attempted += len(rects) + len(dists) + len(extreme)

        for L, d in zip(Ls, rects):
            if isinstance(d, Exception):
                out.failed += 1
            else:
                out.correct &= checks.rectangle_ok(as_map(d), checks.rectangle_closed_forms(L))
        for (ys, pole), d in zip(six, dists):
            if isinstance(d, Exception):
                out.failed += 1
            else:
                out.correct &= six_point_images_ok(as_map(d), ys, pole)
        for ref, d in zip(extreme_refs, extreme):
            out.failed += isinstance(d, Exception) or not checks.rectangle_ok(as_map(d), ref)

        if tr:
            tr.trace = r
            tr.count("extremes", len(EXTREME))
            for L, d in zip(Ls, rects):
                with tr.span("probability.geometry"):
                    ys = probability.rect_boundary_to_halfplane(probability.RectanglePolygon.corners(L))
                tr.count("rects")
                out.correct &= same(layers.evaluate(tr, model4, ys), d)
            for (ys, _), d in zip(six, dists):
                out.correct &= same(layers.evaluate(tr, model6, ys), d)
    return out


def same(replayed: dict, dist) -> bool:
    return not isinstance(dist, Exception) and replayed == as_map(dist)


def six_point_images_ok(dist: dict, ys, pole: float) -> bool:
    images = [attempt(probability.outcome_distribution, 6, image)
              for image in (checks.moebius_image(ys, pole), checks.mirror_image(ys))]
    if any(isinstance(d, Exception) for d in images):
        return False
    return checks.six_point_ok(dist, *map(as_map, images))
