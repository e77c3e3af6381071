"""Layer-by-layer replay of the exact path, for the traced run.

`build` does what the first `outcome_distribution(npoints, ...)` of a
process does: enumerate the link patterns, form the incidence matrix and
its inverse, the pure partition functions of the slot lifts and their
valence-2 fusions, one layer per span.  `evaluate` then does what every
later call does with `coulomb.evaluate`: one fused numerator and one
total partition function per reachable pattern.  Its probabilities must
equal the program's own (the workloads check that), so the replay cannot
drift from the path it times.  Spans sit in the benchmark, around calls
into the layers; the program itself is not instrumented.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from mgffcross import coulomb, combinat, incidence, partition_fn


@dataclass(frozen=True)
class Model:
    patterns: tuple            # every valence-2 pattern, in the program's order
    fused: dict                # reachable pattern -> fused partition function
    total: coulomb.MonomialCombo


def build(tr, npoints: int) -> Model:
    with tr.span("combinat.enumerate"):
        patterns = combinat.enumerate_link_patterns((2,) * npoints)
    with tr.span("incidence.matrix"):
        incidence.incidence_matrix(npoints)
    with tr.span("incidence.inverse"):
        incidence.inverse_incidence(npoints)
    omega = partition_fn.omega_pairing(npoints)
    live = [p for p in patterns if incidence.arrow_relation(omega, combinat.tau(p))]
    with tr.span("partition_fn.pure"):
        pures = [partition_fn.pure_partition(combinat.tau(p)) for p in live]
    with tr.span("partition_fn.fuse"):
        fused = {p: partition_fn.fused_pure_partition(p) for p in live}
    tr.count("builds")
    tr.count("incidence.row_nnz", sum(len(incidence.inverse_row(combinat.tau(p))) for p in live))
    tr.count("partition_fn.pure_terms", sum(len(c) for c in pures))
    tr.count("partition_fn.fused_terms", sum(len(c) for c in fused.values()))
    return Model(patterns, fused, partition_fn.z_mgff_total(npoints))


def evaluate(tr, model: Model, ys) -> dict:
    """Pattern links -> probability at ys, as `outcome_distribution` gives it.

    Like `crossing_probability`, evaluates the total partition function
    once per reachable pattern."""
    n = len(ys)
    vals = {i + 1: float(y) for i, y in enumerate(ys)}
    out = {}
    with tr.span(f"coulomb.evaluate.pts{n}"):
        for p in model.patterns:
            c = model.fused.get(p)
            out[p.links] = (
                float(coulomb.evaluate(c, vals) / coulomb.evaluate(model.total, vals)) if c else 0.0
            )
    tr.count(f"dists.pts{n}")
    tr.count("coulomb.terms", sum(len(c) + len(model.total) for c in model.fused.values()))
    tr.peak("coulomb.cond_max", max(condition(c, vals) for c in model.fused.values()))
    return out


def condition(c: coulomb.MonomialCombo, vals: dict) -> float:
    """Summation condition number sum|t_i| / |sum t_i| of c at vals."""
    terms = []
    for key, coeff in c.terms.items():
        t = coeff.numerator / coeff.denominator
        for (a, b), e2 in key:
            d = vals[b] - vals[a]
            t *= d ** (e2 // 2) * (math.sqrt(d) if e2 % 2 else 1.0)
        terms.append(t)
    s = math.fsum(terms)
    return math.fsum(abs(t) for t in terms) / abs(s) if s else sys.float_info.max
