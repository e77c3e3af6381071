"""Percolation kernel: open same-sign edges, track arc connectivity.

One numpy/scipy pass per chunk of trials.  The chunk becomes a single
block-diagonal graph: trial t owns node ids t*(nV+narcs) onwards, and
each boundary vertex is relabelled to its arc's supernode, so an arc is
one node.  The open edges of every trial come from one comparison of
the pre-drawn uniforms with the opening probabilities, and one
connected_components call labels all trials at once.

Output per trial is a pair of bitmasks over ordered pairs of same-sign
arcs: bit (i, j) set when arcs i < j are joined by an open path.  Pair
bits are indexed lexicographically.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .lattice import open_probabilities


def resolve_kernel(name: str | None = None) -> str:
    """Name of the percolation kernel: None, "auto" and "numpy" all
    resolve to the one numpy/scipy kernel."""
    if name in (None, "auto", "numpy"):
        return "numpy"
    raise ValueError(f"unknown kernel {name!r} (use auto or numpy)")


def pair_bit(i: int, j: int, n: int) -> int:
    """Lexicographic index of the ordered pair (i, j), i < j < n."""
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _chunk_graph(values, uniforms, spec):
    """The open edges of a chunk of trials as one block-diagonal graph:
    trial t owns nodes t*nn .. (t+1)*nn - 1, nn = nV + narcs, where
    node nV + k stands for every boundary vertex of arc k.  A function of
    its own, so that its per-edge temporaries are freed before the
    components pass allocates its own."""
    B, nv = values.shape
    nn = nv + spec.narcs
    itype = np.int32 if B * nn <= np.iinfo(np.int32).max else np.int64
    node = np.where(spec.arc_of >= 0, nv + spec.arc_of, np.arange(nv)).astype(itype)
    trial, edge = np.nonzero(uniforms < open_probabilities(spec, values))
    first = (trial * nn).astype(itype)
    rows = node[spec.edge_a][edge]
    rows += first
    cols = node[spec.edge_b][edge]
    cols += first
    return scipy.sparse.coo_matrix(
        (np.ones(rows.shape[0], dtype=np.int8), (rows, cols)), shape=(B * nn, B * nn)
    )


def percolate_batch(values, uniforms, spec, kernel: str | None = None):
    """Run a batch of trials; returns (pos_masks, neg_masks) int64 arrays.

    values: (B, nV) field per trial, boundary included.
    uniforms: (B, nE) iid uniforms deciding edge openings.
    kernel: a name `resolve_kernel` accepts.
    """
    resolve_kernel(kernel)
    values = np.ascontiguousarray(values, dtype=np.float64)
    B, nv = values.shape
    _, labels = connected_components(_chunk_graph(values, uniforms, spec), directed=False)
    arcs = labels.reshape(B, -1)[:, nv:]
    half = spec.narcs // 2
    pos = np.zeros(B, dtype=np.int64)
    neg = np.zeros(B, dtype=np.int64)
    for i in range(half):
        for j in range(i + 1, half):
            bit = pair_bit(i, j, half)
            pos |= (arcs[:, 2 * i] == arcs[:, 2 * j]).astype(np.int64) << bit
            neg |= (arcs[:, 2 * i + 1] == arcs[:, 2 * j + 1]).astype(np.int64) << bit
    return pos, neg
