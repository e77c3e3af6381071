"""Percolation kernels: open same-sign edges, track arc connectivity.

Two interchangeable implementations of the per-trial inner loop:

* a numba union-find kernel (path compression, arc supernodes), used
  when numba imports and not overridden;
* a numpy/scipy fallback building a sparse graph per trial and calling
  connected_components.

Selection: the MGFFCROSS_KERNEL environment variable ("auto", "numba",
"numpy"), overridable per call.  Both kernels consume identical
pre-drawn uniforms, so their outputs agree bit for bit; the test suite
asserts that.

Output per trial is a pair of bitmasks over ordered pairs of same-sign
arcs: bit (i, j) set when arcs i < j are joined by an open path.  Pair
bits are indexed lexicographically.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


def resolve_kernel(name: str | None = None) -> str:
    """Pick the kernel implementation: explicit arg > env var > auto."""
    name = name or os.environ.get("MGFFCROSS_KERNEL", "auto")
    if name == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if name == "numba":
        if not HAS_NUMBA:
            raise ValueError("numba kernel requested but numba is not importable")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise ValueError(f"unknown kernel {name!r} (use auto, numba or numpy)")


def pair_bit(i: int, j: int, n: int) -> int:
    """Lexicographic index of the ordered pair (i, j), i < j < n."""
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@njit(cache=True, nogil=True)
def _uf_find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        nxt = parent[x]
        parent[x] = root
        x = nxt
    return root


@njit(cache=True, nogil=True)
def _percolate_numba(values, uniforms, edge_a, edge_b, arc_of, narcs, out_pos, out_neg):
    B, nv = values.shape
    nE = edge_a.shape[0]
    nn = nv + narcs
    half = narcs // 2
    parent = np.empty(nn, dtype=np.int32)
    for t in range(B):
        for i in range(nn):
            parent[i] = i
        for v in range(nv):
            a = arc_of[v]
            if a >= 0:
                ra = _uf_find(parent, nv + a)
                rv = _uf_find(parent, v)
                if ra != rv:
                    parent[rv] = ra
        for e in range(nE):
            va = values[t, edge_a[e]]
            vb = values[t, edge_b[e]]
            prod = va * vb
            if prod > 0.0:
                if uniforms[t, e] < -math.expm1(-2.0 * prod):
                    ra = _uf_find(parent, edge_a[e])
                    rb = _uf_find(parent, edge_b[e])
                    if ra != rb:
                        parent[rb] = ra
        pos = np.int64(0)
        neg = np.int64(0)
        bit = 0
        for i in range(half):
            ri = _uf_find(parent, nv + 2 * i)
            for j in range(i + 1, half):
                if ri == _uf_find(parent, nv + 2 * j):
                    pos |= np.int64(1) << np.int64(bit)
                bit += 1
        bit = 0
        for i in range(half):
            ri = _uf_find(parent, nv + 2 * i + 1)
            for j in range(i + 1, half):
                if ri == _uf_find(parent, nv + 2 * j + 1):
                    neg |= np.int64(1) << np.int64(bit)
                bit += 1
        out_pos[t] = pos
        out_neg[t] = neg


def _percolate_numpy(values, uniforms, edge_a, edge_b, arc_of, narcs, out_pos, out_neg):
    B, nv = values.shape
    nn = nv + narcs
    half = narcs // 2
    va = values[:, edge_a]
    vb = values[:, edge_b]
    prod = va * vb
    popen = np.where(prod > 0.0, -np.expm1(-2.0 * prod), 0.0)
    is_open = uniforms < popen
    bvert = np.nonzero(arc_of >= 0)[0]
    attach_a = bvert.astype(np.int64)
    attach_b = (nv + arc_of[bvert]).astype(np.int64)
    for t in range(B):
        rows = np.concatenate([edge_a[is_open[t]], attach_a])
        cols = np.concatenate([edge_b[is_open[t]], attach_b])
        g = scipy.sparse.coo_matrix(
            (np.ones(rows.shape[0], dtype=np.int8), (rows, cols)), shape=(nn, nn)
        )
        _, labels = connected_components(g, directed=False)
        pos = 0
        neg = 0
        bit = 0
        for i in range(half):
            li = labels[nv + 2 * i]
            for j in range(i + 1, half):
                if li == labels[nv + 2 * j]:
                    pos |= 1 << bit
                bit += 1
        bit = 0
        for i in range(half):
            li = labels[nv + 2 * i + 1]
            for j in range(i + 1, half):
                if li == labels[nv + 2 * j + 1]:
                    neg |= 1 << bit
                bit += 1
        out_pos[t] = pos
        out_neg[t] = neg


def percolate_batch(values, uniforms, spec, kernel: str | None = None):
    """Run a batch of trials; returns (pos_masks, neg_masks) int64 arrays.

    values: (B, nV) field per trial, boundary included.
    uniforms: (B, nE) iid uniforms deciding edge openings.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    B = values.shape[0]
    out_pos = np.zeros(B, dtype=np.int64)
    out_neg = np.zeros(B, dtype=np.int64)
    which = resolve_kernel(kernel)
    fn = _percolate_numba if which == "numba" else _percolate_numpy
    fn(
        values,
        uniforms,
        spec.edge_a.astype(np.int64),
        spec.edge_b.astype(np.int64),
        spec.arc_of.astype(np.int64),
        spec.narcs,
        out_pos,
        out_neg,
    )
    return out_pos, out_neg
