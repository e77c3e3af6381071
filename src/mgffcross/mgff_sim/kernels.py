"""Percolation kernel: open same-sign edges, track arc connectivity.

One numpy/scipy pass per chunk of trials.  Bond percolation on the grid
is site labelling of its doubled grid (`lattice.open_site_image`): each
trial's open edges become the on sites of one bool block, with every
boundary arc held together by its forced-open edges.  One
`scipy.ndimage.label` call, cluster labelling in the spirit of
Hoshen-Kopelman, labels the blocks of all trials at once; the empty row
after each block keeps trials apart.  Each arc is then read at one site.

Output per trial is a pair of bitmasks over ordered pairs of same-sign
arcs: bit (i, j) set when arcs i < j are joined by an open path.  Pair
bits are indexed lexicographically.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .lattice import open_site_image


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


def percolate_batch(values, uniforms, spec, kernel: str | None = None):
    """Run a batch of trials; returns (pos_masks, neg_masks) int64 arrays.

    values: (B, nV) field per trial, boundary included.
    uniforms: (B, nE) iid uniforms deciding edge openings.
    kernel: a name `resolve_kernel` accepts.
    """
    resolve_kernel(kernel)
    values = np.ascontiguousarray(values, dtype=np.float64)
    B = values.shape[0]
    labels, _ = ndimage.label(open_site_image(spec, values, uniforms))
    arcs = labels.reshape(B, -1)[:, spec.arc_sites]
    half = spec.narcs // 2
    pos = np.zeros(B, dtype=np.int64)
    neg = np.zeros(B, dtype=np.int64)
    for i in range(half):
        for j in range(i + 1, half):
            bit = pair_bit(i, j, half)
            pos |= (arcs[:, 2 * i] == arcs[:, 2 * j]).astype(np.int64) << bit
            neg |= (arcs[:, 2 * i + 1] == arcs[:, 2 * j + 1]).astype(np.int64) << bit
    return pos, neg
