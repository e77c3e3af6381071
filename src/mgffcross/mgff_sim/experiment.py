"""Monte-Carlo estimation of crossing-pattern frequencies on a rectangle.

Each trial samples the lattice field (harmonic part plus zero-boundary
Gaussian free field), opens every same-sign edge independently with the
one-excursion bridge probability 1 - exp(-2ab), and reads off which
same-sign boundary arcs ended up wired together.  The pair of arc
partitions is mapped to its boundary link pattern through the planar
cluster dictionary; incompatible pairs (which have probability zero in
the continuum) are counted in a separate anomaly bucket.

Reproducibility: trial t of mesh index m uses an independent Philox
stream keyed (seed, m * trials + t), drawing its interior normals first
and its edge uniforms second.  Each chunk builds one generator and
re-keys it per trial, resetting counter and buffer, so every trial sees
exactly the stream of a fresh Philox with its key.  Results are
therefore independent of chunking and thread count, and byte-identical
across runs.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..combinat import LinkPattern, enumerate_link_patterns
from ..probability import (
    RectanglePolygon,
    cluster_pattern_table,
    crossing_probability,
    rect_boundary_to_halfplane,
)
from .kernels import pair_bit, percolate_batch, resolve_kernel
from .lattice import (
    LatticeSpec,
    build_lattice,
    harmonic_extension,
    interior_noise_to_field,
)

# Boundary amplitude matching the continuum height gap 2*lambda = pi:
# the unit-conductance lattice field carries 1/sqrt(2 pi) of the
# log-covariance normalization, so mu = 2 lambda / sqrt(2 pi) = 2 sqrt(pi/8).
MU_LAT_DEFAULT = 2.0 * math.sqrt(math.pi / 8.0)

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run parameters."""

    trials: int = 100_000
    seed: int = 1
    mu: float = MU_LAT_DEFAULT
    meshes: tuple[int, ...] = (16, 32, 64)  # intervals per unit height
    kernel: str = "auto"
    threads: int = 0  # 0 = one worker per cpu
    chunk: int = 512

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be at least 1, got {self.chunk}")
        if self.threads < 0:
            raise ValueError(f"threads must be 0 (one per cpu) or more, got {self.threads}")
        resolve_kernel(self.kernel)


def partition_mask(blocks, n: int) -> int:
    """Set partition -> pairwise-connectivity bitmask, the form in which
    the percolation kernels report arc connectivity."""
    mask = 0
    for b in blocks:
        for ii, i in enumerate(b):
            for j in b[ii + 1 :]:
                mask |= 1 << pair_bit(i - 1, j - 1, n)
    return mask


def wilson_interval(count: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total <= 0:
        return (0.0, 1.0)
    p = count / total
    z2 = Z95 * Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class MeshResult:
    ny: int
    nx: int
    delta: float
    snap_err: float
    counts: tuple[int, ...]
    anomalies: int
    freqs: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    # wall seconds of the mesh's trials; for the manifest, not the outputs
    wall_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class ExperimentReport:
    rectangle: RectanglePolygon
    config: SimConfig
    patterns: tuple[LinkPattern, ...]
    theory: tuple[float, ...]
    meshes: tuple[MeshResult, ...]

    def to_json_obj(self) -> dict:
        return {
            "L": self.rectangle.L,
            "marks": list(self.rectangle.marks),
            "mu": self.config.mu,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "patterns": [[list(l) for l in p.links] for p in self.patterns],
            "theory": list(self.theory),
            "meshes": [
                {
                    "ny": m.ny,
                    "nx": m.nx,
                    "delta": m.delta,
                    "snap_err": m.snap_err,
                    "counts": list(m.counts),
                    "anomalies": m.anomalies,
                    "freqs": list(m.freqs),
                    "ci_low": list(m.ci_low),
                    "ci_high": list(m.ci_high),
                    "gaps": [abs(f - t) for f, t in zip(m.freqs, self.theory)],
                }
                for m in self.meshes
            ],
        }

    def csv_rows(self) -> list[str]:
        """Data rows in the fixed column order
        mesh,pattern_id,count,freq,ci_low,ci_high,theory,gap."""
        rows = []
        for m in self.meshes:
            for pid in range(len(self.patterns)):
                gap = abs(m.freqs[pid] - self.theory[pid])
                rows.append(
                    ",".join(
                        (
                            _fmt(m.delta),
                            str(pid),
                            str(m.counts[pid]),
                            _fmt(m.freqs[pid]),
                            _fmt(m.ci_low[pid]),
                            _fmt(m.ci_high[pid]),
                            _fmt(self.theory[pid]),
                            _fmt(gap),
                        )
                    )
                )
        return rows


CSV_HEADER = "mesh,pattern_id,count,freq,ci_low,ci_high,theory,gap"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def worker_count(cfg: SimConfig) -> int:
    """Worker threads a mesh of `cfg` runs on: one per cpu when
    cfg.threads is 0, and never more than there are chunks."""
    return min(cfg.threads or os.cpu_count() or 1, -(-cfg.trials // cfg.chunk))


def _draw_chunk(
    seed: int, first: int, count: int, shape: tuple[int, int], nE: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interior normals (count, *shape) and edge uniforms (count, nE) of
    trials first .. first+count-1, trial i drawing from the Philox stream
    keyed (seed, i), normals first.  One generator is re-keyed per trial:
    a zero counter and an empty buffer make its stream exactly that of a
    fresh Philox(key=(seed, i))."""
    normals = np.empty((count,) + shape)
    uniforms = np.empty((count, nE))
    bg = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    g = np.random.Generator(bg)
    state = bg.state  # zero counter, empty buffer; drawing leaves this copy alone
    key = state["state"]["key"]
    for i in range(count):
        key[1] = (first + i) % 2**64
        bg.state = state
        g.standard_normal(out=normals[i])
        g.random(out=uniforms[i])
    return normals, uniforms


def _run_mesh(
    R: RectanglePolygon,
    cfg: SimConfig,
    mesh_index: int,
    ny: int,
    table: dict,
    npatterns: int,
) -> tuple[LatticeSpec, np.ndarray]:
    spec = build_lattice(R, ny)
    harm = harmonic_extension(spec, cfg.mu).values
    base = mesh_index * cfg.trials

    def do_chunk(bounds: tuple[int, int]) -> np.ndarray:
        t0, t1 = bounds
        B = t1 - t0
        normals, uniforms = _draw_chunk(
            cfg.seed, base + t0, B, spec.interior_shape, spec.n_edges
        )
        fields = np.broadcast_to(harm, (B,) + harm.shape).copy()
        fields[:, 1:-1, 1:-1] += interior_noise_to_field(spec, normals)
        pos, neg = percolate_batch(
            fields.reshape(B, -1), uniforms, spec, cfg.kernel
        )
        c = np.zeros(npatterns + 1, dtype=np.int64)
        for pm, nm in zip(pos.tolist(), neg.tolist()):
            c[table.get((pm, nm), npatterns)] += 1
        return c

    chunks = [
        (t0, min(t0 + cfg.chunk, cfg.trials)) for t0 in range(0, cfg.trials, cfg.chunk)
    ]
    counts = np.zeros(npatterns + 1, dtype=np.int64)
    workers = worker_count(cfg)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for c in ex.map(do_chunk, chunks):
                counts += c
    else:
        for ch in chunks:
            counts += do_chunk(ch)
    return spec, counts


def run_experiment(R: RectanglePolygon, cfg: SimConfig) -> ExperimentReport:
    """Full sweep over the configured mesh levels at one mu."""
    npts = R.npoints
    n = npts // 2
    patterns = enumerate_link_patterns((2,) * npts)
    ys = rect_boundary_to_halfplane(R)
    theory = tuple(float(crossing_probability(p, ys)) for p in patterns)
    pat_index = {p: i for i, p in enumerate(patterns)}
    table = {
        (partition_mask(pos, n), partition_mask(neg, n)): pat_index[pat]
        for (pos, neg), pat in cluster_pattern_table(n).items()
    }

    results = []
    for mi, ny in enumerate(cfg.meshes):
        t0 = time.perf_counter()
        spec, counts = _run_mesh(R, cfg, mi, ny, table, len(patterns))
        wall = time.perf_counter() - t0
        tot = cfg.trials
        freqs = tuple(int(c) / tot for c in counts[:-1])
        cis = [wilson_interval(int(c), tot) for c in counts[:-1]]
        results.append(
            MeshResult(
                ny=spec.ny,
                nx=spec.nx,
                delta=spec.delta,
                snap_err=spec.snap_err,
                counts=tuple(int(c) for c in counts[:-1]),
                anomalies=int(counts[-1]),
                freqs=freqs,
                ci_low=tuple(lo for lo, _ in cis),
                ci_high=tuple(hi for _, hi in cis),
                wall_s=wall,
            )
        )
    return ExperimentReport(R, cfg, patterns, theory, tuple(results))


def sweep_mu(R: RectanglePolygon, cfg: SimConfig, mus) -> list[ExperimentReport]:
    """One report per mu value, sharing trial streams (common random numbers)."""
    return [run_experiment(R, replace(cfg, mu=float(m))) for m in mus]
