"""Monte-Carlo estimation of crossing-pattern frequencies on a rectangle.

Each trial samples the lattice field (harmonic part plus zero-boundary
Gaussian free field), opens every same-sign edge independently with the
one-excursion bridge probability 1 - exp(-2ab), and reads off which
same-sign boundary arcs ended up wired together.  The pair of arc
partitions is mapped to its boundary link pattern through the planar
cluster dictionary; a pair that no reachable pattern has (probability
zero in the continuum) is counted in a separate anomaly bucket.

Trials run in chunks on a thread pool, one worker per cpu unless
`threads` says otherwise.  A chunk holds at most `SimConfig.chunk`
trials, fewer when the chunks of all workers together would exceed
`CHUNK_BYTES` (`chunk_plan`), so peak memory does not grow with the
core count.  Within a chunk, one worker at a time draws its random
numbers (`_draw_chunk`) while the others transform and label theirs.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..combinat import LinkPattern
from ..probability import (
    RectanglePolygon,
    cluster_pattern_table,
    conditioned_distribution,
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

# bytes of the chunks of all workers together; at meshes 1/16 to 1/64 on
# 2 cores 8 MiB ran faster than 4 or 16 MiB and than 512-trial chunks
CHUNK_BYTES = 8 * 2**20

# per-chunk stages whose thread-seconds the manifest reports
STAGES = ("rng", "rng_wait", "dst", "percolate", "tally")

# one chunk draws at a time: each per-trial fill releases the GIL for a
# few microseconds only, so drawing threads would trade it on every fill
_DRAW_LOCK = threading.Lock()


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run parameters."""

    trials: int = 100_000
    seed: int = 1
    mu: float = MU_LAT_DEFAULT
    meshes: tuple[int, ...] = (16, 32, 64)  # intervals per unit height
    kernel: str = "auto"
    threads: int = 0  # 0 = one worker per cpu
    chunk: int = 512  # at most this many trials per chunk (see chunk_plan)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be at least 1, got {self.chunk}")
        if self.threads < 0:
            raise ValueError(f"threads must be 0 (one per cpu) or more, got {self.threads}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
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
    # for the manifest, not the outputs: wall seconds of the mesh, trials
    # per chunk, worker threads, and thread-seconds per stage (STAGES)
    wall_s: float = field(default=0.0, compare=False)
    chunk: int = field(default=0, compare=False)
    threads: int = field(default=0, compare=False)
    stages_s: dict[str, float] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ExperimentReport:
    rectangle: RectanglePolygon
    config: SimConfig
    patterns: tuple[LinkPattern, ...]
    theory: tuple[float, ...]
    meshes: tuple[MeshResult, ...]
    # for the manifest, not the outputs: the largest summation condition
    # number of the theory column's numerators, a record of how far their
    # sums may amplify rounding, not a guard: `cli.MAX_REL_ERROR` would
    # refuse L = 0.5 (cond 5e6), which the acceptance gates simulate
    theory_cond: float = field(compare=False)

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


def bytes_per_trial(spec: LatticeSpec) -> int:
    """Bytes one trial of a chunk holds at the chunk's peak.  Its normals,
    uniforms and field (float64) live through the chunk; beside them come,
    one stage at a time, the DST's two interior-sized temporaries, the
    edge products with the site image, and the site image with the copy
    `ndimage.label` takes of it and the int32 labels."""
    m, k = spec.interior_shape
    sites = (2 * spec.ny + 2) * (2 * spec.nx + 1)
    nE = spec.n_edges
    return 8 * (m * k + nE + spec.nv) + max(16 * m * k, 8 * nE + sites, 6 * sites)


def chunk_plan(cfg: SimConfig, spec: LatticeSpec) -> tuple[int, int]:
    """(trials per chunk, worker threads) of one mesh.  The workers are
    one per cpu when cfg.threads is 0; their chunks together hold at most
    CHUNK_BYTES unless a chunk is one trial, and a chunk never exceeds
    cfg.chunk.  There are never more workers than chunks."""
    workers = cfg.threads or os.cpu_count() or 1
    chunk = max(1, min(cfg.chunk, CHUNK_BYTES // (workers * bytes_per_trial(spec))))
    return chunk, min(workers, -(-cfg.trials // chunk))


def _chunk_buffers(spec: LatticeSpec, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normals (count, *interior_shape), uniforms (count, nE) and fields
    (count, ny+1, nx+1) that one worker reuses for all its chunks: freed
    after each chunk, a small chunk's pages went back to the system and
    faulted in again (42 minor faults per trial at mesh 1/64, which made
    a 20000-trial run 15-25 % slower)."""
    return (
        np.empty((count,) + spec.interior_shape),
        np.empty((count, spec.n_edges)),
        np.empty((count, spec.ny + 1, spec.nx + 1)),
    )


def _draw_chunk(seed: int, first: int, normals: np.ndarray, uniforms: np.ndarray) -> float:
    """Fill the interior normals (B, ny-1, nx-1) and edge uniforms (B, nE)
    of trials first .. first+B-1, trial i drawing from the Philox stream
    keyed (seed, i), normals first; returns the seconds spent waiting for
    another thread's draws.  One generator is re-keyed per trial: a zero
    counter and an empty buffer make its stream exactly that of a fresh
    Philox(key=(seed, i)).  The state is plain Python, which the setter
    reads faster than the numpy arrays `bg.state` returns."""
    bg = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    g = np.random.Generator(bg)
    key = [seed % 2**64, 0]
    state = {  # zero counter, empty buffer
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    t0 = time.perf_counter()
    with _DRAW_LOCK:
        wait = time.perf_counter() - t0
        for i, normal, uniform in zip(range(first, first + len(normals)), normals, uniforms):
            key[1] = i % 2**64
            bg.state = state
            g.standard_normal(out=normal)
            g.random(out=uniform)
    return wait


def _run_chunk(
    cfg: SimConfig,
    spec: LatticeSpec,
    harm: np.ndarray,
    first: int,
    bufs: tuple[np.ndarray, np.ndarray, np.ndarray],
    table: dict,
    npatterns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern counts (anomalies last) of trials first .. first+B-1, B
    the length of the `_chunk_buffers` bufs, and the seconds of each of
    STAGES."""
    normals, uniforms, fields = bufs
    count = normals.shape[0]
    t0 = time.perf_counter()
    wait = _draw_chunk(cfg.seed, first, normals, uniforms)
    t1 = time.perf_counter()
    fields[:] = harm
    fields[:, 1:-1, 1:-1] += interior_noise_to_field(spec, normals)
    t2 = time.perf_counter()
    pos, neg = percolate_batch(fields.reshape(count, -1), uniforms, spec, cfg.kernel)
    t3 = time.perf_counter()
    c = np.zeros(npatterns + 1, dtype=np.int64)
    for pm, nm in zip(pos.tolist(), neg.tolist()):
        c[table.get((pm, nm), npatterns)] += 1
    t4 = time.perf_counter()
    return c, np.array([t1 - t0 - wait, wait, t2 - t1, t3 - t2, t4 - t3])


def _run_mesh(
    spec: LatticeSpec,
    cfg: SimConfig,
    mesh_index: int,
    table: dict,
    npatterns: int,
) -> MeshResult:
    start = time.perf_counter()
    harm = harmonic_extension(spec, cfg.mu).values
    base = mesh_index * cfg.trials
    chunk, workers = chunk_plan(cfg, spec)
    local = threading.local()  # each worker's _chunk_buffers

    def do_chunk(t0: int) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(local, "bufs"):
            local.bufs = _chunk_buffers(spec, chunk)
        count = min(chunk, cfg.trials - t0)
        bufs = tuple(b[:count] for b in local.bufs)
        return _run_chunk(cfg, spec, harm, base + t0, bufs, table, npatterns)

    starts = range(0, cfg.trials, chunk)
    counts = np.zeros(npatterns + 1, dtype=np.int64)
    stages = np.zeros(len(STAGES))
    with ThreadPoolExecutor(max_workers=workers) as ex:  # no thread starts unless used
        for c, s in ex.map(do_chunk, starts) if workers > 1 else map(do_chunk, starts):
            counts += c
            stages += s
    wall = time.perf_counter() - start

    tot = cfg.trials
    cis = [wilson_interval(int(c), tot) for c in counts[:-1]]
    return MeshResult(
        ny=spec.ny,
        nx=spec.nx,
        delta=spec.delta,
        snap_err=spec.snap_err,
        counts=tuple(int(c) for c in counts[:-1]),
        anomalies=int(counts[-1]),
        freqs=tuple(int(c) / tot for c in counts[:-1]),
        ci_low=tuple(lo for lo, _ in cis),
        ci_high=tuple(hi for _, hi in cis),
        wall_s=wall,
        chunk=chunk,
        threads=workers,
        stages_s=dict(zip(STAGES, stages.tolist())),
    )


def run_experiment(R: RectanglePolygon, cfg: SimConfig) -> ExperimentReport:
    """Full sweep over the configured mesh levels at one mu."""
    npts = R.npoints
    n = npts // 2
    # a mesh too coarse for the rectangle is a usage error: raise it
    # before the theory column can fail on the same thin rectangle
    specs = [build_lattice(R, ny) for ny in cfg.meshes]
    dist, cond = conditioned_distribution(npts, rect_boundary_to_halfplane(R))
    patterns, theory = dist.patterns, dist.probs
    pat_index = {p: i for i, p in enumerate(patterns)}
    table = {
        (partition_mask(pos, n), partition_mask(neg, n)): pat_index[pat]
        for (pos, neg), pat in cluster_pattern_table(n).items()
    }

    results = tuple(
        _run_mesh(spec, cfg, mi, table, len(patterns)) for mi, spec in enumerate(specs)
    )
    return ExperimentReport(R, cfg, patterns, theory, results, cond)


def sweep_mu(R: RectanglePolygon, cfg: SimConfig, mus) -> list[ExperimentReport]:
    """One report per mu value, sharing trial streams (common random numbers);
    every mu is checked before the first run."""
    cfgs = [replace(cfg, mu=float(m)) for m in mus]
    return [run_experiment(R, c) for c in cfgs]
