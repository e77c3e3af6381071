"""The `mc-coarse` workload: `mgffcross simulate` on the unit square.

Each round is one `cli.main(["simulate", ...])` call at mesh 1/16, with
a fresh seed drawn from the workload seed, at the default worker count
and chunk size, timed from call to return; its CSV, JSON and manifest
land in runs/ and are checked after the timing.  The traced run replays
the same trials layer by layer, single-threaded (`replay`), and
requires the replay's counts to equal the simulate call's.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

from mgffcross import cli, probability
from mgffcross.mgff_sim import experiment, kernels, lattice

import checks
import layers
from common import RUNS, Outcome, log, rounds

# mesh (intervals per unit height) and trials per simulate call: eight
# default chunks of 512, so both workers of the default pool run and a
# worker on a faster core can take more chunks; with two chunks a call
# waits for the slower core, and its rate spread twice as much
MESH = 16
TRIALS = 4096
# trials per slice when counting opened edges, to bound that extra memory
OPEN_SLICE = 128


def run(seed: int, seconds: float, tr) -> Outcome:
    ny, trials = MESH, TRIALS
    rng = np.random.default_rng(seed)
    prefix = RUNS / "mc-coarse"
    # simulate's first call builds the N=2 partition functions for its theory column
    model = layers.build(tr, 4) if tr else None
    out = Outcome()
    for r in rounds(seconds):
        run_seed = int(rng.integers(1, 2**31))
        argv = ["simulate", "--L", "1", "--mesh", str(ny), "--trials", str(trials),
                "--seed", str(run_seed), "--out", str(prefix)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        dt = time.perf_counter() - t0
        out.attempted += 1
        if rc != 0:
            out.failed += 1
            log(f"mc-coarse: simulate exited {rc}")
            continue
        out.rates.append(trials / dt)
        report = read_outputs(prefix)
        out.correct &= report is not None and checks.simulate_ok(report, trials)
        if tr and report is not None:
            tr.trace = r
            counts, theory = replay(tr, model, ny, trials, run_seed)
            mesh = report["meshes"][0]
            out.correct &= counts == mesh["counts"] + [mesh["anomalies"]]
            out.correct &= theory == report["theory"]
    if tr:
        tr.peak("mgff_sim.chunk_temp_mb", chunk_temp_mb(ny))
    return out


def read_outputs(prefix) -> dict | None:
    """The single report of the JSON output, if CSV, JSON and manifest agree."""
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    with open(f"{prefix}.manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(f"{prefix}.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]
    report = obj["reports"][0]
    csv_counts = [int(row[2]) for row in rows[1:]]
    if (len(obj["reports"]) != 1 or manifest["outputs"] != [f"{prefix}.csv", f"{prefix}.json"]
            or csv_counts != report["meshes"][0]["counts"]):
        return None
    return report


def replay(tr, model, ny: int, trials: int, seed: int):
    """The trials of one single-mesh simulate call, one layer per span.

    Follows `_run_mesh`: trial t draws from its own Philox stream keyed
    (seed, t), interior normals first and edge uniforms second; chunks of
    `SimConfig.chunk` trials.  Returns (counts + [anomalies], theory)."""
    cfg = experiment.SimConfig(trials=trials, seed=seed, meshes=(ny,))
    R = probability.RectanglePolygon.corners(1.0)
    with tr.span("mgff_sim.lattice.setup"):
        spec = lattice.build_lattice(R, ny)
        harm = lattice.harmonic_extension(spec, cfg.mu).values
    tr.count("lattice.setups")
    with tr.span("probability.geometry"):
        ys = probability.rect_boundary_to_halfplane(R)
    tr.count("rects")
    dist = layers.evaluate(tr, model, ys)
    theory = [dist[p.links] for p in model.patterns]
    index = {p: i for i, p in enumerate(model.patterns)}
    n = R.npoints // 2
    table = {
        (experiment.partition_mask(pos, n), experiment.partition_mask(neg, n)): index[pat]
        for (pos, neg), pat in probability.cluster_pattern_table(n).items()
    }
    m, k = spec.interior_shape
    nE = spec.n_edges
    counts = [0] * (len(model.patterns) + 1)
    for t0 in range(0, trials, cfg.chunk):
        B = min(cfg.chunk, trials - t0)
        with tr.span("mgff_sim.rng"):
            normals = np.empty((B, m, k))
            uniforms = np.empty((B, nE))
            for i in range(B):
                key = np.array([seed % 2**64, (t0 + i) % 2**64], dtype=np.uint64)
                g = np.random.Generator(np.random.Philox(key=key))
                normals[i] = g.standard_normal((m, k))
                uniforms[i] = g.random(nE)
        with tr.span("mgff_sim.lattice.dst"):
            fields = np.broadcast_to(harm, (B,) + harm.shape).copy()
            fields[:, 1:-1, 1:-1] += lattice.interior_noise_to_field(spec, normals)
        values = fields.reshape(B, -1)
        with tr.span("mgff_sim.kernels.percolate"):
            pos, neg = kernels.percolate_batch(values, uniforms, spec, cfg.kernel)
        with tr.span("mgff_sim.experiment.tally"):
            for pm, nm in zip(pos.tolist(), neg.tolist()):
                counts[table.get((pm, nm), len(model.patterns))] += 1
        for s in range(0, B, OPEN_SLICE):
            v = values[s:s + OPEN_SLICE]
            p_open = lattice.edge_open_probability(v[:, spec.edge_a], v[:, spec.edge_b])
            tr.count("edges.opened", int(np.count_nonzero(uniforms[s:s + OPEN_SLICE] < p_open)))
        tr.count("edges.examined", B * nE)
    tr.count("trials", trials)
    return counts, theory


def chunk_temp_mb(ny: int) -> float:
    """Bytes a worker holds at once inside one default-size chunk, computed
    from array sizes (not measured): normals, field, edge uniforms, and in
    the numpy kernel the endpoint values, their product, the opening
    probabilities (float64 each) and the open mask (bool)."""
    spec = lattice.build_lattice(probability.RectanglePolygon.corners(1.0), ny)
    m, k = spec.interior_shape
    nE = spec.n_edges
    per_trial = 8 * (m * k + spec.nv + 5 * nE) + nE
    return experiment.SimConfig().chunk * per_trial / 2**20
