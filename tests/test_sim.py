"""Lattice construction, field sampling, percolation kernels, experiments."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mgffcross import probability
from mgffcross.probability import (
    RectanglePolygon,
    cluster_pattern_table,
    outcome_distribution,
    rect_boundary_to_halfplane,
)
from mgffcross.mgff_sim.lattice import (
    LatticeField,
    boundary_values,
    build_lattice,
    dirichlet_eigenvalues,
    edge_open_probability,
    harmonic_extension,
    interior_noise_to_field,
    _dst2,
)
from mgffcross.mgff_sim.kernels import pair_bit, percolate_batch, resolve_kernel
from mgffcross.mgff_sim.experiment import (
    CHUNK_BYTES,
    MU_LAT_DEFAULT,
    ExperimentReport,
    SimConfig,
    _chunk_buffers,
    _draw_chunk,
    _run_chunk,
    bytes_per_trial,
    chunk_plan,
    partition_mask,
    run_experiment,
    sweep_mu,
    wilson_interval,
)

from oracles import (
    bridge_same_sign_probability,
    dense_gff_variances,
    dense_harmonic_extension,
    laplacian_residual,
    lattice_vertex,
    mask_to_partition,
    percolate_per_trial,
    trial_stream,
)

SQUARE = RectanglePolygon.corners(1.0)


# ---------------------------------------------------------------------------
# lattice geometry


def test_build_lattice_square():
    spec = build_lattice(SQUARE, 8)
    assert (spec.ny, spec.nx, spec.delta) == (8, 8, 0.125)
    assert spec.nv == 81
    assert spec.n_edges == 9 * 8 * 2
    assert spec.narcs == 4
    assert tuple(spec.arc_sign) == (1, -1, 1, -1)
    assert spec.snap_err == 0.0
    assert spec.marked_walk == (24, 0, 8, 16)


def test_boundary_walk_covers_boundary_once():
    spec = build_lattice(RectanglePolygon.corners(2.0), 6)
    walk = spec.walk
    assert len(walk) == 2 * (spec.ny + spec.nx)
    assert len(set(walk.tolist())) == len(walk)
    grid = np.full((spec.ny + 1, spec.nx + 1), -1, dtype=int)
    grid.ravel()[walk] = np.arange(len(walk))
    assert (grid[1:-1, 1:-1] == -1).all()  # walk never enters the interior
    assert (grid[0, :] >= 0).all() and (grid[-1, :] >= 0).all()
    assert (grid[:, 0] >= 0).all() and (grid[:, -1] >= 0).all()


def test_arc_labels_partition_boundary():
    spec = build_lattice(SQUARE, 4)
    inside = spec.arc_of.reshape(5, 5)[1:-1, 1:-1]
    assert (inside == -1).all()
    border = spec.arc_of[spec.walk]
    assert (border >= 0).all()
    # left edge positive (arc 0), bottom negative (arc 1), right positive, top negative
    assert spec.arc_of[lattice_vertex(spec, 2, 0)] == 0
    assert spec.arc_of[lattice_vertex(spec, 0, 2)] == 1
    assert spec.arc_of[lattice_vertex(spec, 2, 4)] == 2
    assert spec.arc_of[lattice_vertex(spec, 4, 2)] == 3


def test_mark_snapping():
    R = RectanglePolygon(1.0, (3.0, 0.0, 1.0 + 1.0 / 3.0, 2.0))
    spec = build_lattice(R, 8)
    t = (1.0 + 1.0 / 3.0) / 0.125
    assert spec.snap_err == pytest.approx(abs(t - round(t)) * 0.125, abs=1e-12)
    with pytest.raises(ValueError):
        # marks 0.01 apart land on the same vertex at mesh 1/4
        build_lattice(RectanglePolygon(1.0, (3.0, 0.0, 1.0, 1.01)), 4)


def _one_vertex_arcs(ny):
    # y_2, y_3, y_4 snap to consecutive boundary vertices: the negative
    # arc y_2 -> y_3 and the positive arc y_3 -> y_4 hold one vertex each
    d = 1.0 / ny
    return RectanglePolygon(1.0, (3.0, 0.0, d, 2 * d, 1.0, 2.0))


@pytest.mark.parametrize(
    "R, shortest",
    [(RectanglePolygon(1.5, (4.5, 0.0, 0.25, 1.75, 2.0, 3.0)), 2), (_one_vertex_arcs(8), 1)],
)
def test_site_layout_of_arcs(R, shortest):
    # arc k is read at the doubled-grid site of its first vertex, and
    # every boundary edge except the one at each mark is held open
    spec = build_lattice(R, 8)
    width = 2 * spec.nx + 1
    for k, site in enumerate(spec.arc_sites.tolist()):
        r, c = divmod(site, width)
        assert r % 2 == 0 and c % 2 == 0
        assert spec.arc_of[lattice_vertex(spec, r // 2, c // 2)] == k
        assert spec.arc_of[spec.walk[spec.marked_walk[k]]] == k
    walk = spec.walk.tolist()
    ends = zip(walk, walk[1:] + walk[:1])
    want = set()
    for a, b in ends:
        if spec.arc_of[a] == spec.arc_of[b]:
            (ra, ca), (rb, cb) = divmod(a, spec.nx + 1), divmod(b, spec.nx + 1)
            want.add((ra + rb) * width + ca + cb)
    assert len(want) == len(walk) - spec.narcs
    assert sorted(spec.forced_sites.tolist()) == sorted(want)
    sizes = np.bincount(spec.arc_of[spec.arc_of >= 0], minlength=spec.narcs)
    assert sizes.min() == shortest


def test_lattice_rejects_degenerate_meshes():
    with pytest.raises(ValueError):
        build_lattice(SQUARE, 1)
    with pytest.raises(ValueError):
        build_lattice(RectanglePolygon.corners(0.1), 8)


# ---------------------------------------------------------------------------
# boundary data and harmonic extension


def test_boundary_values_signs():
    spec = build_lattice(SQUARE, 4)
    g = boundary_values(spec, 1.5).reshape(5, 5)
    assert g[2, 0] == 1.5 and g[2, 4] == 1.5  # left, right positive
    assert g[0, 2] == -1.5 and g[4, 2] == -1.5  # bottom, top negative
    assert (g[1:-1, 1:-1] == 0).all()


def test_harmonic_extension_is_discrete_harmonic():
    for ny in (4, 9):
        spec = build_lattice(RectanglePolygon.corners(1.5), ny)
        f = harmonic_extension(spec, MU_LAT_DEFAULT)
        assert laplacian_residual(f) < 1e-12


def test_harmonic_extension_matches_dense_solver():
    spec = build_lattice(SQUARE, 6)
    mu = 0.8
    got = harmonic_extension(spec, mu).values
    want = dense_harmonic_extension(boundary_values(spec, mu).reshape(7, 7))
    assert np.max(np.abs(got - want)) < 1e-12


def test_harmonic_extension_antisymmetry():
    # swapping the sign of mu negates the whole field
    spec = build_lattice(SQUARE, 8)
    a = harmonic_extension(spec, 1.0).values
    b = harmonic_extension(spec, -1.0).values
    assert np.max(np.abs(a + b)) == 0.0


# ---------------------------------------------------------------------------
# zero-boundary field sampling


def test_sampler_inverts_laplacian_exactly():
    spec = build_lattice(SQUARE, 8)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(spec.interior_shape)
    u = interior_noise_to_field(spec, z[None])[0]
    full = np.zeros((9, 9))
    full[1:-1, 1:-1] = u
    lap = (
        4.0 * full[1:-1, 1:-1]
        - full[:-2, 1:-1]
        - full[2:, 1:-1]
        - full[1:-1, :-2]
        - full[1:-1, 2:]
    )
    assert np.max(np.abs(lap - _dst2(z * np.sqrt(dirichlet_eigenvalues(spec))))) < 1e-10


def test_sampler_variances_match_dense_inverse():
    spec = build_lattice(SQUARE, 6)
    rng = np.random.default_rng(12)
    B = 4000
    z = rng.standard_normal((B,) + spec.interior_shape)
    u = interior_noise_to_field(spec, z)
    got = u.var(axis=0, ddof=1)
    want = dense_gff_variances(spec.interior_shape)
    se = want * math.sqrt(2.0 / (B - 1))
    assert np.max(np.abs(got - want) / se) < 4.5


# ---------------------------------------------------------------------------
# edge opening


def test_edge_open_probability_values():
    assert edge_open_probability(1.0, 1.0) == pytest.approx(-math.expm1(-2.0))
    assert edge_open_probability(-1.0, -0.5) == pytest.approx(-math.expm1(-1.0))
    assert edge_open_probability(1.0, -1.0) == 0.0
    assert edge_open_probability(0.0, 1.0) == 0.0
    arr = edge_open_probability(np.array([1.0, -1.0]), np.array([2.0, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(-math.expm1(-4.0)) and arr[1] == 0.0


def test_edge_open_probability_matches_bridge_oracle():
    rng = np.random.default_rng(21)
    a, b = 0.8, 1.3
    est, se = bridge_same_sign_probability(a, b, samples=20000, rng=rng)
    assert abs(est - edge_open_probability(a, b)) < 4.0 * se


# ---------------------------------------------------------------------------
# pair bits and partitions


def test_pair_bit_lexicographic():
    n = 4
    expect = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert pair_bit(i, j, n) == expect
            expect += 1
    with pytest.raises(ValueError):
        pair_bit(2, 2, 4)
    with pytest.raises(ValueError):
        pair_bit(3, 1, 4)


def test_mask_partition_roundtrip():
    def partitions(n):
        if n == 0:
            yield ()
            return
        for smaller in partitions(n - 1):
            for i in range(len(smaller)):
                yield smaller[:i] + (smaller[i] + (n,),) + smaller[i + 1 :]
            yield smaller + ((n,),)

    n = 4
    for blocks in partitions(n):
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        assert mask_to_partition(partition_mask(canon, n), n) == canon
    assert mask_to_partition(0, 3) == ((1,), (2,), (3,))


def test_mask_to_partition_transitive_closure():
    n = 3
    # only bits (1,2) and (2,3) set; closure must join all three
    mask = (1 << pair_bit(0, 1, n)) | (1 << pair_bit(1, 2, n))
    assert mask_to_partition(mask, n) == ((1, 2, 3),)


# ---------------------------------------------------------------------------
# kernels


def test_resolve_kernel_env(monkeypatch):
    # one kernel; the environment no longer selects one
    monkeypatch.setenv("MGFFCROSS_KERNEL", "bogus")
    for name in (None, "auto", "numpy"):
        assert resolve_kernel(name) == "numpy"
    for name in ("numba", "bogus"):
        with pytest.raises(ValueError):
            resolve_kernel(name)


MARKED = {
    4: RectanglePolygon.corners(1.5),
    6: RectanglePolygon(2.0, (5.2, 0.0, 0.7, 2.0, 3.0, 3.9)),
    8: RectanglePolygon(1.0, (3.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
}


@pytest.mark.parametrize("mu", [0.5, MU_LAT_DEFAULT, 2.0])
@pytest.mark.parametrize("ny", [4, 8, 16])
@pytest.mark.parametrize("npts", [4, 6, 8])
def test_percolate_batch_matches_per_trial_oracle(npts, ny, mu):
    pos, neg = _oracle_case(MARKED[npts], ny, 64, 100 * ny + npts, mu)
    assert len(set(pos.tolist())) + len(set(neg.tolist())) > 2  # not all trials alike


def _oracle_case(R, ny, B, seed, mu=MU_LAT_DEFAULT):
    """Masks of B random trials, after checking them bit for bit against
    the per-trial oracle."""
    spec = build_lattice(R, ny)
    rng = np.random.default_rng(seed)
    harm = harmonic_extension(spec, mu).values
    z = rng.standard_normal((B,) + spec.interior_shape)
    fields = np.broadcast_to(harm, (B,) + harm.shape).copy()
    fields[:, 1:-1, 1:-1] += interior_noise_to_field(spec, z)
    uniforms = rng.random((B, spec.n_edges))
    vb = fields.reshape(B, -1)
    pos, neg = percolate_batch(vb, uniforms, spec, None)
    pos_ref, neg_ref = percolate_per_trial(vb, uniforms, spec)
    assert (pos == pos_ref).all()
    assert (neg == neg_ref).all()
    return pos, neg


@pytest.mark.parametrize(
    "R, ny, B",
    [
        (MARKED[4], 32, 64),
        (MARKED[6], 32, 64),
        (MARKED[8], 32, 64),
        (RectanglePolygon.corners(0.5), 16, 64),
        (RectanglePolygon.corners(0.5), 32, 64),
        (RectanglePolygon.corners(2.0), 16, 64),
        (RectanglePolygon.corners(2.0), 32, 64),
        (_one_vertex_arcs(8), 8, 64),
        (_one_vertex_arcs(16), 16, 64),
        (MARKED[4], 16, 1),
        (MARKED[6], 8, 1),
    ],
    ids=["4pt-32", "6pt-32", "8pt-32", "L0.5-16", "L0.5-32", "L2-16", "L2-32",
         "one-vertex-arcs-8", "one-vertex-arcs-16", "B1-4pt", "B1-6pt"],
)
def test_percolate_batch_matches_oracle_on_more_geometries(R, ny, B):
    pos, neg = _oracle_case(R, ny, B, seed=ny + B)
    if B > 1:
        assert len(set(pos.tolist())) + len(set(neg.tolist())) > 2


def _planted_state(interior_sign, mu=2.0, ny=4):
    """Percolate a field that is +-mu on the boundary arcs and uniformly
    `interior_sign * mu` inside, with every same-sign edge forced open.
    Returns the positive and negative arc partitions."""
    spec = build_lattice(SQUARE, ny)
    grid = boundary_values(spec, mu).reshape(ny + 1, ny + 1)
    grid[1:-1, 1:-1] = interior_sign * mu
    uniforms = np.zeros((1, spec.n_edges))
    pos, neg = percolate_batch(grid.reshape(1, -1), uniforms, spec, None)
    n = spec.narcs // 2
    return mask_to_partition(int(pos[0]), n), mask_to_partition(int(neg[0]), n)


def test_planted_positive_interior_wires_positive_arcs():
    pos, neg = _planted_state(+1)
    assert pos == ((1, 2),)
    assert neg == ((1,), (2,))
    pat = cluster_pattern_table(2)[(pos, neg)]
    assert sorted(pat.links) == [(1, 4), (1, 4), (2, 3), (2, 3)]


def test_planted_negative_interior_wires_negative_arcs():
    pos, neg = _planted_state(-1)
    assert pos == ((1,), (2,))
    assert neg == ((1, 2),)
    pat = cluster_pattern_table(2)[(pos, neg)]
    assert sorted(pat.links) == [(1, 2), (1, 2), (3, 4), (3, 4)]


def test_planted_zero_interior_gives_ring():
    pos, neg = _planted_state(0)
    assert pos == ((1,), (2,))
    assert neg == ((1,), (2,))
    pat = cluster_pattern_table(2)[(pos, neg)]
    assert sorted(pat.links) == [(1, 2), (1, 4), (2, 3), (3, 4)]


# ---------------------------------------------------------------------------
# confidence intervals


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=2e-5)
    assert hi == pytest.approx(0.59617, abs=2e-5)
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-15)
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0, abs=1e-15)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(625, 10000)
    assert lo < 0.0625 < hi
    assert hi - lo < 0.01


# ---------------------------------------------------------------------------
# experiments


def base_config(**kw):
    d = dict(trials=400, seed=7, meshes=(4, 8), kernel="auto", threads=1, chunk=128)
    d.update(kw)
    return SimConfig(**d)


def test_trial_streams_are_reproducible():
    a = trial_stream(9, 4).standard_normal(5)
    b = trial_stream(9, 4).standard_normal(5)
    c = trial_stream(9, 5).standard_normal(5)
    assert (a == b).all()
    assert not (a == c).all()


@pytest.mark.parametrize("seed", [0, 9, 2**63 + 5, 2**64 + 3])
@pytest.mark.parametrize("first", [0, 1234, 2**64 - 3])
@pytest.mark.parametrize("shape, nE", [((3, 3), 24), ((3, 5), 7), ((1, 1), 1)])
def test_chunk_draws_match_fresh_per_trial_streams(seed, first, shape, nE):
    # odd draw counts leave half a Philox block buffered, which a
    # re-keyed generator must not carry into the next trial
    count = 6
    normals, uniforms = np.full((count,) + shape, np.nan), np.full((count, nE), np.nan)
    assert _draw_chunk(seed, first, normals, uniforms) >= 0.0
    for i in range(count):
        g = trial_stream(seed, first + i)
        assert normals[i].tobytes() == g.standard_normal(shape).tobytes()
        assert uniforms[i].tobytes() == g.random(nE).tobytes()
    if first == 2**64 - 3:  # the trial index wraps inside the chunk
        assert (normals[3] == trial_stream(seed, 0).standard_normal(shape)).all()


def test_concurrent_chunk_draws_match_serial_draws():
    # four drawing threads on fewer cores, switching as often as the
    # interpreter allows, get the bytes each chunk gets alone
    def draw(seed, first):
        normals, uniforms = np.empty((40, 15, 15)), np.empty((40, 544))
        _draw_chunk(seed, first, normals, uniforms)
        return normals, uniforms

    jobs = [(seed, first) for seed in (3, 2**64 - 1) for first in (0, 777)]
    serial = [draw(*job) for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(4)

    def work(w):
        start.wait(timeout=30)
        for rep in range(3):
            for j in range(w, len(jobs) + w):
                got[j % len(jobs)] = draw(*jobs[j % len(jobs)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for (n0, u0), (n1, u1) in zip(serial, got):
        assert n0.tobytes() == n1.tobytes() and u0.tobytes() == u1.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 8, 64])
@pytest.mark.parametrize("ny, trials, cap", [(16, 4096, 512), (32, 4096, 512), (64, 1024, 512),
                                              (64, 1024, 5), (8, 100, 512), (128, 50, 512)])
def test_chunk_plan_fits_the_byte_budget(threads, ny, trials, cap):
    spec = build_lattice(SQUARE, ny)
    per = bytes_per_trial(spec)
    chunk, workers = chunk_plan(SimConfig(trials=trials, threads=threads, chunk=cap), spec)
    assert 1 <= chunk <= cap
    assert chunk * threads * per <= CHUNK_BYTES or chunk == 1
    assert chunk == cap or (chunk + 1) * threads * per > CHUNK_BYTES  # as large as fits
    assert workers == min(threads, -(-trials // chunk))


def test_chunk_plan_counts_cpus_when_threads_is_zero(monkeypatch):
    spec = build_lattice(SQUARE, 32)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert chunk_plan(SimConfig(threads=0), spec) == chunk_plan(SimConfig(threads=8), spec)
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert chunk_plan(SimConfig(threads=0), spec) == chunk_plan(SimConfig(threads=1), spec)


@pytest.mark.parametrize("ny, count", [(16, 256), (32, 64)])
def test_chunk_peak_memory_matches_bytes_per_trial(ny, count):
    spec = build_lattice(SQUARE, ny)
    harm = harmonic_extension(spec, MU_LAT_DEFAULT).values
    cfg = SimConfig(seed=4)
    _run_chunk(cfg, spec, harm, 0, _chunk_buffers(spec, count), {}, 3)  # warm caches and plans
    tracemalloc.start()
    try:
        _run_chunk(cfg, spec, harm, 0, _chunk_buffers(spec, count), {}, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak == pytest.approx(bytes_per_trial(spec) * count, rel=0.25)


def test_run_experiment_counts_are_conserved():
    rep = run_experiment(SQUARE, base_config())
    assert len(rep.patterns) == 3
    assert sum(rep.theory) == pytest.approx(1.0, rel=1e-10)
    for m in rep.meshes:
        assert sum(m.counts) + m.anomalies == 400
        assert sum(m.freqs) + m.anomalies / 400 == pytest.approx(1.0, rel=1e-12)
        for c, f, lo, hi in zip(m.counts, m.freqs, m.ci_low, m.ci_high):
            assert f == c / 400
            assert lo <= f <= hi


def test_run_experiment_theory_is_the_outcome_distribution():
    # the theory column is read from the one compiled table per point
    # count: the same bits, and no numerator keeps a table of its own
    R = RectanglePolygon(2.0, (5.2, 0.0, 0.7, 2.0, 3.0, 3.9))
    nums = [num for _, num in probability._numerators(6) if num is not None]
    for num in nums:
        num._compiled = None  # other tests evaluate the cached combos directly
    rep = run_experiment(R, base_config(trials=50, meshes=(4,)))
    assert rep.theory == outcome_distribution(6, rect_boundary_to_halfplane(R)).probs
    assert all(num._compiled is None for num in nums)


def test_run_experiment_deterministic_across_threads_and_chunks():
    r1 = run_experiment(SQUARE, base_config(threads=1, chunk=64))
    r2 = run_experiment(SQUARE, base_config(threads=2, chunk=32))
    assert r1.meshes == r2.meshes


def test_budget_chunks_match_one_trial_chunks():
    cfg = SimConfig(trials=1000, seed=11, meshes=(16,))
    assert cfg.chunk == 512 and cfg.threads == 0
    pooled = run_experiment(SQUARE, cfg)
    single = run_experiment(SQUARE, replace(cfg, threads=1, chunk=1))
    assert pooled.meshes == single.meshes
    assert 1 < pooled.meshes[0].chunk < 1000 and single.meshes[0].chunk == 1
    assert single.meshes[0].threads == 1
    assert set(pooled.meshes[0].stages_s) == {"rng", "rng_wait", "dst", "percolate", "tally"}


def test_run_experiment_seed_sensitivity():
    r1 = run_experiment(SQUARE, base_config())
    r2 = run_experiment(SQUARE, base_config(seed=8))
    assert r1.meshes != r2.meshes


def test_report_serialization():
    rep = run_experiment(SQUARE, base_config(meshes=(4,)))
    obj = rep.to_json_obj()
    assert obj["L"] == 1.0 and obj["trials"] == 400 and obj["seed"] == 7
    assert len(obj["meshes"]) == 1 and len(obj["patterns"]) == 3
    assert obj["meshes"][0]["counts"] == list(rep.meshes[0].counts)
    rows = rep.csv_rows()
    assert len(rows) == 3
    first = rows[0].split(",")
    assert len(first) == 8
    assert first[0] == "0.25" and first[1] == "0"


def test_sweep_mu_replaces_mu():
    reports = sweep_mu(SQUARE, base_config(meshes=(4,)), (0.5, 1.0))
    assert [r.config.mu for r in reports] == [0.5, 1.0]
    assert reports[0].meshes != reports[1].meshes


def test_reflection_square_symmetry():
    # at L = 1 the two doubled patterns are exchangeable; their theory
    # values coincide and empirical counts agree within joint CIs
    rep = run_experiment(SQUARE, base_config(trials=2000, meshes=(8,)))
    assert rep.theory[0] == pytest.approx(rep.theory[2], rel=1e-9)
    m = rep.meshes[0]
    assert m.ci_low[0] <= m.ci_high[2] and m.ci_low[2] <= m.ci_high[0]
