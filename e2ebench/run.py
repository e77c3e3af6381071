"""End-to-end benchmark of mgffcross: exact solves and lattice Monte-Carlo.

    python3 e2ebench/run.py --workload exact --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from src/.  One
process does the work (plus fresh interpreters for set-up timing), closed loop: each call returns before the next
starts.  Progress and machine details go to stdout and stderr; the last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced replay (see README.md).  Exits 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from common import ROOT, RUNS, SRC, log
from tracing import Tracer

WORKLOADS = ("exact", "mc-coarse")

# what a fresh interpreter imports before each workload's first call
SETUP_IMPORTS = {
    "exact": "mgffcross",
    "mc-coarse": "mgffcross.cli, mgffcross.mgff_sim",
}
SETUP_REPEATS = 5


def setup_seconds(imports: str) -> float:
    """Median wall time of a fresh interpreter that imports the workload's
    modules from src/ and exits."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {imports}"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def end_to_end(setup_s: float, ops_per_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
    }


def per_layer(tr) -> dict:
    c = tr.counts

    def ratio(a: str, b: str) -> float:
        return c.get(a, 0) / c[b] if c.get(b) else 0.0

    eval_s = tr.seconds("coulomb.evaluate.pts4") + tr.seconds("coulomb.evaluate.pts6")
    return {
        "combinat.enumerate_ms": (tr.per("combinat.enumerate", "builds", 1e3), "ms"),
        "incidence.matrix_s": (tr.per("incidence.matrix", "builds"), "s"),
        "incidence.inverse_s": (tr.per("incidence.inverse", "builds"), "s"),
        "incidence.row_nnz": (ratio("incidence.row_nnz", "builds"), "count"),
        "partition_fn.pure_s": (tr.per("partition_fn.pure", "builds"), "s"),
        "partition_fn.pure_terms": (ratio("partition_fn.pure_terms", "builds"), "count"),
        "partition_fn.fuse_s": (tr.per("partition_fn.fuse", "builds"), "s"),
        "partition_fn.fused_terms": (ratio("partition_fn.fused_terms", "builds"), "count"),
        "probability.geometry_us": (tr.per("probability.geometry", "rects", 1e6), "us"),
        "probability.extreme_us": (tr.per("probability.extreme", "extremes", 1e6), "us"),
        "coulomb.evaluate_us.pts4": (tr.per("coulomb.evaluate.pts4", "dists.pts4", 1e6), "us"),
        "coulomb.evaluate_us.pts6": (tr.per("coulomb.evaluate.pts6", "dists.pts6", 1e6), "us"),
        "coulomb.terms_per_s": (c.get("coulomb.terms", 0) / eval_s if eval_s else 0.0, "1/s"),
        "coulomb.cond_max": (tr.peaks.get("coulomb.cond_max", 0.0), "ratio"),
        "mgff_sim.lattice.setup_ms": (tr.per("mgff_sim.lattice.setup", "lattice.setups", 1e3), "ms"),
        "mgff_sim.rng_us": (tr.per("mgff_sim.rng", "trials", 1e6), "us"),
        "mgff_sim.lattice.dst_us": (tr.per("mgff_sim.lattice.dst", "trials", 1e6), "us"),
        "mgff_sim.kernels.percolate_us": (tr.per("mgff_sim.kernels.percolate", "trials", 1e6), "us"),
        "mgff_sim.experiment.tally_us": (tr.per("mgff_sim.experiment.tally", "trials", 1e6), "us"),
        "mgff_sim.kernels.open_edge_frac": (ratio("edges.opened", "edges.examined"), "ratio"),
        "mgff_sim.chunk_temp_mb": (tr.peaks.get("mgff_sim.chunk_temp_mb", 0.0), "MB"),
    }


def spec_mismatch(spec: dict) -> str | None:
    """Names and units here must be the ones BENCHMARK.json declares."""
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        return "workloads"
    probe = {"end_to_end": end_to_end(0.0, 0.0), "per_layer": per_layer(Tracer())}
    for key, metrics in probe.items():
        if {m["name"]: m["unit"] for m in spec[key]} != {k: u for k, (_, u) in metrics.items()}:
            return key
    return None


def machine() -> dict:
    import mpmath
    import numpy
    import scipy
    from mgffcross.mgff_sim import kernels

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": kernels.resolve_kernel(),
        "MGFFCROSS_KERNEL": os.environ.get("MGFFCROSS_KERNEL"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mgffcross" / "__init__.py").is_file():
        log(f"e2ebench: no program source at {SRC / 'mgffcross'}; run from a checkout root")
        return 2
    sys.path.insert(0, str(SRC))
    import mgffcross

    if not os.path.realpath(mgffcross.__file__).startswith(os.path.realpath(SRC)):
        log(f"e2ebench: mgffcross imported from {mgffcross.__file__}, not {SRC}")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bad = spec_mismatch(json.load(fh))
    if bad:
        log(f"e2ebench: BENCHMARK.json {bad} do not match run.py")
        return 1
    RUNS.mkdir(exist_ok=True)
    print(json.dumps({"machine": machine()}), flush=True)

    import exact
    import mc

    fn = {
        "exact": exact.run,
        "mc-coarse": mc.run,
    }[args.workload]
    if args.trace:
        tr = Tracer()
        out = fn(args.seed, args.seconds, tr)
        metrics = per_layer(tr)
        tr.write(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setup_s = setup_seconds(SETUP_IMPORTS[args.workload])
        out = fn(args.seed, args.seconds, None)
        metrics = end_to_end(setup_s, out.ops_per_s())
    print(json.dumps({
        "correct": bool(out.correct),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
