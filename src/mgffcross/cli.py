"""Command-line front end.

Subcommands:

  enumerate   list Dyck paths or valence-2 link patterns as JSON
  prob        exact crossing-pattern probabilities for a rectangle or a
              marked boundary configuration
  simulate    lattice Monte-Carlo runs; writes CSV + JSON plus a manifest
  verify      independent numerical check suites

Every simulate output references its manifest; primary outputs (CSV,
JSON) are byte-identical across identical invocations, the manifest
alone carries the timestamp.  Settings may also come from a key=value
config file (--config); explicit flags win.

Exit codes: 0 ok, 1 failed check or computation, 2 usage, 3 capacity.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .errors import CapacityError


def _mesh_value(s: str) -> int:
    """Mesh size as intervals per unit height; accepts '32' or '1/32'."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if num.strip() != "1":
            raise argparse.ArgumentTypeError(f"mesh fraction must be 1/k, got {s!r}")
        v = int(den)
    else:
        v = int(s)
    if v < 2:
        raise argparse.ArgumentTypeError("mesh must be at least 2 intervals")
    return v


def _read_config(path: str) -> dict[str, str]:
    """key=value lines; # comments and blanks ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


class _Resolver:
    """Flag value if given, else config-file value, else the default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, conv, default):
        v = getattr(self.args, name, None)
        if v is not None:
            return v
        if name in self.cfg:
            return conv(self.cfg[name])
        return default

    def get_list(self, name: str, conv, default):
        v = getattr(self.args, name, None)
        if v:
            return list(v)
        if name in self.cfg:
            return [conv(t) for t in self.cfg[name].split(",") if t.strip()]
        return list(default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mgffcross",
        description="Exact level-line crossing probabilities and their Monte-Carlo checks.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="list Dyck paths or valence-2 link patterns")
    g = pe.add_mutually_exclusive_group(required=True)
    g.add_argument("--dyck", type=int, metavar="N", help="Dyck paths with 2N steps")
    g.add_argument(
        "--valence2", type=int, metavar="N", help="valence-2 link patterns on 2N points"
    )

    pp = sub.add_parser("prob", help="exact crossing-pattern probabilities")
    g = pp.add_mutually_exclusive_group(required=True)
    g.add_argument("--rectangle", type=float, metavar="L", help="aspect ratio of a marked rectangle")
    g.add_argument(
        "--points",
        type=float,
        nargs="+",
        metavar="Y",
        help="increasing boundary coordinates (an even number of them)",
    )
    pp.add_argument("--json", action="store_true", help="machine-readable output")

    ps = sub.add_parser("simulate", help="lattice Monte-Carlo experiment")
    ps.add_argument("--config", metavar="FILE", help="key=value settings file")
    ps.add_argument("--L", type=float, dest="L", help="rectangle aspect ratio (default 1)")
    ps.add_argument(
        "--mesh",
        type=_mesh_value,
        action="append",
        metavar="K",
        help="mesh as K or 1/K intervals per unit height; repeatable (default 16 32 64)",
    )
    ps.add_argument("--trials", type=int, help="trials per mesh (default 100000)")
    ps.add_argument("--seed", type=int, help="run seed (default 1)")
    ps.add_argument(
        "--mu",
        type=float,
        action="append",
        metavar="MU",
        help="boundary amplitude; repeatable for sweeps (default sqrt(pi/2))",
    )
    ps.add_argument("--out", metavar="PREFIX", help="output path prefix (default run)")
    ps.add_argument("--threads", type=int, help="worker threads, 0 = one per cpu (default 0)")
    ps.add_argument("--kernel", choices=("auto", "numpy"), help="percolation kernel")
    ps.add_argument(
        "--chunk", type=int,
        help="at most this many trials per work unit; fewer when the chunks of all "
        "workers would exceed the byte budget (default 512)",
    )

    pv = sub.add_parser("verify", help="independent numerical check suites")
    pv.add_argument("--config", metavar="FILE", help="key=value settings file")
    pv.add_argument(
        "--suite", required=True, choices=("pde", "cov", "asy", "bounds"), help="which checks"
    )
    pv.add_argument(
        "n", type=int, nargs="?", metavar="N", help="number of chords (2N points, default 2)"
    )
    pv.add_argument("--perturb", type=float, help="corrupt checked functions (negative control)")
    pv.add_argument("--seed", type=int, help="configuration sampling seed (default 0)")
    pv.add_argument("--configs", type=int, help="random configurations per function (default 3)")
    pv.add_argument("--quiet", action="store_true", help="summary line only")
    return p


def _cmd_enumerate(args) -> int:
    from . import combinat

    if args.dyck is not None:
        n = args.dyck
        items = [list(d.heights) for d in combinat.enumerate_dyck_paths(n)]
        obj = {"kind": "dyck", "n": n, "count": len(items), "items": items}
    else:
        n = args.valence2
        pats = combinat.enumerate_link_patterns((2,) * (2 * n))
        items = [[list(l) for l in p.links] for p in pats]
        obj = {"kind": "valence2", "n": n, "count": len(items), "items": items}
    print(json.dumps(obj, sort_keys=True))
    return 0


# `prob` prints no probability whose float sums may be off by more than
# this, relatively: cond * 2^-53 bounds the rounding of the numerators
MAX_REL_ERROR = 1e-10


def _cmd_prob(args) -> int:
    from . import probability

    if args.rectangle is not None:
        R = probability.RectanglePolygon.corners(args.rectangle)
        ys = probability.rect_boundary_to_halfplane(R)
        header = {"L": args.rectangle, "q": probability.cross_ratio_rectangle(args.rectangle)}
    else:
        ys = list(args.points)
        if len(ys) % 2 or len(ys) < 2:
            raise ValueError("need an even number of boundary points, at least two")
        header = {"points": ys}
        if len(ys) == 4:
            header["q"] = probability.cross_ratio(ys)
    dist = probability.outcome_distribution(len(ys), ys)
    cond = probability.condition(len(ys), ys)
    if cond * 2.0**-53 > MAX_REL_ERROR:
        raise ArithmeticError(
            f"cancellation: condition number {cond:.3g} bounds the relative error "
            f"by {cond * 2.0**-53:.2g}, above {MAX_REL_ERROR:g}"
        )
    if args.json:
        print(json.dumps({**header, "cond": cond, "outcomes": dist.as_json()}, sort_keys=True))
        return 0
    for k, v in header.items():
        print(f"{k} = {json.dumps(v)}")
    print("id  probability  links")
    for i, (pat, pr) in enumerate(zip(dist.patterns, dist.probs)):
        links = json.dumps([list(l) for l in pat.links], separators=(",", ":"))
        print(f"{i:<3d} {pr:.9f}  {links}")
    print(f"sum {sum(dist.probs):.9f}")
    return 0


def _cmd_simulate(args, argv: list[str]) -> int:
    from importlib.metadata import version

    import numpy
    import scipy

    from . import probability
    from .mgff_sim import experiment, kernels

    r = _Resolver(args)
    L = r.get("L", float, 1.0)
    meshes = tuple(r.get_list("mesh", _mesh_value, (16, 32, 64)))
    mus = [float(m) for m in r.get_list("mu", float, (experiment.MU_LAT_DEFAULT,))]
    cfg = experiment.SimConfig(
        trials=r.get("trials", int, 100_000),
        seed=r.get("seed", int, 1),
        mu=mus[0],
        meshes=meshes,
        kernel=r.get("kernel", str, "auto"),
        threads=r.get("threads", int, 0),
        chunk=r.get("chunk", int, 512),
    )
    out = r.get("out", str, "run")
    csv_path, json_path, man_path = out + ".csv", out + ".json", out + ".manifest.json"
    man_ref = os.path.basename(man_path)

    R = probability.RectanglePolygon.corners(L)
    reports = experiment.sweep_mu(R, cfg, mus)
    # a record of how far the theory column's sums may amplify rounding,
    # not a guard: MAX_REL_ERROR would refuse L = 0.5 (cond 5e6), which
    # the acceptance gates simulate
    theory_cond = probability.condition(R.npoints, probability.rect_boundary_to_halfplane(R))

    lines = [f"# manifest: {man_ref}", experiment.CSV_HEADER]
    for mu, rep in zip(mus, reports):
        lines.append(f"# mu={mu!r}")
        lines.extend(rep.csv_rows())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    report_obj = {
        "manifest": man_ref,
        "L": L,
        "reports": [rep.to_json_obj() for rep in reports],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report_obj, fh, indent=2, sort_keys=True)
        fh.write("\n")

    manifest = {
        "command": "simulate",
        "argv": argv,
        "config": {
            "L": L,
            "mesh": list(meshes),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "mu": mus,
            "kernel": cfg.kernel,
            "threads": cfg.threads,
            "chunk": cfg.chunk,
            "out": out,
        },
        "version": __version__,
        "seed": cfg.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [csv_path, json_path],
        "runtime": {
            "kernel": kernels.resolve_kernel(cfg.kernel),
            "threads": max(m.threads for rep in reports for m in rep.meshes),
            "cpu_count": os.cpu_count(),
            "theory_cond": theory_cond,
            "versions": {
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "mpmath": version("mpmath"),  # not imported by simulate
            },
            "meshes": [
                {"mu": rep.config.mu, "ny": m.ny, "wall_s": m.wall_s,
                 "trials_per_s": cfg.trials / m.wall_s, "chunk": m.chunk,
                 "threads": m.threads, "stages_s": m.stages_s}
                for rep in reports
                for m in rep.meshes
            ],
        },
    }
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for rep in reports:
        last = rep.meshes[-1]
        worst = max(abs(f - t) for f, t in zip(last.freqs, rep.theory))
        print(
            f"mu={rep.config.mu:.6g}: finest mesh 1/{last.ny}, "
            f"max |freq-theory| = {worst:.4g}, anomalies = {last.anomalies}"
        )
    print(f"wrote {csv_path} {json_path} {man_path}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    r = _Resolver(args)
    n = r.get("n", int, 2)
    checks = verify.run_suite(
        args.suite,
        npoints=2 * n,
        seed=r.get("seed", int, 0),
        perturb=r.get("perturb", float, 0.0),
        configs=r.get("configs", int, 3),
    )
    failed = [c for c in checks if not c["ok"]]
    if not args.quiet:
        for c in checks:
            print(
                json.dumps(
                    {"check": c["name"], "residual": c["value"], "tol": c["tol"], "pass": c["ok"]},
                    sort_keys=True,
                )
            )
    print(f"{args.suite}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "prob":
            return _cmd_prob(args)
        if args.command == "simulate":
            return _cmd_simulate(args, argv)
        return _cmd_verify(args)
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"usage: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
