"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys

import mpmath
import numpy
import pytest
import scipy

import mgffcross
from mgffcross import coulomb, probability
from mgffcross.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_dyck(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dyck", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "dyck" and obj["n"] == 2
    assert obj["count"] == 2 and len(obj["items"]) == 2
    assert [0, 1, 0, 1, 0] in obj["items"] and [0, 1, 2, 1, 0] in obj["items"]


def test_enumerate_dyck_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dyck", "4")
    assert code == 0 and json.loads(out)["count"] == 14


def test_enumerate_valence2(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--valence2", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "valence2" and obj["count"] == 3
    assert all(len(links) == 4 for links in obj["items"])
    code, out, _ = run_cli(capsys, "enumerate", "--valence2", "3")
    assert json.loads(out)["count"] == 15


def test_enumerate_requires_exactly_one_kind(capsys):
    code, _, _ = run_cli(capsys, "enumerate")
    assert code == 2
    code, _, _ = run_cli(capsys, "enumerate", "--dyck", "2", "--valence2", "2")
    assert code == 2


def test_enumerate_capacity_exit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--dyck", "50")
    assert code == 3
    assert "capacity" in err


# ---------------------------------------------------------------------------
# prob


def test_prob_rectangle_square(capsys):
    code, out, _ = run_cli(capsys, "prob", "--rectangle", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "q = 0.5" in lines[1]
    assert lines[2] == "id  probability  links"
    assert lines[3].startswith("0   0.062500000")
    assert lines[4].startswith("1   0.875000000")
    assert lines[5].startswith("2   0.062500000")
    assert lines[6] == "sum 1.000000000"


def test_prob_points(capsys):
    code, out, _ = run_cli(capsys, "prob", "--points", "0", "1", "2", "3")
    assert code == 0
    assert "q = 0.25" in out
    assert "0.316406250" in out
    assert "0.679687500" in out
    assert "0.003906250" in out
    assert out.strip().endswith("sum 1.000000000")


def test_prob_six_points(capsys):
    code, out, _ = run_cli(capsys, "prob", "--points", "0", "1", "2", "3", "4", "5")
    assert code == 0
    assert "q =" not in out  # cross ratio only defined for four points
    assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 15
    assert out.strip().endswith("sum 1.000000000")


def test_prob_json(capsys):
    code, out, _ = run_cli(capsys, "prob", "--rectangle", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["L"] == 2.0
    assert len(obj["outcomes"]) == 3
    assert sum(o["prob"] for o in obj["outcomes"]) == pytest.approx(1.0, rel=1e-12)


def test_prob_json_reports_condition(capsys):
    code, out, _ = run_cli(capsys, "prob", "--points", "0", "1", "2.5", "3", "4.2", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["cond"] == pytest.approx(175.37, abs=0.01)
    assert all("cond" not in o for o in obj["outcomes"])
    code, out, _ = run_cli(capsys, "prob", "--points", "0", "1", "2", "3", "--json")
    assert json.loads(out)["cond"] == pytest.approx(5.35, abs=0.01)
    code, out, _ = run_cli(capsys, "prob", "--points", "0", "1", "2", "3")
    assert code == 0 and "cond" not in out


def _count_table_passes(monkeypatch) -> list:
    """A list that grows by one each time a table forms its terms."""
    calls = []
    products = coulomb.Compiled._products

    def counted(self, d, coef):
        calls.append(self)
        return products(self, d, coef)

    monkeypatch.setattr(coulomb.Compiled, "_products", counted)
    return calls


@pytest.mark.parametrize(
    "argv", [("--rectangle", "2"), ("--points", "0", "0.7", "1.5", "2.4", "3.0", "4.1", "--json")]
)
def test_prob_forms_the_table_terms_once(monkeypatch, capsys, argv):
    # the probabilities and the condition number come from one pass
    calls = _count_table_passes(monkeypatch)
    code, _, _ = run_cli(capsys, "prob", *argv)
    assert code == 0 and len(calls) == 1


def test_prob_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "prob", "--points", "0", "1", "2")  # odd count
    assert code == 2
    code, _, _ = run_cli(capsys, "prob")  # neither source
    assert code == 2
    code, _, _ = run_cli(capsys, "prob", "--rectangle", "1", "--points", "0", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "prob", "--points", "3", "1", "0", "2")
    assert code == 2  # not increasing
    assert err


def test_prob_negative_probability_fails(capsys):
    # float cancellation at L = 0.2 leaves the q^4 entry at about -1e-16
    code, out, err = run_cli(capsys, "prob", "--rectangle", "0.2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("L", ["0.1", "0.15", "0.25", "0.3"])
def test_prob_cancellation_fails(capsys, L):
    # cond * 2^-53 is 1e-2 at L = 0.3 and about 1-5 below 0.25: the float
    # numerators cannot hold the (1-q)^4 entry to 1e-10
    for extra in ((), ("--json",)):
        code, out, err = run_cli(capsys, "prob", "--rectangle", L, *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("L", ["0.6", "1", "2", "6", "10", "12", "15", "20", "25"])
def test_prob_well_conditioned_rectangles_print(capsys, L):
    code, out, _ = run_cli(capsys, "prob", "--rectangle", L)
    assert code == 0
    assert out.strip().endswith("sum 1.000000000")
    code, out, _ = run_cli(capsys, "prob", "--rectangle", L, "--json")
    assert code == 0
    with mpmath.workdps(60):
        nome = mpmath.exp(-mpmath.pi * mpmath.mpf(L))
        q4 = float((mpmath.jtheta(2, 0, nome) / mpmath.jtheta(3, 0, nome)) ** 16)
    assert json.loads(out)["outcomes"][2]["prob"] == pytest.approx(q4, rel=1e-10, abs=0.0)


def test_prob_collapsed_rectangle_images_fail(capsys):
    # the corner frame (0, eps, 1, 2) collapses where eps rounds onto 1
    # (L = 0.04), and q^4 is subnormal at L = 60
    for L in ("0.04", "60"):
        code, out, err = run_cli(capsys, "prob", "--rectangle", L)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("spacing", ["1e200", "1e-200"])
def test_prob_scales_overflowing_points(capsys, spacing):
    # the raw difference powers overflow; a power of two brings them back
    pts = [str(k * float(spacing)) for k in range(4)]
    code, out, err = run_cli(capsys, "prob", "--points", *pts, "--json")
    assert code == 0 and err == ""
    code, ref, _ = run_cli(capsys, "prob", "--points", "0", "1", "2", "3", "--json")
    got, want = json.loads(out), json.loads(ref)
    assert got["q"] == pytest.approx(want["q"], rel=1e-15)
    assert [o["prob"] for o in got["outcomes"]] == pytest.approx(
        [o["prob"] for o in want["outcomes"]], rel=1e-15
    )


def test_prob_overflowing_points_fail(capsys):
    # gaps of 1e-200 and 1e200: no one scale brings every power into range
    code, out, err = run_cli(capsys, "prob", "--points", "0", "1e-200", "1e200", "2e200")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_prob_ten_points_is_over_capacity(capsys):
    # ten points lift to a pairing of 20 slots: Catalan(10) rows exceed the cap
    pts = [str(k) for k in range(10)]
    code, out, err = run_cli(capsys, "prob", "--points", *pts)
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:")


# ---------------------------------------------------------------------------
# simulate

SIM_ARGS = (
    "simulate",
    "--trials", "150",
    "--mesh", "4",
    "--seed", "3",
    "--threads", "1",
    "--chunk", "64",
)


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, *SIM_ARGS, "--out", str(out))
    assert code == 0
    assert "wrote" in stdout and "anomalies" in stdout
    csv = (tmp_path / "run.csv").read_text().splitlines()
    assert csv[0] == "# manifest: run.manifest.json"
    assert csv[1] == "mesh,pattern_id,count,freq,ci_low,ci_high,theory,gap"
    assert sum(1 for l in csv if l.startswith("# mu=")) == 1
    data_rows = [l for l in csv if not l.startswith("#") and l != csv[1]]
    assert len(data_rows) == 3  # one mesh x three patterns
    counts = [int(r.split(",")[2]) for r in data_rows]
    assert sum(counts) <= 150
    obj = json.loads((tmp_path / "run.json").read_text())
    assert obj["manifest"] == "run.manifest.json"
    assert len(obj["reports"]) == 1
    man = json.loads((tmp_path / "run.manifest.json").read_text())
    assert man["command"] == "simulate"
    assert man["config"]["trials"] == 150
    assert "timestamp" in man and man["version"]


def test_simulate_manifest_records_runtime(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, *SIM_ARGS, "--mesh", "6", "--mu", "1.0", "--mu", "1.5",
        "--threads", "0", "--out", str(out),
    )
    assert code == 0
    man = json.loads((tmp_path / "run.manifest.json").read_text())
    assert man["config"]["kernel"] == "auto" and man["config"]["threads"] == 0
    rt = man["runtime"]
    assert rt["kernel"] == "numpy"
    assert rt["cpu_count"] == os.cpu_count()
    # the theory column's condition number, at the rectangle's images
    R = probability.RectanglePolygon.corners(man["config"]["L"])
    ys = probability.rect_boundary_to_halfplane(R)
    assert rt["theory_cond"] == probability.conditioned_distribution(4, ys)[1]
    assert rt["theory_cond"] >= 1
    # 150 trials in chunks of 64 make three chunks: never more workers
    assert rt["threads"] == min(os.cpu_count(), 3)
    assert rt["versions"] == {
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
    }
    assert [(m["mu"], m["ny"]) for m in rt["meshes"]] == [(1.0, 4), (1.0, 6), (1.5, 4), (1.5, 6)]
    for m in rt["meshes"]:
        assert m["wall_s"] > 0
        assert m["trials_per_s"] == pytest.approx(150 / m["wall_s"])
        assert 1 <= m["chunk"] <= 64
        assert m["threads"] == min(os.cpu_count(), -(-150 // m["chunk"]))
        assert set(m["stages_s"]) == {"rng", "rng_wait", "dst", "percolate", "tally"}
        assert all(s >= 0 for s in m["stages_s"].values())
    # timings, chunking and the condition number stay out of the primary outputs
    for name in ("run.json", "run.csv"):
        text = (tmp_path / name).read_text()
        assert all(w not in text for w in ("wall", "stages", "chunk", "theory_cond"))


def test_simulate_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_cli(capsys, *SIM_ARGS, "--out", str(a / "run"))
    run_cli(capsys, *SIM_ARGS, "--out", str(b / "run"))
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()
    assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()


def test_simulate_mu_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, _ = run_cli(capsys, *SIM_ARGS, "--mu", "1.0", "--mu", "1.25", "--out", str(out))
    assert code == 0
    csv = (tmp_path / "sweep.csv").read_text()
    assert "# mu=1.0" in csv and "# mu=1.25" in csv
    obj = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["mu"] for r in obj["reports"]] == [1.0, 1.25]


def test_simulate_forms_the_table_terms_once_per_mu(tmp_path, monkeypatch, capsys):
    # each mu's theory column and the manifest's theory_cond share its pass
    calls = _count_table_passes(monkeypatch)
    out = tmp_path / "sweep"
    code, _, _ = run_cli(capsys, *SIM_ARGS, "--mu", "1.0", "--mu", "1.5", "--out", str(out))
    assert code == 0 and len(calls) == 2


def test_simulate_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(
        "# sample settings\n"
        "trials = 120\n"
        "mesh = 1/4\n"
        "seed = 9\n"
        "L = 1.0\n"
        "threads = 1\n"
    )
    out = tmp_path / "cfg"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--trials", "80", "--out", str(out)
    )
    assert code == 0
    obj = json.loads((tmp_path / "cfg.json").read_text())
    rep = obj["reports"][0]
    assert rep["trials"] == 80  # flag beats config file
    assert rep["seed"] == 9
    assert rep["meshes"][0]["ny"] == 4


@pytest.mark.parametrize(
    "argv, line",
    [
        (("simulate", "--mesh", "4", "--threads", "1"), "trails = 5"),
        (("verify", "--suite", "bounds", "1"), "sead = 3"),
    ],
)
def test_config_file_refuses_a_key_no_setting_reads(tmp_path, monkeypatch, capsys, argv, line):
    # a misspelt key would otherwise run with the default: refused before
    # any trial runs, any check prints or any file is written
    monkeypatch.chdir(tmp_path)  # where simulate's default outputs would go
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"seed = 4\n{line}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    key = line.split()[0]
    assert code == 2 and "usage" in err and key in err and "seed" not in err
    assert out == "" and list(tmp_path.iterdir()) == [cfg]


def test_simulate_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--mesh", "2/3")
    assert code == 2
    code, _, _ = run_cli(capsys, "simulate", "--mesh", "1")
    assert code == 2
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "missing.cfg")
    )
    assert code == 2 and "usage" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("trials", "0"), ("trials", "-5"), ("chunk", "0"), ("chunk", "-3"), ("threads", "-1"),
        ("mu", "nan"), ("mu", "inf"),
    ],
)
def test_simulate_rejects_bad_run_sizes(tmp_path, capsys, key, value):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"trials = 100\n{key} = {value}\n")
    out = str(tmp_path / "x")
    for source in (("--trials", "100", f"--{key}", value), ("--config", str(cfg))):
        code, _, err = run_cli(capsys, "simulate", "--mesh", "8", *source, "--out", out)
        assert code == 2 and "usage" in err
        assert not (tmp_path / "x.csv").exists()


def test_simulate_rejects_numba_kernel(tmp_path, capsys):
    code, _, _ = run_cli(capsys, *SIM_ARGS, "--kernel", "numba", "--out", str(tmp_path / "x"))
    assert code == 2
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("kernel = numba\n")
    code, _, err = run_cli(capsys, *SIM_ARGS, "--config", str(cfg), "--out", str(tmp_path / "y"))
    assert code == 2 and "unknown kernel" in err


def test_simulate_thin_rectangle_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, *SIM_ARGS, "--L", "0.01", "--out", str(tmp_path / "x")
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_bounds_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bounds", "1", "--configs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("bounds: ")
    total = int(lines[-1].split("/")[1].split()[0])
    assert lines[-1] == f"bounds: {total}/{total} checks passed"
    for line in lines[:-1]:
        rec = json.loads(line)
        assert set(rec) == {"check", "residual", "tol", "pass"}
        assert rec["pass"] is True


def test_verify_quiet(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "asy", "2", "--quiet"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_verify_perturbed_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "pde", "2", "--configs", "1", "--perturb", "0.05", "--quiet",
    )
    assert code == 1
    passed, total = out.strip().split()[-3].split("/")
    assert int(passed) < int(total)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--suite", "asy", "0"), "at least 2 points"),
        (("--suite", "bounds", "0"), "at least 2 points"),
        (("--suite", "pde", "0"), "at least 2 points"),
        (("--suite", "cov", "0"), "at least 2 points"),
        (("--suite", "pde", "2", "--configs", "0"), "at least 1 configuration"),
        (("--suite", "bounds", "1", "--configs", "0"), "at least 1 configuration"),
    ],
)
def test_verify_refuses_to_check_nothing(capsys, argv, reason):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert reason in err
    assert "checks passed" not in out


def test_verify_requires_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--suite", "spectral", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# top level


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("mgffcross ")


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "transmogrify")
    assert code == 2


def test_no_arguments(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_simulate_imports_no_sparse_graph_code():
    # scipy.sparse adds about 80 ms to a fresh import of the simulate path
    src = os.path.dirname(os.path.dirname(mgffcross.__file__))
    code = (
        "import sys, mgffcross.cli, mgffcross.mgff_sim; "
        "print('scipy.sparse' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_prob_imports_no_scipy():
    # scipy.special alone cost 0.3 s of a 0.49-s `import mgffcross`; a
    # corner rectangle's frame needs float theta constants alone, so
    # mpmath stays out too
    src = os.path.dirname(os.path.dirname(mgffcross.__file__))
    code = (
        "import sys, mgffcross; from mgffcross import cli; "
        "code = cli.main(['prob', '--rectangle', '2']); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip().splitlines()[-1] == "0 []"
