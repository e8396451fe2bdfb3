"""Subcommand smoke tests through the argparse entry point."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hypersbm as hs
from hypersbm import cli, pipeline, spectral
from hypersbm.cli import main
from hypersbm.errors import ConvergenceError

ROOT = Path(__file__).resolve().parent.parent

CONFIG = """
n = 60
k = 2
alpha = 0.5,0.5
mode = agnostic
trials = 2
seed = 11
layer order=2 within=12 cross=2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_threshold_prints_pairs_and_verdict(config_path, capsys):
    assert main(["threshold", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "achievable" in out
    assert "j,k,t_star,d_gch" in out
    assert "1,2," in out


def test_sample_then_recover_and_estimate(config_path, tmp_path, capsys):
    h_path = str(tmp_path / "h.txt")
    z_path = str(tmp_path / "z.txt")
    assert main(["sample", "--config", config_path, "--out", h_path,
                 "--truth-out", z_path]) == 0
    h = hs.read_hypergraph(h_path)
    assert h.n == 60

    out_path = str(tmp_path / "zhat.txt")
    assert main(["recover", "--mode", "agnostic", "--input", h_path,
                 "--truth", z_path, "--k", "2", "--seed", "3",
                 "--out", out_path]) == 0
    printed = capsys.readouterr().out
    assert "mismatch ratio" in printed
    assert "refinement rounds:   1 (converged)\n" in printed
    zhat = hs.read_membership(out_path)
    assert zhat.shape == (60,)

    assert main(["estimate-k", "--input", h_path]) == 0
    printed = capsys.readouterr().out
    assert "estimated communities: 2" in printed
    assert main(["estimate-k", "--input", h_path, "--num-eigenvalues", "60"]) == 0
    printed = capsys.readouterr().out
    assert "estimated communities: 2" in printed


def test_recover_prior_needs_config(config_path, tmp_path, capsys):
    h_path = str(tmp_path / "h.txt")
    main(["sample", "--config", config_path, "--out", h_path])
    capsys.readouterr()
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", "2"]) == 2
    assert capsys.readouterr().err == ("hypersbm: error: --mode prior needs --config "
                                       "for the probabilities and prior\n")
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", "2", "--config", config_path]) == 0


@pytest.mark.parametrize("k", ["1", "3"])
def test_recover_prior_k_must_match_config(config_path, tmp_path, capsys, k):
    h_path = str(tmp_path / "h.txt")
    main(["sample", "--config", config_path, "--out", h_path])
    capsys.readouterr()
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", k, "--config", config_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hypersbm: error: k={k} does not match the model's k=2\n"


def test_phase_writes_csv(config_path, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    assert main(["phase", "--config", config_path, "--out", out]) == 0
    records = hs.parse_csv(out)
    assert len(records) == 2
    assert all(r.n == 60 for r in records)
    printed = capsys.readouterr().out
    assert "success_rate" in printed


def test_phase_without_output_path_fails(config_path, capsys):
    assert main(["phase", "--config", config_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hypersbm: error: no output path: pass --out "
                            "or set out= in the config\n")


def test_usage_errors_are_one_line_and_exit_two(config_path, tmp_path, capsys):
    h_path, z_path = str(tmp_path / "h.txt"), str(tmp_path / "z.txt")
    assert main(["sample", "--config", config_path, "--out", h_path, "--point", "1"]) == 2
    assert capsys.readouterr().err == ("hypersbm: error: point index 1 out of range "
                                       "(grid has 1)\n")
    main(["sample", "--config", config_path, "--out", h_path])
    (tmp_path / "z.txt").write_text("1\n2\n")
    capsys.readouterr()
    assert main(["recover", "--mode", "agnostic", "--input", h_path, "--truth", z_path,
                 "--k", "2"]) == 2
    assert capsys.readouterr().err == ("hypersbm: error: truth length does not "
                                       "match hypergraph\n")
    assert main(["estimate-k", "--input", h_path, "--num-eigenvalues", "0"]) == 2
    assert capsys.readouterr().err == "hypersbm: error: need at least one eigenvalue, got 0\n"
    one = tmp_path / "one.cfg"
    one.write_text(CONFIG.replace("k = 2", "k = 1").replace("alpha = 0.5,0.5", "alpha = 1"))
    assert main(["threshold", "--config", str(one)]) == 2
    assert capsys.readouterr().err == "hypersbm: error: threshold needs k >= 2\n"
    # with no alpha line the default prior would divide by k
    zero = tmp_path / "zero.cfg"
    zero.write_text(CONFIG.replace("k = 2", "k = 0").replace("alpha = 0.5,0.5\n", ""))
    for argv in (["threshold"], ["sample", "--out", h_path], ["phase", "--out", z_path]):
        assert main(argv + ["--config", str(zero)]) == 2
        assert capsys.readouterr().err == "hypersbm: error: need k >= 1 communities, got k=0\n"
    for workers in ("0", "-3"):
        assert main(["phase", "--config", config_path, "--out", z_path,
                     "--workers", workers]) == 2
        assert capsys.readouterr().err == f"hypersbm: error: need workers >= 1, got {workers}\n"


@pytest.mark.parametrize("extra, message", [
    ("layer order=2 within=9 cross=1\n", "layer order=2 is declared twice"),
    ("sweep order=3 field=within values=1,2,3\n", "sweep order=3 names no declared layer"),
    ("layer order=3 within=nan cross=1\n", "order 3: coefficients must be finite and nonnegative"),
    ("layer order=3 within=inf cross=1\n", "order 3: coefficients must be finite and nonnegative"),
    ("layer order=3 within=-3 cross=1\n", "order 3: coefficients must be finite and nonnegative"),
    ("sweep order=2 field=cross values=1,nan\n",
     "order 2: coefficients must be finite and nonnegative"),
    ("layer order=1 within=12 cross=2\n", "layer order=1: edge order must be >= 2"),
    ("trails = 20\n", "unknown config key 'trails'"),
    ("alpha = 0.5\n", "prior must sum to 1, got 0.5"),
    ("alpha = nan,0.5\n", "prior entries must be finite, got [nan, 0.5]"),
    ("n = 300\n", "repeated config key 'n'"),
    ("layer order=3 within=9 cross=1 cross=2\n", "repeated config key 'cross'"),
    ("sweep order=2 field=within values=4\nsweep order=2 field=cross values=1\n",
     "sweep is declared twice"),
    ("layers = 3\n", "unknown config key 'layers'"),
])
def test_layer_config_errors_are_one_line_and_exit_two(tmp_path, capsys, extra, message):
    path = tmp_path / "bad.cfg"
    # without its alpha line CONFIG keeps the same prior, its default 0.5,0.5,
    # and a case may give the one alpha line
    path.write_text(CONFIG.replace("alpha = 0.5,0.5\n", "") + extra)
    out = str(tmp_path / "out")
    for argv in (["threshold"], ["sample", "--out", out], ["phase", "--out", out]):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"hypersbm: error: {message}\n"


def test_config_names_a_byte_that_is_not_utf8_and_its_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(CONFIG.replace("k = 2\n", "k = 2  # ?\n").encode().replace(b"?", b"\xff"))
    assert path.read_bytes().splitlines()[2] == b"k = 2  # \xff"
    out = str(tmp_path / "out")
    for argv in (["threshold"], ["sample", "--out", out], ["phase", "--out", out]):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == f"hypersbm: error: {path}: line 3: not valid UTF-8\n"


def test_phase_exits_one_when_trials_fail(tmp_path, capsys):
    # rates this low leave a mean degree below 1, so every trial fails
    path = tmp_path / "flat.cfg"
    path.write_text(CONFIG.replace("trials = 2", "trials = 3")
                    .replace("within=12 cross=2", "within=0.1 cross=0.1"))
    out = str(tmp_path / "sweep.csv")
    assert main(["phase", "--config", str(path), "--out", out]) == 1
    captured = capsys.readouterr()
    assert "3 trials recorded errors" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for seed, line in zip((11, 12, 13), lines):
        assert line.startswith(f"hypersbm: trial point=0 seed={seed}: "
                               "DegenerateDegreeError: mean degree ")
    assert len(hs.parse_csv(out)) == 3


def test_readme_config_block_parses_and_runs_threshold(tmp_path, capsys):
    # the documented format and the parser must not drift apart
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```\n", 2)[1]
    cfg = hs.parse_config(block)
    assert cfg.n_values == (500,) and cfg.trials == 20 and cfg.out == "trials.csv"
    assert [layer.order for layer in cfg.layers] == [2, 3] and cfg.sweep.order == 2
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert main(["threshold", "--config", str(path)]) == 0
    assert capsys.readouterr().out.count("  global: ") == len(cfg.sweep.values)


@pytest.mark.parametrize("edits, message", [
    ((("seed = 11", "seed = -2"),), "need seed >= 0, got seed=-2"),
    ((("n = 60", "n = 2"), ("layer order=2", "layer order=3")),
     "need n >= 3 for order 3, got n=2"),
], ids=["seed", "n"])
def test_negative_seed_and_n_below_an_order_are_one_line_and_exit_two(tmp_path, capsys,
                                                                      edits, message):
    # phase used to exit 1 and write a failed row per trial, and threshold
    # to ask for n >= 4 at order 3
    text = CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = str(tmp_path / "out")
    for argv in (["threshold"], ["sample", "--out", out], ["phase", "--out", out]):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"hypersbm: error: {message}\n")
    assert not os.path.exists(out)


def test_negative_seed_option_is_one_line_and_exit_two(config_path, tmp_path, capsys):
    h_path = str(tmp_path / "h.txt")
    assert main(["sample", "--config", config_path, "--out", h_path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "hypersbm: error: need seed >= 0, got seed=-1\n"
    assert main(["sample", "--config", config_path, "--out", h_path]) == 0
    capsys.readouterr()
    assert main(["recover", "--mode", "agnostic", "--input", h_path, "--k", "2",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "hypersbm: error: need seed >= 0, got seed=-1\n")


def test_bad_input_is_one_line_and_exit_two(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("2 1 2\n2 2 3\n")
    assert main(["recover", "--mode", "agnostic", "--input", str(path),
                 "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypersbm: error: ") and "header" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert main(["recover", "--mode", "agnostic", "--input",
                 str(tmp_path / "missing.txt"), "--k", "2"]) == 2
    # headers out of range and bodies that fail validation name the file
    for text in ["n=-5 orders=2\n", "n=3 orders=-2\n", "n=0 orders=2\n", "n=3 orders=1\n",
                 "n=3 orders=2\n2 1 5\n", "n=3 orders=2\n2 2 2\n"]:
        path.write_text(text)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["recover", "--mode", "agnostic", "--input", str(path),
                         "--k", "2"]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"hypersbm: error: {path}: ") and err.count("\n") == 1, text
        assert not caught, (text, [str(w.message) for w in caught])


def test_bad_vertex_id_is_one_line_and_exit_two(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("n=3 orders=2\n2 1 x\n")
    assert main(["recover", "--mode", "agnostic", "--input", str(path),
                 "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err == (f"hypersbm: error: {path}: line 2: "
                   "order and vertex ids must be integers, got '2 1 x'\n")


def test_repeated_vertex_names_the_line(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("n=3 orders=3\n3 1 2 3\n3 2 2 2\n")
    assert main(["recover", "--mode", "agnostic", "--input", str(path), "--k", "2"]) == 2
    assert capsys.readouterr().err == (f"hypersbm: error: {path}: line 3: "
                                       "vertex id 2 repeated, got '3 2 2 2'\n")


def test_vertex_id_zero_is_out_of_range(tmp_path, capsys):
    # ids are 1-based in files, so 0 is stored as -1 and fails validation,
    # whether or not the rows need sorting first
    path = tmp_path / "h.txt"
    for body in ["2 0 1\n", "2 2 3\n2 0 1\n", "2 2 3\n2 1 3\n2 0 1\n"]:
        path.write_text("n=3 orders=2\n" + body)
        assert main(["recover", "--mode", "agnostic", "--input", str(path), "--k", "2"]) == 2
        assert capsys.readouterr().err == (f"hypersbm: error: {path}: order 2: "
                                           "vertex id out of range\n"), body


def test_negative_ids_and_labels_are_one_line_and_exit_two(config_path, tmp_path, capsys,
                                                          monkeypatch):
    # the writers reject what the readers would reject, before the file opens
    h_path, z_path = tmp_path / "h.txt", tmp_path / "z.txt"
    graph = hs.Hypergraph(60, {2: np.array([[0, 3]])})
    for h, truth, message in [
            (hs.Hypergraph(60, {2: np.array([[-1, 3]])}), np.zeros(60),
             "order 2: vertex ids must lie in 0..59, got -1"),
            (graph, np.full(60, -1), "labels must lie in 0..2**63-2, got -1")]:
        monkeypatch.setattr(cli, "sample_instance", lambda *args: (None, truth, h))
        assert main(["sample", "--config", config_path, "--out", str(h_path),
                     "--truth-out", str(z_path)]) == 2
        assert capsys.readouterr().err == f"hypersbm: error: {message}\n"
        assert not z_path.exists()
    monkeypatch.undo()

    assert main(["sample", "--config", config_path, "--out", str(h_path)]) == 0
    report = pipeline.agnostic_partition(hs.read_hypergraph(h_path), 2, seed=0)
    monkeypatch.setattr(cli, "agnostic_partition", lambda *args, **kwargs: dataclasses.replace(
        report, labels=report.labels - 1))
    capsys.readouterr()
    assert main(["recover", "--mode", "agnostic", "--input", str(h_path), "--k", "2",
                 "--out", str(z_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypersbm: error: ") and err.count("\n") == 1, err
    assert not z_path.exists()


def test_overlong_number_is_one_line_and_exit_two(config_path, tmp_path, capsys):
    # 20 digits do not fit in int64; the readers name the line instead
    path = tmp_path / "h.txt"
    path.write_text("n=3 orders=2\n2 1 99999999999999999999\n")
    assert main(["recover", "--mode", "agnostic", "--input", str(path), "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        f"hypersbm: error: {path}: line 2: order and vertex ids must be integers, "
        "got '2 1 99999999999999999999'\n")
    h_path, z_path = str(tmp_path / "g.txt"), tmp_path / "z.txt"
    main(["sample", "--config", config_path, "--out", h_path])
    z_path.write_text("1\n99999999999999999999\n")
    capsys.readouterr()
    assert main(["recover", "--mode", "agnostic", "--input", h_path, "--truth", str(z_path),
                 "--k", "2"]) == 2
    assert capsys.readouterr().err == (
        f"hypersbm: error: {z_path}: line 2: label must be an integer, "
        "got '99999999999999999999'\n")


def test_eigensolver_failure_is_one_line_and_exit_one(config_path, tmp_path, capsys,
                                                      monkeypatch):
    h_path = str(tmp_path / "h.txt")
    main(["sample", "--config", config_path, "--out", h_path])
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise ConvergenceError("eigensolver did not converge within 5000 iterations "
                               "(0/2 eigenpairs found)")

    monkeypatch.setattr(pipeline, "rank_k_approx", fail)
    monkeypatch.setattr(spectral, "rank_k_approx", fail)
    for argv in (["estimate-k", "--input", h_path],
                 ["recover", "--mode", "agnostic", "--input", h_path, "--k", "2"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == ("hypersbm: error: eigensolver did not converge "
                                           "within 5000 iterations (0/2 eigenpairs found)\n")


def test_recover_on_a_star_is_one_line_and_exit_one(tmp_path, capsys):
    # trimming drops the centre and the leaves share no edge, so the
    # eigensolve meets a zero matrix
    path = tmp_path / "star.txt"
    path.write_text("n=300 orders=2\n" + "".join(f"2 1 {v}\n" for v in range(2, 301)))
    assert main(["recover", "--mode", "agnostic", "--input", str(path), "--k", "2"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("hypersbm: error: eigensolver failed: ")
    assert err.count("\n") == 1 and out == ""


def test_import_threshold_and_sample_load_no_scipy(config_path, tmp_path):
    h_path = str(tmp_path / "h.txt")
    script = (
        "import sys, hypersbm, hypersbm.cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "loaded = [scipy_modules()]\n"
        f"codes = [hypersbm.cli.main(['threshold', '--config', {config_path!r}])]\n"
        "loaded.append(scipy_modules())\n"
        f"codes.append(hypersbm.cli.main(['sample', '--config', {config_path!r},"
        f" '--out', {h_path!r}]))\n"
        "loaded.append(scipy_modules())\n"
        "print(codes, loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "achievable" in done.stdout
    assert done.stdout.splitlines()[-1] == "[0, 0] [[], [], []]"
    assert hs.read_hypergraph(h_path).n == 60


def test_recover_never_imports_scipy_optimize(config_path, tmp_path):
    h_path, z_path = str(tmp_path / "h.txt"), str(tmp_path / "z.txt")
    main(["sample", "--config", config_path, "--out", h_path, "--truth-out", z_path])
    script = (
        "import sys, hypersbm, hypersbm.cli\n"
        "loaded = 'scipy.optimize' in sys.modules\n"
        f"code = hypersbm.cli.main(['recover', '--mode', 'agnostic', '--input', {h_path!r},"
        f" '--truth', {z_path!r}, '--k', '2'])\n"
        "print(loaded, code, 'scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "mismatch ratio:" in done.stdout
    assert done.stdout.splitlines()[-1] == "False 0 False"
