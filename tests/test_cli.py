"""Subcommand smoke tests through the argparse entry point."""

import pytest

import hypersbm as hs
from hypersbm.cli import main

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
                 "--out", out_path, "--csv"]) == 0
    printed = capsys.readouterr().out
    assert "mismatch ratio" in printed
    zhat = hs.read_membership(out_path)
    assert zhat.shape == (60,)

    assert main(["estimate-k", "--input", h_path]) == 0
    printed = capsys.readouterr().out
    assert "estimated communities: 2" in printed


def test_recover_prior_needs_config(config_path, tmp_path, capsys):
    h_path = str(tmp_path / "h.txt")
    main(["sample", "--config", config_path, "--out", h_path])
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", "2"]) == 2
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", "2", "--config", config_path]) == 0
    assert main(["recover", "--mode", "prior", "--input", h_path,
                 "--k", "2", "--config", config_path, "--no-split-adjust"]) == 0


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


def test_phase_exits_one_when_trials_fail(tmp_path, capsys):
    # rates this low leave a mean degree below 1, so every trial fails
    path = tmp_path / "flat.cfg"
    path.write_text(CONFIG.replace("trials = 2", "trials = 3")
                    .replace("within=12 cross=2", "within=0.1 cross=0.1"))
    out = str(tmp_path / "sweep.csv")
    assert main(["phase", "--config", str(path), "--out", out]) == 1
    assert "3 trials recorded errors" in capsys.readouterr().out
    assert len(hs.parse_csv(out)) == 3


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
