"""Config parsing, seeded trials, sweeps, and CSV persistence."""

import dataclasses
import math

import numpy as np
import pytest

import hypersbm as hs
from hypersbm.harness import CSV_COLUMNS, grid_points

BASE_CONFIG = """
# two-block graph model
n = 60
k = 2
alpha = 0.5,0.5
mode = agnostic
trials = 3
seed = 7

layer order=2 within=12 cross=2
"""

SWEEP_CONFIG = """
n = 60
k = 2
mode = agnostic
trials = 2
seed = 5
layer order=2 within=9 cross=2
sweep order=2 field=within values=4,9
"""


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_parse_config_fields():
    cfg = hs.parse_config(BASE_CONFIG)
    assert cfg.n_values == (60,)
    assert cfg.k == 2 and cfg.alpha == (0.5, 0.5)
    assert cfg.mode == "agnostic" and cfg.trials == 3 and cfg.seed == 7
    assert len(cfg.layers) == 1
    assert cfg.layers[0].order == 2
    assert cfg.layers[0].within == 12 and cfg.layers[0].cross == 2


def test_parse_config_defaults_and_lists():
    cfg = hs.parse_config("n = 30,60\nk = 3\nlayer order=2 within=5 cross=1\n")
    assert cfg.n_values == (30, 60)
    assert np.allclose(cfg.alpha, [1 / 3] * 3)
    assert cfg.trials == 1 and cfg.mode == "agnostic"


def test_parse_config_explicit_values():
    cfg = hs.parse_config("n=40\nk=2\nlayer order=3 values=20,4,4,4\n")
    point = grid_points(cfg)[0]
    assert np.allclose(point.coefficients[3], [20, 4, 4, 4])


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError):
        hs.parse_config("n = 50\nk = 2\nlayer order=2 within=3\n")  # cross missing
    with pytest.raises(ValueError):
        hs.parse_config("nonsense line\n")
    with pytest.raises(ValueError):
        hs.parse_config("n=50\nk=2\nmode=wat\nlayer order=2 within=3 cross=1\n")
    with pytest.raises(ValueError):
        hs.parse_config("n=50\nk=2\nlayer order=2 values=1,2\n")  # wrong length
    with pytest.raises(ValueError, match="need k >= 1"):
        hs.parse_config("n=50\nk=0\nlayer order=2 within=3 cross=1\n")  # default alpha is 1/k


def test_parse_config_names_missing_keys():
    with pytest.raises(ValueError, match="required key n"):
        hs.parse_config("k = 2\nlayer order=2 within=3 cross=1\n")
    with pytest.raises(ValueError, match="'within=3 cross=1' lacks order"):
        hs.parse_config("n = 50\nlayer within=3 cross=1\n")
    with pytest.raises(ValueError, match="lacks field, values"):
        hs.parse_config("n = 50\nlayer order=2 within=3 cross=1\nsweep order=2\n")


def test_grid_points_cross_n_and_sweep():
    cfg = hs.parse_config(SWEEP_CONFIG.replace("n = 60", "n = 30,60"))
    points = grid_points(cfg)
    assert [(p.n, p.sweep_value) for p in points] == [
        (30, 4.0), (30, 9.0), (60, 4.0), (60, 9.0)]
    assert [p.point_id for p in points] == [0, 1, 2, 3]
    # swept field lands in the coefficients
    assert points[0].coefficients[2][0] == 4.0
    assert points[1].coefficients[2][0] == 9.0


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def strip_wall(record):
    return dataclasses.replace(record, wall_ms=None)


def test_run_trial_deterministic():
    cfg = hs.parse_config(BASE_CONFIG)
    point = grid_points(cfg)[0]
    a = hs.run_trial(cfg, point, seed=7)
    b = hs.run_trial(cfg, point, seed=7)
    assert strip_wall(a) == strip_wall(b)
    assert a.error is None
    assert a.verdict == "achievable"


def test_run_trial_captures_degenerate_model():
    cfg = hs.parse_config("n=40\nk=2\nlayer order=2 within=0 cross=0\n")
    point = grid_points(cfg)[0]
    rec = hs.run_trial(cfg, point, seed=0)
    assert rec.error is not None
    assert rec.eta_final is None and rec.eta_stage1 is None
    assert rec.d_gch == 0.0 and rec.verdict == "impossible"


def test_run_trial_on_near_clique_pair():
    n = 20
    within = (n - 1) / math.log(n) * 0.999  # probability just under one
    cfg = hs.parse_config(f"n={n}\nk=2\nlayer order=2 within={within} cross=0\n")
    rec = hs.run_trial(cfg, grid_points(cfg)[0], seed=1)
    assert rec.error is None
    assert rec.eta_final == 0.0


def test_run_trial_prior_mode():
    cfg = hs.parse_config(
        "n=200\nk=2\nmode=prior\nseed=4\nlayer order=2 within=16 cross=2\n")
    point = grid_points(cfg)[0]
    rec = hs.run_trial(cfg, point, seed=4)
    assert rec.error is None
    assert rec.eta_final is not None
    assert rec.iters == 0  # the MAP route does not iterate


def test_phase_sweep_single_point():
    cfg = hs.parse_config("n=40\nk=2\ntrials=1\nseed=3\nlayer order=2 within=10 cross=2\n")
    records, summaries = hs.phase_sweep(cfg)
    assert len(records) == 1 and len(summaries) == 1
    assert records[0].seed == 3


def test_phase_sweep_seed_derivation_and_aggregate():
    cfg = hs.parse_config(BASE_CONFIG)
    records, summaries = hs.phase_sweep(cfg)
    assert [r.seed for r in records] == [7, 8, 9]
    wins = sum(1 for r in records if r.eta_final == 0.0)
    assert summaries[0].exact_recoveries == wins
    assert summaries[0].success_rate == wins / 3
    assert 0.0 <= summaries[0].success_rate <= 1.0


def test_phase_sweep_reproducible(tmp_path):
    cfg = hs.parse_config(SWEEP_CONFIG)
    rec1, _ = hs.phase_sweep(cfg)
    rec2, _ = hs.phase_sweep(cfg)
    assert [strip_wall(r) for r in rec1] == [strip_wall(r) for r in rec2]


def test_phase_sweep_parallel_matches_sequential():
    cfg = hs.parse_config(SWEEP_CONFIG)
    seq, _ = hs.phase_sweep(cfg, workers=1)
    par, _ = hs.phase_sweep(cfg, workers=2)
    assert [strip_wall(r) for r in seq] == [strip_wall(r) for r in par]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    hs.emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_roundtrip(tmp_path):
    cfg = hs.parse_config(BASE_CONFIG)
    records, _ = hs.phase_sweep(cfg)
    path = tmp_path / "out.csv"
    hs.emit_csv(records, path)
    back = hs.parse_csv(path)
    assert back == records


def test_csv_float_format(tmp_path):
    rec = hs.TrialRecord(point_id=0, n=10, seed=1, d_gch=1.23456789123456,
                         verdict="achievable", eta_stage1=None, eta_final=0.5,
                         iters=2, wall_ms=1.5)
    path = tmp_path / "one.csv"
    hs.emit_csv([rec], path)
    line = path.read_text().splitlines()[1]
    assert line == "0,10,1,1.23456789,achievable,,0.5,2,1.5"


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        hs.parse_csv(path)
