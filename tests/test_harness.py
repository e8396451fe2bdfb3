"""Config parsing, seeded trials, sweeps, and CSV persistence."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypersbm as hs
from blas_probe import blas_thread_counts, blas_threads_job, os_threads_job
from hypersbm import harness
from hypersbm.harness import CSV_COLUMNS, grid_points

ROOT = Path(__file__).resolve().parent.parent

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
    with pytest.raises(ValueError, match=r"^expected key=value, got '='$"):
        hs.parse_config("n = 50\nlayer = 3\n")  # a layer line, not a plain key
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


@pytest.mark.parametrize("order", [1, 0])
def test_parse_config_rejects_an_order_below_two(order):
    with pytest.raises(ValueError, match=rf"^layer order={order}: edge order must be >= 2$"):
        hs.parse_config(f"n = 50\nlayer order={order} within=12 cross=2\n")


@pytest.mark.parametrize("line, key", [
    ("trails = 20", "trails"),
    ("layer order=3 within=9 cross=1 crosss=2", "crosss"),
    ("sweep order=2 field=within values=2,4 step=1", "step"),
    ("layers = 3", "layers"),
])
def test_parse_config_rejects_unknown_keys(line, key):
    # a misspelt key that was ignored would leave its default in force
    with pytest.raises(ValueError, match=rf"^unknown config key '{key}'$"):
        hs.parse_config(f"n = 50\nlayer order=2 within=4 cross=1\n{line}\n")


def test_parse_config_rejects_a_repeated_layer():
    # the second line used to replace the first without a word
    with pytest.raises(ValueError, match=r"^layer order=2 is declared twice$"):
        hs.parse_config("n = 50\nlayer order=2 within=4 cross=1\n"
                        "layer order=2 within=9 cross=1\n")
    with pytest.raises(ValueError, match=r"^layer order=3 is declared twice$"):
        hs.parse_config("n = 50\nlayer order=3 values=20,4,4,4\nlayer order=2 within=4 cross=1\n"
                        "layer order=3 within=9 cross=1\n")


def test_parse_config_rejects_a_sweep_of_an_undeclared_order():
    # the grid's points would all share one model while the CSV named the values
    with pytest.raises(ValueError, match=r"^sweep order=3 names no declared layer$"):
        hs.parse_config("n = 50\nlayer order=2 within=4 cross=1\n"
                        "sweep order=3 field=within values=1,2,3\n")


@pytest.mark.parametrize("extra, message", [
    ("n = 300\n", "repeated config key 'n'"),
    ("layer order=3 within=9 cross=1 within=4\n", "repeated config key 'within'"),
    ("sweep order=2 field=within values=4\nsweep order=2 field=cross values=1\n",
     "sweep is declared twice"),
])
def test_parse_config_rejects_a_repeated_key(extra, message):
    # the later value used to replace the earlier one without a word
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        hs.parse_config(BASE_CONFIG + extra)


@pytest.mark.parametrize("extra, build, message", [
    ("layer order=2 within=9 cross=1\n",
     lambda cfg: dataclasses.replace(cfg, layers=cfg.layers + (hs.LayerSpec(2, 9.0, 1.0),)),
     "layer order=2 is declared twice"),
    ("sweep order=3 field=within values=1,2\n",
     lambda cfg: dataclasses.replace(cfg, sweep=hs.SweepSpec(3, "within", (1.0, 2.0))),
     "sweep order=3 names no declared layer"),
    ("sweep order=2 field=order values=1,2\n",
     lambda cfg: dataclasses.replace(cfg, sweep=hs.SweepSpec(2, "order", (1.0, 2.0))),
     "cannot sweep field 'order'"),
    ("k = 0\n",
     lambda cfg: dataclasses.replace(cfg, k=0, alpha=()),
     "need k >= 1 communities, got k=0"),
])
def test_a_config_built_in_code_takes_the_checks_of_a_file(extra, build, message):
    base = BASE_CONFIG.replace("k = 2\n", "").replace("alpha = 0.5,0.5\n", "")
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        hs.parse_config(base + extra)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        build(hs.parse_config(BASE_CONFIG))


def test_config_rejects_a_negative_seed_and_n_below_an_order():
    # each used to fail in the trials, with a message naming neither
    for text, message in [
            (BASE_CONFIG.replace("seed = 7", "seed = -2"), "need seed >= 0, got seed=-2"),
            (BASE_CONFIG.replace("n = 60", "n = 2,60").replace("order=2", "order=3"),
             "need n >= 3 for order 3, got n=2")]:
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            hs.parse_config(text)
    cfg = hs.parse_config(BASE_CONFIG)
    with pytest.raises(ValueError, match=r"^need seed >= 0, got seed=-1$"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ValueError, match=r"^need n >= 2 for order 2, got n=1$"):
        dataclasses.replace(cfg, n_values=(60, 1))


def test_sweep_spec_rejects_empty_values():
    with pytest.raises(ValueError, match=r"^empty sweep values$"):
        hs.SweepSpec(2, "within", ())


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


def counting_threshold(path):
    """chernoff_hellinger that appends a line to ``path`` per call, so calls
    made in pool workers are counted too."""
    real = harness.chernoff_hellinger

    def count(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    return count


@pytest.mark.parametrize("workers", [1, 2])
def test_phase_sweep_computes_each_threshold_once(tmp_path, monkeypatch, workers):
    calls = tmp_path / "calls"
    monkeypatch.setattr(harness, "chernoff_hellinger", counting_threshold(calls))
    cfg = hs.parse_config(SWEEP_CONFIG.replace("n = 60", "n = 60,100"))
    records, _ = hs.phase_sweep(cfg, workers=workers)
    assert len(records) == 8 and all(r.d_gch is not None for r in records)
    assert calls.read_text().splitlines() == [str(os.getpid())] * 4


def test_run_trial_computes_its_points_threshold_once(tmp_path, monkeypatch):
    calls = tmp_path / "calls"
    monkeypatch.setattr(harness, "chernoff_hellinger", counting_threshold(calls))
    cfg = hs.parse_config(BASE_CONFIG)
    point = grid_points(cfg)[0]
    first, second = hs.run_trial(cfg, point, seed=7), hs.run_trial(cfg, point, seed=8)
    assert len(calls.read_text().splitlines()) == 1
    assert first.d_gch == second.d_gch and first.verdict == second.verdict == "achievable"


def test_grid_points_compute_no_threshold(tmp_path, monkeypatch):
    calls = tmp_path / "calls"
    monkeypatch.setattr(harness, "chernoff_hellinger", counting_threshold(calls))
    points = grid_points(hs.parse_config(SWEEP_CONFIG))
    assert len(points) == 2 and not calls.exists()
    assert all(point.alpha == (0.5, 0.5) for point in points)


def test_phase_sweep_starts_no_more_processes_than_jobs(monkeypatch):
    # under fork a real pool would start every one of max_workers at once
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = hs.parse_config(SWEEP_CONFIG)
    records, _ = hs.phase_sweep(cfg, workers=1000)
    assert sizes == [4]
    seq, _ = hs.phase_sweep(cfg, workers=1)
    assert [strip_wall(r) for r in records] == [strip_wall(r) for r in seq]


def test_an_arpack_error_is_a_recorded_trial_error(monkeypatch):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    real = spla.eigsh
    # an eigensolve of a zero matrix stops with ARPACK error -9
    monkeypatch.setattr(spla, "eigsh", lambda a, **kw: real(sp.csr_matrix(a.shape), **kw))
    monkeypatch.setattr(hs.spectral, "DENSE_CUTOFF", 10)
    records, _ = hs.phase_sweep(hs.parse_config(BASE_CONFIG))
    assert len(records) == 3
    assert all(r.error.startswith("ConvergenceError: eigensolver failed: ARPACK error -9")
               for r in records)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_threshold_gives_every_trial_the_run_trial_error(monkeypatch, workers):
    real = harness.chernoff_hellinger

    def fails_at_four(alpha, coefficients, n):
        if coefficients[2][0] == 4.0:
            raise ValueError("no threshold at within=4")
        return real(alpha, coefficients, n)

    monkeypatch.setattr(harness, "chernoff_hellinger", fails_at_four)
    cfg = hs.parse_config(SWEEP_CONFIG)
    records, _ = hs.phase_sweep(cfg, workers=workers)
    alone = [hs.run_trial(cfg, point, seed) for point in grid_points(cfg)
             for seed in (5, 6)]
    assert [strip_wall(r) for r in records] == [strip_wall(r) for r in alone]
    assert [r.error for r in records[:2]] == ["ValueError: no threshold at within=4"] * 2
    assert all(r.d_gch is None and r.verdict is None for r in records[:2])
    assert all(r.error is None and r.verdict == "achievable" for r in records[2:])


# ---------------------------------------------------------------------------
# BLAS threads in pool workers
# ---------------------------------------------------------------------------

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

needs_openblas = pytest.mark.skipif(not blas_thread_counts(),
                                    reason="no OpenBLAS library found in /proc/self/maps")


def run_python(script, *args, **env_vars):
    """Run ``script`` with ``args`` in a fresh interpreter with src/ and
    tests/ importable and the BLAS thread variables replaced by
    ``env_vars``; its stdout as JSON."""
    env = {key: val for key, val in os.environ.items() if key not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_jobs_run_at_one_blas_thread(monkeypatch, workers):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(harness, "_run_trial_job", blas_threads_job)
    records, _ = hs.phase_sweep(hs.parse_config(SWEEP_CONFIG), workers=workers)
    expected = {path: 1 for path in blas_thread_counts()}
    assert [r.threads for r in records] == [expected] * len(records)


@needs_openblas
def test_pool_workers_inherit_one_blas_thread_and_start_no_other(monkeypatch):
    # a worker that set its own count would restart OpenBLAS's thread pool
    # there: one OS thread more for numpy's OpenBLAS and one for scipy's
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(harness, "_run_trial_job", os_threads_job)
    records, _ = hs.phase_sweep(hs.parse_config(SWEEP_CONFIG), workers=2)
    assert [r.os_threads for r in records] == [1] * len(records)


START_METHOD_SWEEPS = f"""
import json, multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
import hypersbm as hs
from hypersbm import harness
from blas_probe import blas_thread_counts, blas_threads_job, os_threads_job
config = hs.parse_config({SWEEP_CONFIG!r})
harness._run_trial_job = blas_threads_job
threads, _ = hs.phase_sweep(config, workers=2)
harness._run_trial_job = os_threads_job
os_threads, _ = hs.phase_sweep(config, workers=2)
print(json.dumps({{"parent": list(blas_thread_counts()),
                  "threads": [r.threads for r in threads],
                  "os_threads": [r.os_threads for r in os_threads]}}))
"""


@needs_openblas
@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_workers_fork_whatever_the_default_start_method(method):
    # the two checks above, in a process whose default is not fork (Linux's
    # default is forkserver from Python 3.14); this process keeps its own
    out = run_python(START_METHOD_SWEEPS, method)
    expected = {path: 1 for path in out["parent"]}
    assert out["threads"] == [expected] * len(out["threads"])
    assert out["os_threads"] == [1] * len(out["os_threads"])


@needs_openblas
def test_sweeps_leave_the_parent_blas_threads_alone():
    import scipy.sparse.linalg  # noqa: F401  (a sweep loads scipy's OpenBLAS too)
    before = blas_thread_counts()
    cfg = hs.parse_config(SWEEP_CONFIG)
    for workers in (1, 2):
        hs.phase_sweep(cfg, workers=workers)
        assert blas_thread_counts() == before


KEEPS_USER_THREADS = f"""
import json
import hypersbm as hs
from hypersbm import harness
from blas_probe import blas_thread_counts, blas_threads_job
harness._run_trial_job = blas_threads_job
records, _ = hs.phase_sweep(hs.parse_config({SWEEP_CONFIG!r}), workers=2)
print(json.dumps({{"parent": blas_thread_counts(), "workers": [r.threads for r in records]}}))
"""


@needs_openblas
@pytest.mark.skipif(CPUS < 2, reason="the user's count must differ from the cap")
@pytest.mark.parametrize("var", THREAD_VARS)
def test_pool_workers_keep_a_user_set_thread_count(var):
    out = run_python(KEEPS_USER_THREADS, **{var: str(CPUS)})
    assert set(out["parent"].values()) == {CPUS} != {max(1, CPUS // 2)}
    assert out["workers"] == [out["parent"]] * len(out["workers"])


SPARSE_STACK_SWEEP = f"""
import json, sys
import hypersbm as hs
from hypersbm import harness
from blas_probe import sparse_stack_job
harness._run_trial_job = sparse_stack_job
before = "scipy" in sys.modules
records, _ = hs.phase_sweep(hs.parse_config({SWEEP_CONFIG!r}), workers=int(sys.argv[1]))
print(json.dumps({{"before": before, "loaded": [r.loaded for r in records],
                  "workers": [r.threads for r in records]}}))
"""


@needs_openblas
def test_pool_workers_cap_the_blas_that_scipy_loads():
    # in a fresh process the sweep must load scipy's own OpenBLAS before it
    # forks, or the workers load it uncapped when their first trial runs
    out = run_python(SPARSE_STACK_SWEEP, "2")
    assert out["before"] is False
    assert all(out["loaded"]) and len(out["loaded"]) == 4
    for threads in out["workers"]:
        assert threads and set(threads.values()) == {1}


def test_sequential_sweep_loads_the_sparse_stack_before_its_first_trial():
    out = run_python(SPARSE_STACK_SWEEP, "1")
    assert out["before"] is False
    assert out["loaded"] == [True] * 4


SWEEP_AND_PARTITION = f"""
import dataclasses, json
import hypersbm as hs
records, _ = hs.phase_sweep(hs.parse_config({SWEEP_CONFIG!r}))
n = 12000
coeffs = hs.two_level_coefficients(2, {{2: 10.0, 3: 12.0}}, {{2: 2.0, 3: 2.0}})
tensors = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
truth = hs.sample_membership(n, [0.5, 0.5], seed=[5, 11])
h = hs.sample_hypergraph(n, truth, tensors, seed=[5, 12])
report = hs.agnostic_partition(h, 2, seed=5)
print(json.dumps({{
    "records": [dataclasses.asdict(dataclasses.replace(r, wall_ms=None)) for r in records],
    "stage1": report.stage1_labels.tolist(),
    "labels": report.labels.tolist(),
}}))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # refine_step finds ties by exact float equality after a matmul, and the
    # eigensolver's reductions run at n = 12000, so a result that depended on
    # how OpenBLAS splits its work across threads would show here
    one = run_python(SWEEP_AND_PARTITION, OPENBLAS_NUM_THREADS="1")
    two = run_python(SWEEP_AND_PARTITION, OPENBLAS_NUM_THREADS="2")
    assert one == two
    assert len(one["records"]) == 4 and len(one["labels"]) == 12000


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


@pytest.mark.parametrize("row", ["0,10,1,1.5", "0,10,1,1.5,achievable,,0.5,2,1.5,9"])
def test_csv_names_a_row_with_the_wrong_cell_count(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_COLUMNS) + f"\n{row}\n0,10,1,,,,,,\n")
    message = f"{path}: line 2: expected 9 cells, got {row.count(',') + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hs.parse_csv(path)


def test_csv_names_a_cell_that_does_not_parse(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n0,x,1,,,,,,\n")
    message = f"{path}: line 2: column 'n': invalid literal for int() with base 10: 'x'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hs.parse_csv(path)


def test_csv_names_a_foreign_header_with_its_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n")
    message = f"{path}: line 1: unexpected header 'foo,bar'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hs.parse_csv(path)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        hs.parse_csv(path)
