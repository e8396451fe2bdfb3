"""Seeded Monte Carlo experiment driver.

A flat key=value config file describes a model family and a sweep grid;
every (grid point, trial) pair is an independent seeded job whose outcome
is one CSV row.  Per-trial seeds are ``base_seed + trial_index`` by
contract, so sweeps can be sharded across processes and reproduced exactly.
"""

import ctypes
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .divergence import chernoff_hellinger, classify_regime
from .errors import ConvergenceError
from .model import (
    ProbabilityTensors,
    check_coefficients,
    sample_hypergraph,
    sample_membership,
    two_level_coefficients,
    validate_prior,
)
from .compositions import weak_compositions
from .pipeline import agnostic_partition, partition_with_prior

CSV_COLUMNS = ("point_id", "n", "seed", "d_gch", "verdict",
               "eta_stage1", "eta_final", "iters", "wall_ms")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """One uniform layer: either within/cross shorthand or explicit
    per-type coefficients in canonical composition order."""

    order: int
    within: float = None
    cross: float = None
    values: tuple = None

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"layer order={self.order}: edge order must be >= 2")
        explicit = self.values is not None
        shorthand = self.within is not None or self.cross is not None
        if explicit and shorthand:
            raise ValueError(f"layer order={self.order}: give within/cross or values, not both")
        if not explicit and (self.within is None or self.cross is None):
            raise ValueError(f"layer order={self.order}: need both within and cross")

    def coefficients(self, k: int) -> np.ndarray:
        if self.values is None:
            vals = two_level_coefficients(k, {self.order: self.within},
                                          {self.order: self.cross})[self.order]
        else:
            vals = np.asarray(self.values, dtype=float)
            expected = len(weak_compositions(self.order, k))
            if len(vals) != expected:
                raise ValueError(
                    f"layer order={self.order}: expected {expected} values, got {len(vals)}")
        return check_coefficients(self.order, vals)


@dataclass(frozen=True)
class SweepSpec:
    """Sweep one field of one layer across a list of values."""

    order: int
    sweep_field: str  # "within" or "cross"
    values: tuple

    def __post_init__(self):
        if self.sweep_field not in ("within", "cross"):
            raise ValueError(f"cannot sweep field {self.sweep_field!r}")
        if not self.values:
            raise ValueError("empty sweep values")


@dataclass(frozen=True)
class ExperimentConfig:
    """A model family and its sweep grid.  A config built in code takes the
    same checks, with the same messages, as one read from a file."""

    n_values: tuple
    k: int
    alpha: tuple
    mode: str          # "agnostic" or "prior"
    trials: int
    seed: int
    layers: tuple
    sweep: SweepSpec = None
    out: str = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1 communities, got k={self.k}")
        if not self.n_values:
            raise ValueError("empty n grid")
        if self.trials < 1:
            raise ValueError("need at least one trial per point")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")
        if self.mode not in ("agnostic", "prior"):
            raise ValueError(f"unknown mode {self.mode!r}")
        validate_prior(self.alpha)
        if len(self.alpha) != self.k:
            raise ValueError("alpha length must equal k")
        if not self.layers:
            raise ValueError("need at least one layer")
        orders = [layer.order for layer in self.layers]
        for i, layer in enumerate(self.layers):
            if layer.order in orders[:i]:
                raise ValueError(f"layer order={layer.order} is declared twice")
            layer.coefficients(self.k)  # fail fast on malformed layers
        if min(self.n_values) < max(orders):
            raise ValueError(f"need n >= {max(orders)} for order {max(orders)}, "
                             f"got n={min(self.n_values)}")
        if self.sweep is not None and self.sweep.order not in orders:
            raise ValueError(f"sweep order={self.sweep.order} names no declared layer")


# Pipeline failures a trial records instead of raising.
CAPTURED_ERRORS = (ValueError, ConvergenceError)


def _error_text(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class GridPoint:
    point_id: int
    n: int
    sweep_value: float
    coefficients: dict  # order -> unscaled coefficient array
    alpha: tuple        # the community prior

    @cached_property
    def threshold(self) -> tuple:
        """(d_gch, verdict, error) of this point, with error the text of a
        captured failure (and the other two None); all None where k < 2.
        Computed on first use and kept on the point, outside its fields, it
        travels with the point into the processes of a parallel sweep."""
        if len(self.alpha) < 2:
            return None, None, None
        try:
            value = chernoff_hellinger(self.alpha, self.coefficients, self.n).value
        except CAPTURED_ERRORS as exc:
            return None, None, _error_text(exc)
        return value, classify_regime(value), None


def _list_of(parse):
    return lambda text: tuple(parse(t) for t in text.split(","))


# Each kind of config line: its required fields, and the parser of each of
# its fields.  A line's first word names its kind; the plain ``key = value``
# lines (None) form one record.
LINE_FIELDS = {
    None: (("n",), dict(n=_list_of(int), k=int, alpha=_list_of(float), mode=str,
                        trials=int, seed=int, out=str)),
    "layer": (("order",), dict(order=int, within=float, cross=float, values=_list_of(float))),
    "sweep": (("order", "field", "values"), dict(order=int, field=str, values=_list_of(float))),
}


def _read_lines(text: str):
    """A config text's plain keys as one dict, and its layer and sweep lines
    as (kind, fields) pairs, each value parsed; an unknown, repeated or
    missing key is an error."""
    plain, lines = {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tokens = line.split()
        if kind not in LINE_FIELDS:
            kind, tokens = None, [line]
        required, parsers = LINE_FIELDS[kind]
        fields = plain if kind is None else {}
        for tok in tokens:
            key, sep, val = (part.strip() for part in tok.partition("="))
            if not sep or not key:
                raise ValueError(f"expected key=value, got {tok!r}")
            if key not in parsers:
                raise ValueError(f"unknown config key {key!r}")
            if key in fields:
                raise ValueError(f"repeated config key {key!r}")
            fields[key] = parsers[key](val)
        if kind is not None:
            missing = [key for key in required if key not in fields]
            if missing:
                raise ValueError(f"{' '.join(tokens)!r} lacks {', '.join(missing)}")
            lines.append((kind, fields))
    for key in LINE_FIELDS[None][0]:
        if key not in plain:
            raise ValueError(f"config lacks the required key {key}")
    return plain, lines


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat config format.

    Plain lines are ``key = value`` with keys n, k, alpha, mode, trials,
    seed, out; n and alpha accept comma-separated lists.  ``layer`` lines
    declare one order each: ``layer order=2 within=9 cross=1`` or
    ``layer order=3 values=20,4,4,4`` (canonical composition order); an
    order declared twice is an error.  An optional ``sweep`` line varies one
    field of a declared layer over a list:
    ``sweep order=2 field=within values=2,4,6``.  ``#`` starts a comment.
    A key or field outside these, a plain key given twice, a field given
    twice on one line and a second ``sweep`` line are errors.  Every other
    rule is checked by the config types, so a config built in code takes
    the same checks.
    """
    plain, lines = _read_lines(text)
    sweeps = [SweepSpec(f["order"], f["field"], f["values"]) for kind, f in lines
              if kind == "sweep"]
    if len(sweeps) > 1:
        raise ValueError("sweep is declared twice")
    k = plain.get("k", 2)
    return ExperimentConfig(
        n_values=plain["n"],
        k=k,
        # no division where k < 1: ExperimentConfig names that k
        alpha=plain["alpha"] if "alpha" in plain else tuple(1.0 / k for _ in range(k)),
        mode=plain.get("mode", "agnostic"),
        trials=plain.get("trials", 1),
        seed=plain.get("seed", 0),
        layers=tuple(LayerSpec(**f) for kind, f in lines if kind == "layer"),
        sweep=sweeps[0] if sweeps else None,
        out=plain.get("out"),
    )


def read_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def grid_points(config: ExperimentConfig) -> list:
    """Materialize the sweep grid: n values crossed with sweep values."""
    points = []
    sweep_values = config.sweep.values if config.sweep else (None,)
    pid = 0
    for n in config.n_values:
        for sval in sweep_values:
            layers = list(config.layers)
            if sval is not None:
                layers = [replace(l, **{config.sweep.sweep_field: sval})
                          if l.order == config.sweep.order else l
                          for l in layers]
            coeffs = {l.order: l.coefficients(config.k) for l in layers}
            points.append(GridPoint(point_id=pid, n=n, sweep_value=sval,
                                    coefficients=coeffs, alpha=config.alpha))
            pid += 1
    return points


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    point_id: int
    n: int
    seed: int
    d_gch: float = None
    verdict: str = None
    eta_stage1: float = None
    eta_final: float = None
    iters: int = None
    wall_ms: float = None
    error: str = None  # not serialized to CSV


def _round9(x):
    return None if x is None else float(f"{x:.9g}")


def sample_instance(config: ExperimentConfig, point: GridPoint, seed: int):
    """The (tensors, truth, hypergraph) of one (point, seed) job; labels draw
    from the stream [seed, 11] and edges from [seed, 12]."""
    tensors = ProbabilityTensors.from_unscaled(config.k, point.coefficients, point.n)
    truth = sample_membership(point.n, config.alpha, seed=[seed, 11])
    h = sample_hypergraph(point.n, truth, tensors, seed=[seed, 12])
    return tensors, truth, h


def run_trial(config: ExperimentConfig, point: GridPoint, seed: int) -> TrialRecord:
    """Sample one instance at a grid point, run the configured pipeline,
    and score it against the sampled truth.  Pipeline failures are recorded,
    not raised.  The point's threshold is computed by its first trial and
    shared by the rest (``phase_sweep`` computes it before any trial)."""
    start = time.perf_counter()
    d_gch = verdict = error = rec = None
    try:
        tensors, truth, h = sample_instance(config, point, seed)
        d_gch, verdict, error = point.threshold
        if error is None:
            if config.mode == "agnostic":
                rec = agnostic_partition(h, config.k, seed=seed, truth=truth)
            else:
                rec = partition_with_prior(h, config.k, tensors, config.alpha,
                                           seed=seed, truth=truth)
    except CAPTURED_ERRORS as exc:
        error = _error_text(exc)
    wall = (time.perf_counter() - start) * 1000.0
    scores = {} if rec is None else dict(
        eta_stage1=_round9(rec.eta_stage1), eta_final=_round9(rec.eta), iters=rec.iterations)
    return TrialRecord(point_id=point.point_id, n=point.n, seed=seed, d_gch=_round9(d_gch),
                       verdict=verdict, wall_ms=_round9(wall), error=error, **scores)


@dataclass(frozen=True)
class PointSummary:
    point_id: int
    n: int
    sweep_value: float
    trials: int
    exact_recoveries: int

    @property
    def success_rate(self) -> float:
        return self.exact_recoveries / self.trials


def _run_trial_job(args):
    config, point, seed = args
    return run_trial(config, point, seed)


# Thread-count getters and setters of the OpenBLAS builds in numpy's wheels
# (64-bit integers) and scipy's, then those of a plain OpenBLAS build.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas() -> list:
    """(path, getter, setter) of the thread count of each OpenBLAS library
    this process has already loaded, found through /proc/self/maps; empty
    where that file does not exist."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.rstrip("\n").split(maxsplit=5)  # the 6th is the path
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5])
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since, or not a shared library
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((path, getter, setter))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread, and give each
    its count back afterwards.

    The trials' linear algebra is sparse products and ARPACK's work on thin
    blocks, where waking OpenBLAS's threads costs more than they save.
    Processes forked inside the block inherit the one thread; setting the
    count in a forked process would restart OpenBLAS's thread pool there.
    A thread count the user set in OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
    is kept.
    """
    lowered = []
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        for _, getter, setter in _loaded_openblas():
            threads = getter()
            if threads > 1:
                setter(1)
                lowered.append((setter, threads))
    try:
        yield
    finally:
        for setter, threads in lowered:
            setter(threads)


def phase_sweep(config: ExperimentConfig, workers: int = 1):
    """Run every (point, trial) job and aggregate exact-recovery rates.

    Trial t of every point uses seed ``config.seed + t``.  With workers > 1
    jobs run in separate processes, forked on Linux whatever the default
    start method (forkserver from Python 3.14).  On Linux the jobs run at one
    OpenBLAS thread either way, and the caller's thread counts are restored
    afterwards.  Results are ordered by (point, trial), so the output is
    identical to a sequential run.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    points = grid_points(config)
    jobs = [(config, point, config.seed + t)
            for point in points for t in range(config.trials)]
    # Every trial needs the sparse stack.  Loading it once here, before the
    # first trial and before the fork, keeps its import out of each worker
    # and out of the first trial's wall_ms, and lets _one_blas_thread see
    # the OpenBLAS that scipy brings.
    import scipy.sparse.linalg  # noqa: F401
    # Each point's threshold, computed once here, travels with its jobs and
    # stays out of every trial's wall_ms.
    for point in points:
        point.threshold
    with _one_blas_thread():
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # under fork the pool starts all max_workers at the first submit
            fork = multiprocessing.get_context("fork") if sys.platform == "linux" else None
            with ProcessPoolExecutor(min(workers, len(jobs)), fork) as pool:
                records = list(pool.map(_run_trial_job, jobs))
        else:
            records = [_run_trial_job(job) for job in jobs]
    summaries = []
    for i, point in enumerate(points):
        batch = records[i * config.trials:(i + 1) * config.trials]
        wins = sum(1 for r in batch if r.eta_final == 0.0)
        summaries.append(PointSummary(point_id=point.point_id, n=point.n,
                                      sweep_value=point.sweep_value,
                                      trials=config.trials, exact_recoveries=wins))
    return records, summaries


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records, path) -> None:
    """One row per trial in a stable column order; floats carry 9
    significant digits; undefined fields are empty."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_format_cell(getattr(r, c)) for c in CSV_COLUMNS) + "\n")


def parse_csv(path) -> list:
    """Read back an emitted trial table (the in-file error field is not
    serialized, so parsed records carry error=None)."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            vals = dict(zip(CSV_COLUMNS, cells))
            records.append(TrialRecord(
                point_id=int(vals["point_id"]),
                n=int(vals["n"]),
                seed=int(vals["seed"]),
                d_gch=float(vals["d_gch"]) if vals["d_gch"] else None,
                verdict=vals["verdict"] or None,
                eta_stage1=float(vals["eta_stage1"]) if vals["eta_stage1"] else None,
                eta_final=float(vals["eta_final"]) if vals["eta_final"] else None,
                iters=int(vals["iters"]) if vals["iters"] else None,
                wall_ms=float(vals["wall_ms"]) if vals["wall_ms"] else None,
            ))
    return records
