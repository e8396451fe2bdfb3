"""Seeded Monte Carlo experiment driver.

A flat key=value config file describes a model family and a sweep grid;
every (grid point, trial) pair is an independent seeded job whose outcome
is one CSV row.  Per-trial seeds are ``base_seed + trial_index`` by
contract, so sweeps can be sharded across processes and reproduced exactly.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .divergence import chernoff_hellinger, classify_regime
from .errors import ConvergenceError
from .model import (
    ProbabilityTensors,
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
        explicit = self.values is not None
        shorthand = self.within is not None or self.cross is not None
        if explicit and shorthand:
            raise ValueError(f"layer order={self.order}: give within/cross or values, not both")
        if not explicit and (self.within is None or self.cross is None):
            raise ValueError(f"layer order={self.order}: need both within and cross")

    def coefficients(self, k: int) -> np.ndarray:
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            expected = len(weak_compositions(self.order, k))
            if len(vals) != expected:
                raise ValueError(
                    f"layer order={self.order}: expected {expected} values, got {len(vals)}")
            return vals
        return two_level_coefficients(k, {self.order: self.within},
                                      {self.order: self.cross})[self.order]


@dataclass(frozen=True)
class SweepSpec:
    """Sweep one field of one layer across a list of values."""

    order: int
    sweep_field: str  # "within" or "cross"
    values: tuple


@dataclass(frozen=True)
class ExperimentConfig:
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
        if not self.n_values:
            raise ValueError("empty n grid")
        if self.trials < 1:
            raise ValueError("need at least one trial per point")
        if self.mode not in ("agnostic", "prior"):
            raise ValueError(f"unknown mode {self.mode!r}")
        validate_prior(self.alpha)
        if len(self.alpha) != self.k:
            raise ValueError("alpha length must equal k")
        if not self.layers:
            raise ValueError("need at least one layer")
        for layer in self.layers:
            layer.coefficients(self.k)  # fail fast on malformed layers


@dataclass(frozen=True)
class GridPoint:
    point_id: int
    n: int
    sweep_value: float
    coefficients: dict  # order -> unscaled coefficient array


def _parse_kv_tokens(tokens, required):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key.strip()] = val.strip()
    missing = [key for key in required if key not in out]
    if missing:
        raise ValueError(f"{' '.join(tokens)!r} lacks {', '.join(missing)}")
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat config format.

    Plain lines are ``key = value`` with keys n, k, alpha, mode, trials,
    seed, out; n and alpha accept comma-separated lists.  ``layer`` lines
    declare one order each: ``layer order=2 within=9 cross=1`` or
    ``layer order=3 values=20,4,4,4`` (canonical composition order).  An
    optional ``sweep`` line varies one layer field over a list:
    ``sweep order=2 field=within values=2,4,6``.  ``#`` starts a comment.
    """
    scalars = {}
    layers = []
    sweep = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("layer"):
            kv = _parse_kv_tokens(line.split()[1:], ("order",))
            spec = LayerSpec(
                order=int(kv.pop("order")),
                within=float(kv.pop("within")) if "within" in kv else None,
                cross=float(kv.pop("cross")) if "cross" in kv else None,
                values=tuple(float(t) for t in kv.pop("values").split(",")) if "values" in kv else None,
            )
            if kv:
                raise ValueError(f"unknown layer fields {sorted(kv)}")
            layers.append(spec)
        elif line.startswith("sweep"):
            kv = _parse_kv_tokens(line.split()[1:], ("order", "field", "values"))
            sweep = SweepSpec(
                order=int(kv["order"]),
                sweep_field=kv["field"],
                values=tuple(float(t) for t in kv["values"].split(",")),
            )
            if sweep.sweep_field not in ("within", "cross"):
                raise ValueError(f"cannot sweep field {sweep.sweep_field!r}")
        else:
            if "=" not in line:
                raise ValueError(f"cannot parse line {raw!r}")
            key, val = line.split("=", 1)
            scalars[key.strip()] = val.strip()

    if "n" not in scalars:
        raise ValueError("config lacks the required key n")
    k = int(scalars.get("k", 2))
    if k < 1:
        raise ValueError(f"need k >= 1 communities, got k={k}")
    alpha = (tuple(float(t) for t in scalars["alpha"].split(","))
             if "alpha" in scalars else tuple([1.0 / k] * k))
    return ExperimentConfig(
        n_values=tuple(int(t) for t in scalars["n"].split(",")),
        k=k,
        alpha=alpha,
        mode=scalars.get("mode", "agnostic"),
        trials=int(scalars.get("trials", 1)),
        seed=int(scalars.get("seed", 0)),
        layers=tuple(layers),
        sweep=sweep,
        out=scalars.get("out"),
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
                                    coefficients=coeffs))
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


CAPTURED_ERRORS = (ValueError, ConvergenceError)


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
    not raised."""
    start = time.perf_counter()
    d_gch = None
    verdict = None
    try:
        tensors, truth, h = sample_instance(config, point, seed)
        if config.k >= 2:
            report = chernoff_hellinger(config.alpha, point.coefficients, point.n)
            d_gch = report.value
            verdict = classify_regime(d_gch).label
        if config.mode == "agnostic":
            rec = agnostic_partition(h, config.k, seed=seed, truth=truth)
        else:
            rec = partition_with_prior(h, config.k, tensors, config.alpha,
                                       seed=seed, truth=truth)
    except CAPTURED_ERRORS as exc:
        wall = (time.perf_counter() - start) * 1000.0
        return TrialRecord(point_id=point.point_id, n=point.n, seed=seed,
                           d_gch=_round9(d_gch), verdict=verdict,
                           wall_ms=_round9(wall), error=f"{type(exc).__name__}: {exc}")
    wall = (time.perf_counter() - start) * 1000.0
    return TrialRecord(point_id=point.point_id, n=point.n, seed=seed,
                       d_gch=_round9(d_gch), verdict=verdict,
                       eta_stage1=_round9(rec.eta_stage1),
                       eta_final=_round9(rec.eta),
                       iters=rec.iterations, wall_ms=_round9(wall))


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


def phase_sweep(config: ExperimentConfig, workers: int = 1):
    """Run every (point, trial) job and aggregate exact-recovery rates.

    Trial t of every point uses seed ``config.seed + t``.  With workers > 1
    jobs run in separate processes; results are ordered by (point, trial)
    either way, so the output is identical to a sequential run.
    """
    points = grid_points(config)
    jobs = [(config, point, config.seed + t)
            for point in points for t in range(config.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
