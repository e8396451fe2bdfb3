"""Per-layer spans recorded from outside the library.

A ``Tracer`` replaces each public function named in ``LAYERS`` by a timing
wrapper in every ``hypersbm.*`` namespace that binds it, so calls made
inside the library (``pipeline`` calling ``spectral.rank_k_approx``, the CLI
calling ``model.read_hypergraph``) are seen too.  A parent stack kept in
memory gives each span its parent; a layer's self time is its span minus the
spans of its children.  Counters are read from the arguments and results of
the same calls.  Nothing under ``src/`` knows about this.
"""

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

import hypersbm.cli  # noqa: F401  (loads every namespace that binds a wrapped name)

# module -> public functions wrapped in the traced run
LAYERS = {
    "model": ("sample_hypergraph", "adjacency_matrix", "write_hypergraph", "read_hypergraph"),
    "spectral": ("rank_k_approx", "spectral_init", "trim"),
    "refinement": ("refine_step", "agnostic_refine", "estimate_tensors", "split", "map_correct"),
    "divergence": ("chernoff_hellinger",),
    "pipeline": ("agnostic_partition", "partition_with_prior", "estimate_num_communities",
                 "mismatch_ratio"),
    "harness": ("run_trial", "phase_sweep"),
    "cli": ("main",),
}

ORDERS = (2, 3, 4)

# (name, unit, better) of every per-layer metric, in report order.  Layers a
# workload does not touch report 0.
PER_LAYER = (
    [("model.sample_hypergraph.self_s", "s", "lower")]
    + [(f"model.sample_hypergraph.m{m}_s", "s", "lower") for m in ORDERS]
    + [(f"model.edges.m{m}", "count", "lower") for m in ORDERS]
    + [
        ("model.adjacency_matrix.self_s", "s", "lower"),
        ("model.adjacency_matrix.nnz", "count", "lower"),
        ("model.write_hypergraph.self_s", "s", "lower"),
        ("model.write_hypergraph.bytes", "bytes", "lower"),
        ("model.read_hypergraph.self_s", "s", "lower"),
        ("model.read_hypergraph.bytes", "bytes", "lower"),
        ("spectral.rank_k_approx.self_s", "s", "lower"),
        ("spectral.rank_k_approx.calls", "count", "lower"),
        ("spectral.rank_k_approx.eigenpairs", "count", "lower"),
        ("spectral.spectral_init.self_s", "s", "lower"),
        ("spectral.trim.self_s", "s", "lower"),
        ("spectral.kept_frac", "fraction", "higher"),
        ("refinement.refine_step.self_s", "s", "lower"),
        ("refinement.refine_step.calls", "count", "lower"),
        ("refinement.refine_step.flips", "count", "lower"),
        ("refinement.refine_step.useful_frac", "fraction", "higher"),
        ("refinement.agnostic_refine.capped", "count", "lower"),
        ("refinement.estimate_tensors.self_s", "s", "lower"),
        ("refinement.split.self_s", "s", "lower"),
        ("refinement.map_correct.self_s", "s", "lower"),
        ("divergence.chernoff_hellinger.self_s", "s", "lower"),
        ("divergence.chernoff_hellinger.calls", "count", "lower"),
        ("pipeline.agnostic_partition.self_s", "s", "lower"),
        ("pipeline.partition_with_prior.self_s", "s", "lower"),
        ("pipeline.estimate_num_communities.self_s", "s", "lower"),
        ("pipeline.mismatch_ratio.self_s", "s", "lower"),
        ("harness.run_trial.self_s", "s", "lower"),
        ("harness.phase_sweep.self_s", "s", "lower"),
        ("harness.run_trial.wall_ms_p50", "ms", "lower"),
        ("harness.run_trial.wall_ms_p50_2w", "ms", "lower"),
        ("cli.main.self_s", "s", "lower"),
    ]
)


def _bound_args(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self):
        self.originals = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"hypersbm.{module}"]
            for name in names:
                self.originals[f"{module}.{name}"] = getattr(mod, name)
        self.wrappers = {key: self._wrap(key, fn) for key, fn in self.originals.items()}
        self.spans = []
        self._stack = []
        self._installed = []
        self.reset()

    # -- installation ---------------------------------------------------

    def _bindings(self):
        """(module, attribute, key) for every hypersbm namespace binding a
        wrapped function."""
        by_id = {id(fn): key for key, fn in self.originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hypersbm" or modname.startswith("hypersbm.")):
                continue
            for attr, value in list(vars(mod).items()):
                key = by_id.get(id(value))
                if key is not None and value is self.originals[key]:
                    yield mod, attr, key

    def install(self):
        self._installed = list(self._bindings())
        for mod, attr, key in self._installed:
            setattr(mod, attr, self.wrappers[key])

    def uninstall(self):
        for mod, attr, key in self._installed:
            setattr(mod, attr, self.originals[key])
        self._installed = []

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def suspended(self):
        """Run a block untraced (used for work done in child processes,
        whose spans would be lost)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- recording ------------------------------------------------------

    def reset(self, job=0):
        """Start job ``job``: clear counters, keep recorded spans."""
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.sample_calls = []
        self._last_refine_flips = 0
        self.job = job

    def _add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, key, fn):
        observe = getattr(self, "_observe_" + key.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [len(self.spans), time.perf_counter(), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span_id, start, child_s = frame
                self.spans[span_id] = (self.job, span_id, None if parent is None else parent[0],
                                       key, start, end)
                self.self_s[key] = self.self_s.get(key, 0.0) + (end - start - child_s)
                self.calls[key] = self.calls.get(key, 0) + 1
                if parent is not None:
                    parent[2] += end - start
            if observe is not None:
                observe(fn, args, kwargs, result)
                if parent is not None:
                    # Observer time is tracing cost, not the parent's self time.
                    parent[2] += time.perf_counter() - end
            return result

        return traced

    def _observe_sample_hypergraph(self, fn, args, kwargs, h):
        for m in h.orders:
            self._add(f"model.edges.m{m}", h.num_edges(m))
        self.sample_calls.append(_bound_args(fn, args, kwargs))

    def _observe_adjacency_matrix(self, fn, args, kwargs, a):
        self._add("model.adjacency_matrix.nnz", a.nnz)

    def _observe_write_hypergraph(self, fn, args, kwargs, _):
        path = _bound_args(fn, args, kwargs)["path"]
        self._add("model.write_hypergraph.bytes", os.path.getsize(path))

    def _observe_read_hypergraph(self, fn, args, kwargs, _):
        path = _bound_args(fn, args, kwargs)["path"]
        self._add("model.read_hypergraph.bytes", os.path.getsize(path))

    def _observe_rank_k_approx(self, fn, args, kwargs, approx):
        self._add("spectral.rank_k_approx.eigenpairs", len(approx.values))

    def _observe_trim(self, fn, args, kwargs, _):
        keep = np.asarray(_bound_args(fn, args, kwargs)["keep"], dtype=bool)
        self._add("spectral.kept", int(keep.sum()))
        self._add("spectral.vertices", len(keep))

    def _observe_refine_step(self, fn, args, kwargs, new_labels):
        labels = np.asarray(_bound_args(fn, args, kwargs)["labels"])
        flips = int(np.count_nonzero(new_labels != labels))
        self._add("refinement.refine_step.flips", flips)
        self._add("refinement.refine_step.useful", int(flips > 0))
        self._last_refine_flips = flips

    def _observe_agnostic_refine(self, fn, args, kwargs, result):
        # The refinement stops early only at a fixed point, so a last round
        # that still moved labels means it hit its round cap.
        self._add("refinement.agnostic_refine.capped", int(self._last_refine_flips > 0))

    # -- results --------------------------------------------------------

    def per_order_sampling(self):
        """Re-sample every recorded ``sample_hypergraph`` call once per order
        on ``tensors.restricted([m])`` with the same seed; seconds per order."""
        sample = self.originals["model.sample_hypergraph"]
        out = {m: 0.0 for m in ORDERS}
        for call in self.sample_calls:
            tensors = call["tensors"]
            for m in tensors.orders:
                start = time.perf_counter()
                sample(call["n"], call["labels"], tensors.restricted([m]), seed=call.get("seed"))
                out[m] += time.perf_counter() - start
        return out

    def job_metrics(self, wall_ms_1w=(), wall_ms_2w=()):
        """Every per-layer metric of the job just traced."""
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        for key, seconds in self.self_s.items():
            values[f"{key}.self_s"] = seconds
        for key in ("spectral.rank_k_approx", "refinement.refine_step",
                    "divergence.chernoff_hellinger"):
            values[f"{key}.calls"] = self.calls.get(key, 0)
        for name, count in self.counts.items():
            if name in values:
                values[name] = count
        vertices = self.counts.get("spectral.vertices")
        if vertices:
            values["spectral.kept_frac"] = self.counts["spectral.kept"] / vertices
        rounds = self.calls.get("refinement.refine_step", 0)
        if rounds:
            values["refinement.refine_step.useful_frac"] = (
                self.counts.get("refinement.refine_step.useful", 0) / rounds)
        for m, seconds in self.per_order_sampling().items():
            values[f"model.sample_hypergraph.m{m}_s"] = seconds
        if len(wall_ms_1w):
            values["harness.run_trial.wall_ms_p50"] = float(np.median(wall_ms_1w))
        if len(wall_ms_2w):
            values["harness.run_trial.wall_ms_p50_2w"] = float(np.median(wall_ms_2w))
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write(self, path):
        """Write every recorded span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
