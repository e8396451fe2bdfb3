"""The benchmark's three workloads.

Each workload builds one instance's inputs from a seed (``build``), then
runs one pass of a user's job on it against the public API or CLI (``run``)
and checks the outputs.  A pass is a fixed sequence of timed steps; its
outputs are hashed per operation so that repeated, traced and untraced
passes on one instance can be compared bit for bit.

- ``instance-k4``: one large k=4 instance; sample, both pipelines, and k
  estimation.  The only workload with k estimation and the known-parameter
  pipeline at scale.
- ``sweep-k2``: a 48-trial agnostic phase sweep at n=2000 across the
  threshold, at 1 and then 2 workers.  Many small instances, per-call
  overhead and the process pool.
- ``files-k2``: the CLI round trip ``sample`` then ``recover`` through text
  files, in-process.  The only workload where file I/O dominates.
"""

import contextlib
import hashlib
import io
import math
import os
import time

import numpy as np

import hypersbm as hs
import hypersbm.cli
from hypersbm.compositions import capacity, weak_compositions
from hypersbm.harness import CSV_COLUMNS
from hypersbm.model import two_level_coefficients


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype="<i8").tobytes()
        elif isinstance(part, str):
            part = part.encode()
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


# A run cycles through several instances because run time varies more
# between instances (ARPACK iterations, refinement rounds) than between
# passes on one instance.
INSTANCES = 4
SEED_STRIDE = 1000


class Workload:
    name = None

    def build_instances(self, seed, workdir):
        """The inputs of one run: instance j uses seed ``seed + 1000 j``, so
        instance 0 is the run's own seed."""
        return [self.build(seed + SEED_STRIDE * j, workdir) for j in range(INSTANCES)]

    def verify(self, state):
        """Checks made on each instance, untraced, after the timed passes."""
        return []


class Pass:
    """One pass of a workload's job: step times, per-operation output
    digests, failed checks as (operation, message) and sweep trial times."""

    def __init__(self):
        self.steps = {}
        self.outputs = {}
        self.failures = []
        self.trial_wall_ms = {1: [], 2: []}

    def step(self, name, start):
        self.steps[name] = time.perf_counter() - start

    def check(self, ok, op, message):
        if not ok:
            self.failures.append((op, message))


def _suspended(tracer):
    return tracer.suspended() if tracer is not None else contextlib.nullcontext()


def _edge_count_failures(h, truth, tensors):
    """Orders whose edge count lies more than 6 sigma from its mean."""
    sizes = np.bincount(truth, minlength=tensors.k)
    out = []
    for m in tensors.orders:
        caps = np.array([float(capacity(w, sizes)) for w in weak_compositions(m, tensors.k)])
        q = tensors.q[m]
        mean = float(caps @ q)
        sd = math.sqrt(float(caps @ (q * (1.0 - q))))
        if abs(h.num_edges(m) - mean) > 6.0 * sd:
            out.append(f"order {m}: {h.num_edges(m)} edges, expected {mean:.0f} +- {sd:.0f}")
    return out


class InstanceK4(Workload):
    name = "instance-k4"
    n, k = 20000, 4
    within = {2: 12.0, 3: 14.0, 4: 10.0}
    cross = {2: 1.0, 3: 1.5, 4: 1.0}

    def build(self, seed, workdir):
        alpha = [1.0 / self.k] * self.k
        coeffs = two_level_coefficients(self.k, self.within, self.cross)
        return {"seed": seed, "alpha": alpha,
                "tensors": hs.ProbabilityTensors.from_unscaled(self.k, coeffs, self.n)}

    def run(self, state, tracer=None):
        seed, alpha, tensors = state["seed"], state["alpha"], state["tensors"]
        p = Pass()
        start = time.perf_counter()
        truth = hs.sample_membership(self.n, alpha, seed=[seed, 11])
        h = hs.sample_hypergraph(self.n, truth, tensors, seed=[seed, 12])
        p.step("sample_s", start)
        start = time.perf_counter()
        agnostic = hs.agnostic_partition(h, self.k, seed=seed, truth=truth)
        p.step("agnostic_s", start)
        start = time.perf_counter()
        prior = hs.partition_with_prior(h, self.k, tensors, alpha, seed=seed, truth=truth)
        p.step("prior_s", start)
        start = time.perf_counter()
        count = hs.estimate_num_communities(h)
        p.step("estimate_k_s", start)

        p.outputs["sample"] = _sha(truth, *(h.edges[m] for m in h.orders))
        p.outputs["agnostic"] = _sha(agnostic.labels)
        p.outputs["prior"] = _sha(prior.labels)
        p.outputs["estimate_k"] = _sha(str(count.k_hat))
        for message in _edge_count_failures(h, truth, tensors):
            p.check(False, "sample", message)
        p.check(agnostic.eta == 0.0, "agnostic", f"agnostic eta {agnostic.eta} != 0")
        p.check(prior.eta <= 1e-3, "prior", f"prior eta {prior.eta} > 1e-3")
        p.check(count.k_hat == self.k, "estimate_k", f"k_hat {count.k_hat} != {self.k}")
        return p

    def report(self, passes):
        return [(name, _median(p.steps[name] for p in passes), "s")
                for name in ("sample_s", "agnostic_s", "prior_s", "estimate_k_s")]


class SweepK2(Workload):
    name = "sweep-k2"
    trials = 8
    below, above = 1.0, 8.0  # sweep values whose success rate must be 0 and 1

    def build(self, seed, workdir):
        config = hs.parse_config(f"""
            n = 2000
            k = 2
            mode = agnostic
            trials = {self.trials}
            seed = {seed}
            layer order=2 within=4 cross=1
            layer order=3 within=5 cross=1
            sweep order=2 field=within values=1,2,3,4,6,8
            """)
        return {"seed": seed, "config": config, "points": hs.grid_points(config)}

    def run(self, state, tracer=None):
        config, points = state["config"], state["points"]
        p = Pass()
        start = time.perf_counter()
        records1, _ = hs.phase_sweep(config, workers=1)
        p.step("sweep_1w_s", start)
        # Trials at 2 workers run in child processes, where spans would be
        # lost; they run untraced and give only their own wall_ms.
        with _suspended(tracer):
            start = time.perf_counter()
            records2, _ = hs.phase_sweep(config, workers=2)
            p.step("sweep_2w_s", start)

        value_of = {pt.point_id: pt.sweep_value for pt in points}
        for workers, records in ((1, records1), (2, records2)):
            for r in records:
                op = f"{workers}w/point{r.point_id}/seed{r.seed}"
                row = ",".join(str(getattr(r, c)) for c in CSV_COLUMNS if c != "wall_ms")
                p.outputs[op] = _sha(row)
                p.trial_wall_ms[workers].append(r.wall_ms)
                p.check(not r.error, op, f"trial error: {r.error}")
                if value_of[r.point_id] == self.below:
                    p.check(r.eta_final != 0.0, op, "exact recovery below the threshold")
                if value_of[r.point_id] == self.above:
                    p.check(r.eta_final == 0.0, op, f"eta {r.eta_final} above the threshold")
        for r1, r2 in zip(records1, records2):
            op = f"2w/point{r2.point_id}/seed{r2.seed}"
            p.check(p.outputs[op] == p.outputs[f"1w/point{r1.point_id}/seed{r1.seed}"], op,
                    "2-worker record differs from the 1-worker one")
        p.check(len(records1) == len(records2) == len(points) * self.trials, "1w",
                "sweep returned the wrong number of records")
        return p

    def report(self, passes):
        trials = len(passes[0].trial_wall_ms[1])
        wall = [ms for p in passes for ms in p.trial_wall_ms[1]]
        failed = sum(len({op for op, _ in p.failures}) for p in passes)
        attempted = sum(len(p.outputs) for p in passes)
        return [
            ("trials_per_s", _median(trials / p.steps["sweep_1w_s"] for p in passes), "1/s"),
            ("trials_per_s_2w", _median(trials / p.steps["sweep_2w_s"] for p in passes), "1/s"),
            ("trial_ms_p50", float(np.percentile(wall, 50)), f"ms(n={len(wall)})"),
            ("trial_ms_p75", float(np.percentile(wall, 75)), f"ms(n={len(wall)})"),
            ("failed_frac", failed / attempted, "fraction"),
        ]


class FilesK2(Workload):
    name = "files-k2"
    n, k = 10000, 2

    def build(self, seed, workdir):
        paths = {key: os.path.join(workdir, f"files-k2-{seed}.{key}")
                 for key in ("config", "graph", "truth", "labels")}
        with open(paths["config"], "w") as fh:
            fh.write(f"n = {self.n}\nk = {self.k}\nseed = {seed}\n"
                     "layer order=2 within=12 cross=2\n"
                     "layer order=3 within=14 cross=3\n"
                     "layer order=4 within=10 cross=2\n")
        return {"seed": seed, "paths": paths, "config": hs.read_config(paths["config"])}

    def run(self, state, tracer=None):
        paths, seed = state["paths"], state["seed"]
        p = Pass()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = hypersbm.cli.main(["sample", "--config", paths["config"],
                                      "--out", paths["graph"], "--truth-out", paths["truth"]])
            p.step("cli_sample_s", start)
            p.check(code == 0, "cli_sample", f"sample exit code {code}")
            start = time.perf_counter()
            code = hypersbm.cli.main(["recover", "--mode", "agnostic", "--input", paths["graph"],
                                      "--truth", paths["truth"], "--k", str(self.k),
                                      "--seed", str(seed), "--out", paths["labels"]])
            p.step("cli_recover_s", start)
            p.check(code == 0, "cli_recover", f"recover exit code {code}")
        p.outputs["cli_sample"] = _sha(_file_sha(paths["graph"]), _file_sha(paths["truth"]))
        p.outputs["cli_recover"] = _file_sha(paths["labels"])
        return p

    def verify(self, state):
        """Per instance: the file read back equals the graph sampled in
        memory from the same seed, and the CLI labels equal the agnostic
        pipeline on that graph."""
        config, paths, seed = state["config"], state["paths"], state["seed"]
        point = hs.grid_points(config)[0]
        tensors = hs.ProbabilityTensors.from_unscaled(config.k, point.coefficients, point.n)
        truth = hs.sample_membership(point.n, config.alpha, seed=[seed, 11])
        h = hs.sample_hypergraph(point.n, truth, tensors, seed=[seed, 12])
        back = hs.read_hypergraph(paths["graph"])
        failures = []
        if back.n != h.n or back.orders != h.orders or any(
                not np.array_equal(back.edges[m], h.edges[m]) for m in h.orders):
            failures.append(("cli_sample", "graph read back differs from the one sampled"))
        labels = hs.agnostic_partition(h, self.k, seed=seed).labels
        if not np.array_equal(hs.read_membership(paths["labels"]), labels):
            failures.append(("cli_recover", "recover labels differ from agnostic_partition"))
        return failures

    def report(self, passes):
        return [(name, _median(p.steps[name] for p in passes), "s")
                for name in ("cli_sample_s", "cli_recover_s")]


def _median(values) -> float:
    return float(np.median(list(values)))


WORKLOADS = {w.name: w for w in (InstanceK4(), SweepK2(), FilesK2())}
