"""Pipeline scale smoke test: run ``agnostic_partition``,
``partition_with_prior`` and ``estimate_num_communities`` on the n = 1e5
graph of ``sampler_scale_smoke.py``, each in a fresh process, and check
their results and peak memory.

Both recovery pipelines must recover the communities exactly (eta 0) and
the estimate must count k = 2.  Each process samples the graph, runs one
pipeline and prints its peak resident set size (``ru_maxrss``, which
includes the sample); a peak above 1024 MB fails.  There is no timing gate;
a time limit around the run catches hangs.  Run from the root of the
repository:

    PYTHONPATH=src python tests/pipeline_scale_smoke.py [seed]
"""

import resource
import subprocess
import sys
import time

import hypersbm as hs
from sampler_scale_smoke import K, sample

LIMIT_MB = 1024
PIPELINES = ("agnostic_partition", "partition_with_prior", "estimate_num_communities")


def run(name: str, seed: int) -> int:
    h, truth, tensors = sample(seed)
    start = time.perf_counter()
    if name == "agnostic_partition":
        eta = hs.agnostic_partition(h, K, seed=seed, truth=truth).eta
        ok, result = eta == 0.0, f"eta {eta}"
    elif name == "partition_with_prior":
        report = hs.partition_with_prior(h, K, tensors, [0.5, 0.5], seed=seed, truth=truth)
        ok, result = report.eta == 0.0, f"eta {report.eta} (stage one {report.eta_stage1:.2g})"
    else:
        k_hat = hs.estimate_num_communities(h).k_hat
        ok, result = k_hat == K, f"k_hat {k_hat}"
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = ok and peak_mb <= LIMIT_MB
    print(f"{name}: {result} in {seconds:.1f} s, peak RSS {peak_mb:.0f} MB "
          f"(limit {LIMIT_MB}){'' if ok else '  FAILED'}", flush=True)
    return 0 if ok else 1


def main(seed: int) -> int:
    failed = 0
    for name in PIPELINES:
        failed += subprocess.run([sys.executable, __file__, str(seed), name]).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    sys.exit(run(sys.argv[2], seed) if len(sys.argv) > 2 else main(seed))
