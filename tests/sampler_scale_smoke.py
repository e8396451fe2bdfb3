"""Sampler smoke test at scale: sample one n = 1e5 hypergraph and check each
order's edge count against its Binomial mean.

The graph has k = 2 balanced communities and orders 2, 3, 4 with
(within, cross) coefficients 12/2, 14/3 and 10/2, about 7.1M edges.  Each
order's count must lie within 6 standard deviations of its mean.  There is
no timing gate; a time limit around the run catches hangs and quadratic
slow-downs.  Run from the root of the repository:

    PYTHONPATH=src python tests/sampler_scale_smoke.py [seed]
"""

import math
import sys
import time

import numpy as np

import hypersbm as hs
from hypersbm.compositions import capacity, weak_compositions

N, K = 100_000, 2
WITHIN = {2: 12.0, 3: 14.0, 4: 10.0}
CROSS = {2: 2.0, 3: 3.0, 4: 2.0}


def sample(seed: int):
    """The seeded n = 1e5 instance: (hypergraph, true labels, tensors)."""
    coeffs = hs.two_level_coefficients(K, WITHIN, CROSS)
    tensors = hs.ProbabilityTensors.from_unscaled(K, coeffs, N)
    truth = hs.sample_membership(N, [0.5, 0.5], seed=[seed, 11])
    start = time.perf_counter()
    h = hs.sample_hypergraph(N, truth, tensors, seed=[seed, 12])
    print(f"sampled {h.num_edges()} edges in {time.perf_counter() - start:.1f} s")
    return h, truth, tensors


def main(seed: int) -> int:
    h, truth, tensors = sample(seed)
    sizes = np.bincount(truth, minlength=K)
    failed = 0
    for m in tensors.orders:
        caps = np.array([float(capacity(w, sizes)) for w in weak_compositions(m, K)])
        q = tensors.q[m]
        mean, sd = float(caps @ q), math.sqrt(float(caps @ (q * (1.0 - q))))
        ok = abs(h.num_edges(m) - mean) <= 6.0 * sd
        failed += not ok
        print(f"order {m}: {h.num_edges(m)} edges, expected {mean:.0f} +- {sd:.0f}"
              f"{'' if ok else '  FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 7))
