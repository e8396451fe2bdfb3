"""Counting communities, and why layers are worth aggregating.

First: the number of communities can be read off the adjacency spectrum as
the eigenvalues above max_degree^(3/4).  Second: a union of uniform layers
carries strictly more information than any single layer, so models exist
where each layer alone is below the recovery threshold but the union is
above it, and the pipelines really do recover exactly there.
"""

import hypersbm as hs
from hypersbm.model import Hypergraph

# Part one: estimate the number of communities spectrally
n = 300
for k in (2, 3, 4):
    coeffs = hs.two_level_coefficients(k, {2: 40.0}, {2: 6.0})
    T = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)
    z = hs.sample_membership(n, [1.0 / k] * k, seed=[k, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[k, 12])
    est = hs.estimate_num_communities(h)
    eigs = ", ".join(f"{v:.0f}" for v in est.eigenvalues[: est.k_hat + 1])
    print(f"planted k={k}: estimated {est.k_hat} "
          f"(threshold {est.threshold:.0f}, top eigenvalues {eigs})")

# Part two: aggregation beats single layers
n = 1000
alpha = (0.5, 0.5)
c2 = hs.two_level_coefficients(2, {2: 6.5}, {2: 2.0})
c3 = hs.two_level_coefficients(2, {3: 11.0}, {3: 3.0})
both = {**c2, **c3}

for name, cf in (("graph layer alone", c2), ("triple layer alone", c3),
                 ("union of layers", both)):
    val = hs.chernoff_hellinger(alpha, cf, n).value
    print(f"{name}: divergence {val:.3f} "
          f"({hs.classify_regime(val)})")

T = hs.ProbabilityTensors.from_unscaled(2, both, n)
wins = {"union": 0, "graph": 0, "triples": 0}
trials = 10
for t in range(trials):
    z = hs.sample_membership(n, alpha, seed=[t, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[t, 12])
    graph_only = Hypergraph(n, {2: h.edges[2]})
    triples_only = Hypergraph(n, {3: h.edges[3]})
    wins["union"] += hs.agnostic_partition(h, 2, seed=t, truth=z).eta == 0
    wins["graph"] += hs.agnostic_partition(graph_only, 2, seed=t, truth=z).eta == 0
    wins["triples"] += hs.agnostic_partition(triples_only, 2, seed=t, truth=z).eta == 0

print(f"\nexact-recovery rate over {trials} trials at n={n}:")
for name, w in wins.items():
    print(f"  {name:8s} {w / trials:.2f}")
