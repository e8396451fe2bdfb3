"""Two routes to exact recovery on a planted instance.

Both pipelines share the same idea: get almost every label right with a
spectral step, then fix the stragglers vertex by vertex.  The agnostic
route estimates the edge probabilities it needs; the known-parameter route
splits the edges first so its correction step is statistically independent
of its initialization.
"""

import numpy as np

import hypersbm as hs

n, k = 500, 2
alpha = [0.5, 0.5]
coeffs = hs.two_level_coefficients(k, {2: 13.0}, {2: 2.0})
tensors = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)

print(f"model divergence: {hs.chernoff_hellinger(alpha, coeffs, n).value:.3f}")

truth = hs.sample_membership(n, alpha, seed=[7, 11])
h = hs.sample_hypergraph(n, truth, tensors, seed=[7, 12])
print(f"sampled {h.num_edges()} edges, mean degree {h.degrees().mean():.1f}\n")

report = hs.agnostic_partition(h, k, seed=7, truth=truth)
print("agnostic pipeline (no parameter knowledge):")
print(f"  kept after trimming:  {report.kept}/{n}")
print(f"  stage-one mismatch:   {report.eta_stage1:.4f}")
print(f"  refinement rounds:    {report.iterations}")
print(f"  final mismatch:       {report.eta:.4f}")

report = hs.partition_with_prior(h, k, tensors, alpha, seed=7, truth=truth)
print("known-parameter pipeline (split + MAP correction):")
print(f"  kept after trimming:  {report.kept}/{n}")
print(f"  stage-one mismatch:   {report.eta_stage1:.4f}")
print(f"  final mismatch:       {report.eta:.4f}")

# the pieces are available individually; here is stage one by hand
from hypersbm.model import adjacency_matrix
from hypersbm.spectral import default_radius, keep_by_mean_degree, spectral_init, trim

degrees = h.degrees()
keep = keep_by_mean_degree(degrees)
a_kept = trim(adjacency_matrix(h), keep)
labels0 = spectral_init(a_kept, keep, k, default_radius(degrees), seed=[7, 1])
eta0, _ = hs.mismatch_ratio(truth, labels0)
print(f"\nstage one alone: mismatch {eta0:.4f}")

# and stage two by hand, starting from a deliberately damaged labelling
damaged = truth.copy()
flip = np.random.default_rng(0).choice(n, size=40, replace=False)
damaged[flip] = 1 - damaged[flip]
print(f"damaged labelling mismatch: {hs.mismatch_ratio(truth, damaged)[0]:.4f}")
refined, rounds, _ = hs.agnostic_refine(h, damaged, k, seed=3)
print(f"after {rounds} refinement rounds: "
      f"{hs.mismatch_ratio(truth, refined)[0]:.4f}")
corrected = hs.map_correct(h, damaged, tensors, alpha)
print(f"after one MAP correction pass: "
      f"{hs.mismatch_ratio(truth, corrected)[0]:.4f}")
