"""Build a non-uniform block model, sample it, and inspect the draw.

A model is a prior over communities plus one inclusion probability per
edge order and membership type.  Types are weak compositions: the counts
of an edge's members per community.  We build a two-community model with a
graph layer and a triple layer, sample it, and look at what came out.
"""

import numpy as np

import hypersbm as hs

n = 400
alpha = [0.6, 0.4]

# Unscaled rates: an edge of order m and type w appears with probability
# rate * log(n) / C(n-1, m-1).  "within" applies when all members share a
# community, "cross" otherwise.
coeffs = {
    2: hs.two_level_coefficients(2, {2: 10.0}, {2: 2.0})[2],
    3: hs.two_level_coefficients(2, {3: 14.0}, {3: 3.0})[3],
}
tensors = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)

print("edge types by order:")
for m in tensors.orders:
    for w, q in zip(hs.weak_compositions(m, 2), tensors.q[m]):
        print(f"  order {m}, type {w}: probability {q:.5f}")

truth = hs.sample_membership(n, alpha, seed=1)
print("\ncommunity sizes:", np.bincount(truth))

h = hs.sample_hypergraph(n, truth, tensors, seed=2)
for m in h.orders:
    print(f"order-{m} edges: {h.num_edges(m)}")

degrees = h.degrees()
print(f"degrees: mean {degrees.mean():.1f}, max {degrees.max()}")
rho = hs.max_expected_degree(tensors, alpha, n)
print(f"model's maximum expected degree: {rho:.1f}")

# the adjacency matrix counts, for every vertex pair, the edges containing both
a = hs.adjacency_matrix(h)
print(f"adjacency: {a.nnz} nonzero entries, max pair count {int(a.upper.max())}")

# type counts split each vertex's edges by the type of the other members
type_counts = hs.edge_type_count_matrix(h, truth, 2)
print(f"\nvertex 0 (community {truth[0]}), degree {degrees[0]}:")
for m in h.orders:
    for w, c in zip(hs.weak_compositions(m - 1, 2), type_counts[m][0]):
        if c:
            print(f"  {c} order-{m} edges whose other members realize {w}")

# hypergraphs and memberships round-trip through a plain text format
hs.write_hypergraph(h, "/tmp/demo_hypergraph.txt")
hs.write_membership(truth, "/tmp/demo_truth.txt")
back = hs.read_hypergraph("/tmp/demo_hypergraph.txt")
assert back.num_edges() == h.num_edges()
print("\nwrote /tmp/demo_hypergraph.txt and /tmp/demo_truth.txt")
