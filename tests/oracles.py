"""Brute-force oracles that the library's vectorised kernels are checked
against.  Each one follows its definition literally, row by row."""

import math
from itertools import permutations

import numpy as np

from hypersbm.compositions import composition_index, weak_compositions
from hypersbm.model import adjacency_matrix
from hypersbm.pipeline import CommunityCountEstimate, confusion_matrix
from hypersbm.spectral import rank_k_approx


def type_counts_bruteforce(h, labels, v: int, k: int) -> dict:
    """Per order m, the number of m-edges containing v whose other members
    realize each composition of m-1 (array over weak_compositions(m-1, k))."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = {}
    for m, e in h.edges.items():
        vec = np.zeros(len(weak_compositions(m - 1, k)), dtype=np.int64)
        index = composition_index(m - 1, k)
        for row in e[np.any(e == v, axis=1)]:
            others = row[row != v]
            vec[index[tuple(np.bincount(labels[others], minlength=k))]] += 1
        counts[m] = vec
    return counts


def mismatch_ratio_bruteforce(truth, estimate, k: int) -> float:
    """Exhaustive minimum over all k! label permutations (test oracle)."""
    conf = confusion_matrix(truth, estimate, k)
    n = len(np.asarray(truth))
    best = 0
    for perm in permutations(range(k)):
        best = max(best, sum(conf[a, perm[a]] for a in range(k)))
    return 1.0 - best / n


def count_communities_tight(h) -> CommunityCountEstimate:
    """Eigenvalues of the adjacency above max_degree^(3/4), from the top
    ceil(log n) + 5 eigenpairs all solved to the eigensolver's tight default
    tolerance of 1e-8."""
    threshold = int(h.degrees().max()) ** 0.75
    num = min(h.n, math.ceil(math.log(h.n)) + 5)
    vals = rank_k_approx(adjacency_matrix(h), num).values
    below = np.flatnonzero(vals <= threshold)
    k_hat = int(below[0]) if len(below) else len(vals)
    return CommunityCountEstimate(k_hat=k_hat, eigenvalues=vals, threshold=threshold)
