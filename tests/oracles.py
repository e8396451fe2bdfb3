"""Brute-force oracles that the library's vectorised kernels are checked
against.  Each one follows its definition literally, row by row."""

from itertools import permutations

import numpy as np

from hypersbm.compositions import composition_index, weak_compositions
from hypersbm.pipeline import confusion_matrix


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
