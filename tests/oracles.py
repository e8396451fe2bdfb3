"""Brute-force oracles that the library's vectorised kernels are checked
against.  Each one follows its definition literally, row by row."""

import math
from itertools import permutations

import numpy as np

from hypersbm.compositions import composition_index, weak_compositions
from hypersbm.model import Hypergraph, adjacency_matrix
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


def canonical_edge_array_lexsort(rows, m: int) -> np.ndarray:
    """Sort vertices within rows, then rows lexicographically with an m-key
    lexsort (the reference for model._canonical_edge_array)."""
    if len(rows) == 0:
        return np.empty((0, m), dtype=np.int64)
    rows = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def sample_distinct_dict(rng, total: int, count: int) -> np.ndarray:
    """Rejection sampling one value at a time through a dict: batches of
    max(count - found, 1024) draws, each value kept at its first appearance,
    stopping at ``count`` (the reference for model._sample_distinct above its
    4M-candidate cutoff).  Returns the values in order of first appearance."""
    seen = {}
    while len(seen) < count:
        batch = rng.integers(0, total, size=max(count - len(seen), 1024))
        for v in batch:
            if v not in seen:
                seen[int(v)] = None
                if len(seen) == count:
                    break
    return np.fromiter(seen.keys(), dtype=np.int64, count=count)


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


def read_hypergraph_lines(path) -> Hypergraph:
    """Parse and validate the hypergraph text format one line at a time
    with int() (the reference for model.read_hypergraph)."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
        try:
            n = int(fields["n"])
            orders = [int(t) for t in fields["orders"].split(",") if t]
        except (KeyError, ValueError):
            raise ValueError(f"{path}: header must read 'n=<n> orders=<m1,m2,...>', "
                             f"got {header!r}") from None
        if n < 1 or min(orders, default=2) < 2:
            raise ValueError(f"{path}: line 1: need n >= 1 and orders >= 2, got {header!r}")
        rows = {m: [] for m in orders}
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                m = int(parts[0])
                row = [int(t) - 1 for t in parts[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: order and vertex ids must be "
                                 f"integers, got {line.strip()!r}") from None
            if m not in rows:
                raise ValueError(f"{path}: line {line_no}: order {m} not declared in header")
            if len(parts) != m + 1:
                raise ValueError(f"{path}: line {line_no}: expected {m} vertex ids")
            if len(set(row)) < m:
                v = min(v for v in row if row.count(v) > 1)
                raise ValueError(f"{path}: line {line_no}: vertex id {v + 1} repeated, "
                                 f"got {line.strip()!r}")
            rows[m].append(row)
    edges = {m: np.asarray(r, dtype=np.int64).reshape(-1, m) for m, r in rows.items()}
    h = Hypergraph(n=n, edges={m: canonical_edge_array_lexsort(e, m)
                               for m, e in edges.items()})
    try:
        h.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return h


def read_membership_lines(path) -> np.ndarray:
    """Parse one 1-based community label per line with int(); blank lines
    are skipped (the reference for model.read_membership)."""
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                labels.append(int(line) - 1)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: label must be an integer, "
                                 f"got {line.strip()!r}") from None
    labels = np.array(labels, dtype=np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError(f"{path}: labels must be positive (1-based) in files")
    return labels
