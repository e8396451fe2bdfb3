"""Brute-force oracles that the library's vectorised kernels are checked
against.  Each one follows its definition literally, row by row."""

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from hypersbm.compositions import (_binomial_tables, capacity, capacity_vector,
                                   member_lift_table, weak_compositions)
from hypersbm.model import Hypergraph, adjacency_matrix
from hypersbm.pipeline import CommunityCountEstimate, confusion_matrix
from hypersbm.spectral import rank_k_approx


@lru_cache(maxsize=None)
def composition_index(m: int, k: int) -> dict:
    """Map composition tuple -> its position in the canonical order (the
    reference for composition_rank)."""
    return {w: i for i, w in enumerate(weak_compositions(m, k))}


def composition_rank(counts, m: int) -> np.ndarray:
    """Canonical index of each row of per-community counts summing to m.

    Stars and bars: the compositions ahead of w in lex-descending order are
    those that agree with w on parts 0..l-1 and exceed it on part l, and
    there are C(r_l - w_l - 1 + k - l - 1, k - l - 1) of them, where r_l is
    the part of m still left to place at l.  Vectorised over leading axes.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = counts.shape[-1]
    tables = _binomial_tables(m + k - 2, k - 1)
    rank = np.zeros(counts.shape[:-1], dtype=np.int64)
    left = np.full(counts.shape[:-1], m, dtype=np.int64)
    for l in range(k - 1):
        rank += tables[k - l - 1, left - counts[..., l] + k - l - 2]
        left -= counts[..., l]
    return rank


def add_member(w: tuple, label: int) -> tuple:
    """Composition w with one extra member of community ``label`` (0-based).

    This is the edge type seen from a vertex of that community: the counts
    of the other members plus the vertex itself.
    """
    if not 0 <= label < len(w):
        raise ValueError(f"label {label} out of range for {len(w)} communities")
    return w[:label] + (w[label] + 1,) + w[label + 1:]


def expected_capacity(w: tuple, alpha, n: int) -> int:
    """Capacity of type w under idealized community sizes floor(alpha_l * n)."""
    return capacity(w, [int(a * n) for a in alpha])


def tensor_value(tensors, m: int, w: tuple) -> float:
    """Probability for an order-m edge of type w."""
    return float(tensors.q[m][composition_index(m, tensors.k)[w]])


def reconstruct(approx) -> np.ndarray:
    """Dense rank-k reconstruction of a LowRankApprox (small n only)."""
    return (approx.vectors * approx.values) @ approx.vectors.T


def expected_adjacency(labels, tensors) -> np.ndarray:
    """Exact mean of the adjacency matrix conditional on the labels."""
    labels = np.asarray(labels, dtype=np.int64)
    k = tensors.k
    block_counts = np.bincount(labels, minlength=k)
    pair_value = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            sizes = block_counts.copy()
            sizes[a] -= 1
            sizes[b] -= 1
            if sizes.min() < 0:
                continue
            for m in tensors.orders:
                if m >= 2:
                    # the types of the edges holding a given (a, b) pair: every
                    # type of the other m-2 members, lifted by a and then by b
                    types = member_lift_table(m, k)[b, member_lift_table(m - 1, k)[a]]
                    pair_value[a, b] += capacity_vector(m - 2, k, sizes) @ tensors.q[m][types]
            pair_value[b, a] = pair_value[a, b]
    ea = pair_value[labels[:, None], labels[None, :]]
    np.fill_diagonal(ea, 0.0)
    return ea


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


def edge_types_by_counts(edge_labels, k: int) -> np.ndarray:
    """Type index of each edge from its members' labels (E, m): the edge's
    per-community counts, ranked by ``composition_rank`` (the reference for
    refinement._edge_types)."""
    edge_labels = np.asarray(edge_labels, dtype=np.int64)
    num, m = edge_labels.shape
    slots = np.arange(num, dtype=np.int64)[:, None] * k + edge_labels
    counts = np.bincount(slots.ravel(), minlength=num * k).reshape(num, k)
    return composition_rank(counts, m)


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


def ball_table_rowwise(emb, kept, centers, radius: float) -> np.ndarray:
    """Ball membership of the kept vertices around each center, one center
    at a time with a row sum of squared gaps (the reference for
    spectral._ball_table)."""
    emb_kept = emb[kept]
    in_ball = np.empty((len(centers), len(kept)), dtype=bool)
    for i, c in enumerate(centers):
        diff = emb[c] - emb_kept
        in_ball[i] = (diff * diff).sum(axis=1) <= radius
    return in_ball


def ball_peeling_rowwise(emb, keep, k: int, radius: float, seed) -> tuple:
    """Labels of spectral_init on a given embedding, recounting every ball's
    unassigned members each round."""
    keep = np.asarray(keep, dtype=bool)
    n = len(keep)
    kept = np.flatnonzero(keep)
    rng = np.random.default_rng(seed)
    sample_size = min(math.ceil(2.0 * math.log(n) ** 2), len(kept))
    centers_pool = np.sort(rng.choice(kept, size=sample_size, replace=False))
    in_ball = ball_table_rowwise(emb, kept, centers_pool, radius)
    labels = np.full(n, -1, dtype=np.int64)
    assigned = np.zeros(len(kept), dtype=bool)
    centers = np.empty(k, dtype=np.int64)
    for c in range(k):
        residual = (in_ball & ~assigned[None, :]).sum(axis=1)
        pick = int(np.argmax(residual))
        centers[c] = centers_pool[pick]
        members = in_ball[pick] & ~assigned
        labels[kept[members]] = c
        assigned |= members
    leftover = kept[~assigned]
    if len(leftover):
        diff = emb[leftover][:, None, :] - emb[centers][None, :, :]
        labels[leftover] = np.argmin((diff * diff).sum(axis=2), axis=1)
    outside = np.flatnonzero(~keep)
    if len(outside):
        labels[outside] = rng.integers(0, k, size=len(outside))
    return labels


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


def adjacency_matrix_coo(n: int, edges: dict, ids=None):
    """Float64 CSR pair counts of the edge arrays on n vertices, vertex v
    renamed ``ids[v]`` when ``ids`` is given, through scipy's COO to CSR
    conversion (the reference for model.adjacency_matrix and
    model.live_adjacency)."""
    import scipy.sparse as sp

    rows, cols = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    for m, e in edges.items():
        if ids is not None:
            e = ids[e]
        for a in range(m):
            for b in range(a + 1, m):
                rows.append(e[:, a])
                cols.append(e[:, b])
    r = np.concatenate(rows, dtype=np.int32)
    c = np.concatenate(cols, dtype=np.int32)
    upper = sp.coo_matrix((np.ones(len(r), dtype=np.int32), (r, c)), shape=(n, n)).tocsr()
    counts = upper + upper.T
    return sp.csr_matrix((counts.data.astype(np.float64), counts.indices, counts.indptr),
                         shape=(n, n))


def live_adjacency_slice(h, live):
    """The adjacency of the vertices in the boolean mask ``live``, sliced
    out of the full matrix."""
    ids = np.flatnonzero(live)
    return adjacency_matrix(h).tocsr()[ids][:, ids]


def write_hypergraph_percent(h, path) -> None:
    """Write the hypergraph text format with one ``%`` template per order
    (the reference for model.write_hypergraph)."""
    with open(path, "wb") as fh:
        fh.write(f"n={h.n} orders={','.join(str(m) for m in h.orders)}\n".encode())
        for m in h.orders:
            rows = np.asarray(h.edges[m], dtype=np.int64).reshape(-1, m) + 1
            template = f"{m}" + " %d" * m + "\n"
            fh.write((template * len(rows) % tuple(rows.ravel().tolist())).encode())


def write_membership_percent(labels, path) -> None:
    """One 1-based label per line with a ``%d`` template (the reference for
    model.write_membership)."""
    labels = np.asarray(labels, dtype=np.int64) + 1
    with open(path, "wb") as fh:
        fh.write(("%d\n" * len(labels) % tuple(labels.tolist())).encode())


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
