"""Non-uniform hypergraph block models: parameters, sampling, and summaries.

A model is a community prior ``alpha`` over k communities plus, for each
edge order m in a finite set of orders, one inclusion probability per
membership type (weak composition of m).  A sampled hypergraph is a union
of per-order edge lists; every candidate m-subset of vertices is present
independently with the probability attached to its type.

Vertices and community labels are 0-based throughout the library; the text
file formats use 1-based ids.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .compositions import (
    add_member,
    capacity,
    composition_index,
    expected_capacity_vector,
    member_lift_table,
    weak_compositions,
)


def validate_prior(alpha) -> np.ndarray:
    """Check a community prior: strictly positive entries summing to 1."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("prior must be a nonempty 1-d vector")
    if np.any(alpha <= 0):
        raise ValueError("prior entries must be strictly positive")
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise ValueError(f"prior must sum to 1, got {alpha.sum()!r}")
    return alpha


@dataclass(frozen=True)
class ProbabilityTensors:
    """Per-order edge probabilities collapsed by membership type.

    ``q[m]`` is an array over weak_compositions(m, k) in canonical order
    holding the inclusion probability for each type.  When built from
    unscaled coefficients, ``p[m]`` holds the coefficients and ``scale_n``
    the vertex count used for the log(n)/C(n-1, m-1) scaling.
    """

    k: int
    q: dict
    p: dict = field(default=None)
    scale_n: int = field(default=None)

    def __post_init__(self):
        converted = {}
        for m, vals in self.q.items():
            vals = np.asarray(vals, dtype=float)
            if vals.shape != (len(weak_compositions(m, self.k)),):
                raise ValueError(f"order {m}: expected one value per composition")
            if np.any(vals < 0) or np.any(vals > 1):
                raise ValueError(f"order {m}: probabilities must lie in [0, 1]")
            converted[int(m)] = vals
        object.__setattr__(self, "q", converted)

    @classmethod
    def from_unscaled(cls, k: int, coefficients: dict, n: int) -> "ProbabilityTensors":
        """Build probabilities q = coeff * log(n) / C(n-1, m-1) per order.

        Raises if any scaled value leaves [0, 1].
        """
        if n < 2:
            raise ValueError("need n >= 2 to scale coefficients")
        q = {}
        p = {}
        for m, vals in coefficients.items():
            vals = np.asarray(vals, dtype=float)
            if np.any(vals < 0):
                raise ValueError(f"order {m}: coefficients must be nonnegative")
            q[m] = vals * (math.log(n) / math.comb(n - 1, m - 1))
            p[m] = vals.copy()
        return cls(k=k, q=q, p=p, scale_n=n)

    @property
    def orders(self) -> list:
        return sorted(self.q)

    @property
    def max_order(self) -> int:
        return max(self.q)

    def value(self, m: int, w: tuple) -> float:
        """Probability for an order-m edge of type w."""
        return float(self.q[m][composition_index(m, self.k)[w]])

    def unscaled(self, m: int) -> np.ndarray:
        """Coefficient array for order m (q recovered via the log(n) scaling)."""
        if self.p is None:
            raise ValueError("tensors were not built from unscaled coefficients")
        return self.p[m]

    def scaled_by(self, factor: float) -> "ProbabilityTensors":
        """New tensors with every probability multiplied by ``factor``."""
        q = {m: vals * factor for m, vals in self.q.items()}
        p = None if self.p is None else {m: vals * factor for m, vals in self.p.items()}
        return ProbabilityTensors(k=self.k, q=q, p=p, scale_n=self.scale_n)

    def restricted(self, orders) -> "ProbabilityTensors":
        """New tensors keeping only the given orders."""
        orders = set(orders)
        missing = orders - set(self.q)
        if missing:
            raise ValueError(f"orders {sorted(missing)} not present")
        q = {m: self.q[m].copy() for m in orders}
        p = None if self.p is None else {m: self.p[m].copy() for m in orders}
        return ProbabilityTensors(k=self.k, q=q, p=p, scale_n=self.scale_n)


def two_level_coefficients(k: int, within: dict, cross: dict) -> dict:
    """Assortative coefficient arrays: ``within`` when all members share one
    community, ``cross`` for every mixed type.  Both arguments map order m to
    a scalar."""
    if set(within) != set(cross):
        raise ValueError("within and cross must cover the same orders")
    out = {}
    for m, a in within.items():
        b = cross[m]
        vals = np.full(len(weak_compositions(m, k)), float(b))
        for i, w in enumerate(weak_compositions(m, k)):
            if max(w) == m:
                vals[i] = float(a)
        out[m] = vals
    return out


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypergraph:
    """A union of uniform layers on n vertices.

    ``edges[m]`` is an integer array of shape (E_m, m); each row is a
    strictly increasing vertex tuple and rows are lexicographically sorted.
    Orders with no realized edges keep an empty array so the layer structure
    of the model is preserved.
    """

    n: int
    edges: dict

    @property
    def orders(self) -> list:
        return sorted(self.edges)

    def num_edges(self, m: int = None) -> int:
        if m is not None:
            return len(self.edges[m])
        return sum(len(e) for e in self.edges.values())

    def degrees(self) -> np.ndarray:
        """Number of incident edges per vertex (each edge counted once)."""
        d = np.zeros(self.n, dtype=np.int64)
        for e in self.edges.values():
            if len(e):
                d += np.bincount(e.ravel(), minlength=self.n)
        return d

    def validate(self) -> None:
        for m, e in self.edges.items():
            if m < 2:
                raise ValueError(f"edge order must be >= 2, got {m}")
            e = np.asarray(e)
            if e.size == 0:
                continue
            if e.ndim != 2 or e.shape[1] != m:
                raise ValueError(f"order {m}: edge array must have {m} columns")
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError(f"order {m}: vertex id out of range")
            if np.any(np.diff(e, axis=1) <= 0):
                raise ValueError(f"order {m}: rows must be strictly increasing")
            if len(np.unique(e, axis=0)) != len(e):
                raise ValueError(f"order {m}: duplicate edges")


def _canonical_edge_array(rows: np.ndarray, m: int) -> np.ndarray:
    """Sort vertices within rows, then rows lexicographically."""
    if len(rows) == 0:
        return np.empty((0, m), dtype=np.int64)
    rows = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def make_hypergraph(n: int, edges: dict) -> Hypergraph:
    """Build a validated hypergraph from per-order edge lists (any row order)."""
    canon = {int(m): _canonical_edge_array(np.asarray(e).reshape(-1, m), int(m))
             for m, e in edges.items()}
    h = Hypergraph(n=int(n), edges=canon)
    h.validate()
    return h


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_membership(n: int, alpha, seed=None, exact_sizes: bool = False) -> np.ndarray:
    """Community labels for n vertices.

    Default: iid draws from the prior.  With ``exact_sizes`` the community
    sizes are pinned to floor(alpha_l * n) (leftover vertices go to the
    communities with the largest fractional parts) and positions shuffled.
    """
    alpha = validate_prior(alpha)
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    k = len(alpha)
    if not exact_sizes:
        return rng.choice(k, size=n, p=alpha).astype(np.int64)
    sizes = np.floor(alpha * n).astype(int)
    frac = alpha * n - sizes
    for l in np.argsort(-frac, kind="stable")[: n - sizes.sum()]:
        sizes[l] += 1
    labels = np.repeat(np.arange(k), sizes)
    rng.shuffle(labels)
    return labels.astype(np.int64)


# Largest composition-class size the stratified sampler will handle; int64
# rank arithmetic is exact below this (desk scale n <= 5000, m <= 4 is far
# below it).
MAX_CLASS_SIZE = 2**62


def _binomial_table(max_n: int, k: int) -> np.ndarray:
    """C(j, k) for j = 0..max_n."""
    return np.array([math.comb(j, k) for j in range(max_n + 1)], dtype=np.int64)


def _unrank_combinations(ranks: np.ndarray, s: int, k: int) -> np.ndarray:
    """Decode combination ranks into k-subsets of range(s), colex order.

    A combination c_1 < ... < c_k has rank sum_i C(c_i, i); decoding finds
    the largest feasible c_i at each level.  Vectorized over ranks.
    """
    out = np.empty((len(ranks), k), dtype=np.int64)
    rem = ranks.astype(np.int64)
    for i in range(k, 0, -1):
        table = _binomial_table(s - 1, i)
        c = np.searchsorted(table, rem, side="right") - 1
        out[:, i - 1] = c
        rem = rem - table[c]
    return out


def _sample_distinct(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Uniform random subset of ``count`` distinct integers from range(total)."""
    if count > total:
        raise ValueError("cannot draw more distinct values than exist")
    if count == total:
        return np.arange(total, dtype=np.int64)
    if total <= 4_000_000:
        return rng.choice(total, size=count, replace=False).astype(np.int64)
    # Rejection sampling: keep first-appearance order and truncate, which is
    # distributionally a uniform subset since duplicates carry no information.
    seen = {}
    while len(seen) < count:
        batch = rng.integers(0, total, size=max(count - len(seen), 1024))
        for v in batch:
            if v not in seen:
                seen[int(v)] = None
                if len(seen) == count:
                    break
    return np.fromiter(seen.keys(), dtype=np.int64, count=count)


def sample_hypergraph(n: int, labels, tensors: ProbabilityTensors, seed=None) -> Hypergraph:
    """Sample a hypergraph given labels, stratified by membership type.

    For each order and each type, the number of realized edges is drawn
    from Binomial(capacity, q) and that many candidate edges are chosen
    uniformly without replacement, which is distributionally identical to
    independent per-edge coin flips over all C(n, m) subsets.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels must have length n")
    k = tensors.k
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels out of range for tensor community count")
    rng = np.random.default_rng(seed)
    blocks = [np.flatnonzero(labels == l) for l in range(k)]
    sizes = [len(b) for b in blocks]
    edges = {}
    for m in tensors.orders:
        qvals = tensors.q[m]
        chunks = []
        for idx, w in enumerate(weak_compositions(m, k)):
            q = float(qvals[idx])
            cap = capacity(w, sizes)
            if cap == 0 or q == 0.0:
                continue
            if cap > MAX_CLASS_SIZE:
                raise ValueError(
                    f"order {m} type {w}: class size {cap} exceeds the sampler limit")
            count = cap if q >= 1.0 else int(rng.binomial(cap, q))
            if count == 0:
                continue
            ranks = _sample_distinct(rng, cap, count)
            # Mixed-radix split of the class rank into per-community ranks.
            parts = np.empty((count, m), dtype=np.int64)
            col = 0
            rem = ranks
            for l in range(k):
                if w[l] == 0:
                    continue
                radix = math.comb(sizes[l], w[l])
                rem, digit = np.divmod(rem, radix)
                local = _unrank_combinations(digit, sizes[l], w[l])
                parts[:, col:col + w[l]] = blocks[l][local]
                col += w[l]
            chunks.append(parts)
        stacked = np.vstack(chunks) if chunks else np.empty((0, m), dtype=np.int64)
        edges[m] = _canonical_edge_array(stacked, m)
    return Hypergraph(n=n, edges=edges)


# ---------------------------------------------------------------------------
# Matrix and degree summaries
# ---------------------------------------------------------------------------

def adjacency_matrix(h: Hypergraph) -> sp.csr_matrix:
    """Symmetric pair-incidence counts: entry (i, j) is the number of edges
    containing both i and j; the diagonal is zero."""
    rows, cols = [], []
    for m, e in h.edges.items():
        if len(e) == 0:
            continue
        for a in range(m):
            for b in range(a + 1, m):
                rows.append(e[:, a])
                cols.append(e[:, b])
    if not rows:
        return sp.csr_matrix((h.n, h.n), dtype=np.int64)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = np.ones(len(r), dtype=np.int64)
    upper = sp.coo_matrix((data, (r, c)), shape=(h.n, h.n)).tocsr()
    return upper + upper.T


def expected_adjacency(labels, tensors: ProbabilityTensors) -> np.ndarray:
    """Exact mean of the adjacency matrix conditional on the labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    k = tensors.k
    block_counts = np.bincount(labels, minlength=k)
    pair_value = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            val = 0.0
            for m in tensors.orders:
                if m < 2:
                    continue
                qvals = tensors.q[m]
                index = composition_index(m, k)
                sizes = block_counts.copy()
                sizes[a] -= 1
                sizes[b] -= 1
                if sizes.min() < 0:
                    continue
                for w in weak_compositions(m - 2, k):
                    cap = capacity(w, sizes)
                    if cap:
                        t = add_member(add_member(w, a), b)
                        val += cap * qvals[index[t]]
            pair_value[a, b] = pair_value[b, a] = val
    ea = pair_value[labels[:, None], labels[None, :]]
    np.fill_diagonal(ea, 0.0)
    return ea


def expected_degrees_by_community(tensors: ProbabilityTensors, alpha, n: int) -> np.ndarray:
    """Expected incident-edge count for a vertex of each community, using
    idealized community sizes floor(alpha_l * n)."""
    alpha = validate_prior(alpha)
    k = tensors.k
    out = np.zeros(k)
    for m in tensors.orders:
        caps = expected_capacity_vector(m - 1, k, alpha, n)
        lift = member_lift_table(m, k)
        for c in range(k):
            out[c] += float(caps @ tensors.q[m][lift[c]])
    return out


def max_expected_degree(tensors: ProbabilityTensors, alpha, n: int) -> float:
    """Largest expected degree over communities (the model's degree scale)."""
    return float(expected_degrees_by_community(tensors, alpha, n).max())


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def write_hypergraph(h: Hypergraph, path) -> None:
    """Write the text format: header ``n=<n> orders=<m1,m2,...>`` then one
    edge per line as ``<m> v1 ... vm`` with 1-based, increasing ids."""
    with open(path, "w") as fh:
        orders = ",".join(str(m) for m in h.orders)
        fh.write(f"n={h.n} orders={orders}\n")
        for m in h.orders:
            for row in h.edges[m]:
                fh.write(f"{m} " + " ".join(str(v + 1) for v in row) + "\n")


def read_hypergraph(path) -> Hypergraph:
    """Parse and validate the hypergraph text format."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
        if "n" not in fields or "orders" not in fields:
            raise ValueError(f"{path}: header must read 'n=<n> orders=<m1,m2,...>', "
                             f"got {header!r}")
        n = int(fields["n"])
        orders = [int(t) for t in fields["orders"].split(",") if t]
        rows = {m: [] for m in orders}
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            m = int(parts[0])
            if m not in rows:
                raise ValueError(f"line {line_no}: order {m} not declared in header")
            if len(parts) != m + 1:
                raise ValueError(f"line {line_no}: expected {m} vertex ids")
            rows[m].append([int(t) - 1 for t in parts[1:]])
    edges = {m: np.asarray(r, dtype=np.int64).reshape(-1, m) for m, r in rows.items()}
    h = Hypergraph(n=n, edges={m: _canonical_edge_array(e, m) for m, e in edges.items()})
    h.validate()
    return h


def write_membership(labels, path) -> None:
    """One 1-based community label per line."""
    with open(path, "w") as fh:
        for z in np.asarray(labels, dtype=np.int64):
            fh.write(f"{z + 1}\n")


def read_membership(path) -> np.ndarray:
    with open(path) as fh:
        labels = np.array([int(line) - 1 for line in fh if line.strip()], dtype=np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be positive (1-based) in files")
    return labels
