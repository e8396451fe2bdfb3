"""Stage-II machinery: estimation, likelihood refinement, and correction.

Given a weakly consistent initial labelling, the agnostic route estimates
every edge probability by its empirical frequency and then reassigns each
vertex to the community maximizing its Bernoulli log-likelihood, repeating
for about log(n) synchronous rounds.  The known-parameter route instead
splits the hypergraph once, initializes on one part, and corrects each
vertex on the other part by maximum a posteriori, so the correction sees
edges that are independent of the initial labels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .compositions import (capacity_vector, composition_rank, member_drop_table,
                           member_lift_table, num_weak_compositions)
from .model import Hypergraph, ProbabilityTensors, validate_prior


# ---------------------------------------------------------------------------
# Vectorized type counting
# ---------------------------------------------------------------------------

def _edge_types(edge_labels: np.ndarray, k: int) -> np.ndarray:
    """Canonical type index of each edge from its members' labels (E, m)."""
    num, m = edge_labels.shape
    slots = np.arange(num, dtype=np.int64)[:, None] * k + edge_labels
    counts = np.bincount(slots.ravel(), minlength=num * k).reshape(num, k)
    return composition_rank(counts, m)


def edge_composition_counts(h: Hypergraph, labels, k: int) -> dict:
    """Number of realized edges per membership type, for each order."""
    labels = np.asarray(labels, dtype=np.int64)
    return {m: np.bincount(_edge_types(labels[e], k), minlength=num_weak_compositions(m, k))
            for m, e in h.edges.items()}


def edge_type_count_matrix(h: Hypergraph, labels, k: int) -> dict:
    """Per vertex and order, counts of incident edges by the membership type
    of the other members.  Entry [v, i] of the order-m matrix counts m-edges
    containing v whose remaining m-1 members realize the i-th composition."""
    labels = np.asarray(labels, dtype=np.int64)
    out = {}
    for m, e in h.edges.items():
        edge_labels = labels[e]
        others = member_drop_table(m, k)[_edge_types(edge_labels, k)[:, None], edge_labels]
        width = num_weak_compositions(m - 1, k)
        slots = (e * width + others).ravel()
        out[m] = np.bincount(slots, minlength=h.n * width).reshape(h.n, width)
    return out


# ---------------------------------------------------------------------------
# Estimated probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatedTensors:
    """Empirical edge probabilities with their supporting counts.

    ``values[m][i]`` is observed/capacity for the i-th type (nan when the
    capacity under the labelling is zero); ``defined[m]`` marks usable
    entries.  Logarithms are taken after clamping to
    [1/(2 capacity), 1 - 1/(2 capacity)], the resolution of the estimator,
    so empirical zeros and ones stay finite.
    """

    k: int
    counts: dict
    capacities: dict
    values: dict
    defined: dict

    @property
    def orders(self):
        return sorted(self.values)

    def clamped_logs(self, m: int):
        """(log q, log(1-q), defined) arrays for order m."""
        cap = self.capacities[m]
        defined = self.defined[m]
        vals = self.values[m].copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            floor = np.where(defined, 1.0 / (2.0 * np.maximum(cap, 1.0)), 0.5)
        clamped = np.clip(vals, floor, 1.0 - floor)
        clamped[~defined] = 0.5  # placeholder; masked out by callers
        return np.log(clamped), np.log1p(-clamped), defined


def estimate_tensors(h: Hypergraph, labels, k: int) -> EstimatedTensors:
    """Empirical per-type edge probabilities under a labelling: realized
    edge count divided by the capacity of the type."""
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(labels, minlength=k)
    counts = edge_composition_counts(h, labels, k)
    capacities, values, defined = {}, {}, {}
    for m in h.orders:
        caps = capacity_vector(m, k, sizes)
        ok = caps > 0
        vals = np.full(len(caps), np.nan)
        vals[ok] = counts[m][ok] / caps[ok]
        capacities[m], values[m], defined[m] = caps, vals, ok
    return EstimatedTensors(k=k, counts=counts, capacities=capacities,
                            values=values, defined=defined)


# ---------------------------------------------------------------------------
# Iterative likelihood refinement
# ---------------------------------------------------------------------------

def _likelihood_scores(h, labels, k, log_q, log_1mq, defined_by_order):
    """Score matrix (n, k): for each vertex and candidate community, the
    Bernoulli log-likelihood of its incident-edge type counts."""
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(labels, minlength=k)
    type_counts = edge_type_count_matrix(h, labels, k)
    scores = np.zeros((h.n, k))
    missing = set(h.orders) - set(log_q)
    if missing:
        raise ValueError(f"no probabilities for orders {sorted(missing)}")
    for m in h.orders:
        caps = capacity_vector(m - 1, k, sizes)
        lift = member_lift_table(m, k)
        lq = log_q[m][lift]
        l1 = log_1mq[m][lift]
        usable = defined_by_order[m][lift]
        lq = np.where(usable, lq, 0.0)
        l1 = np.where(usable, l1, 0.0)
        scores += type_counts[m] @ (lq - l1).T + l1 @ caps
    return scores


def refine_step(h: Hypergraph, labels, estimated: EstimatedTensors,
                seed: int = 0, step: int = 0) -> np.ndarray:
    """One synchronous reassignment of every vertex to its argmax community.

    Ties are broken uniformly at random with a draw keyed by
    (seed, step, vertex), so any evaluation order gives the same labels.
    """
    k = estimated.k
    log_q, log_1mq, defined = {}, {}, {}
    for m in estimated.orders:
        log_q[m], log_1mq[m], defined[m] = estimated.clamped_logs(m)
    scores = _likelihood_scores(h, labels, k, log_q, log_1mq, defined)
    row_max = scores.max(axis=1)
    new_labels = np.argmax(scores, axis=1).astype(np.int64)
    tie_rows = np.flatnonzero((scores == row_max[:, None]).sum(axis=1) > 1)
    for v in tie_rows:
        options = np.flatnonzero(scores[v] == row_max[v])
        pick = np.random.default_rng([seed, step, int(v)]).integers(len(options))
        new_labels[v] = options[pick]
    return new_labels


def agnostic_refine(h: Hypergraph, labels0, k: int, seed: int = 0):
    """Estimate edge probabilities once from the initial labelling, then
    refine for at most ceil(log n) + 1 synchronous rounds, stopping early at
    a fixed point.  Returns (labels, rounds_run)."""
    labels = np.asarray(labels0, dtype=np.int64).copy()
    estimated = estimate_tensors(h, labels, k)
    max_rounds = math.ceil(math.log(h.n)) + 1
    rounds = 0
    for step in range(max_rounds):
        new_labels = refine_step(h, labels, estimated, seed=seed, step=step)
        rounds += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, rounds


# ---------------------------------------------------------------------------
# Splitting and MAP correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    """Edge partition of a hypergraph into an initialization part and an
    independent correction part."""

    first: Hypergraph
    second: Hypergraph
    probability: float  # chance that an edge lands in ``first``


def split(h: Hypergraph, theta: float, seed=None) -> Split:
    """Assign each edge independently to the first part with probability
    theta / log(n), else to the second part."""
    p = theta / math.log(h.n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability {p:.4g} outside [0, 1]")
    rng = np.random.default_rng(seed)
    first, second = {}, {}
    for m, e in h.edges.items():
        mask = rng.random(len(e)) < p
        first[m] = e[mask]
        second[m] = e[~mask]
    return Split(first=Hypergraph(h.n, first), second=Hypergraph(h.n, second),
                 probability=p)


def map_correct(h: Hypergraph, labels0, tensors: ProbabilityTensors, alpha) -> np.ndarray:
    """Posterior-maximizing relabelling of each vertex given everyone else.

    Scores candidate community c for vertex v by log prior(c) plus the
    Bernoulli log-likelihood of v's incident-edge type counts under the
    given probabilities, with type capacities taken from the labelling of
    the other vertices.  Ties go to the smallest community index.  Only
    edges containing v matter, so all vertices are corrected independently.
    """
    labels0 = np.asarray(labels0, dtype=np.int64)
    alpha = validate_prior(alpha)
    k = tensors.k
    for m in tensors.orders:
        q = tensors.q[m]
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError(f"order {m}: probabilities must be strictly inside (0, 1)")
    log_q = {m: np.log(tensors.q[m]) for m in tensors.orders}
    log_1mq = {m: np.log1p(-tensors.q[m]) for m in tensors.orders}
    defined = {m: np.ones(len(tensors.q[m]), dtype=bool) for m in tensors.orders}
    scores = _likelihood_scores(h, labels0, k, log_q, log_1mq, defined)
    scores += np.log(alpha)[None, :]
    return np.argmax(scores, axis=1).astype(np.int64)
