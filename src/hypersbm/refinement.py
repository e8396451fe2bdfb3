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

from .compositions import (capacity_vector, member_drop_table, member_lift_table,
                           num_weak_compositions)
from .model import Hypergraph, ProbabilityTensors, validate_prior


# ---------------------------------------------------------------------------
# Vectorized type counting
# ---------------------------------------------------------------------------

def _edge_types(edge_labels: np.ndarray, k: int) -> np.ndarray:
    """Canonical type index of each edge from its members' labels (E, m).

    The type of the first member alone is its label; each further member
    lifts the type of the members before it through ``member_lift_table``.
    """
    types = edge_labels[:, 0].astype(np.int64)
    for j in range(1, edge_labels.shape[1]):
        lift = member_lift_table(j + 1, k)
        types = np.take(lift, edge_labels[:, j] * lift.shape[1] + types)
    return types


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
        index = labels[e]  # member labels, then flat indices into the drop table
        index += k * _edge_types(index, k)[:, None]
        width = num_weak_compositions(m - 1, k)
        slots = np.multiply(e, width, dtype=np.int64)
        slots += np.take(member_drop_table(m, k), index)
        out[m] = np.bincount(slots.ravel(), minlength=h.n * width).reshape(h.n, width)
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
        """(log q, log(1-q)) arrays for order m, both 0 at undefined types
        so that those add nothing to a likelihood score."""
        floor = 1.0 / (2.0 * np.maximum(self.capacities[m], 1.0))
        clamped = np.clip(self.values[m], floor, 1.0 - floor)
        log_q, log_1mq = np.log(clamped), np.log1p(-clamped)
        undefined = ~self.defined[m]
        log_q[undefined] = log_1mq[undefined] = 0.0
        return log_q, log_1mq


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

def _likelihood_scores(h, labels, k, logs):
    """Score matrix (n, k): for each vertex and candidate community, the
    Bernoulli log-likelihood of its incident-edge type counts, given the
    (log q, log(1-q)) pair of each order in ``logs``."""
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(labels, minlength=k)
    type_counts = edge_type_count_matrix(h, labels, k)
    scores = np.zeros((h.n, k))
    missing = set(h.orders) - set(logs)
    if missing:
        raise ValueError(f"no probabilities for orders {sorted(missing)}")
    for m in h.orders:
        caps = capacity_vector(m - 1, k, sizes)
        lift = member_lift_table(m, k)
        log_q, log_1mq = logs[m]
        lq, l1 = log_q[lift], log_1mq[lift]
        scores += type_counts[m] @ (lq - l1).T + l1 @ caps
    return scores


def refine_step(h: Hypergraph, labels, estimated: EstimatedTensors,
                seed: int = 0, step: int = 0) -> np.ndarray:
    """One synchronous reassignment of every vertex to its argmax community.

    Ties are broken uniformly at random with a draw keyed by
    (seed, step, vertex), so any evaluation order gives the same labels.
    """
    logs = {m: estimated.clamped_logs(m) for m in estimated.orders}
    scores = _likelihood_scores(h, labels, estimated.k, logs)
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
    a fixed point.  Returns (labels, rounds_run, converged), where converged
    is False when the last round still moved labels (the round cap hit)."""
    labels = np.asarray(labels0, dtype=np.int64).copy()
    estimated = estimate_tensors(h, labels, k)
    max_rounds = math.ceil(math.log(h.n)) + 1
    for step in range(max_rounds):
        new_labels = refine_step(h, labels, estimated, seed=seed, step=step)
        if np.array_equal(new_labels, labels):
            return labels, step + 1, True
        labels = new_labels
    return labels, max_rounds, False


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
    for m in tensors.orders:
        q = tensors.q[m]
        if np.any(q <= 0.0) or np.any(q >= 1.0):
            raise ValueError(f"order {m}: probabilities must be strictly inside (0, 1)")
    logs = {m: (np.log(q), np.log1p(-q)) for m, q in tensors.q.items()}
    scores = _likelihood_scores(h, labels0, tensors.k, logs)
    scores += np.log(alpha)[None, :]
    return np.argmax(scores, axis=1).astype(np.int64)
