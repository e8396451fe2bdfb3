"""End-to-end recovery pipelines, evaluation, and community counting.

Two routes to exact recovery: the agnostic pipeline (mean-degree trimming,
ball-peeling initialization, iterative likelihood refinement with estimated
probabilities) and the known-parameter pipeline (edge splitting, degree-cap
trimming, initialization on one part, MAP correction on the other).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDegreeError
from .model import (
    Hypergraph,
    ProbabilityTensors,
    adjacency_matrix,
    live_adjacency,
    max_expected_degree,
    validate_prior,
)
from .refinement import agnostic_refine, map_correct, split
from .spectral import (
    default_radius,
    keep_by_degree_cap,
    keep_by_mean_degree,
    prior_degree_cap,
    radius_from_degree_scale,
    rank_k_approx,
    spectral_init,
    trim,
)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def confusion_matrix(truth, estimate, k: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    estimate = np.asarray(estimate, dtype=np.int64)
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (truth, estimate), 1)
    return out


def _max_assignment(weights):
    """Rows and columns of a maximum-weight perfect matching of a square
    integer matrix, as ``(arange(k), cols)``.

    Shortest augmenting paths (Crouse 2016) on the negated weights, one row
    at a time, with the tie-breaking of ``scipy.optimize.linear_sum_assignment``:
    the remaining columns start as k-1..0, a picked column is replaced by
    the last remaining one, and among the columns of lowest path cost the
    last unassigned one wins, else the first.  Integer weights keep every
    sum exact, so the matching is the one that function returns.
    """
    cost = -np.asarray(weights, dtype=np.float64)
    k = cost.shape[0]
    u = np.zeros(k)
    v = np.zeros(k)
    col4row = np.full(k, -1, dtype=np.int64)
    row4col = np.full(k, -1, dtype=np.int64)
    path = np.full(k, -1, dtype=np.int64)
    for cur in range(k):
        spc = np.full(k, np.inf)
        in_sr = np.zeros(k, dtype=bool)
        in_sc = np.zeros(k, dtype=bool)
        remaining = np.arange(k - 1, -1, -1)
        count = k
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            in_sr[i] = True
            rem = remaining[:count]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            better = r < spc[rem]
            path[rem[better]] = i
            spc[rem[better]] = r[better]
            costs = spc[rem]
            min_val = costs.min()
            ties = np.flatnonzero(costs == min_val)
            free = ties[row4col[rem[ties]] < 0]
            index = free[-1] if len(free) else ties[0]
            j = rem[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            count -= 1
            remaining[index] = remaining[count]
        u[cur] += min_val
        others = np.flatnonzero(in_sr)
        others = others[others != cur]
        u[others] += min_val - spc[col4row[others]]
        v[in_sc] -= min_val - spc[in_sc]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(k), col4row


def mismatch_ratio(truth, estimate, k: int = None):
    """Fraction of misclassified vertices under the best label permutation.

    Solved exactly as an assignment problem on the confusion matrix.
    Returns (ratio, permutation) where permutation[a] is the estimate label
    matched to truth label a.
    """
    truth = np.asarray(truth, dtype=np.int64)
    estimate = np.asarray(estimate, dtype=np.int64)
    if truth.shape != estimate.shape:
        raise ValueError("membership vectors must have equal length")
    if truth.size == 0:
        raise ValueError("need at least one vertex")
    if k is None:
        k = int(max(truth.max(), estimate.max())) + 1
    for name, z in (("truth", truth), ("estimate", estimate)):
        if z.min() < 0 or z.max() >= k:
            raise ValueError(f"{name} labels must lie in [0, {k})")
    conf = confusion_matrix(truth, estimate, k)
    rows, perm = _max_assignment(conf)
    matched = conf[rows, perm].sum()
    return 1.0 - matched / len(truth), perm


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery pipeline with stagewise diagnostics."""

    labels: np.ndarray
    stage1_labels: np.ndarray
    kept: int                # vertices surviving the trimming stage
    iterations: int          # refinement rounds run (0 for the MAP route)
    converged: bool = None   # refinement reached a fixed point (None for the MAP route)
    eta: float = None        # mismatch ratio vs truth, when truth was given
    eta_stage1: float = None
    permutation: np.ndarray = None


def _finish_report(truth, k, labels, stage1, kept, iterations,
                   converged=None) -> RecoveryReport:
    if truth is None:
        return RecoveryReport(labels=labels, stage1_labels=stage1, kept=kept,
                              iterations=iterations, converged=converged)
    eta, perm = mismatch_ratio(truth, labels, k)
    eta1, _ = mismatch_ratio(truth, stage1, k)
    return RecoveryReport(labels=labels, stage1_labels=stage1, kept=kept,
                          iterations=iterations, converged=converged,
                          eta=eta, eta_stage1=eta1,
                          permutation=perm)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def agnostic_partition(h: Hypergraph, k: int, seed: int = 0, truth=None) -> RecoveryReport:
    """Recover communities without knowing the edge probabilities.

    Trims by mean degree, initializes by ball peeling (radius from the
    untrimmed mean degree), then refines with estimated probabilities.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    degrees = h.degrees()
    keep = keep_by_mean_degree(degrees)
    stage1 = spectral_init(trim(adjacency_matrix(h), keep), keep, k,
                           default_radius(degrees), seed=[seed, 1])
    labels, rounds, converged = agnostic_refine(h, stage1, k, seed=seed)
    return _finish_report(truth, k, labels, stage1, int(keep.sum()), rounds, converged)


def partition_with_prior(h: Hypergraph, k: int, tensors: ProbabilityTensors,
                         alpha, seed: int = 0, truth=None,
                         split_adjust: bool = True) -> RecoveryReport:
    """Recover communities with known probabilities and prior.

    Splits edges with retention loglog(n)/log(n), trims the first part by
    the known degree cap, initializes there, and MAP-corrects every vertex
    on the second part.  ``split_adjust`` rescales the probabilities fed to
    the correction by the fraction of edges it actually sees (the
    distributionally correct likelihood); disable to score with the raw
    model probabilities instead.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if h.n < 16:
        raise ValueError(f"known-parameter pipeline needs n >= 16, got {h.n}")
    alpha = validate_prior(alpha)
    theta = math.log(math.log(h.n))
    parts = split(h, theta, seed=[seed, 3])

    tensors0 = tensors.scaled_by(parts.probability)
    cap = prior_degree_cap(tensors0, h.n)
    degrees0 = parts.first.degrees()
    keep = keep_by_degree_cap(degrees0, cap)
    rho0 = max_expected_degree(tensors0, alpha, h.n)
    radius = radius_from_degree_scale(rho0, h.n)
    stage1 = spectral_init(trim(adjacency_matrix(parts.first), keep), keep, k, radius,
                           seed=[seed, 1])

    tensors1 = tensors.scaled_by(1.0 - parts.probability) if split_adjust else tensors
    labels = map_correct(parts.second, stage1, tensors1, alpha)
    return _finish_report(truth, k, labels, stage1, int(keep.sum()), 0)


# ---------------------------------------------------------------------------
# Number of communities
# ---------------------------------------------------------------------------

# Relative residual tolerance of the first eigensolve in k estimation.  ARPACK
# stops once every Ritz value theta has a residual of norm at most this times
# |theta|, so some eigenvalue lies that close to theta.
COUNT_TOL = 0.1


@dataclass(frozen=True)
class CommunityCountEstimate:
    """Eigenvalue-threshold estimate of the number of communities.

    ``k_hat`` counts the adjacency eigenvalues above max_degree^(3/4).
    ``eigenvalues`` holds the computed top of the spectrum, descending, and
    each value is a lower bound on the eigenvalue of its rank.  Only the
    first ``k_hat + 1`` values decide ``k_hat``; the outliers
    ``eigenvalues[:k_hat]`` converge first and are accurate, while deeper
    bulk values may come from a loose solve and sit well below the true
    eigenvalues (see ``estimate_num_communities``).  The threshold is kept
    so borderline gaps can be audited.
    """

    k_hat: int
    eigenvalues: np.ndarray
    threshold: float

    @property
    def gap(self) -> float:
        """Ratio of the last accepted eigenvalue to the threshold."""
        if self.k_hat == 0:
            return 0.0
        return float(self.eigenvalues[self.k_hat - 1] / self.threshold)


def estimate_num_communities(h: Hypergraph, num_eigenvalues: int = None) -> CommunityCountEstimate:
    """Count communities as the eigenvalues of the adjacency matrix larger
    than the 3/4 power of the maximum degree.

    By default only the top ceil(log n) + 5 eigenvalues are computed; pass
    ``num_eigenvalues`` to widen the search (n of them is the full
    spectrum).  If every computed eigenvalue clears the threshold the count
    returned is the number computed (a lower bound).

    Each isolated vertex contributes a zero eigenvalue, which the
    eigensolver does not resolve reliably: the eigenpairs are solved on the
    adjacency of the other vertices, and those zeros merged in.

    The eigenpairs are first solved to a relative residual of ``COUNT_TOL``.
    Each Ritz value is a lower bound on the eigenvalue of its rank, so a
    value above the threshold certifies an eigenvalue above it, and some
    eigenvalue lies within the residual of every value.  That loose solve
    decides the count when every value is more than ``COUNT_TOL`` times its
    own size away from the threshold; otherwise the eigenpairs are solved
    again at the eigensolver's default tolerance of 1e-8, and that spectrum
    is returned.  Either way the outliers above the threshold converge first
    and come out accurate in practice; after a loose solve the bulk values
    past ``k_hat + 1`` are only lower bounds, possibly tens of percent low.
    """
    degrees = h.degrees()
    d_tilde = int(degrees.max())
    if d_tilde == 0:
        raise DegenerateDegreeError("empty hypergraph: maximum degree is zero")
    threshold = d_tilde ** 0.75
    if num_eigenvalues is None:
        num = min(h.n, math.ceil(math.log(h.n)) + 5)
    elif num_eigenvalues < 1:
        raise ValueError(f"need at least one eigenvalue, got {num_eigenvalues}")
    else:
        num = min(h.n, num_eigenvalues)
    live = degrees > 0
    isolated = h.n - int(live.sum())
    a = live_adjacency(h, live) if isolated else adjacency_matrix(h)
    solve = min(num, h.n - isolated)
    vals = rank_k_approx(a, solve, tol=COUNT_TOL).values
    if np.any(np.abs(vals - threshold) <= COUNT_TOL * np.abs(vals)):
        vals = rank_k_approx(a, solve).values
    if isolated:
        zeros = np.zeros(min(num, isolated))
        vals = np.sort(np.concatenate((vals, zeros)))[::-1][:num]
    below = np.flatnonzero(vals <= threshold)
    k_hat = int(below[0]) if len(below) else len(vals)
    return CommunityCountEstimate(k_hat=k_hat, eigenvalues=vals, threshold=threshold)
