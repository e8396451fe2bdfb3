"""Information quantities that locate the exact-recovery phase transition.

The central object is a Chernoff–Hellinger style divergence between two
communities: the best exponential-tilting separation of their degree
profiles, aggregated over all edge orders and membership types.  Exact
recovery of the planted partition is impossible below 1 and efficiently
achievable above 1, so the minimum over community pairs acts as the
threshold of the model.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .compositions import (
    expected_capacity_vector,
    member_lift_table,
    multinomial_weight_vector,
)
from .model import (
    ProbabilityTensors,
    check_coefficients,
    max_expected_degree,
    validate_prior,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width of the bracket at which the golden-section search on [0, 1] stops.
SEARCH_TOL = 1e-9
# Half-width of the band around 1 that ``classify_regime`` calls critical.
CRITICAL_BAND = 1e-3
# Least scaled row gap at which ``center_separation_table`` calls a pair separated.
SEPARATION_EPS = 0.1


def kl_bernoulli(y: float, q: float) -> float:
    """KL divergence between Bernoulli(y) and Bernoulli(q), with 0 log 0 = 0.

    q must lie strictly inside (0, 1); callers clamp empirical estimates.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"mean y={y} outside [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError(f"reference mean q={q} must be in (0, 1)")
    total = 0.0
    if y > 0.0:
        total += y * math.log(y / q)
    if y < 1.0:
        total += (1.0 - y) * math.log((1.0 - y) / (1.0 - q))
    return total


def maximize_concave(f):
    """Golden-section maximum of a concave function on [0, 1], to a bracket
    of ``SEARCH_TOL``.

    Returns (argmax, max).  Both endpoints are evaluated explicitly.
    """
    a, b = 0.0, 1.0
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > SEARCH_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    best = max([(0.0, f(0.0)), (x, f(x)), (1.0, f(1.0))], key=lambda p: p[1])
    return best


def _layers(alpha: np.ndarray, coefficients: dict, n: int, weights: str) -> list:
    """Per order, ascending: the weights over types of m-1 members and the
    coefficients lifted to [community, type].

    ``weights``: "finite" uses the capacity ratio at this n; "asymptotic"
    uses its large-n limit (a multinomial law over types).
    """
    num_communities = len(alpha)
    layers = []
    for m, coeff in sorted(coefficients.items()):
        coeff = check_coefficients(m, coeff)
        if weights == "finite":
            if n < m + 1:
                raise ValueError(f"need n >= {m + 1} for order {m}")
            wts = expected_capacity_vector(m - 1, num_communities, alpha, n)
            wts = wts / float(math.comb(n - 1, m - 1))
        elif weights == "asymptotic":
            wts = multinomial_weight_vector(m - 1, num_communities, alpha)
        else:
            raise ValueError(f"unknown weights mode {weights!r}")
        layers.append((wts, coeff[member_lift_table(m, num_communities)]))
    return layers


def _tilting(layers: list, j: int, k: int):
    """The tilting objective of communities j and k: t -> sum over layers
    and types of weight * (t*cj + (1-t)*ck - cj^t * ck^(1-t)).

    Nonnegative by the AM-GM inequality, zero at both endpoints, concave
    in t.  Zero coefficients follow the limit convention 0^t = 0 for t > 0
    and 0^0 = 1, which keeps the objective continuous on (0, 1].
    """
    def objective(t: float) -> float:
        total = 0.0
        for wts, lifted in layers:
            cj, ck = lifted[j], lifted[k]
            total += float(wts @ (t * cj + (1.0 - t) * ck - cj**t * ck**(1.0 - t)))
        return total

    return objective


@dataclass(frozen=True)
class PairDivergence:
    j: int
    k: int
    value: float
    t_star: float


@dataclass(frozen=True)
class DivergenceReport:
    """Pairwise divergences, their minimum, and the minimizing pair."""

    pairs: tuple  # PairDivergence for each j < k, in lexicographic order
    value: float
    argmin: tuple


def chernoff_hellinger(alpha, coefficients, n: int, weights: str = "finite") -> DivergenceReport:
    """Best tilting separation of every community pair, and the minimum.

    ``coefficients`` maps each order to its unscaled per-type rates.
    """
    alpha = validate_prior(alpha)
    if len(alpha) < 2:
        raise ValueError("need at least two communities")
    layers = _layers(alpha, coefficients, n, weights)
    pairs = []
    for j, k in itertools.combinations(range(len(alpha)), 2):
        t_star, value = maximize_concave(_tilting(layers, j, k))
        pairs.append(PairDivergence(j=j, k=k, value=value, t_star=t_star))
    best = min(pairs, key=lambda p: p.value)
    return DivergenceReport(pairs=tuple(pairs), value=best.value,
                            argmin=(best.j, best.k))


# ---------------------------------------------------------------------------
# KL form of the separation
# ---------------------------------------------------------------------------

def _bernoulli_balance_point(qj: float, qk: float) -> float:
    """Mean y where KL(y||qj) = KL(y||qk); lies between the two means."""
    num = math.log((1.0 - qj) / (1.0 - qk))
    den = math.log(qk / qj) + num
    return num / den


def minimax_kl_pair(j: int, k: int, tensors: ProbabilityTensors, alpha, n: int) -> float:
    """Capacity-weighted minimax KL separation of communities j and k.

    For each order and type, the smallest worst-case KL divergence from a
    single degree-rate to the two communities' edge probabilities; the
    minimization splits per type and is solved exactly at the mean where
    the two divergences balance.  In the sparse regime this equals the
    tilting divergence times log(n).
    """
    if j == k:
        raise ValueError("communities must be distinct")
    alpha = validate_prior(alpha)
    num_communities = len(alpha)
    total = 0.0
    for m in tensors.orders:
        caps = expected_capacity_vector(m - 1, num_communities, alpha, n)
        lift = member_lift_table(m, num_communities)
        qj = tensors.q[m][lift[j]]
        qk = tensors.q[m][lift[k]]
        for cap, a, b in zip(caps, qj, qk):
            if cap == 0.0 or a == b:
                continue
            if a == 0.0 or b == 0.0:
                q = max(a, b)
                term = -math.log(1.0 - q) if q < 1.0 else math.inf
            elif a == 1.0 or b == 1.0:
                term = -math.log(min(a, b))
            else:
                y = _bernoulli_balance_point(a, b)
                term = kl_bernoulli(y, a)
            total += cap * term
    return total


# ---------------------------------------------------------------------------
# Regime classification and model assumptions
# ---------------------------------------------------------------------------

def classify_regime(value: float) -> str:
    """Place a divergence value relative to the unit threshold: "impossible",
    "critical" or "achievable"; values within ``CRITICAL_BAND`` of 1 are
    critical."""
    if value > 1.0 + CRITICAL_BAND:
        return "achievable"
    if value < 1.0 - CRITICAL_BAND:
        return "impossible"
    return "critical"


def center_separation_table(tensors: ProbabilityTensors, alpha, n: int) -> np.ndarray:
    """For each community pair, whether some third community distinguishes
    their expected adjacency rows at the model's degree scale.

    Entry (j, k) is True when there exists l with
    (n / rho) * | sum over orders and (m-2)-types of
    capacity * (Q[j+l+w] - Q[k+l+w]) | >= SEPARATION_EPS,
    where rho is the maximum expected degree.  Spectral initialization
    needs this separation; the refinement stages do not.
    """
    alpha = validate_prior(alpha)
    num_communities = tensors.k
    rho = max_expected_degree(tensors, alpha, n)
    if rho == 0:
        raise ValueError("model has zero expected degree")
    # Per order, the capacities of the types of m-2 members, and the order-m
    # probabilities at [c, l, type]: the type with one member of c and one of l added.
    layers = [(expected_capacity_vector(m - 2, num_communities, alpha, n),
               tensors.q[m][member_lift_table(m, num_communities)
                            [:, member_lift_table(m - 1, num_communities)]])
              for m in tensors.orders if m >= 2]
    table = np.ones((num_communities, num_communities), dtype=bool)
    for j in range(num_communities):
        for k in range(j + 1, num_communities):
            best = 0.0
            for l in range(num_communities):
                acc = 0.0
                for caps, q in layers:
                    acc += float(caps @ (q[j, l] - q[k, l]))
                best = max(best, abs(acc) * n / rho)
            table[j, k] = table[k, j] = best >= SEPARATION_EPS
    return table


def probability_ratio_bound(tensors: ProbabilityTensors) -> float:
    """Largest within-order ratio of edge probabilities across types.

    Expected degrees are proportional up to this constant; the agnostic
    refinement's estimator accuracy depends on it being O(1).  Any zero
    entry makes the bound infinite.
    """
    worst = 1.0
    for m in tensors.orders:
        vals = tensors.q[m]
        lo = float(vals.min())
        hi = float(vals.max())
        if lo == 0.0:
            return math.inf
        worst = max(worst, hi / lo)
    return worst
