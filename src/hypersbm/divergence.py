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
from .model import check_coefficients, edge_pool, validate_prior

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width of the bracket at which the golden-section search on [0, 1] stops.
SEARCH_TOL = 1e-9
# Half-width of the band around 1 that ``classify_regime`` calls critical.
CRITICAL_BAND = 1e-3


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
            pool = float(edge_pool(n, m))
            wts = expected_capacity_vector(m - 1, num_communities, alpha, n) / pool
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
# Regime classification
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
