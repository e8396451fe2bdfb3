"""Weak compositions and hyperedge-type bookkeeping.

A weak composition of ``m`` into ``k`` parts is a k-tuple of nonnegative
integers summing to m.  Compositions index the collapsed symmetric edge
probabilities: an edge's type is the count of its members per community.
The canonical iteration order everywhere in this package is lexicographic
descending, e.g. for m=2, k=2: (2,0), (1,1), (0,2).
"""

from functools import lru_cache
from math import comb, factorial
from operator import index

import numpy as np


@lru_cache(maxsize=None)
def weak_compositions(m: int, k: int) -> tuple:
    """All weak compositions of m into k parts, lexicographically descending.

    The number of compositions returned is C(m+k-1, k-1).  The parts are
    Python ints whatever integer type ``m`` and ``k`` have: a cached result
    is shared by every call with equal arguments.
    """
    m, k = index(m), index(k)
    if k < 1:
        raise ValueError(f"need at least one part, got k={k}")
    if m < 0:
        raise ValueError(f"order must be nonnegative, got m={m}")
    if k == 1:
        return ((m,),)
    out = []
    for first in range(m, -1, -1):
        for rest in weak_compositions(m - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


def num_weak_compositions(m: int, k: int) -> int:
    """Count of weak compositions of m into k parts: C(m+k-1, k-1)."""
    if k < 1:
        raise ValueError(f"need at least one part, got k={k}")
    return comb(m + k - 1, k - 1)


def _binomial_tables(max_n: int, k: int) -> np.ndarray:
    """C(j, i) at [i, j] for i = 0..k and j = 0..max_n, by Pascal's rule as
    running sums of the previous row.  An entry is exact whenever C(j, i)
    < 2**63: int64 sums wrap modulo 2**64, so an overflow in a larger entry
    does not reach it."""
    tables = np.zeros((k + 1, max_n + 1), dtype=np.int64)
    tables[0] = 1
    for i in range(1, k + 1):
        np.cumsum(tables[i - 1, :-1], out=tables[i, 1:])
    return tables


@lru_cache(maxsize=None)
def member_lift_table(m: int, k: int) -> np.ndarray:
    """Index table lifting order-(m-1) types to order-m types.

    Entry [label, i] is the canonical index (within weak_compositions(m, k))
    of the i-th composition of m-1 with one more member of community
    ``label``: the edge type seen from a vertex of that community.
    Precomputed so per-vertex likelihood sums reduce to array gathers.  The
    table is cached and shared, so it is read-only.
    """
    m, k = index(m), index(k)
    rank = {w: i for i, w in enumerate(weak_compositions(m, k))}
    table = np.array([[rank[w[:label] + (w[label] + 1,) + w[label + 1:]]
                       for w in weak_compositions(m - 1, k)] for label in range(k)],
                     dtype=np.int64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def member_drop_table(m: int, k: int) -> np.ndarray:
    """Inverse of member_lift_table: entry [i, label] is the canonical index
    of the order-(m-1) type left when one member of community ``label``
    leaves the i-th composition of m (-1 where that part is zero).  Cached
    and shared, so read-only."""
    m, k = index(m), index(k)
    lift = member_lift_table(m, k)
    table = np.full((num_weak_compositions(m, k), k), -1, dtype=np.int64)
    table[lift, np.arange(k)[:, None]] = np.arange(lift.shape[1])
    table.setflags(write=False)
    return table


def capacity(w: tuple, sizes) -> int:
    """Number of distinct edges of type w given per-community vertex counts.

    Product over communities of C(sizes[l], w[l]); zero whenever some part
    exceeds its community size.  Exact integer arithmetic.
    """
    total = 1
    for s, c in zip(sizes, w):
        total *= comb(int(s), int(c))
        if total == 0:
            return 0
    return total


def capacity_vector(m: int, k: int, sizes) -> np.ndarray:
    """capacity for every composition of m into k parts, as floats: each
    exact product rounded once."""
    return np.array([float(capacity(w, sizes)) for w in weak_compositions(m, k)])


def expected_capacity_vector(m: int, k: int, alpha, n: int) -> np.ndarray:
    """capacity_vector under idealized community sizes floor(alpha_l * n)."""
    return capacity_vector(m, k, [int(a * n) for a in alpha])


def multinomial_weight_vector(m: int, k: int, alpha) -> np.ndarray:
    """Large-n limit of expected_capacity_vector(m,...)/C(n-1, m) per type.

    For composition w this is m!/(prod w_l!) * prod alpha_l^w_l, the
    probability that m iid draws from alpha realize the type w.
    """
    alpha = np.asarray(alpha, dtype=float)
    out = []
    for w in weak_compositions(m, k):
        coeff = factorial(m)
        for c in w:
            coeff //= factorial(c)
        out.append(coeff * np.prod(alpha ** np.array(w)))
    return np.array(out)
