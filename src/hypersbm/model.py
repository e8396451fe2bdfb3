"""Non-uniform hypergraph block models: parameters, sampling, and summaries.

A model is a community prior ``alpha`` over k communities plus, for each
edge order m in a finite set of orders, one inclusion probability per
membership type (weak composition of m).  A sampled hypergraph is a union
of per-order edge lists; every candidate m-subset of vertices is present
independently with the probability attached to its type.

Vertices and community labels are 0-based throughout the library; the text
file formats use 1-based ids.
"""

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .compositions import (
    _binomial_tables,
    capacity,
    expected_capacity_vector,
    member_lift_table,
    weak_compositions,
)


def validate_prior(alpha) -> np.ndarray:
    """Check a community prior: finite, strictly positive entries summing to 1."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("prior must be a nonempty 1-d vector")
    if not np.isfinite(alpha).all():
        raise ValueError(f"prior entries must be finite, got {alpha.tolist()}")
    if np.any(alpha <= 0):
        raise ValueError("prior entries must be strictly positive")
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise ValueError(f"prior must sum to 1, got {float(alpha.sum())}")
    return alpha


def check_coefficients(m: int, vals) -> np.ndarray:
    """Order m's unscaled coefficients as a float array, which must be
    finite and nonnegative."""
    vals = np.asarray(vals, dtype=float)
    if not (np.isfinite(vals) & (vals >= 0)).all():
        raise ValueError(f"order {m}: coefficients must be finite and nonnegative")
    return vals


def edge_pool(n: int, m: int) -> int:
    """C(n-1, m-1), the order-m edges holding a given one of n vertices."""
    if n < m:
        raise ValueError(f"need n >= {m} for order {m}")
    return math.comb(n - 1, m - 1)


@dataclass(frozen=True)
class ProbabilityTensors:
    """Per-order edge probabilities collapsed by membership type.

    ``q[m]`` is an array over weak_compositions(m, k) in canonical order
    holding the inclusion probability for each type.
    """

    k: int
    q: dict

    def __post_init__(self):
        converted = {}
        for m, vals in self.q.items():
            vals = np.asarray(vals, dtype=float)
            if vals.shape != (len(weak_compositions(m, self.k)),):
                raise ValueError(f"order {m}: expected one value per composition")
            if not ((vals >= 0) & (vals <= 1)).all():
                raise ValueError(f"order {m}: probabilities must lie in [0, 1]")
            converted[int(m)] = vals
        object.__setattr__(self, "q", converted)

    @classmethod
    def from_unscaled(cls, k: int, coefficients: dict, n: int) -> "ProbabilityTensors":
        """Build probabilities q = coeff * log(n) / C(n-1, m-1) per order.

        Raises if n is smaller than an order or any scaled value leaves [0, 1].
        """
        if n < 2:
            raise ValueError("need n >= 2 to scale coefficients")
        q = {}
        for m, vals in coefficients.items():
            q[m] = check_coefficients(m, vals) * (math.log(n) / edge_pool(n, m))
        return cls(k=k, q=q)

    @property
    def orders(self) -> list:
        return sorted(self.q)

    @property
    def max_order(self) -> int:
        return max(self.q)

    def scaled_by(self, factor: float) -> "ProbabilityTensors":
        """New tensors with every probability multiplied by ``factor``."""
        q = {m: vals * factor for m, vals in self.q.items()}
        return ProbabilityTensors(k=self.k, q=q)

    def restricted(self, orders) -> "ProbabilityTensors":
        """New tensors keeping only the given orders."""
        orders = set(orders)
        missing = orders - set(self.q)
        if missing:
            raise ValueError(f"orders {sorted(missing)} not present")
        q = {m: self.q[m].copy() for m in orders}
        return ProbabilityTensors(k=self.k, q=q)


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
            _check_layer(self.n, m, e)


def _check_shape(m: int, e: np.ndarray) -> None:
    """Raise ValueError unless m is an edge order and ``e``, if not empty,
    has one row of m integer ids per edge."""
    if m < 2:
        raise ValueError(f"edge order must be >= 2, got {m}")
    if e.size and (e.ndim != 2 or e.shape[1] != m):
        raise ValueError(f"order {m}: edge array must have {m} columns")
    if e.size and not np.issubdtype(e.dtype, np.integer):
        raise ValueError(f"order {m}: vertex ids must be integers, got {e.dtype}")


def _check_layer(n: int, m: int, e, ordered: bool = False) -> None:
    """Raise ValueError unless ``e`` is a valid order-m edge array on n
    vertices (see ``Hypergraph``).  Only the ids' range is checked when the
    rows are known to be ``ordered``: strictly increasing and in strictly
    increasing lexicographic order."""
    e = np.asarray(e)
    _check_shape(m, e)
    if e.size == 0:
        return
    if e.min() < 0 or e.max() >= n:
        raise ValueError(f"order {m}: vertex id out of range")
    if ordered:
        return
    if np.any(np.diff(e, axis=1) <= 0):
        raise ValueError(f"order {m}: rows must be strictly increasing")
    if not _rows_ascend(e).all():
        if np.any(np.all(e[1:] == e[:-1], axis=1)):
            raise ValueError(f"order {m}: duplicate edges")
        raise ValueError(f"order {m}: rows must be in lexicographic order")


def _rows_ascend(e: np.ndarray) -> np.ndarray:
    """For each pair of consecutive rows, whether the later one is
    lexicographically greater."""
    later, earlier = e[1:], e[:-1]
    up = later[:, -1] > earlier[:, -1]
    for c in range(e.shape[1] - 2, -1, -1):
        up = (later[:, c] > earlier[:, c]) | ((later[:, c] == earlier[:, c]) & up)
    return up


# Compare-exchanges of column pairs that sort rows of up to four columns:
# the same rows as ``np.sort(axis=1)``, without its per-row overhead, and
# in place, so the sort needs one column of scratch beyond its output.
_SORTING_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
                     4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _canonical_edge_array(rows: np.ndarray, m: int) -> np.ndarray:
    """Sort vertices within rows, then rows lexicographically.

    Rows of distinct ids in 0..top sort by one int64 key, the negated colex
    rank of the reflected row ``top - row``, which orders m-subsets exactly
    as lexicographic order does.  The m-key lexsort is kept where that key
    cannot be used: a negative or repeated id in a row, a rank that could
    reach 2**63, or a top id above the row count (the key's tables are never
    larger than the rows).
    """
    if len(rows) == 0:
        return np.empty((0, m), dtype=np.int64)
    if m in _SORTING_NETWORKS:
        rows = np.array(rows, dtype=np.int64)  # a copy, sorted in place
        for a, b in _SORTING_NETWORKS[m]:
            low = np.minimum(rows[:, a], rows[:, b])
            np.maximum(rows[:, a], rows[:, b], out=rows[:, b])
            rows[:, a] = low
    else:
        rows = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
    top = int(rows[:, -1].max())
    if (rows[:, 0].min() < 0 or top >= len(rows) or math.comb(top + 1, m) >= 2**63
            or np.any(rows[:, 1:] == rows[:, :-1])):
        return np.take(rows, np.lexsort(rows.T[::-1]), axis=0)
    tables = _binomial_tables(top, m)
    key = np.zeros(len(rows), dtype=np.int64)
    for j in range(m):
        key -= np.take(tables[m - j], top - rows[:, j])
    return np.take(rows, np.argsort(key), axis=0)


def make_hypergraph(n: int, edges: dict) -> Hypergraph:
    """Build a validated hypergraph from per-order edge lists (any row order)."""
    canon = {}
    for m, e in edges.items():
        m, e = int(m), np.asarray(e)
        _check_shape(m, e)
        canon[m] = _canonical_edge_array(e.reshape(-1, m), m)
    h = Hypergraph(n=int(n), edges=canon)
    h.validate()
    return h


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_membership(n: int, alpha, seed=None) -> np.ndarray:
    """Community labels for n vertices, drawn iid from the prior."""
    alpha = validate_prior(alpha)
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    return rng.choice(len(alpha), size=n, p=alpha).astype(np.int64)


# Largest composition-class size the stratified sampler will handle: class
# ranks, and the binomial table entries they are decoded with, stay exact in
# int64 below it.  At n = 1e5 the largest class of an order-4 layer with one
# community is C(1e5, 4) ~ 4.2e18, just under it.
MAX_CLASS_SIZE = 2**62


def _unrank_combinations(ranks: np.ndarray, tables: np.ndarray, k: int) -> np.ndarray:
    """Decode combination ranks into k-subsets of range(s), colex order, with
    ``tables = _binomial_tables(s - 1, k)`` (or more rows).

    A combination c_1 < ... < c_k has rank sum_i C(c_i, i); decoding finds
    the largest feasible c_i at each level.  Vectorized over ranks.
    """
    out = np.empty((len(ranks), k), dtype=np.int64)
    rem = ranks.astype(np.int64)
    for i in range(k, 1, -1):
        c = np.searchsorted(tables[i], rem, side="right") - 1
        out[:, i - 1] = c
        rem -= tables[i, c]
    out[:, 0] = rem  # C(c, 1) = c
    return out


def _sample_distinct(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Uniform random subset of ``count`` distinct integers from range(total),
    in ascending order.

    Above 4M candidates this is rejection sampling: batches of
    max(count - found, 1024) draws, each value kept at its first appearance,
    until ``count`` are found.  Only a final batch of 1024 can overshoot; it
    contributes its new values in the order they were drawn.  Duplicates carry
    no information, so the result is a uniform subset, and it depends only on
    the draws.  The deduplication sorts and binary-searches on purpose:
    numpy's ``unique``/``isin``/``union1d`` take a hash-based path on large
    int64 arrays (numpy 2.x), which measured slower than a per-element Python
    dict loop on these draws.
    """
    if count > total:
        raise ValueError("cannot draw more distinct values than exist")
    if count == total:
        return np.arange(total, dtype=np.int64)
    if total <= 4_000_000:
        return np.sort(rng.choice(total, size=count, replace=False).astype(np.int64))
    found = np.empty(0, dtype=np.int64)
    while len(found) < count:
        need = count - len(found)
        batch = rng.integers(0, total, size=max(need, 1024))
        if len(batch) > need:
            # a final batch that may overshoot: a stable sort puts each run of
            # equal values in draw order, so draw positions stay recoverable
            order = np.argsort(batch, kind="stable")
            values = batch[order]
        else:
            order, values = None, np.sort(batch)
        new = np.ones(len(values), dtype=bool)
        new[1:] = values[1:] != values[:-1]
        pos = np.searchsorted(found, values)
        if len(found):
            new &= found[np.minimum(pos, len(found) - 1)] != values
        if order is not None and new.sum() > need:
            new &= order <= np.sort(order[new])[need - 1]
        found = np.insert(found, pos[new], values[new])
    return found


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
    tables = [_binomial_tables(s - 1, tensors.max_order) for s in sizes]
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
                local = _unrank_combinations(digit, tables[l], w[l])
                parts[:, col:col + w[l]] = blocks[l][local]
                col += w[l]
            chunks.append(parts)
        stacked = np.vstack(chunks) if chunks else np.empty((0, m), dtype=np.int64)
        edges[m] = _canonical_edge_array(stacked, m)
    return Hypergraph(n=n, edges=edges)


# ---------------------------------------------------------------------------
# Matrix and degree summaries
# ---------------------------------------------------------------------------

def adjacency_matrix(h: Hypergraph) -> "sp.csr_matrix":
    """Symmetric pair-incidence counts as a float64 CSR matrix: entry (i, j)
    is the number of edges containing both i and j; the diagonal is zero.

    The upper-triangle pairs are sorted as one int64 key each and counted
    in int32; only the finished counts become float64, and the result shares
    their index arrays.  The build peaks at about 1.4 times the memory of its
    result.  A build of at least 2^17 pairs hands the C heap's free pages
    back to the operating system before it allocates its keys, before and
    after the sum and after the float64 conversion, so its peak resident
    memory does not depend on what earlier work left behind.
    A count is at most the number of edges, which stays below 2^31 for any
    graph whose edge arrays fit in memory, so it cannot wrap.
    Vertex ids must fit in int32: n > 2^31 - 1 is a ValueError.
    """
    return _pair_counts(h.n, h.edges)


def live_adjacency(h: Hypergraph, live) -> "sp.csr_matrix":
    """``adjacency_matrix(h)[live][:, live]`` for a boolean mask ``live``
    that holds every vertex of every edge, built without the full matrix.

    Vertex v becomes ``cumsum(live)[v] - 1``; the map is increasing, so
    relabelled rows stay canonical and the arrays equal those of the slice.
    """
    ids = np.cumsum(live) - 1
    return _pair_counts(int(ids[-1]) + 1, h.edges, ids)


def _glibc_malloc_trim():
    """glibc's ``malloc_trim``, or None under other C libraries."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


# Arrays freed below glibc's mmap threshold, which rises to 32 MB as large
# blocks are freed, stay resident as free heap space.  Whether later arrays
# reuse that space depends on the heap's history, so without a trim the peak
# resident memory of the same CLI recovery at n=10000 was 130 or 148 MB from
# one run to the next.
_MALLOC_TRIM = _glibc_malloc_trim()
# Builds of fewer pairs skip the trims.  A trim walks the whole heap and the
# pages it returns fault back in on the next allocations, and a build this
# small (an n=2000 sweep instance has 37-65K pairs) does not set the peak.
_TRIM_MIN_PAIRS = 1 << 17


def _release_free_heap() -> None:
    """Return the free pages of the C heap to the operating system."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _pair_counts(n: int, edges: dict, ids=None) -> "sp.csr_matrix":
    """Float64 CSR pair counts on n vertices of the edge arrays, with each
    vertex v renamed ``ids[v]`` when ``ids`` is given.

    Each pair (u, v) of an edge's members, u from an earlier column than v,
    becomes one int64 key ``u << 32 | v``.  Sorted, the keys are the row-major
    order of a canonical CSR matrix: a run of equal keys is one entry and its
    length the count.  A pair stored as (v, u) lies below the diagonal, and
    the symmetric sum counts it all the same.
    """
    import scipy.sparse as sp  # not at module level: sampling and thresholds need no scipy

    if n > 2**31 - 1:
        raise ValueError(f"adjacency matrix needs n <= 2**31 - 1, got n={n}")
    total = sum(len(e) * math.comb(m, 2) for m, e in edges.items())
    trim = total >= _TRIM_MIN_PAIRS
    if trim:
        _release_free_heap()
    key = np.empty(total, dtype=np.int64)
    end = 0
    for m, e in edges.items():
        if ids is not None:
            e = ids[e]
        for a in range(m):
            for b in range(a + 1, m):
                start, end = end, end + len(e)
                # int64 before the shift: an int32 id shifted by 32 wraps
                np.left_shift(e[:, a], 32, out=key[start:end], dtype=np.int64)
                np.bitwise_or(key[start:end], e[:, b], out=key[start:end], dtype=np.int64)
    key.sort()
    # run boundaries, with one more at the end: entry i spans starts[i]:starts[i + 1]
    boundary = np.empty(total + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:-1])
    key = key[boundary[:-1]]
    starts = np.flatnonzero(boundary)
    del boundary
    data = np.empty(len(key), dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=data)
    del starts
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) << 32).astype(np.int32)
    np.bitwise_and(key, 0xFFFFFFFF, out=key)
    indices = key.astype(np.int32)
    del key
    upper = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    upper.has_canonical_format = True
    del data, indices, indptr
    if trim:
        _release_free_heap()
    counts = upper + upper.T
    del upper
    if trim:
        _release_free_heap()
    adjacency = sp.csr_matrix((counts.data.astype(np.float64), counts.indices, counts.indptr),
                              shape=(n, n))
    del counts
    if trim:
        _release_free_heap()
    return adjacency


def max_expected_degree(tensors: ProbabilityTensors, alpha, n: int) -> float:
    """Largest expected incident-edge count over communities (the model's
    degree scale), using idealized community sizes floor(alpha_l * n)."""
    alpha = validate_prior(alpha)
    k = tensors.k
    degrees = np.zeros(k)
    for m in tensors.orders:
        caps = expected_capacity_vector(m - 1, k, alpha, n)
        lift = member_lift_table(m, k)
        for c in range(k):
            degrees[c] += float(caps @ tensors.q[m][lift[c]])
    return float(degrees.max())


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

# Rows formatted per write call; bounds the formatting's scratch memory,
# and a block of this size stays in cache (65536 rows formatted slower).
WRITE_ROWS = 16384
# Characters read per block; a block is cut back to its last newline.
READ_BLOCK_CHARS = 1 << 20
# Longest accepted token: every number of at most 18 digits fits in int64.
MAX_DIGITS = 18

# The writers print numbers in base-10**5 places, one 8-byte slot of
# ``_slot_table`` per place.  Slot 0 is empty: a place above the leading
# one.  Slot 1 + d + _PLACE * kind holds the place value d as its
# significant digits (even kinds: the leading place) or zero-padded to five
# (odd kinds: a lower place), then nothing (kinds 0-1), a space (kinds 2-3)
# or a newline (kinds 4-5).  Zero bytes pad each slot and are dropped.
_PLACE = 10**5
_PADDED, _SPACE_AFTER, _NEWLINE_AFTER = _PLACE, 2 * _PLACE, 4 * _PLACE


@functools.cache
def _slot_table() -> np.ndarray:
    """The slots as uint64; built on first use (4.8 MB), whatever n is."""
    padded = (np.indices((10,) * 5).reshape(5, -1).T + ord("0")).astype(np.uint8)
    slots = np.zeros((1 + 6 * _PLACE, 8), dtype=np.uint8)
    kinds = slots[1:].reshape(3, 2, _PLACE, 8)  # (after, padded, d, byte)
    ends = np.array([[ord(" ")], [ord("\n")]], dtype=np.uint8)
    kinds[:, 1, :, :5] = padded
    kinds[1:, 1, :, 5] = ends
    for width in range(1, 6):
        d = slice(10 ** (width - 1) if width > 1 else 0, 10**width)
        kinds[:, 0, d, :width] = padded[d, 5 - width:]
        kinds[1:, 0, d, width] = ends
    slots = slots.view(np.uint64).ravel()
    slots.setflags(write=False)
    return slots


def _format_lines(values: np.ndarray) -> bytes:
    """The text of each row of nonnegative int64 ``values`` in decimal,
    separated by spaces and ended by a newline: the same bytes as
    ``" ".join("%d" % v for v in row) + "\n"`` for each row."""
    places = 1
    while int(values.max(initial=0)) >= _PLACE**places:
        places += 1
    after = np.full(values.shape[1], _SPACE_AFTER + 1, dtype=np.int64)
    after[-1] = _NEWLINE_AFTER + 1
    codes = np.empty(values.shape + (places,), dtype=np.int64)
    for j in range(places):
        code = codes[..., j]
        if j == places - 1:
            above = values  # the number, with place j last
            np.add(values % _PLACE if j else values, after, out=code)
        else:
            above = values // _PLACE ** (places - 1 - j)
            np.add(above % _PLACE if j else above, 1, out=code)
            code *= above > 0  # empty above the leading place
        if j:  # only the first place never needs padding
            code += _PADDED * (above >= _PLACE)
    return _slot_table().take(codes).tobytes().translate(None, b"\0")


def _check_writable(values: np.ndarray, what: str, bound: int = 2**63 - 2) -> None:
    """Raise ValueError unless each 0-based value lies in 0..bound and so has
    a 1-based int64 form (bound at most 2**63-2)."""
    if values.size:
        low, high = values.min(), values.max()
        if low < 0 or high > bound:
            shown = "2**63-2" if bound == 2**63 - 2 else bound
            raise ValueError(f"{what} must lie in 0..{shown}, got {low if low < 0 else high}")


def _write_lines(fh, ids: np.ndarray, order=None) -> None:
    """Write each row of 0-based ``ids`` 1-based on a line of its own, after
    ``order`` when given, WRITE_ROWS rows per call."""
    lead = 0 if order is None else 1
    for start in range(0, len(ids), WRITE_ROWS):
        chunk = ids[start:start + WRITE_ROWS]
        lines = np.empty((len(chunk), lead + chunk.shape[1]), dtype=np.int64)
        if lead:
            lines[:, 0] = order
        np.add(chunk, 1, out=lines[:, lead:])
        fh.write(_format_lines(lines))


def write_hypergraph(h: Hypergraph, path) -> None:
    """Write the text format: header ``n=<n> orders=<m1,m2,...>`` then one
    edge per line as ``<m> v1 ... vm`` with 1-based, increasing ids.

    Time and memory are O(edges), whatever n is.  An id that is not an
    integer in 0..n-1 is a ValueError, raised before the file is opened."""
    edges = {}
    for m in h.orders:
        e = np.asarray(h.edges[m])
        _check_shape(m, e)
        edges[m] = e.astype(np.int64, copy=False).reshape(-1, m)
    for m, e in edges.items():
        _check_writable(e, f"order {m}: vertex ids", min(h.n - 1, 2**63 - 2))
    with open(path, "wb") as fh:
        fh.write(f"n={h.n} orders={','.join(str(m) for m in edges)}\n".encode())
        for m, e in edges.items():
            _write_lines(fh, e, order=m)


def _line_blocks(fh):
    """The rest of a text file as blocks of whole lines, each about
    READ_BLOCK_CHARS long and ending in a newline."""
    pending = []
    while chunk := fh.read(READ_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut == 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield "".join(pending)
        pending = [chunk[cut:]]
    tail = "".join(pending)
    if tail:
        yield tail + "\n"


# Byte classes: the value of each ASCII digit, OTHER for a byte that is
# neither a digit nor whitespace, SPACE for the ASCII whitespace that
# str.split() separates on, NEWLINE for a newline.
_OTHER, _SPACE, _NEWLINE = 10, 11, 12
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = np.arange(10, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\r\v\f\x1c\x1d\x1e\x1f")] = _SPACE
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS = _BYTE_CLASS.tobytes()  # a bytes.translate table


@dataclass(frozen=True)
class _Tokens:
    """Whitespace-separated tokens of a block of whole lines.

    ``values`` holds each token's value; per line, ``first`` is the index of
    its first token, ``counts`` its token count and ``bad`` whether any of
    its tokens is not 1 to MAX_DIGITS ASCII digits (the values of such
    tokens are meaningless).
    """

    raw: bytes            # the block, UTF-8 encoded
    newlines: np.ndarray  # byte offset of each line's newline
    values: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    bad: np.ndarray

    def line(self, i: int) -> str:
        """Text of line i, stripped."""
        start = self.newlines[i - 1] + 1 if i else 0
        return self.raw[start:self.newlines[i]].decode("utf-8").strip()


def _tokenize(block: str) -> _Tokens:
    raw = block.encode("utf-8")
    classes = np.frombuffer(raw.translate(_BYTE_CLASS), dtype=np.uint8)
    # the block ends in a newline, so every token that starts also ends
    flips = np.flatnonzero(np.diff(classes <= _OTHER, prepend=False))
    starts, ends = flips[0::2], flips[1::2]
    lengths = ends - starts
    values = classes[starts].astype(np.int64)
    for j in range(1, min(int(lengths.max(initial=0)), MAX_DIGITS)):
        live = np.flatnonzero(lengths > j)
        values[live] = values[live] * 10 + classes[starts[live] + j]
    newlines = np.flatnonzero(classes == _NEWLINE)
    counts = np.diff(np.searchsorted(starts, newlines), prepend=0)
    bad = np.zeros(len(newlines), dtype=bool)
    wrong = np.concatenate((np.flatnonzero(classes == _OTHER),
                            starts[lengths > MAX_DIGITS]))
    bad[np.searchsorted(newlines, wrong)] = True
    return _Tokens(raw=raw, newlines=newlines, values=values,
                   first=np.cumsum(counts) - counts, counts=counts, bad=bad)


def _repeated_ids(rows: np.ndarray) -> np.ndarray:
    """Per row, the smallest id that appears in it more than once, or -1."""
    ids = np.sort(rows, axis=1)
    twice = ids[:, 1:] == ids[:, :-1]
    return np.where(twice.any(axis=1), ids[np.arange(len(ids)), twice.argmax(axis=1)], -1)


def read_hypergraph(path) -> Hypergraph:
    """Parse and validate the hypergraph text format."""
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
        parts = {m: [] for m in orders}
        increasing = dict.fromkeys(parts, True)  # whether every row's ids increase
        line_no = 2
        for block in _line_blocks(fh):
            tok = _tokenize(block)
            lines = np.flatnonzero(tok.counts)
            m = tok.values[tok.first[lines]]
            bad = tok.bad[lines]
            of_order = {order: m == order for order in parts}
            undeclared = np.ones(len(lines), dtype=bool)
            for mask in of_order.values():
                undeclared &= ~mask
            wrong_length = tok.counts[lines] != m + 1
            wellformed = ~(bad | undeclared | wrong_length)
            ids = {}
            repeated = np.full(len(lines), -1, dtype=np.int64)
            for order, mask in of_order.items():
                sel = np.flatnonzero(mask & wellformed)
                if len(sel):
                    rows = tok.values[tok.first[lines[sel]][:, None] + np.arange(1, order + 1)]
                    # rows whose ids do not increase; columnwise, as np.any
                    # along short rows is slow
                    loose = rows[:, 1] <= rows[:, 0]
                    for c in range(2, order):
                        loose |= rows[:, c] <= rows[:, c - 1]
                    loose = np.flatnonzero(loose)
                    if len(loose):
                        increasing[order] = False
                        repeated[sel[loose]] = _repeated_ids(rows[loose])
                    rows -= 1
                    ids[order] = rows
            errors = np.flatnonzero(~wellformed | (repeated >= 0))
            if len(errors):
                i = errors[0]
                where = f"{path}: line {line_no + lines[i]}"
                if bad[i]:
                    raise ValueError(f"{where}: order and vertex ids must be "
                                     f"integers, got {tok.line(lines[i])!r}")
                if undeclared[i]:
                    raise ValueError(f"{where}: order {m[i]} not declared in header")
                if wrong_length[i]:
                    raise ValueError(f"{where}: expected {m[i]} vertex ids")
                raise ValueError(f"{where}: vertex id {repeated[i]} repeated, "
                                 f"got {tok.line(lines[i])!r}")
            for order, rows in ids.items():
                parts[order].append(rows)
            line_no += len(tok.counts)
    edges = {}
    for m, rows in parts.items():
        e = np.concatenate(rows) if rows else np.empty((0, m), dtype=np.int64)
        # rows that come back canonical are checked for their range alone
        ordered = increasing[m] and _rows_ascend(e).all()
        edges[m] = e if ordered else _canonical_edge_array(e, m)
        try:
            _check_layer(n, m, edges[m], ordered=ordered)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return Hypergraph(n=n, edges=edges)


def write_membership(labels, path) -> None:
    """One 1-based community label per line.  A negative label is a
    ValueError, raised before the file is opened."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 1)
    _check_writable(labels, "labels")
    with open(path, "wb") as fh:
        _write_lines(fh, labels)


def read_membership(path) -> np.ndarray:
    """Parse one 1-based community label per line; blank lines are skipped."""
    labels = []
    line_no = 1
    with open(path) as fh:
        for block in _line_blocks(fh):
            tok = _tokenize(block)
            errors = np.flatnonzero(tok.bad | (tok.counts > 1))
            if len(errors):
                i = errors[0]
                raise ValueError(f"{path}: line {line_no + i}: label must be an integer, "
                                 f"got {tok.line(i)!r}")
            labels.append(tok.values - 1)
            line_no += len(tok.counts)
    labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError(f"{path}: labels must be positive (1-based) in files")
    return labels
