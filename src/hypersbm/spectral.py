"""Stage-I machinery: degree trimming, low-rank approximation, ball peeling.

Zeroing out the rows and columns of unusually high-degree vertices restores
spectral concentration of the adjacency matrix in sparse regimes; the
initialization then clusters vertices by rows of the rank-k approximation,
greedily peeling the largest balls of a fixed radius around sampled centers.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import ConvergenceError, DegenerateDegreeError, InsufficientSampleError
from .model import PairCounts, ProbabilityTensors


@dataclass(frozen=True)
class LowRankApprox:
    """Leading eigenpairs of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (n, k), orthonormal columns

    def embedding(self) -> np.ndarray:
        """Rows of the reconstruction expressed in the eigenbasis: the i-th
        row of vectors scaled by the eigenvalues.  Euclidean distances here
        equal distances between reconstruction rows."""
        return self.vectors * self.values


DENSE_CUTOFF = 200
# Seed of ARPACK's start vector.  A fixed start makes every solve
# reproducible; uniform(-1, 1) entries, unlike a constant vector, are not
# orthogonal to the balanced community vectors the solve must find.
START_SEED = 0
# ARPACK's cap on Arnoldi update iterations.
MAXITER = 5000


def rank_k_approx(a, k: int, tol: float = 1e-8) -> LowRankApprox:
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Sparse inputs and ``PairCounts`` go through ARPACK's implicitly
    restarted Lanczos from a fixed seeded start vector, so repeated calls
    agree bit for bit; small or nearly full-rank problems fall back to a
    dense solve.
    """
    import scipy.sparse as sp  # not at module level: sampling and thresholds need no scipy
    import scipy.sparse.linalg as spla

    n = a.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"rank k={k} must be in [1, {n}]")
    sparse = sp.issparse(a) or isinstance(a, PairCounts)
    dense_needed = n <= DENSE_CUTOFF or k >= n - 1
    if dense_needed:
        dense = a.toarray() if sparse else np.asarray(a, dtype=float)
        vals, vecs = np.linalg.eigh(dense)
        order = np.argsort(vals)[::-1][:k]
        return LowRankApprox(values=vals[order], vectors=vecs[:, order])
    if isinstance(a, PairCounts):
        mat = a  # eigsh asks only for its shape, dtype and matvec
    elif sparse:
        mat = a.astype(np.float64, copy=False)
    else:
        mat = np.asarray(a, dtype=float)
    v0 = np.random.default_rng(START_SEED).uniform(-1.0, 1.0, size=n)
    try:
        vals, vecs = spla.eigsh(mat, k=k, which="LA", tol=tol, maxiter=MAXITER, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {MAXITER} iterations "
            f"({len(exc.eigenvalues)}/{k} eigenpairs found)"
        ) from exc
    except spla.ArpackError as exc:  # e.g. a zero matrix maps the start vector to zero
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return LowRankApprox(values=vals[order], vectors=vecs[:, order])


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------

def keep_by_mean_degree(degrees) -> np.ndarray:
    """Keep mask after removing the floor(n * exp(-mean degree)) vertices of
    largest degree.  Ties at the removal boundary drop smaller vertex ids
    first (stable order: degree descending, id ascending)."""
    degrees = np.asarray(degrees)
    n = len(degrees)
    remove = int(n * math.exp(-degrees.mean()))
    keep = np.ones(n, dtype=bool)
    if remove > 0:
        order = np.argsort(-degrees, kind="stable")
        keep[order[:remove]] = False
    return keep


def keep_by_degree_cap(degrees, cap: float) -> np.ndarray:
    """Keep mask of vertices with degree at most ``cap`` (known-model rule)."""
    return np.asarray(degrees) <= cap


def prior_degree_cap(tensors: ProbabilityTensors, n: int) -> float:
    """Degree cap from known edge probabilities: the maximum order times the
    sum over orders of the largest per-type expected contribution."""
    if tensors is None:
        raise ValueError("degree-cap trimming requires the probability tensors")
    d_max = sum(float(tensors.q[m].max()) * math.comb(n - 1, m - 1)
                for m in tensors.orders)
    return tensors.max_order * d_max


def trim(a, keep):
    """The matrix without the stored entries in the rows and columns outside
    the keep set.

    A ``PairCounts`` gives a ``PairCounts``, any other sparse matrix a
    float64 CSR matrix.  When the keep set is every vertex and ``a`` is a
    ``PairCounts`` or a float64 CSR matrix, nothing is dropped and ``a``
    itself is returned; otherwise the result is a new matrix.
    """
    drop = ~np.asarray(keep, dtype=bool)
    if isinstance(a, PairCounts):
        return PairCounts(trim(a.upper, keep)) if drop.any() else a
    if not drop.any() and a.format == "csr" and a.dtype == np.float64:
        return a
    out = a.tocsr().astype(np.float64)
    out.data[np.repeat(drop, np.diff(out.indptr)) | drop[out.indices]] = 0.0
    out.eliminate_zeros()
    return out


# ---------------------------------------------------------------------------
# Radius and initialization
# ---------------------------------------------------------------------------

def default_radius(degrees) -> float:
    """Ball radius from the untrimmed sample mean degree: d^2 / (n log d)."""
    degrees = np.asarray(degrees)
    dbar = float(degrees.mean())
    if dbar <= 1.0:
        raise DegenerateDegreeError(f"mean degree {dbar:.3g} <= 1")
    return radius_from_degree_scale(dbar, len(degrees))


def radius_from_degree_scale(rho: float, n: int) -> float:
    """Ball radius from a known expected-degree scale: rho^2 / (n log rho)."""
    if rho <= 1.0:
        raise DegenerateDegreeError(f"degree scale {rho:.3g} <= 1")
    return rho * rho / (n * math.log(rho))


# Squared distances computed at once in the ball table: a block of centers
# times the kept vertices.
BALL_BLOCK = 1 << 16


def _sum_squared_gaps(block, emb_t, cols, out, scratch) -> None:
    """Sum over the coordinates ``cols`` (a range) of the squared gaps
    between the block rows and the kept vertices, written into ``out`` in
    the order numpy's pairwise summation adds a contiguous row, so each
    entry equals that row sum bit for bit.

    Below 8 terms numpy adds one after another.  Up to 128 it keeps eight
    running sums, combines them as ((0+1)+(2+3))+((4+5)+(6+7)) and adds the
    rest one by one; above 128 it sums two halves, the first a multiple of
    8 long.  ``scratch`` holds buffers shaped like ``out``: one below 8
    terms, eight from 8 on; above 128 each second half gets one of its own.
    """
    count = len(cols)
    if count > 128:
        half = count // 2 // 8 * 8
        right = np.empty_like(out)
        _sum_squared_gaps(block, emb_t, cols[:half], out, scratch)
        _sum_squared_gaps(block, emb_t, cols[half:], right, scratch)
        out += right
        return
    width = 8 if count >= 8 else 1  # running sums
    stop = count - count % width  # terms that go to the running sums
    parts, term = [out, *scratch[:width - 1]], scratch[width - 1]
    for j, col in enumerate(cols):
        gap = parts[j] if j < width else term
        np.subtract(block[:, col, None], emb_t[col], out=gap)
        np.multiply(gap, gap, out=gap)
        if j >= width:
            parts[j % width if j < stop else 0] += term
        if j + 1 == stop:
            for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4))[:width - 1]:
                parts[a] += parts[b]


def _ball_table(emb, kept, centers, radius: float) -> np.ndarray:
    """Boolean (centers, kept) table: whether the squared embedding distance
    from each center to each kept vertex is at most ``radius``.

    Centers go in blocks of at most ``BALL_BLOCK`` distances, and each block
    sums the squared coordinate gaps over the kept embedding transposed to
    (k, kept) in buffers allocated once; the sums equal numpy's row sums of
    the squared gaps exactly.
    """
    emb_t = np.ascontiguousarray(emb[kept].T)
    table = np.empty((len(centers), len(kept)), dtype=bool)
    step = max(1, BALL_BLOCK // len(kept))
    k = emb.shape[1]
    shape = (min(step, len(centers)), len(kept))
    buffers = [np.empty(shape) for _ in range(2 if k < 8 else 9)]
    for start in range(0, len(centers), step):
        block = emb[centers[start:start + step]]
        sums, *scratch = [buf[:len(block)] for buf in buffers]
        _sum_squared_gaps(block, emb_t, range(k), sums, scratch)
        np.less_equal(sums, radius, out=table[start:start + step])
    return table


def spectral_init(a_kept, keep, k: int, radius: float, seed=None) -> np.ndarray:
    """Initial labels from ball peeling on the rank-k row embedding.

    Samples ceil(2 log^2 n) candidate centers from the kept set, repeatedly
    picks the center whose radius-ball covers the most unassigned kept
    vertices (ties to the smallest vertex id), then assigns leftover kept
    vertices to the nearest chosen center and trimmed vertices uniformly at
    random.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    keep = np.asarray(keep, dtype=bool)
    n = a_kept.shape[0]
    kept = np.flatnonzero(keep)
    if len(kept) < k:
        raise InsufficientSampleError(f"only {len(kept)} kept vertices for k={k}")
    rng = np.random.default_rng(seed)

    approx = rank_k_approx(a_kept, k)
    emb = approx.embedding()

    sample_size = min(math.ceil(2.0 * math.log(n) ** 2), len(kept))
    centers_pool = np.sort(rng.choice(kept, size=sample_size, replace=False))
    if len(centers_pool) < k:
        raise InsufficientSampleError(
            f"sampled {len(centers_pool)} candidate centers for k={k}")

    in_ball = _ball_table(emb, kept, centers_pool, radius)

    labels = np.full(n, -1, dtype=np.int64)
    assigned = np.zeros(len(kept), dtype=bool)
    centers = np.empty(k, dtype=np.int64)
    residual = in_ball.sum(axis=1)  # unassigned kept vertices in each ball
    for c in range(k):
        pick = int(np.argmax(residual))  # first max: smallest candidate id
        centers[c] = centers_pool[pick]
        members = in_ball[pick] & ~assigned
        labels[kept[members]] = c
        assigned |= members
        residual -= in_ball[:, members].sum(axis=1)

    leftover = kept[~assigned]
    if len(leftover):
        diff = emb[leftover][:, None, :] - emb[centers][None, :, :]
        labels[leftover] = np.argmin((diff * diff).sum(axis=2), axis=1)

    outside = np.flatnonzero(~keep)
    if len(outside):
        labels[outside] = rng.integers(0, k, size=len(outside))
    return labels
