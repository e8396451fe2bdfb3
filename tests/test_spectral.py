"""Trimming, low-rank approximation, and ball-peeling initialization."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import hypersbm as hs
from hypersbm import spectral
from hypersbm.errors import DegenerateDegreeError, InsufficientSampleError
from hypersbm.model import adjacency_matrix, make_hypergraph
from oracles import (ball_peeling_rowwise, ball_table_rowwise, expected_adjacency,
                     reconstruct)


def two_clique_instance():
    """Two disjoint 4-cliques on 8 vertices."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append([base + i, base + j])
    h = make_hypergraph(8, {2: edges})
    truth = np.array([0] * 4 + [1] * 4)
    return h, truth


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------

def test_trim_noop_when_budget_is_zero():
    degrees = np.full(10, 5.0)  # floor(10 e^-5) = 0
    keep = hs.keep_by_mean_degree(degrees)
    assert keep.all()


def test_trim_removes_star_hub():
    # star on 10 vertices: mean degree 1.8, floor(10 e^-1.8) = 1, hub removed
    star = make_hypergraph(10, {2: [[0, v] for v in range(1, 10)]})
    degrees = star.degrees()
    keep = hs.keep_by_mean_degree(degrees)
    assert (~keep).sum() == 1 and not keep[0]


def test_trim_zeroes_rows_and_columns():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h)
    keep = np.ones(8, dtype=bool)
    keep[2] = keep[5] = False
    out = hs.trim(a, keep).toarray()
    assert not out[2].any() and not out[:, 2].any()
    assert not out[5].any() and not out[:, 5].any()
    inside = keep[:, None] & keep[None, :]
    assert np.array_equal(out[inside], a.toarray()[inside])


def test_trim_casts_integer_counts_to_float_silently():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h).astype(np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hs.trim(a, np.array([True] * 6 + [False] * 2))
    assert out.dtype == np.float64


def test_trim_idempotent():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h)
    keep = np.array([True] * 6 + [False] * 2)
    once = hs.trim(a, keep)
    twice = hs.trim(once, keep)
    assert (once != twice).nnz == 0


def test_trim_returns_its_input_when_nothing_is_dropped():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h)
    assert hs.trim(a, np.ones(8, dtype=bool)) is a
    # anything else is a new float64 canonical CSR matrix
    keep = np.array([True] * 6 + [False] * 2)
    for source, mask in ((a, keep), (a.tocoo(), np.ones(8, dtype=bool)),
                         (a.astype(np.int64), np.ones(8, dtype=bool))):
        out = hs.trim(source, mask)
        assert out is not source and not np.shares_memory(out.data, a.data)
        assert out.format == "csr" and out.dtype == np.float64 and out.has_canonical_format
        assert np.array_equal(out.toarray(), a.toarray() * np.outer(mask, mask))


def test_degree_cap_rule():
    keep = hs.keep_by_degree_cap(np.array([3, 10, 4]), 4.5)
    assert keep.tolist() == [True, False, True]


def test_prior_degree_cap_two_layers():
    n = 100
    coeffs = {2: hs.two_level_coefficients(2, {2: 6.0}, {2: 2.0})[2],
              3: hs.two_level_coefficients(2, {3: 4.0}, {3: 1.0})[3]}
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    # max order times sum over orders of max rate * log n
    expected = 3 * (6.0 + 4.0) * math.log(n)
    assert np.isclose(hs.prior_degree_cap(T, n), expected)


# ---------------------------------------------------------------------------
# Low-rank approximation
# ---------------------------------------------------------------------------

def test_rank_k_exact_on_low_rank_input():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(40, 2))
    a = u @ u.T  # rank 2
    approx = hs.rank_k_approx(a, 2)
    err = np.linalg.norm(a - reconstruct(approx))
    assert err <= 1e-6 * np.linalg.norm(a)


def test_rank_k_of_diagonal():
    approx = hs.rank_k_approx(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(reconstruct(approx), np.diag([3.0, 2.0, 0.0]), atol=1e-12)
    assert np.allclose(approx.values, [3.0, 2.0])


def test_rank_k_matches_dense_oracle():
    # residual spectral norm must equal the (k+1)-th eigenvalue (dense oracle)
    rng = np.random.default_rng(1)
    for n, k in [(30, 3), (50, 5)]:
        a = rng.normal(size=(n, n))
        a = a + a.T
        approx = hs.rank_k_approx(a, k)
        vals = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(approx.values, vals[:k], atol=1e-8)
        resid = np.linalg.norm(a - reconstruct(approx), 2)
        # Eckart-Young for the algebraically-largest truncation: the residual
        # spectrum is everything left out
        leftover = np.max(np.abs(vals[k:]))
        assert abs(resid - leftover) < 1e-8
        gram = approx.vectors.T @ approx.vectors
        assert np.allclose(gram, np.eye(k), atol=1e-8)


def test_rank_k_sparse_path_matches_dense():
    rng = np.random.default_rng(2)
    a = sp.random(300, 300, density=0.05, random_state=3)
    a = ((a + a.T) * 0.5).tocsr()
    approx = hs.rank_k_approx(a, 4)
    vals = np.sort(np.linalg.eigvalsh(a.toarray()))[::-1][:4]
    assert np.allclose(approx.values, vals, atol=1e-6)


@pytest.mark.parametrize("tol", [1e-8, 0.1])
def test_rank_k_sparse_path_is_deterministic(tol):
    n = 2000
    tensors = hs.ProbabilityTensors.from_unscaled(
        2, hs.two_level_coefficients(2, {2: 8.0}, {2: 2.0}), n)
    z = hs.sample_membership(n, [0.5, 0.5], seed=1)
    a = adjacency_matrix(hs.sample_hypergraph(n, z, tensors, seed=2))
    first, second = hs.rank_k_approx(a, 4, tol=tol), hs.rank_k_approx(a, 4, tol=tol)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_rank_k_validates_k():
    with pytest.raises(ValueError):
        hs.rank_k_approx(np.eye(3), 0)
    with pytest.raises(ValueError):
        hs.rank_k_approx(np.eye(3), 4)


# ---------------------------------------------------------------------------
# Radius
# ---------------------------------------------------------------------------

def test_default_radius_values():
    assert np.isclose(hs.default_radius(np.full(100, math.e)), math.e**2 / 100)
    assert np.isclose(hs.default_radius(np.full(1000, 10.0)),
                      100.0 / (1000 * math.log(10)))


def test_default_radius_degenerate():
    with pytest.raises(DegenerateDegreeError, match=r"^mean degree 1 <= 1$"):
        hs.default_radius(np.ones(50))
    with pytest.raises(DegenerateDegreeError, match=r"^degree scale 0\.8 <= 1$"):
        hs.radius_from_degree_scale(0.8, 100)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_separates_disconnected_cliques():
    h, truth = two_clique_instance()
    a = adjacency_matrix(h)
    keep = np.ones(8, dtype=bool)
    radius = hs.default_radius(h.degrees())
    labels = hs.spectral_init(a, keep, 2, radius, seed=0)
    eta, _ = hs.mismatch_ratio(truth, labels)
    assert eta == 0.0


def test_init_single_community():
    h, _ = two_clique_instance()
    labels = hs.spectral_init(adjacency_matrix(h), np.ones(8, dtype=bool), 1,
                              1.0, seed=0)
    assert np.all(labels == 0)


def test_init_deterministic_and_in_range():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h)
    keep = np.array([True] * 7 + [False])
    l1 = hs.spectral_init(a, keep, 2, 1.0, seed=42)
    l2 = hs.spectral_init(a, keep, 2, 1.0, seed=42)
    assert np.array_equal(l1, l2)
    assert l1.min() >= 0 and l1.max() < 2


def test_init_requires_enough_kept_vertices():
    h, _ = two_clique_instance()
    a = adjacency_matrix(h)
    keep = np.zeros(8, dtype=bool)
    keep[0] = True
    with pytest.raises(InsufficientSampleError):
        hs.spectral_init(a, keep, 2, 1.0, seed=0)


def grid_embedding(n, k, seed):
    """Integer coordinates in [-2, 2]: every squared distance is an integer,
    so an integer radius puts many vertices exactly on a ball's boundary."""
    return np.random.default_rng(seed).integers(-2, 3, size=(n, k)).astype(float)


@pytest.mark.parametrize("k", [*range(1, 13), 64, 128, 129, 136, 300])
def test_ball_table_matches_rowwise_oracle(k, monkeypatch):
    rng = np.random.default_rng(k)
    n = 300
    kept = np.sort(rng.choice(n, 250, replace=False))
    centers = np.sort(rng.choice(kept, 41, replace=False))
    # blocks of four centers, the last one short
    monkeypatch.setattr(spectral, "BALL_BLOCK", 1000)
    scaled = rng.standard_normal((n, k)) * rng.uniform(0.01, 100, size=k)
    gaps = scaled[centers[0]] - scaled[kept]
    # radii equal to computed distances put a vertex exactly on the boundary
    cases = [(scaled, r) for r in (gaps * gaps).sum(axis=1)[:10]]
    # integer radii up to 2k: every one up to k = 23, about two dozen above
    radii = range(1, 2 * k + 1, max(1, k // 12))
    cases += [(grid_embedding(n, k, k), float(r)) for r in radii]
    for emb, radius in cases:
        table = spectral._ball_table(emb, kept, centers, radius)
        assert np.array_equal(table, ball_table_rowwise(emb, kept, centers, radius))


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("grid", [True, False])
def test_init_matches_ball_peeling_oracle(k, grid, monkeypatch):
    n = 400
    rng = np.random.default_rng(100 + k)
    vectors = grid_embedding(n, k, k) if grid else rng.standard_normal((n, k))
    approx = spectral.LowRankApprox(values=np.ones(k), vectors=vectors)
    monkeypatch.setattr(spectral, "rank_k_approx", lambda a, rank: approx)
    keep = rng.random(n) > 0.1
    radius = float(k)
    labels = hs.spectral_init(sp.csr_matrix((n, n)), keep, k, radius, seed=[k, 1])
    expected = ball_peeling_rowwise(approx.embedding(), keep, k, radius, [k, 1])
    assert np.array_equal(labels, expected)


def test_init_weak_consistency_on_planted_instances():
    # mismatch <= 0.05 in at least 18/20 seeds on a well-separated model
    n = 500
    coeffs = hs.two_level_coefficients(2, {2: 40.0}, {2: 5.0})
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    good = 0
    for t in range(20):
        z = hs.sample_membership(n, [0.5, 0.5], seed=[900 + t, 11])
        h = hs.sample_hypergraph(n, z, T, seed=[900 + t, 12])
        degrees = h.degrees()
        keep = hs.keep_by_mean_degree(degrees)
        a = hs.trim(adjacency_matrix(h), keep)
        labels = hs.spectral_init(a, keep, 2, hs.default_radius(degrees),
                                  seed=[900 + t, 1])
        eta, _ = hs.mismatch_ratio(z, labels)
        good += eta <= 0.05
    assert good >= 18


def test_adjacency_concentration_spot_check():
    # ||A - E A|| / sqrt(degree scale) stays below a loose constant
    n = 300
    coeffs = {2: hs.two_level_coefficients(2, {2: 5.0}, {2: 2.0})[2],
              3: hs.two_level_coefficients(2, {3: 5.0}, {3: 2.0})[3]}
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    d_max = (5.0 + 5.0) * math.log(n)
    for t in range(3):
        z = hs.sample_membership(n, [0.5, 0.5], seed=[70 + t, 11])
        h = hs.sample_hypergraph(n, z, T, seed=[70 + t, 12])
        w = adjacency_matrix(h).toarray() - expected_adjacency(z, T)
        assert np.linalg.norm(w, 2) / math.sqrt(d_max) <= 30.0
