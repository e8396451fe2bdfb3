"""Mismatch metric, end-to-end pipelines, and community counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import hypersbm as hs
from hypersbm import pipeline
from hypersbm.errors import DegenerateDegreeError
from hypersbm.model import Hypergraph, adjacency_matrix, make_hypergraph
from oracles import count_communities_tight, live_adjacency_slice, mismatch_ratio_bruteforce


def two_clique_instance():
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append([base + i, base + j])
    return make_hypergraph(8, {2: edges}), np.array([0] * 4 + [1] * 4)


def planted_instance(n, a, b, seed):
    coeffs = hs.two_level_coefficients(2, {2: float(a)}, {2: float(b)})
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    z = hs.sample_membership(n, [0.5, 0.5], seed=[seed, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[seed, 12])
    return h, z, T


# ---------------------------------------------------------------------------
# Mismatch ratio
# ---------------------------------------------------------------------------

def test_mismatch_identity_and_relabeling():
    z = np.array([0, 0, 1, 1])
    assert hs.mismatch_ratio(z, z)[0] == 0.0
    assert hs.mismatch_ratio(z, 1 - z)[0] == 0.0


def test_mismatch_half():
    eta, _ = hs.mismatch_ratio(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert eta == 0.5


def test_mismatch_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hs.mismatch_ratio(np.array([0, 1]), np.array([0, 1, 1]))


def test_mismatch_rejects_labels_outside_range():
    with pytest.raises(ValueError, match=r"estimate labels must lie in \[0, 2\)"):
        hs.mismatch_ratio(np.array([0, 1, 1]), np.array([0, 2, 1]), k=2)
    with pytest.raises(ValueError, match=r"truth labels must lie in \[0, 2\)"):
        hs.mismatch_ratio(np.array([0, -1, 1]), np.array([0, 1, 1]))


def test_mismatch_rejects_empty_vectors():
    empty = np.array([], dtype=np.int64)
    for k in (None, 2):
        with pytest.raises(ValueError, match="need at least one vertex"):
            hs.mismatch_ratio(empty, empty, k=k)


@st.composite
def square_counts(draw):
    """Integer k x k matrices: small entry ranges (many ties), large ones,
    and all-zero, constant and scaled permutation matrices."""
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["small", "large", "zero", "constant", "permutation"]))
    if kind == "zero":
        return np.zeros((k, k), dtype=np.int64)
    if kind == "constant":
        return np.full((k, k), draw(st.integers(1, 10**6)), dtype=np.int64)
    if kind == "permutation":
        weights = np.zeros((k, k), dtype=np.int64)
        weights[np.arange(k), draw(st.permutations(range(k)))] = draw(st.integers(1, 1000))
        return weights
    high = draw(st.sampled_from([1, 2, 3])) if kind == "small" else draw(st.integers(10, 10**12))
    entries = draw(st.lists(st.integers(0, high), min_size=k * k, max_size=k * k))
    return np.array(entries, dtype=np.int64).reshape(k, k)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(square_counts())
def test_best_matching_reaches_the_scipy_optimum(weights):
    # a tied matching may differ from scipy's; its weight may not
    cols = pipeline._best_matching(weights)
    k = len(weights)
    assert cols.dtype == np.int64 and sorted(cols.tolist()) == list(range(k))
    rows, best = linear_sum_assignment(weights, maximize=True)
    assert weights[np.arange(k), cols].sum() == weights[rows, best].sum()


def test_mismatch_equals_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 51))
        z = rng.integers(0, k, size=n)
        zh = rng.integers(0, k, size=n)
        eta, _ = hs.mismatch_ratio(z, zh, k=k)
        assert np.isclose(eta, mismatch_ratio_bruteforce(z, zh, k))


def test_mismatch_invariant_under_consistent_relabeling():
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        z = rng.integers(0, k, size=40)
        zh = rng.integers(0, k, size=40)
        perm = rng.permutation(k)
        base, _ = hs.mismatch_ratio(z, zh, k=k)
        assert np.isclose(base, hs.mismatch_ratio(perm[z], zh, k=k)[0])
        assert np.isclose(base, hs.mismatch_ratio(z, perm[zh], k=k)[0])


@st.composite
def labellings(draw):
    """A truth and an estimate on the same vertices, a permutation of the
    estimate's labels and a permutation of the vertices."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    label = st.integers(0, k - 1)
    truth = np.array(draw(st.lists(label, min_size=n, max_size=n)))
    estimate = np.array(draw(st.lists(label, min_size=n, max_size=n)))
    relabel = np.array(draw(st.permutations(range(k))))
    order = np.array(draw(st.permutations(range(n))))
    return truth, estimate, k, relabel, order


@settings(max_examples=100, deadline=None, derandomize=True)
@given(labellings())
def test_mismatch_ignores_estimate_labels_and_vertex_order(case):
    truth, estimate, k, relabel, order = case
    base, _ = hs.mismatch_ratio(truth, estimate, k=k)
    assert hs.mismatch_ratio(truth, relabel[estimate], k=k)[0] == base
    assert hs.mismatch_ratio(truth[order], estimate[order], k=k)[0] == base


def test_mismatch_never_exceeds_matching_bound():
    rng = np.random.default_rng(14)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        z = rng.integers(0, k, size=60)
        zh = rng.integers(0, k, size=60)
        eta, _ = hs.mismatch_ratio(z, zh, k=k)
        assert eta <= 1.0 - 1.0 / k + 1e-12


def test_mismatch_permutation_is_reported():
    z = np.array([0, 0, 1, 1])
    eta, perm = hs.mismatch_ratio(z, 1 - z)
    assert eta == 0.0 and perm.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# Agnostic pipeline
# ---------------------------------------------------------------------------

def test_agnostic_on_disconnected_cliques():
    h, truth = two_clique_instance()
    report = hs.agnostic_partition(h, 2, seed=0, truth=truth)
    assert report.eta == 0.0
    assert report.kept == 8
    assert report.iterations >= 1
    assert report.converged is True


def test_agnostic_single_community():
    h, _ = two_clique_instance()
    report = hs.agnostic_partition(h, 1, seed=0, truth=np.zeros(8, dtype=int))
    assert report.eta == 0.0
    assert np.all(report.labels == 0)


def test_agnostic_deterministic():
    h, z, _ = planted_instance(150, 12, 2, 5)
    r1 = hs.agnostic_partition(h, 2, seed=9, truth=z)
    r2 = hs.agnostic_partition(h, 2, seed=9, truth=z)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.eta == r2.eta and r1.iterations == r2.iterations


def test_agnostic_recovers_mixed_order_model():
    # divergence ~2 with within/cross ratio capped at 4, graph + triple layers
    n = 500
    cf = {2: hs.two_level_coefficients(2, {2: 6.0}, {2: 2.0})[2],
          3: hs.two_level_coefficients(2, {3: 23.4}, {3: 5.85})[3]}
    T = hs.ProbabilityTensors.from_unscaled(2, cf, n)
    assert 1.9 <= hs.chernoff_hellinger([0.5, 0.5], cf, n).value <= 2.1
    assert max(T.q[m].max() / T.q[m].min() for m in T.orders) <= 4.0
    wins = 0
    for t in range(20):
        z = hs.sample_membership(n, [0.5, 0.5], seed=[7700 + t, 11])
        h = hs.sample_hypergraph(n, z, T, seed=[7700 + t, 12])
        wins += hs.agnostic_partition(h, 2, seed=7700 + t, truth=z).eta == 0.0
    assert wins >= 16


def test_agnostic_without_truth_leaves_eta_unset():
    h, _, _ = planted_instance(100, 12, 2, 6)
    report = hs.agnostic_partition(h, 2, seed=1)
    assert report.eta is None and report.eta_stage1 is None
    assert report.labels.shape == (100,)


def test_agnostic_degenerate_degree_propagates():
    h = Hypergraph(30, {2: np.empty((0, 2), dtype=np.int64)})
    with pytest.raises(DegenerateDegreeError):
        hs.agnostic_partition(h, 2, seed=0)


# ---------------------------------------------------------------------------
# Known-parameter pipeline
# ---------------------------------------------------------------------------

def test_prior_pipeline_small_n_guard():
    h, z, T = planted_instance(100, 14, 2, 0)
    small = Hypergraph(10, {2: np.array([[0, 1], [2, 3]])})
    with pytest.raises(ValueError):
        hs.partition_with_prior(small, 2, T, [0.5, 0.5], seed=0)


def test_prior_pipeline_deterministic():
    h, z, T = planted_instance(200, 16, 2, 3)
    r1 = hs.partition_with_prior(h, 2, T, [0.5, 0.5], seed=4, truth=z)
    r2 = hs.partition_with_prior(h, 2, T, [0.5, 0.5], seed=4, truth=z)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.eta == r2.eta


def test_prior_pipeline_recovers_planted():
    wins = 0
    for t in range(5):
        h, z, T = planted_instance(300, 18, 2, 40 + t)
        report = hs.partition_with_prior(h, 2, T, [0.5, 0.5], seed=40 + t, truth=z)
        assert report.converged is None  # the MAP route does not iterate
        wins += report.eta == 0.0
    assert wins >= 4


def test_prior_pipeline_rejects_disagreeing_k():
    h, z, T = planted_instance(100, 14, 2, 0)
    for k in (1, 3):
        with pytest.raises(ValueError, match=f"k={k} does not match the model's k=2"):
            hs.partition_with_prior(h, k, T, [1 / k] * k, seed=0)
    with pytest.raises(ValueError, match="k=2 does not match the prior's 3 entries"):
        hs.partition_with_prior(h, 2, T, [0.2, 0.3, 0.5], seed=0)


# ---------------------------------------------------------------------------
# Number of communities
# ---------------------------------------------------------------------------

def test_count_single_dense_community():
    coeffs = {2: np.array([40.0])}
    T = hs.ProbabilityTensors.from_unscaled(1, coeffs, 300)
    hits = 0
    for t in range(10):
        h = hs.sample_hypergraph(300, np.zeros(300, dtype=int), T, seed=t)
        hits += hs.estimate_num_communities(h).k_hat == 1
    assert hits >= 9


def test_count_rejects_empty_hypergraph():
    h = Hypergraph(20, {2: np.empty((0, 2), dtype=np.int64)})
    with pytest.raises(DegenerateDegreeError):
        hs.estimate_num_communities(h)


def test_count_reports_spectrum_and_threshold():
    h, z, _ = planted_instance(200, 30, 5, 2)
    est = hs.estimate_num_communities(h)
    assert est.k_hat == 2
    assert est.eigenvalues[0] > est.eigenvalues[1] > est.threshold
    assert est.gap > 1.0


def test_count_full_spectrum_mode():
    h, _, _ = planted_instance(150, 24, 4, 11)
    est = hs.estimate_num_communities(h, num_eigenvalues=150)
    assert len(est.eigenvalues) == 150
    assert est.k_hat == 2


def test_count_widened_search():
    h, _, _ = planted_instance(300, 24, 4, 12)
    est = hs.estimate_num_communities(h, num_eigenvalues=20)
    assert len(est.eigenvalues) == 20
    assert est.k_hat == 2


@pytest.mark.parametrize("n", [300, 1000])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_matches_tight_solve(n, k):
    coeffs = hs.two_level_coefficients(k, {2: 12.0, 3: 14.0}, {2: 1.0, 3: 1.5})
    T = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)
    z = hs.sample_membership(n, [1.0 / k] * k, seed=[k, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[k, 12])
    est = hs.estimate_num_communities(h)
    tight = count_communities_tight(h)
    assert est.k_hat == tight.k_hat == k
    assert est.threshold == tight.threshold
    assert np.allclose(est.eigenvalues[:k], tight.eigenvalues[:k], rtol=1e-9, atol=0)


def test_count_falls_back_to_tight_solve_near_threshold(monkeypatch):
    # K_81 plus K_27 padded with isolated vertices: the threshold is
    # 80^(3/4) ~ 26.7 and the second eigenvalue 26 lies within 10% of it
    cliques = [[base + i, base + j] for base, size in ((0, 81), (81, 27))
               for i in range(size) for j in range(i + 1, size)]
    h = make_hypergraph(300, {2: cliques})
    calls = []

    def spy(a, k, **kwargs):
        calls.append(kwargs)
        return hs.rank_k_approx(a, k, **kwargs)

    monkeypatch.setattr(pipeline, "rank_k_approx", spy)
    est = hs.estimate_num_communities(h)
    assert calls == [{"tol": pipeline.COUNT_TOL}, {}]
    assert est.k_hat == 1
    assert np.allclose(est.eigenvalues[:2], [80.0, 26.0])


LOOSE, TIGHT = {"tol": pipeline.COUNT_TOL}, {}


def spy_on_solves(monkeypatch):
    """Record (pairs, keyword arguments) of each eigensolve k estimation asks for."""
    calls = []

    def spy(a, k, **kwargs):
        calls.append((k, kwargs))
        return hs.rank_k_approx(a, k, **kwargs)

    monkeypatch.setattr(pipeline, "rank_k_approx", spy)
    return calls


def planted_count_instance(n, k, within=(12.0, 14.0)):
    coeffs = hs.two_level_coefficients(k, {2: within[0], 3: within[1]}, {2: 1.0, 3: 1.5})
    T = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)
    z = hs.sample_membership(n, [1.0 / k] * k, seed=[k, 11])
    return hs.sample_hypergraph(n, z, T, seed=[k, 12])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_settles_small_k_in_one_loose_solve(monkeypatch, k):
    h = planted_count_instance(1000, k)
    calls = spy_on_solves(monkeypatch)
    est = hs.estimate_num_communities(h)
    assert calls == [(6, LOOSE)]
    assert est.k_hat == k and len(est.eigenvalues) == 6


@pytest.mark.parametrize("n, k, within, solves", [
    # six outliers clear the threshold, so six pairs cannot show the
    # seventh value below it; the cap is 12 at n = 1000 and 14 at n = 3000,
    # where the second solve stops on the count, not on the cap
    (1000, 6, (30.0, 32.0), [(6, LOOSE), (12, LOOSE)]),
    (3000, 6, (30.0, 32.0), [(6, LOOSE), (12, LOOSE)]),
    # five outliers close to the bulk: six pairs show the sixth value below
    # the threshold, but a 6-pair loose solve leaves the outliers 0.8% low
    (3000, 5, (12.0, 14.0), [(6, LOOSE), (12, LOOSE)]),
    # a 6-pair value lies within 10% of the threshold, but that loose solve
    # already certifies five values above it, so only the 12 pairs are
    # redone tight
    (1000, 5, (12.0, 14.0), [(6, LOOSE), (12, LOOSE), (12, TIGHT)]),
], ids=["k6-n1000", "k6-n3000", "k5-n3000", "k5-n1000-near"])
def test_count_doubles_the_solve_until_the_count_is_decided(monkeypatch, n, k, within, solves):
    h = planted_count_instance(n, k, within=within)
    tight = count_communities_tight(h)
    calls = spy_on_solves(monkeypatch)
    est = hs.estimate_num_communities(h)
    assert calls == solves
    assert est.k_hat == tight.k_hat == k and len(est.eigenvalues) == 12
    assert np.allclose(est.eigenvalues[:k], tight.eigenvalues[:k], rtol=1e-9, atol=0)


def test_count_stops_at_the_cap_when_every_value_clears_the_threshold(monkeypatch):
    # twelve cliques K_14 ... K_25 padded to n = 300: the cap is 11, the
    # threshold 24^(3/4) ~ 10.8 and the top eigenvalues 24, 23, ..., 13
    cliques = []
    base = 0
    for size in range(14, 26):
        cliques += [[base + i, base + j] for i in range(size) for j in range(i + 1, size)]
        base += size
    h = make_hypergraph(300, {2: cliques})
    calls = spy_on_solves(monkeypatch)
    est = hs.estimate_num_communities(h)
    assert calls == [(6, LOOSE), (11, LOOSE)]
    assert est.k_hat == len(est.eigenvalues) == 11
    assert np.allclose(est.eigenvalues, np.arange(24.0, 13.0, -1.0))


@pytest.mark.parametrize("num", [3, 11, 40])
def test_count_with_explicit_num_is_one_solve(monkeypatch, num):
    h = planted_count_instance(1000, 2)
    want = hs.rank_k_approx(adjacency_matrix(h), num, tol=pipeline.COUNT_TOL).values
    calls = spy_on_solves(monkeypatch)
    est = hs.estimate_num_communities(h, num_eigenvalues=num)
    assert calls == [(num, LOOSE)]
    assert np.array_equal(est.eigenvalues, want)
    assert est.k_hat == 2


@pytest.mark.parametrize("num", [None, 2, 11, 150, 300])
def test_count_includes_zero_eigenvalues_of_isolated_vertices(num):
    # K_81 plus K_27 padded to n = 300: the spectrum is 80, 26, -1 (106
    # times) and 0 (192 times, one per isolated vertex)
    cliques = [[base + i, base + j] for base, size in ((0, 81), (81, 27))
               for i in range(size) for j in range(i + 1, size)]
    h = make_hypergraph(300, {2: cliques})
    est = hs.estimate_num_communities(h, num_eigenvalues=num)
    spectrum = np.linalg.eigvalsh(adjacency_matrix(h).toarray())[::-1]
    want = spectrum[:len(est.eigenvalues)]
    assert len(est.eigenvalues) == (6 if num is None else num)
    assert np.allclose(est.eigenvalues, want, rtol=0, atol=1e-8)
    assert est.k_hat == 1


def test_count_with_isolated_vertices_equals_the_count_on_the_slice(monkeypatch):
    # 1999 sampled vertices spread over n = 3000, so 1001 are isolated
    coeffs = hs.two_level_coefficients(2, {2: 12.0, 3: 14.0}, {2: 2.0, 3: 3.0})
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, 1999)
    z = hs.sample_membership(1999, [0.5, 0.5], seed=[2, 11])
    core = hs.sample_hypergraph(1999, z, T, seed=[2, 12])
    spots = np.sort(np.random.default_rng(10).choice(3000, size=1999, replace=False))
    h = Hypergraph(3000, {m: spots[e] for m, e in core.edges.items()})
    assert (h.degrees() == 0).sum() >= 1001
    est = hs.estimate_num_communities(h)
    monkeypatch.setattr(pipeline, "live_adjacency", live_adjacency_slice)
    sliced = hs.estimate_num_communities(h)
    assert est.k_hat == sliced.k_hat == 2
    assert est.threshold == sliced.threshold
    assert np.array_equal(est.eigenvalues, sliced.eigenvalues)
