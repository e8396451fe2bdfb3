"""Tensor estimation, likelihood refinement, splitting, MAP correction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersbm as hs
from hypersbm.model import make_hypergraph
from hypersbm.refinement import _edge_types, edge_composition_counts, edge_type_count_matrix
from oracles import (composition_index, composition_rank, edge_types_by_counts,
                     tensor_value, type_counts_bruteforce)


def two_clique_instance():
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append([base + i, base + j])
    return make_hypergraph(8, {2: edges}), np.array([0] * 4 + [1] * 4)


def planted_instance(n, a, b, seed, orders=(2,)):
    coeffs = {}
    for m in orders:
        coeffs.update(hs.two_level_coefficients(2, {m: float(a)}, {m: float(b)}))
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    z = hs.sample_membership(n, [0.5, 0.5], seed=[seed, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[seed, 12])
    return h, z, T


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def test_estimate_complete_and_empty():
    h, truth = two_clique_instance()
    est = hs.estimate_tensors(h, truth, 2)
    assert est.values[2][0] == 1.0   # type (2,0): all 6 within edges present
    assert est.values[2][2] == 1.0   # type (0,2)
    assert est.values[2][1] == 0.0   # type (1,1): no cross edges
    assert est.counts[2].tolist() == [6, 0, 6]
    assert est.capacities[2].tolist() == [6.0, 16.0, 6.0]


def test_estimate_flags_empty_blocks():
    h, _ = two_clique_instance()
    labels = np.zeros(8, dtype=int)  # block 1 empty
    est = hs.estimate_tensors(h, labels, 2)
    assert est.defined[2].tolist() == [True, False, False]
    assert np.isnan(est.values[2][1])


def test_estimate_is_unbiased_with_true_labels():
    # standardized error of the cross-type estimate over many seeds sits in
    # the usual z-score band
    n, seeds = 40, 1000
    coeffs = hs.two_level_coefficients(2, {2: 9.0}, {2: 3.0})
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    z = np.array([0, 1] * (n // 2))
    q = tensor_value(T, 2, (1, 1))
    cap = 20 * 20
    sd = math.sqrt(q * (1 - q) / cap)
    scores = []
    for s in range(seeds):
        h = hs.sample_hypergraph(n, z, T, seed=s)
        est = hs.estimate_tensors(h, z, 2)
        scores.append((est.values[2][1] - q) / sd)
    scores = np.array(scores)
    assert abs(scores.mean()) <= 0.1
    assert 0.7 <= scores.var() <= 1.3


def test_estimate_accuracy_on_planted_instance():
    n = 400
    good = 0
    for t in range(5):
        h, z, T = planted_instance(n, 30, 6, 4000 + t)
        est = hs.estimate_tensors(h, z, 2)
        rel = np.abs(est.values[2] - T.q[2]) / T.q[2]
        good += rel.max() <= 0.1
    assert good >= 4


# ---------------------------------------------------------------------------
# Type counts
# ---------------------------------------------------------------------------

def test_edge_type_counts_examples():
    h = make_hypergraph(3, {3: [[0, 1, 2]]})
    counts = hs.edge_type_count_matrix(h, np.array([0, 1, 1]), 2)
    idx = list(hs.weak_compositions(2, 2)).index((0, 2))
    assert counts[3][0, idx] == 1
    assert counts[3][0].sum() == 1
    # vertex 1 sees one member of each community
    assert counts[3][1, list(hs.weak_compositions(2, 2)).index((1, 1))] == 1
    # isolated vertex
    h2 = make_hypergraph(4, {2: [[0, 1]]})
    counts2 = hs.edge_type_count_matrix(h2, np.zeros(4, dtype=int), 1)
    assert counts2[2][3].sum() == 0


def test_edge_type_counts_match_degree_profile():
    for seed in range(10):
        h, z, T = planted_instance(30, 8, 2, seed, orders=(2, 3))
        mats = edge_type_count_matrix(h, z, 2)
        for v in range(0, 30, 7):
            oracle = type_counts_bruteforce(h, z, v, 2)
            for m in h.orders:
                assert np.array_equal(mats[m][v], oracle[m])


def test_edge_type_count_matrix_matches_per_vertex():
    h, z, _ = planted_instance(40, 10, 3, 77, orders=(2, 3))
    mats = edge_type_count_matrix(h, z, 2)
    for v in range(h.n):
        oracle = type_counts_bruteforce(h, z, v, 2)
        for m in h.orders:
            assert np.array_equal(mats[m][v], oracle[m])


def test_edge_composition_counts_total():
    h, z, _ = planted_instance(50, 10, 3, 5, orders=(2, 3))
    counts = edge_composition_counts(h, z, 2)
    for m in h.orders:
        assert counts[m].sum() == h.num_edges(m)


@st.composite
def labelled_hypergraphs(draw):
    """Small hypergraphs with orders 2-6 and labels from up to 12 communities."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(6, 14))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    edges = {}
    for m in draw(st.sets(st.integers(2, 6), min_size=1, max_size=3)):
        edge = st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)
        edges[m] = draw(st.lists(edge, max_size=15, unique_by=lambda r: frozenset(r)))
    return make_hypergraph(n, edges), labels, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(labelled_hypergraphs())
def test_type_count_kernel_matches_oracle(instance):
    h, labels, k = instance
    mats = edge_type_count_matrix(h, labels, k)
    for v in range(h.n):
        oracle = type_counts_bruteforce(h, labels, v, k)
        for m in h.orders:
            assert np.array_equal(mats[m][v], oracle[m])
    totals = edge_composition_counts(h, labels, k)
    for m, e in h.edges.items():
        oracle = np.zeros(len(hs.weak_compositions(m, k)), dtype=np.int64)
        for row in e:
            oracle[composition_index(m, k)[tuple(np.bincount(labels[row], minlength=k))]] += 1
        assert np.array_equal(totals[m], oracle)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(labelled_hypergraphs(), st.randoms(use_true_random=False))
def test_type_count_rows_follow_vertex_relabelling(instance, rnd):
    h, labels, k = instance
    perm = np.array(rnd.sample(range(h.n), h.n))
    moved = make_hypergraph(h.n, {m: perm[e] for m, e in h.edges.items()})
    moved_labels = np.empty_like(labels)
    moved_labels[perm] = labels
    before = edge_type_count_matrix(h, labels, k)
    after = edge_type_count_matrix(moved, moved_labels, k)
    for m in h.orders:
        assert np.array_equal(after[m][perm], before[m])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(labelled_hypergraphs(), st.randoms(use_true_random=False))
def test_estimate_tensors_commute_with_community_relabelling(instance, rnd):
    h, labels, k = instance
    pi = np.array(rnd.sample(range(k), k))
    before = hs.estimate_tensors(h, labels, k)
    after = hs.estimate_tensors(h, pi[labels], k)
    for m in h.orders:
        # type w under the old labels is type w' with w'[pi[l]] = w[l]
        types = np.array(hs.weak_compositions(m, k), dtype=np.int64)
        moved = np.empty_like(types)
        moved[:, pi] = types
        j = composition_rank(moved, m)
        assert np.array_equal(after.counts[m][j], before.counts[m])
        assert after.capacities[m][j].tobytes() == before.capacities[m].tobytes()
        assert np.array_equal(after.defined[m][j], before.defined[m])
        assert np.array_equal(after.values[m][j], before.values[m], equal_nan=True)


@st.composite
def labelled_edges(draw):
    """Member labels (E, m) of up to 40 edges, E = 0 included, for orders
    2..6 and 1..12 communities."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=m, max_size=m),
                         max_size=40))
    return np.array(rows, dtype=np.int64).reshape(-1, m), k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labelled_edges())
def test_lifted_edge_types_match_count_ranking(case):
    edge_labels, k = case
    got = _edge_types(edge_labels, k)
    assert got.dtype == np.int64 and got.shape == (len(edge_labels),)
    assert np.array_equal(got, edge_types_by_counts(edge_labels, k))


def test_type_counts_have_no_community_cap():
    # twelve communities with a 6-edge: past the reach of a dense
    # base-(m+1)^k code table
    h = make_hypergraph(8, {6: [[0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 6, 7]], 2: [[0, 7]]})
    labels = np.array([0, 11, 3, 3, 7, 5, 11, 2])
    mats = edge_type_count_matrix(h, labels, 12)
    for v in range(h.n):
        oracle = type_counts_bruteforce(h, labels, v, 12)
        for m in h.orders:
            assert np.array_equal(mats[m][v], oracle[m])
    assert mats[6][3].sum() == 2
    assert edge_composition_counts(h, labels, 12)[6].sum() == 2


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def test_refine_fixed_point_on_cliques():
    h, truth = two_clique_instance()
    est = hs.estimate_tensors(h, truth, 2)
    out = hs.refine_step(h, truth, est, seed=0)
    assert np.array_equal(out, truth)


def test_refine_corrects_single_misplaced_vertex():
    h, truth = two_clique_instance()
    est = hs.estimate_tensors(h, truth, 2)
    wrong = truth.copy()
    wrong[0] = 1
    out = hs.refine_step(h, wrong, est, seed=0)
    assert np.array_equal(out, truth)


def test_refine_single_community_is_identity():
    h, _ = two_clique_instance()
    labels = np.zeros(8, dtype=int)
    est = hs.estimate_tensors(h, labels, 1)
    out = hs.refine_step(h, labels, est, seed=0)
    assert np.array_equal(out, labels)


def test_refine_is_equivariant_under_relabeling():
    h, z, _ = planted_instance(60, 14, 3, 8)
    start = z.copy()
    start[:5] = 1 - start[:5]  # perturb a few labels
    est = hs.estimate_tensors(h, start, 2)
    out = hs.refine_step(h, start, est, seed=1)
    swapped = 1 - start
    est_swapped = hs.estimate_tensors(h, swapped, 2)
    out_swapped = hs.refine_step(h, swapped, est_swapped, seed=1)
    assert np.array_equal(out_swapped, 1 - out)


def test_refine_survives_collapsed_initial_labelling():
    # a stage-one labelling that missed a community entirely must not crash;
    # the empty block's types are undefined and contribute nothing
    h, z, _ = planted_instance(80, 12, 2, 21)
    collapsed = np.zeros(80, dtype=int)
    est = hs.estimate_tensors(h, collapsed, 2)
    log_q, log_1mq = est.clamped_logs(2)
    assert est.defined[2].tolist() == [True, False, False]
    assert log_q[1:].tolist() == log_1mq[1:].tolist() == [0.0, 0.0]
    # the empty block's types score 0, above every defined log-likelihood,
    # so the first round moves every vertex there
    assert np.array_equal(hs.refine_step(h, collapsed, est, seed=0), np.ones(80))
    labels, rounds, _ = hs.agnostic_refine(h, collapsed, 2, seed=0)
    assert labels.shape == (80,)
    assert set(np.unique(labels)) <= {0, 1}
    assert rounds >= 1


def test_agnostic_refine_stops_at_fixed_point():
    h, truth = two_clique_instance()
    labels, rounds, converged = hs.agnostic_refine(h, truth, 2, seed=0)
    assert np.array_equal(labels, truth)
    assert rounds == 1
    assert converged


def test_agnostic_refine_round_budget():
    h, z, _ = planted_instance(100, 12, 2, 3)
    start = z.copy()
    start[:20] = 1 - start[:20]
    labels, rounds, converged = hs.agnostic_refine(h, start, 2, seed=0)
    assert rounds <= math.ceil(math.log(100)) + 1
    assert converged or rounds == math.ceil(math.log(100)) + 1


def test_agnostic_refine_reports_its_round_cap():
    # an all-zero start leaves the second community's rates undefined, so the
    # labels swing between one block and a random tie-break split and never settle
    h, _, _ = planted_instance(300, 14, 2, 0)
    labels, rounds, converged = hs.agnostic_refine(h, np.zeros(300, dtype=int), 2, seed=0)
    assert rounds == math.ceil(math.log(300)) + 1 == 7
    assert not converged


def test_agnostic_refine_reaches_exact_recovery():
    wins = 0
    for t in range(10):
        h, z, _ = planted_instance(300, 14, 2, 600 + t)
        start = z.copy()
        flip = np.random.default_rng(t).choice(300, size=15, replace=False)
        start[flip] = 1 - start[flip]
        labels, _, _ = hs.agnostic_refine(h, start, 2, seed=t)
        eta, _ = hs.mismatch_ratio(z, labels)
        wins += eta == 0.0
    assert wins >= 9


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_extremes():
    h, _, _ = planted_instance(50, 10, 3, 5, orders=(2, 3))
    n = h.n
    all_first = hs.split(h, math.log(n), seed=0)
    assert all_first.first.num_edges() == h.num_edges()
    assert all_first.second.num_edges() == 0
    none_first = hs.split(h, 0.0, seed=0)
    assert none_first.first.num_edges() == 0


def test_split_rejects_bad_probability():
    h, _, _ = planted_instance(50, 10, 3, 5)
    with pytest.raises(ValueError):
        hs.split(h, 2 * math.log(50), seed=0)
    with pytest.raises(ValueError):
        hs.split(h, -0.5, seed=0)


def test_split_partitions_edges():
    for seed in range(10):
        h, _, _ = planted_instance(60, 10, 3, seed, orders=(2, 3))
        parts = hs.split(h, math.log(math.log(60)), seed=seed)
        for m in h.orders:
            merged = np.vstack([parts.first.edges[m], parts.second.edges[m]])
            merged = merged[np.lexsort(merged.T[::-1])]
            assert np.array_equal(merged, h.edges[m])


def test_split_counts_match_binomial():
    h, _, _ = planted_instance(60, 10, 3, 1)
    theta = math.log(math.log(60))
    p = theta / math.log(60)
    total = h.num_edges()
    counts = [hs.split(h, theta, seed=s).first.num_edges() for s in range(1000)]
    sd_of_mean = math.sqrt(total * p * (1 - p) / len(counts))
    assert abs(np.mean(counts) - total * p) <= 3 * sd_of_mean


# ---------------------------------------------------------------------------
# MAP correction
# ---------------------------------------------------------------------------

def symmetric_prior_instance():
    """Vertex 0 isolated; other eight vertices split evenly; symmetric rates."""
    edges = [[1, 2], [3, 4], [5, 6], [7, 8]]
    h = make_hypergraph(9, {2: edges})
    labels0 = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
    q = {2: np.array([0.3, 0.1, 0.3])}  # within symmetric, cross lower
    return h, labels0, hs.ProbabilityTensors(k=2, q=q)


def test_map_prior_decides_for_isolated_vertex():
    h, labels0, T = symmetric_prior_instance()
    out = hs.map_correct(h, labels0, T, [0.9, 0.1])
    assert out[0] == 0
    out = hs.map_correct(h, labels0, T, [0.1, 0.9])
    assert out[0] == 1


def test_map_follows_neighbors_under_assortative_rates():
    edges = [[0, v] for v in range(1, 5)]
    h = make_hypergraph(10, {2: edges})
    labels0 = np.array([1, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    q = {2: np.array([0.5, 0.05, 0.5])}
    T = hs.ProbabilityTensors(k=2, q=q)
    out = hs.map_correct(h, labels0, T, [0.5, 0.5])
    assert out[0] == 0  # all neighbors carry label 0


def test_map_rejects_degenerate_probabilities():
    h, labels0, _ = symmetric_prior_instance()
    bad = hs.ProbabilityTensors(k=2, q={2: np.array([1.0, 0.1, 0.3])})
    with pytest.raises(ValueError):
        hs.map_correct(h, labels0, bad, [0.5, 0.5])


def test_map_prior_monotone_at_likelihood_ties():
    # uniform rates make every community's likelihood identical, so the
    # decision tracks the prior exactly and never flips away from the
    # strictly preferred community
    h, labels0, _ = symmetric_prior_instance()
    T = hs.ProbabilityTensors(k=2, q={2: np.full(3, 0.2)})
    out = hs.map_correct(h, labels0, T, [0.6, 0.4])
    assert np.all(out == 0)
    out = hs.map_correct(h, labels0, T, [0.4, 0.6])
    assert np.all(out == 1)


def test_map_exact_recovery_on_planted_instance():
    wins = 0
    for t in range(10):
        h, z, T = planted_instance(300, 16, 2, 900 + t)
        start = z.copy()
        flip = np.random.default_rng(t).choice(300, size=15, replace=False)
        start[flip] = 1 - start[flip]
        out = hs.map_correct(h, start, T, [0.5, 0.5])
        eta, _ = hs.mismatch_ratio(z, out)
        wins += eta == 0.0
    assert wins >= 9
