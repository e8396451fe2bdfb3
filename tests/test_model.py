"""Sampling, adjacency, per-vertex type counts, and the text formats."""

import itertools

import numpy as np
import pytest

import hypersbm as hs
from hypersbm.compositions import composition_index
from hypersbm.model import Hypergraph, make_hypergraph
from oracles import type_counts_bruteforce


def two_block_tensors(n, a, b, orders=(2,)):
    coeffs = {}
    for m in orders:
        coeffs.update(hs.two_level_coefficients(2, {m: float(a)}, {m: float(b)}))
    return hs.ProbabilityTensors.from_unscaled(2, coeffs, n)


def random_instance(seed, n_max=12):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    k = int(rng.integers(1, 4))
    alpha = rng.dirichlet(np.ones(k) * 5)
    orders = sorted(rng.choice([2, 3, 4], size=rng.integers(1, 3), replace=False))
    q = {int(m): rng.uniform(0.0, 0.9, size=len(hs.weak_compositions(int(m), k)))
         for m in orders}
    tensors = hs.ProbabilityTensors(k=k, q=q)
    labels = hs.sample_membership(n, alpha, seed=rng.integers(2**31))
    h = hs.sample_hypergraph(n, labels, tensors, seed=rng.integers(2**31))
    return h, labels, tensors


# ---------------------------------------------------------------------------
# Priors and membership
# ---------------------------------------------------------------------------

def test_validate_prior():
    with pytest.raises(ValueError):
        hs.validate_prior([0.5, 0.6])
    with pytest.raises(ValueError):
        hs.validate_prior([1.0, 0.0])
    assert np.allclose(hs.validate_prior([0.25, 0.75]), [0.25, 0.75])


def test_membership_degenerate_prior():
    assert np.all(hs.sample_membership(20, [1.0], seed=0) == 0)


def test_membership_determinism():
    a = hs.sample_membership(100, [0.3, 0.7], seed=11)
    b = hs.sample_membership(100, [0.3, 0.7], seed=11)
    assert np.array_equal(a, b)


def test_membership_block_sizes_concentrate():
    n = 10**4
    z = hs.sample_membership(n, [0.5, 0.5], seed=5)
    assert abs((z == 0).sum() - n / 2) <= 4 * np.sqrt(n)


def test_membership_exact_sizes():
    z = hs.sample_membership(10, [0.5, 0.5], seed=3, exact_sizes=True)
    assert sorted(np.bincount(z)) == [5, 5]
    z = hs.sample_membership(11, [0.4, 0.6], seed=3, exact_sizes=True)
    sizes = np.bincount(z, minlength=2)
    assert sizes.sum() == 11 and sizes[0] in (4, 5)


# ---------------------------------------------------------------------------
# Hypergraph sampling
# ---------------------------------------------------------------------------

def test_certain_edges_give_complete_layer():
    q = {2: np.ones(3), 3: np.ones(4)}
    tensors = hs.ProbabilityTensors(k=2, q=q)
    z = np.array([0, 0, 1, 1, 1])
    h = hs.sample_hypergraph(5, z, tensors, seed=0)
    from math import comb
    assert h.num_edges(2) == comb(5, 2)
    assert h.num_edges(3) == comb(5, 3)
    h.validate()


def test_zero_probability_gives_empty_layer():
    tensors = hs.ProbabilityTensors(k=1, q={2: np.zeros(1)})
    h = hs.sample_hypergraph(6, np.zeros(6, dtype=int), tensors, seed=0)
    assert h.num_edges() == 0


def test_sampler_determinism():
    T = two_block_tensors(60, 9, 1)
    z = hs.sample_membership(60, [0.5, 0.5], seed=1)
    h1 = hs.sample_hypergraph(60, z, T, seed=9)
    h2 = hs.sample_hypergraph(60, z, T, seed=9)
    assert np.array_equal(h1.edges[2], h2.edges[2])


def test_edge_count_matches_binomial_mean():
    # K=1, n=6, q=0.3: mean edge count over many seeds within 3 sd of 4.5
    from math import comb
    n, q, seeds = 6, 0.3, 10**4
    tensors = hs.ProbabilityTensors(k=1, q={2: np.array([q])})
    z = np.zeros(n, dtype=int)
    total = sum(hs.sample_hypergraph(n, z, tensors, seed=s).num_edges(2)
                for s in range(seeds))
    mean = total / seeds
    cap = comb(n, 2)
    sd_of_mean = np.sqrt(cap * q * (1 - q) / seeds)
    assert abs(mean - cap * q) <= 3 * sd_of_mean


def test_stratified_sampling_matches_per_edge_bernoulli():
    # every individual pair should be present with its type's probability
    n, seeds = 6, 10**4
    q = {2: np.array([0.7, 0.2, 0.45])}  # types (2,0), (1,1), (0,2)
    tensors = hs.ProbabilityTensors(k=2, q=q)
    z = np.array([0, 0, 0, 1, 1, 1])
    freq = np.zeros((n, n))
    for s in range(seeds):
        e = hs.sample_hypergraph(n, z, tensors, seed=s).edges[2]
        freq[e[:, 0], e[:, 1]] += 1
    freq /= seeds
    for i, j in itertools.combinations(range(n), 2):
        w = tuple(np.bincount([z[i], z[j]], minlength=2))
        p = tensors.value(2, w)
        sd = np.sqrt(p * (1 - p) / seeds)
        assert abs(freq[i, j] - p) <= 3 * sd, (i, j, freq[i, j], p)


def test_tensor_scaling_and_restriction():
    T = two_block_tensors(100, 8, 2, orders=(2, 3))
    half = T.scaled_by(0.5)
    assert np.allclose(half.q[2], T.q[2] * 0.5)
    assert np.allclose(half.unscaled(3), T.unscaled(3) * 0.5)
    only2 = T.restricted([2])
    assert only2.orders == [2]
    with pytest.raises(ValueError):
        T.restricted([5])


def test_probability_validation():
    with pytest.raises(ValueError):
        hs.ProbabilityTensors(k=1, q={2: np.array([1.2])})
    with pytest.raises(ValueError):
        # scaling pushes the probability above one
        hs.ProbabilityTensors.from_unscaled(1, {2: np.array([100.0])}, 20)


def test_unranking_is_a_bijection():
    # oracle: explicit enumeration of all k-subsets
    from math import comb
    from hypersbm.model import _unrank_combinations

    for s in (3, 5, 8, 12):
        for k in (1, 2, 3, 4):
            if k > s:
                continue
            decoded = _unrank_combinations(np.arange(comb(s, k)), s, k)
            assert np.all(np.diff(decoded, axis=1) > 0)
            got = {tuple(r) for r in decoded}
            expected = {c for c in itertools.combinations(range(s), k)}
            assert got == expected


def test_distinct_sampling_rejection_path():
    # class sizes beyond the permutation cutoff go through rejection sampling
    from hypersbm.model import _sample_distinct

    total = 10**9
    out = _sample_distinct(np.random.default_rng(0), total, 5000)
    assert len(np.unique(out)) == 5000
    assert out.min() >= 0 and out.max() < total
    again = _sample_distinct(np.random.default_rng(0), total, 5000)
    assert np.array_equal(out, again)


def test_sampler_accepts_generator_seeds():
    T = two_block_tensors(50, 9, 1)
    z = hs.sample_membership(50, [0.5, 0.5], seed=np.random.default_rng(3))
    z2 = hs.sample_membership(50, [0.5, 0.5], seed=np.random.default_rng(3))
    assert np.array_equal(z, z2)
    h = hs.sample_hypergraph(50, z, T, seed=np.random.default_rng(4))
    h2 = hs.sample_hypergraph(50, z, T, seed=np.random.default_rng(4))
    assert np.array_equal(h.edges[2], h2.edges[2])


# ---------------------------------------------------------------------------
# Adjacency matrix
# ---------------------------------------------------------------------------

def brute_force_adjacency(h):
    a = np.zeros((h.n, h.n), dtype=np.int64)
    for m, e in h.edges.items():
        for row in e:
            for i, j in itertools.combinations(row, 2):
                a[i, j] += 1
                a[j, i] += 1
    return a


def test_adjacency_single_triple():
    h = make_hypergraph(3, {3: [[0, 1, 2]]})
    a = hs.adjacency_matrix(h).toarray()
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))


def test_adjacency_counts_multi_order():
    h = make_hypergraph(3, {2: [[0, 1]], 3: [[0, 1, 2]]})
    a = hs.adjacency_matrix(h).toarray()
    assert a[0, 1] == 2 and a[1, 0] == 2
    assert a[0, 2] == 1 and a[1, 2] == 1


def test_adjacency_empty():
    h = Hypergraph(4, {2: np.empty((0, 2), dtype=np.int64)})
    assert hs.adjacency_matrix(h).nnz == 0


def test_adjacency_matches_bruteforce_on_random_instances():
    for seed in range(40):
        h, _, _ = random_instance(seed)
        a = hs.adjacency_matrix(h).toarray()
        assert np.array_equal(a, brute_force_adjacency(h))
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)


# ---------------------------------------------------------------------------
# Degrees and profiles
# ---------------------------------------------------------------------------

def test_handshake_identity():
    for seed in range(100):
        h, _, _ = random_instance(seed)
        lhs = h.degrees().sum()
        rhs = sum(m * h.num_edges(m) for m in h.orders)
        assert lhs == rhs


def test_degree_profile_isolated_vertex():
    h = make_hypergraph(4, {2: [[0, 1]]})
    labels = np.zeros(4, dtype=int)
    counts = hs.edge_type_count_matrix(h, labels, 1)
    assert h.degrees()[3] == 0
    assert all(mat[3].sum() == 0 for mat in counts.values())
    oracle = type_counts_bruteforce(h, labels, 3, 1)
    assert all(np.array_equal(mat[3], oracle[m]) for m, mat in counts.items())


def test_degree_profile_single_triple():
    h = make_hypergraph(3, {3: [[0, 1, 2]]})
    labels = np.array([0, 0, 1])
    row = hs.edge_type_count_matrix(h, labels, 2)[3][0]
    assert row[composition_index(2, 2)[(1, 1)]] == 1
    assert row.sum() == 1 == h.degrees()[0]
    assert np.array_equal(row, type_counts_bruteforce(h, labels, 0, 2)[3])


def test_degree_profile_sums_equal_incident_counts():
    for seed in range(20):
        h, labels, tensors = random_instance(seed)
        counts = hs.edge_type_count_matrix(h, labels, tensors.k)
        assert np.array_equal(sum(mat.sum(axis=1) for mat in counts.values()),
                              h.degrees())
        for v in range(h.n):
            oracle = type_counts_bruteforce(h, labels, v, tensors.k)
            for m in h.orders:
                assert np.array_equal(counts[m][v], oracle[m])


def test_expected_adjacency_matches_enumeration():
    # oracle: sum type probabilities over all explicit supersets of each pair
    rng = np.random.default_rng(7)
    n, k = 7, 2
    labels = np.array([0, 0, 0, 1, 1, 1, 0])
    q = {2: rng.uniform(0, 1, 3), 3: rng.uniform(0, 1, 4)}
    tensors = hs.ProbabilityTensors(k=k, q=q)
    ea = hs.expected_adjacency(labels, tensors)
    oracle = np.zeros((n, n))
    for m in (2, 3):
        for combo in itertools.combinations(range(n), m):
            w = tuple(np.bincount(labels[list(combo)], minlength=k))
            p = tensors.value(m, w)
            for i, j in itertools.combinations(combo, 2):
                oracle[i, j] += p
                oracle[j, i] += p
    assert np.allclose(ea, oracle)


def test_max_expected_degree_two_block():
    # symmetric two-block graph layer: expected degree = (n/2)(qa + qb)
    n = 100
    T = two_block_tensors(n, 8, 2)
    rho = hs.max_expected_degree(T, [0.5, 0.5], n)
    qa, qb = T.value(2, (2, 0)), T.value(2, (1, 1))
    assert np.isclose(rho, 50 * (qa + qb))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_hypergraph_file_roundtrip(tmp_path):
    h, labels, _ = random_instance(3)
    path = tmp_path / "h.txt"
    hs.write_hypergraph(h, path)
    back = hs.read_hypergraph(path)
    assert back.n == h.n
    assert set(back.orders) == set(h.orders)
    for m in h.orders:
        assert np.array_equal(back.edges[m], h.edges[m])


def test_hypergraph_file_is_one_based(tmp_path):
    h = make_hypergraph(3, {2: [[0, 2]]})
    path = tmp_path / "h.txt"
    hs.write_hypergraph(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n=3 orders=2"
    assert lines[1] == "2 1 3"


@pytest.mark.parametrize("header", ["orders=2", "n=3", "2 1 3"])
def test_hypergraph_file_names_a_bad_header(tmp_path, header):
    path = tmp_path / "h.txt"
    path.write_text(f"{header}\n2 1 3\n")
    with pytest.raises(ValueError, match="header must read 'n=<n> orders="):
        hs.read_hypergraph(path)


def test_membership_file_roundtrip(tmp_path):
    z = np.array([0, 2, 1, 1])
    path = tmp_path / "z.txt"
    hs.write_membership(z, path)
    assert path.read_text().splitlines()[0] == "1"
    assert np.array_equal(hs.read_membership(path), z)


def test_hypergraph_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 0]]})      # repeated vertex
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 3]]})      # id out of range
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 1], [1, 0]]})  # duplicate edge
