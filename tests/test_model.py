"""Sampling, adjacency, per-vertex type counts, and the text formats."""

import hashlib
import itertools
import math
import platform
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypersbm as hs
from hypersbm import model
from hypersbm.model import Hypergraph, make_hypergraph
from oracles import (
    adjacency_matrix_coo,
    canonical_edge_array_lexsort,
    composition_index,
    expected_adjacency,
    live_adjacency_slice,
    read_hypergraph_lines,
    read_membership_lines,
    sample_distinct_dict,
    tensor_value,
    type_counts_bruteforce,
    write_hypergraph_percent,
    write_membership_percent,
)


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
    # the CLI prints this message as its one-line error: a plain float, not a numpy repr
    with pytest.raises(ValueError, match=r"^prior must sum to 1, got 1\.1$"):
        hs.validate_prior([0.5, 0.6])
    with pytest.raises(ValueError):
        hs.validate_prior([1.0, 0.0])
    assert np.allclose(hs.validate_prior([0.25, 0.75]), [0.25, 0.75])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_prior_rejects_non_finite_entries(bad):
    # NaN passed both the sign test and the sum test
    with pytest.raises(ValueError, match=r"^prior entries must be finite, got \["):
        hs.validate_prior([bad, 1.0])


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


def test_per_type_edge_counts_pass_chi_square():
    # Over 2000 seeds the edges of each (order, type) class must be
    # Binomial(capacity, q): a chi-square goodness-of-fit test per class,
    # bins pooled until each expects at least 5 draws, at a family-wise
    # significance level of 0.01 split evenly over the 7 classes.
    from scipy.stats import binom, chisquare
    seeds, level = 2000, 0.01
    z = np.array([0] * 5 + [1] * 5)
    sizes = np.bincount(z)
    q = {m: np.linspace(0.1, 0.6, len(hs.weak_compositions(m, 2))) for m in (2, 3)}
    tensors = hs.ProbabilityTensors(k=2, q=q)
    counts = {(m, i): np.zeros(seeds, dtype=np.int64) for m in q for i in range(len(q[m]))}
    for s in range(seeds):
        h = hs.sample_hypergraph(len(z), z, tensors, seed=[s, 5])
        for m, e in h.edges.items():
            in_first = (z[e] == 0).sum(axis=1)  # type (j, m - j) for j members in block 0
            per_type = np.bincount(m - in_first, minlength=m + 1)
            for i, w in enumerate(hs.weak_compositions(m, 2)):
                counts[m, i][s] = per_type[w[1]]
    for (m, i), observed in counts.items():
        w = hs.weak_compositions(m, 2)[i]
        cap = hs.capacity(w, sizes)
        expected = seeds * binom.pmf(np.arange(cap + 1), cap, q[m][i])
        hist = np.bincount(observed, minlength=cap + 1)
        obs_bins, exp_bins = [0], [0.0]
        for o, e in zip(hist, expected):
            if exp_bins[-1] >= 5:
                obs_bins.append(0)
                exp_bins.append(0.0)
            obs_bins[-1] += o
            exp_bins[-1] += e
        if exp_bins[-1] < 5:
            last_obs, last_exp = obs_bins.pop(), exp_bins.pop()
            obs_bins[-1] += last_obs
            exp_bins[-1] += last_exp
        exp_bins = np.array(exp_bins) * (seeds / sum(exp_bins))
        p_value = chisquare(obs_bins, exp_bins).pvalue
        assert p_value > level / len(counts), (m, w, p_value)


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
        p = tensor_value(tensors, 2, w)
        sd = np.sqrt(p * (1 - p) / seeds)
        assert abs(freq[i, j] - p) <= 3 * sd, (i, j, freq[i, j], p)


def test_tensor_scaling_and_restriction():
    T = two_block_tensors(100, 8, 2, orders=(2, 3))
    half = T.scaled_by(0.5)
    assert np.allclose(half.q[2], T.q[2] * 0.5)
    assert np.allclose(half.q[3], T.q[3] * 0.5)
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


def test_from_unscaled_needs_n_at_least_each_order():
    # the scale divides by C(n-1, m-1), which is 0 below n = m
    coeffs = hs.two_level_coefficients(2, {3: 0.5}, {3: 0.2})
    with pytest.raises(ValueError, match=r"^need n >= 3 for order 3$"):
        hs.ProbabilityTensors.from_unscaled(2, coeffs, 2)
    assert hs.ProbabilityTensors.from_unscaled(2, coeffs, 3).orders == [3]


def test_unranking_is_a_bijection():
    # oracle: explicit enumeration of all k-subsets
    from math import comb
    from hypersbm.compositions import _binomial_tables
    from hypersbm.model import _unrank_combinations

    for s in (3, 5, 8, 12):
        for k in (1, 2, 3, 4):
            if k > s:
                continue
            decoded = _unrank_combinations(np.arange(comb(s, k)), _binomial_tables(s - 1, k), k)
            assert np.all(np.diff(decoded, axis=1) > 0)
            got = {tuple(r) for r in decoded}
            expected = {c for c in itertools.combinations(range(s), k)}
            assert got == expected


def test_binomial_tables_are_exact_below_int64_overflow():
    from hypersbm.compositions import _binomial_tables

    small = _binomial_tables(40, 6)
    assert small.tolist() == [[math.comb(j, i) for j in range(41)] for i in range(7)]
    # C(129999, 4) ~ 1.2e19 wraps, but every entry below 2**63 stays exact
    big = _binomial_tables(129_999, 4)
    for j in (3, 4, 1000, 97_000, 110_000, 129_999):
        for i in range(5):
            if math.comb(j, i) < 2**63:
                assert big[i, j] == math.comb(j, i), (i, j)
    assert math.comb(129_999, 4) >= 2**63
    assert _binomial_tables(-1, 3).shape == (4, 0)


def test_distinct_sampling_rejection_path():
    # class sizes beyond the permutation cutoff go through rejection sampling
    from hypersbm.model import _sample_distinct

    total = 10**9
    out = _sample_distinct(np.random.default_rng(0), total, 5000)
    assert len(np.unique(out)) == 5000
    assert out.min() >= 0 and out.max() < total
    again = _sample_distinct(np.random.default_rng(0), total, 5000)
    assert np.array_equal(out, again)


@pytest.mark.parametrize("total, count, seed", [
    (5_000_000, 4_500_000, 3),  # dense: dozens of batches
    (5_000_000, 5000, 11),      # see test_rejection_cases_overshoot
    (4_000_001, 3000, 1),
    (10**12, 20000, 2),
])
def test_distinct_sampling_matches_dict_oracle(total, count, seed):
    from hypersbm.model import _sample_distinct

    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_distinct(rng, total, count)
    want = sample_distinct_dict(oracle_rng, total, count)
    assert got.dtype == np.int64 and np.array_equal(got, np.sort(want))
    # the same draws were made, so the stream continues identically
    assert rng.integers(2**62) == oracle_rng.integers(2**62)


def test_distinct_sampling_is_sorted_below_rejection_cutoff():
    from hypersbm.model import _sample_distinct

    out = _sample_distinct(np.random.default_rng(4), 1000, 300)
    assert np.all(np.diff(out) > 0) and out.min() >= 0 and out.max() < 1000
    assert np.array_equal(_sample_distinct(np.random.default_rng(4), 7, 7), np.arange(7))


def _distinct_id_rows(rng, top, size, m):
    """``size`` rows of m distinct ids in 0..top, each row shuffled."""
    rows = np.sort(rng.integers(0, top + 1 - m, size=(size, m)), axis=1) + np.arange(m)
    return rng.permuted(rows, axis=1)


@pytest.mark.parametrize("case", ["random", "duplicate_rows", "repeated_ids", "key_overflow",
                                  "few_rows_large_top", "negative", "empty", "one_row"])
def test_canonical_edge_array_matches_lexsort_oracle(case):
    from hypersbm.model import _canonical_edge_array

    rng = np.random.default_rng(5)
    m = 4
    if case == "random":
        rows = _distinct_id_rows(rng, 2000, 30000, m)
    elif case == "duplicate_rows":
        rows = _distinct_id_rows(rng, 40, 5000, m)
        rows = np.vstack([rows, rows[::-3]])
    elif case == "repeated_ids":
        rows = rng.integers(0, 2000, size=(30000, m))
    elif case == "key_overflow":
        # C(top + 1, 4) >= 2**63 with more rows than ids: only the key's range
        # rules out the int64 key
        rows = _distinct_id_rows(rng, 200_000, 250_000, m)
        assert math.comb(int(rows.max()) + 1, m) >= 2**63
    elif case == "few_rows_large_top":
        rows = np.array([[10**12, 5, 7, 9], [3, 10**12 - 1, 2, 1], [8, 6, 4, 10**9]])
    elif case == "negative":
        rows = _distinct_id_rows(rng, 300, 3000, m) - 1
    elif case == "empty":
        rows = np.empty((0, m), dtype=np.int64)
    else:
        rows = np.array([[4, 0, 2, 1]])
    got = _canonical_edge_array(rows, m)
    want = canonical_edge_array_lexsort(rows, m)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@st.composite
def id_rows(draw):
    """Up to 30 rows of m = 1..6 ids, repeats and negative ids included."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 40), min_size=m, max_size=m), max_size=30))
    return np.array(rows, dtype=np.int64).reshape(-1, m), m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(id_rows())
def test_canonical_edge_array_sorts_every_order_like_lexsort(case):
    # orders 2-4 sort their rows by compare-exchange, the others by np.sort
    rows, m = case
    got = model._canonical_edge_array(rows, m)
    assert got.dtype == np.int64 and np.array_equal(got, canonical_edge_array_lexsort(rows, m))


@st.composite
def shuffled_edge_lists(draw):
    """Edge lists on up to 12 vertices, and the same lists with the rows and
    the vertices within each row put in an arbitrary order."""
    n = draw(st.integers(4, 12))
    edges, shuffled = {}, {}
    for m in draw(st.sets(st.integers(2, 4), min_size=1, max_size=3)):
        row = st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)
        rows = draw(st.lists(row, max_size=20, unique_by=frozenset))
        order = draw(st.permutations(range(len(rows))))
        edges[m] = np.array(rows, dtype=np.int64).reshape(-1, m)
        shuffled[m] = np.array([draw(st.permutations(rows[i])) for i in order],
                               dtype=np.int64).reshape(-1, m)
    return n, edges, shuffled


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shuffled_edge_lists())
def test_make_hypergraph_ignores_row_and_vertex_order(case):
    n, edges, shuffled = case
    h, g = make_hypergraph(n, edges), make_hypergraph(n, shuffled)
    assert h.orders == g.orders
    for m in h.orders:
        assert g.edges[m].dtype == np.int64
        assert np.array_equal(g.edges[m], h.edges[m])
        assert np.array_equal(g.edges[m], canonical_edge_array_lexsort(edges[m], m))


def test_canonical_edge_array_sizes_tables_by_rows(monkeypatch):
    # a bad large id in a short edge list must not size the key's tables
    real, sizes = model._binomial_tables, []

    def tables(max_n, k):
        sizes.append(max_n)
        assert max_n < 1000, "tables larger than the rows"
        return real(max_n, k)

    monkeypatch.setattr(model, "_binomial_tables", tables)
    rows = np.array([[10**9, 5], [3, 7], [8, 6]])
    assert math.comb(10**9 + 1, 2) < 2**63
    assert np.array_equal(model._canonical_edge_array(rows, 2), canonical_edge_array_lexsort(rows, 2))
    rows = _distinct_id_rows(np.random.default_rng(1), 50, 200, 3)
    assert np.array_equal(model._canonical_edge_array(rows, 3), canonical_edge_array_lexsort(rows, 3))
    assert sizes == [int(rows.max())]


def _edge_digest(h):
    digest = hashlib.sha256()
    for m in h.orders:
        e = np.ascontiguousarray(h.edges[m], dtype="<i8")
        digest.update(f"{m}:{len(e)}:".encode())
        digest.update(e.tobytes())
    return digest.hexdigest()


def _two_level_sample(n, k, within, cross, label_seed, edge_seed):
    coeffs = hs.two_level_coefficients(k, within, cross)
    tensors = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)
    labels = hs.sample_membership(n, [1.0 / k] * k, seed=label_seed)
    return hs.sample_hypergraph(n, labels, tensors, seed=edge_seed)


# Sampled edges pinned per seed.  A change to the sampler that keeps these
# digests draws the same random stream and realizes the same edges.
GOLDEN_SAMPLES = {
    # k=2 and k=4, orders 2-4; both have classes above 4M candidates (the
    # mixed order-4 types), so both sampling paths run
    "k2": (lambda: _two_level_sample(200, 2, {2: 12.0, 3: 14.0, 4: 10.0},
                                     {2: 2.0, 3: 3.0, 4: 2.0}, 1, 2),
           {2: 3697, 3: 2089, 4: 756},
           "48303372797bb7630dfe2bbd6a52b6858a9e0e18d7df1827a39489d51fad2fcb"),
    "k4": (lambda: _two_level_sample(400, 4, {2: 12.0, 3: 14.0, 4: 10.0},
                                     {2: 1.0, 3: 1.5, 4: 1.0}, 3, 4),
           {2: 4433, 3: 1893, 4: 710},
           "4fae9e757996fd140fe65185c9dbeb2a38cb28ce8c7e270bffb732dad4976542"),
    # one class of C(3000, 2) = 4,498,500 > 4M candidates whose final
    # 1024-batch overshoots (see test_rejection_cases_overshoot)
    "rejection": (lambda: hs.sample_hypergraph(
                      3000, np.zeros(3000, dtype=int),
                      hs.ProbabilityTensors(k=1, q={2: np.array([5000 / 4498500])}), seed=11),
                  {2: 4951},
                  "9dfa64e22527fa26c040b351d001a5440fca31b16b73f27055aab9dccbc4b216"),
    # types with q = 1 take every candidate (count == cap)
    "certain": (lambda: hs.sample_hypergraph(
                    40, np.repeat([0, 1], 20),
                    hs.ProbabilityTensors(k=2, q={2: np.array([1.0, 0.1, 1.0]),
                                                  3: np.array([0.0, 1.0, 0.05, 0.0])}),
                    seed=6),
                {2: 416, 3: 4011},
                "50d5ac12e8c94bc1aab417767ece7f96b075302e25ae0c08bcc5b699359cbe9c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
def test_sampled_edges_match_golden_digest(name):
    sample, counts, digest = GOLDEN_SAMPLES[name]
    h = sample()
    h.validate()
    assert {m: h.num_edges(m) for m in h.orders} == counts
    assert _edge_digest(h) == digest


def test_rejection_cases_overshoot():
    # in the (5M, 5000, seed 11) oracle case and in the golden "rejection"
    # sample, the first batch holds duplicates, so a 1024-batch follows of
    # which only some new values are kept
    first = np.random.default_rng(11).integers(0, 5_000_000, size=5000)
    assert 0 < 5000 - len(np.unique(first)) < 1024
    cap = math.comb(3000, 2)
    rng = np.random.default_rng(11)
    count = int(rng.binomial(cap, 5000 / 4498500))
    first = rng.integers(0, cap, size=count)
    assert cap > 4_000_000 and 0 < count - len(np.unique(first)) < 1024


def test_class_above_sampler_limit_raises_before_any_table_lookup():
    # C(130000, 4) ~ 1.2e19 > MAX_CLASS_SIZE; its binomial table wraps int64
    n = 130_000
    assert math.comb(n, 4) > model.MAX_CLASS_SIZE
    tensors = hs.ProbabilityTensors(k=1, q={4: np.array([1e-18])})
    with pytest.raises(ValueError, match=r"type \(4,\): class size .* exceeds the sampler limit"):
        hs.sample_hypergraph(n, np.zeros(n, dtype=int), tensors, seed=0)


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


def _assert_float_canonical_csr(a):
    assert a.format == "csr" and a.dtype == np.float64
    assert a.has_canonical_format and np.all(a.data != 0)


def test_adjacency_matches_bruteforce_on_random_instances():
    for seed in range(40):
        h, _, _ = random_instance(seed)
        adj = hs.adjacency_matrix(h)
        a = adj.toarray()
        brute = brute_force_adjacency(h)
        assert np.array_equal(a, brute)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        _assert_float_canonical_csr(adj)

        rng = np.random.default_rng(seed)
        for keep in (rng.random(h.n) < 0.7, np.zeros(h.n, dtype=bool), np.ones(h.n, dtype=bool)):
            trimmed = hs.trim(adj, keep)
            _assert_float_canonical_csr(trimmed)
            assert np.array_equal(trimmed.toarray(), brute * np.outer(keep, keep))

        # rows in any order, vertices in any order within a row
        shuffled = hs.adjacency_matrix(Hypergraph(h.n, {
            m: rng.permutation(e)[:, rng.permutation(m)] for m, e in h.edges.items()}))
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(shuffled, name), getattr(adj, name)), name

        # relabelling vertex i as pi[i] gives P A P^T
        pi = rng.permutation(h.n)
        relabelled = hs.adjacency_matrix(
            make_hypergraph(h.n, {m: pi[e] for m, e in h.edges.items()})).toarray()
        assert np.array_equal(relabelled[np.ix_(pi, pi)], a)


def _csr_digest(a):
    digest = hashlib.sha256()
    for name in ("indptr", "indices", "data"):
        x = getattr(a, name)
        digest.update(f"{name}:{x.dtype.str}:{len(x)}:".encode())
        digest.update(x.tobytes())
    return digest.hexdigest()


def test_adjacency_matches_golden_digest():
    # pinned from the int64/float64 build; sums of ones are exact, so any
    # build must give the same arrays and dtypes
    h = _two_level_sample(2000, 2, {2: 12.0, 3: 14.0, 4: 10.0}, {2: 2.0, 3: 3.0, 4: 2.0}, 5, 6)
    a = hs.adjacency_matrix(h)
    assert a.nnz == 393900
    assert (a.indptr.dtype, a.indices.dtype, a.data.dtype) == (np.int32, np.int32, np.float64)
    assert _csr_digest(a) == "910b11468fe1eb99a6bc656fcd4868f800e0e255a17f076880130f7b305471cf"


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _unordered_edges(rng, n, dtype):
    """Edge arrays of orders 2-4 with members and rows in random order, one
    order empty, and pairs of the larger orders' rows repeated, reversed,
    in order 2 when order 2 is not the empty one."""
    empty = int(rng.integers(2, 5))
    edges = {m: np.array([rng.choice(n, size=m, replace=False)
                          for _ in range(0 if m == empty else int(rng.integers(1, 40)))],
                         dtype=dtype).reshape(-1, m)
             for m in (2, 3, 4)}
    if empty != 2:
        repeats = [e[:, [1, 0]] for m, e in edges.items() if m > 2]
        edges[2] = rng.permutation(np.concatenate([edges[2], *repeats]))
    return edges


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_adjacency_equals_the_coo_build(dtype):
    # an id that is shifted before it is widened to int64 wraps to a wrong key
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for n in (5, 40, 65535) * 8:
        edges = _unordered_edges(rng, n, dtype)
        h = Hypergraph(n, edges)
        _assert_same_csr(hs.adjacency_matrix(h), adjacency_matrix_coo(n, edges))
        live = h.degrees() > 0
        ids = np.cumsum(live) - 1
        _assert_same_csr(model.live_adjacency(h, live),
                         adjacency_matrix_coo(int(ids[-1]) + 1, edges, ids))


def test_adjacency_build_peaks_below_one_and_a_half_times_its_result():
    h = _two_level_sample(20000, 4, {2: 12.0, 3: 14.0, 4: 10.0}, {2: 1.0, 3: 1.5, 4: 1.0},
                          [7, 11], [7, 12])
    tracemalloc.start()
    try:
        a = hs.adjacency_matrix(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
    # the build peaks at about 1.34 times its result; a key array kept alive
    # past the sum reads 1.67
    assert peak <= 1.5 * result, (peak, result)


def test_adjacency_rejects_ids_beyond_int32():
    h = Hypergraph(2**31, {2: np.empty((0, 2), dtype=np.int64)})
    with pytest.raises(ValueError, match=r"^adjacency matrix needs n <= 2\*\*31 - 1, got n=2147483648$"):
        hs.adjacency_matrix(h)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_adjacency_build_finds_malloc_trim_under_glibc():
    # without it the build's peak resident memory depends on the heap's history
    assert model._MALLOC_TRIM is not None
    model._release_free_heap()


def _pair_count(h):
    return sum(len(e) * math.comb(m, 2) for m, e in h.edges.items())


def test_adjacency_build_trims_the_heap_only_when_large(monkeypatch):
    # a trim costs a heap walk and page faults; below 2^17 pairs it returns
    # nothing that sets the peak, above it the peak depends on it
    calls = []
    monkeypatch.setattr(model, "_MALLOC_TRIM", calls.append)
    # the largest sweep instance of the benchmark: n=2000 at within=8
    small = _two_level_sample(2000, 2, {2: 8.0, 3: 5.0}, {2: 1.0, 3: 1.0}, [7, 11], [7, 12])
    assert _pair_count(small) < 2**17
    hs.adjacency_matrix(small)
    assert calls == []
    # an n=20000, k=4 instance and the first part of its edge split, the
    # smallest matrix the known-parameter route builds on it
    large = _two_level_sample(20000, 4, {2: 12.0, 3: 14.0, 4: 10.0},
                              {2: 1.0, 3: 1.5, 4: 1.0}, [7, 11], [7, 12])
    first = hs.split(large, math.log(math.log(20000)), seed=0).first
    assert _pair_count(first) >= 2**17
    for h in (large, first):
        calls.clear()
        hs.adjacency_matrix(h)
        assert calls == [0, 0, 0, 0]


def test_live_adjacency_equals_the_slice():
    # 1999 sampled vertices spread over n = 3000, so 1001 are isolated
    core = _two_level_sample(1999, 2, {2: 12.0, 3: 14.0}, {2: 2.0, 3: 3.0}, 8, 9)
    spots = np.sort(np.random.default_rng(10).choice(3000, size=1999, replace=False))
    h = Hypergraph(3000, {m: spots[e] for m, e in core.edges.items()})
    h.validate()
    live = h.degrees() > 0
    assert (~live).sum() >= 1001
    got = model.live_adjacency(h, live)
    _assert_same_csr(got, live_adjacency_slice(h, live))
    assert got.has_canonical_format


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
    ea = expected_adjacency(labels, tensors)
    oracle = np.zeros((n, n))
    for m in (2, 3):
        for combo in itertools.combinations(range(n), m):
            w = tuple(np.bincount(labels[list(combo)], minlength=k))
            p = tensor_value(tensors, m, w)
            for i, j in itertools.combinations(combo, 2):
                oracle[i, j] += p
                oracle[j, i] += p
    assert np.allclose(ea, oracle)


def test_max_expected_degree_two_block():
    # symmetric two-block graph layer: expected degree = (n/2)(qa + qb)
    n = 100
    T = two_block_tensors(n, 8, 2)
    rho = hs.max_expected_degree(T, [0.5, 0.5], n)
    qa, qb = tensor_value(T, 2, (2, 0)), tensor_value(T, 2, (1, 1))
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


@pytest.mark.parametrize("header", ["orders=2", "n=3", "2 1 3", "n=x orders=2"])
def test_hypergraph_file_names_a_bad_header(tmp_path, header):
    path = tmp_path / "h.txt"
    path.write_text(f"{header}\n2 1 3\n")
    with pytest.raises(ValueError, match="header must read 'n=<n> orders="):
        hs.read_hypergraph(path)


@pytest.mark.parametrize("line", ["2 1 x", "two 1 3", "2 1.0 3", "2 1 99999999999999999999",
                                  "2 +1 3", "2 1 1_0", "2 1 \u0663"])
def test_hypergraph_file_names_a_bad_id_and_its_line(tmp_path, line):
    path = tmp_path / "h.txt"
    path.write_text(f"n=3 orders=2\n2 1 2\n{line}\n")
    with pytest.raises(ValueError, match=rf"h\.txt: line 3: .*integers, got {re.escape(repr(line))}"):
        hs.read_hypergraph(path)


def test_membership_file_names_a_bad_label_and_its_line(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1\n\n2\nb\n")
    with pytest.raises(ValueError, match=r"z\.txt: line 4: label must be an integer, got 'b'"):
        hs.read_membership(path)


@pytest.mark.parametrize("label", ["99999999999999999999", "-1", "1 2"])
def test_membership_file_rejects_what_is_not_one_number(tmp_path, label):
    path = tmp_path / "z.txt"
    path.write_text(f"1\n{label}\n")
    with pytest.raises(ValueError, match=rf"z\.txt: line 2: label must be an integer, got {re.escape(repr(label))}"):
        hs.read_membership(path)


def test_membership_file_roundtrip(tmp_path):
    z = np.array([0, 2, 1, 1])
    path = tmp_path / "z.txt"
    hs.write_membership(z, path)
    assert path.read_text().splitlines()[0] == "1"
    assert np.array_equal(hs.read_membership(path), z)


@pytest.mark.parametrize("body", ["2 1 2\n2 2 1\n", "2 1 3\n2 1 2\n2 3 1\n",
                                  "2 1 2\n2 1 2\n"])
def test_rows_equal_once_sorted_are_duplicate_edges(tmp_path, body):
    path = tmp_path / "h.txt"
    path.write_text("n=3 orders=2\n" + body)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: order 2: duplicate edges$"):
        hs.read_hypergraph(path)


def test_file_errors_follow_the_header_order_of_the_layers(tmp_path):
    # order 3 is declared first, so its id 0 is named before order 2's duplicate
    path = tmp_path / "h.txt"
    path.write_text("n=3 orders=3,2\n2 1 2\n2 1 2\n3 0 1 2\n")
    with pytest.raises(ValueError, match=r": order 3: vertex id out of range$"):
        hs.read_hypergraph(path)


# 0-based ids whose 1-based form is the last of one digit length or the
# first of the next (9/10, 99/100, ..., 999999999/1000000000), and the
# largest id of a graph on n = 2**31 - 1 vertices
BOUNDARY_IDS = sorted({10**k - 2 for k in range(1, 10)} | {10**k - 1 for k in range(1, 10)}
                      | {2**31 - 2})
WRITE_ROW_COUNTS = st.sampled_from([1, 2, 5, model.WRITE_ROWS])


@st.composite
def writable_hypergraphs(draw):
    """A valid hypergraph with orders 2-6, some of them empty, whose ids
    mix small ones and BOUNDARY_IDS, on n = max id + 1 or 2**31 - 1."""
    ids = st.one_of(st.integers(0, 30), st.sampled_from(BOUNDARY_IDS))
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4, unique=True))
    edges = {m: draw(st.lists(st.frozensets(ids, min_size=m, max_size=m), unique=True,
                              max_size=6)) for m in orders}
    top = max((v for rows in edges.values() for row in rows for v in row), default=0)
    n = draw(st.sampled_from([top + 1, 2**31 - 1]))
    return make_hypergraph(n, {m: np.array([sorted(row) for row in rows], dtype=np.int64)
                               .reshape(-1, m) for m, rows in edges.items()})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(writable_hypergraphs(), WRITE_ROW_COUNTS)
def test_write_hypergraph_matches_percent_oracle(scratch, h, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "WRITE_ROWS", rows)
        hs.write_hypergraph(h, scratch / "got.txt")
    write_hypergraph_percent(h, scratch / "want.txt")
    assert (scratch / "got.txt").read_bytes() == (scratch / "want.txt").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(0, 30), st.sampled_from(BOUNDARY_IDS)), max_size=40),
       WRITE_ROW_COUNTS)
def test_write_membership_matches_percent_oracle(scratch, labels, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "WRITE_ROWS", rows)
        hs.write_membership(labels, scratch / "got.txt")
    write_membership_percent(labels, scratch / "want.txt")
    assert (scratch / "got.txt").read_bytes() == (scratch / "want.txt").read_bytes()


def test_writers_match_percent_oracle_at_every_digit_length(tmp_path):
    # 1-based values 10**k - 1 and 10**k for k = 1..18, and 2**63 - 1
    ids = np.array(sorted({10**k - 2 for k in range(1, 19)} | {10**k - 1 for k in range(1, 19)}
                          | {0, 2**63 - 2}), dtype=np.int64)
    h = make_hypergraph(2**63 - 1, {2: np.stack([ids[:-1], ids[1:]], axis=1),
                                    3: np.stack([ids[:-2], ids[1:-1], ids[2:]], axis=1)})
    for write, oracle, value in ((hs.write_hypergraph, write_hypergraph_percent, h),
                                 (hs.write_membership, write_membership_percent, ids)):
        write(value, tmp_path / "got.txt")
        oracle(value, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_written_files_match_golden_digest(tmp_path):
    # one n=2000 instance, pinned byte for byte
    coeffs = hs.two_level_coefficients(2, {2: 12.0, 3: 14.0, 4: 10.0}, {2: 2.0, 3: 3.0, 4: 2.0})
    labels = hs.sample_membership(2000, [0.5, 0.5], seed=7)
    h = hs.sample_hypergraph(2000, labels, hs.ProbabilityTensors.from_unscaled(2, coeffs, 2000),
                             seed=8)
    hs.write_hypergraph(h, tmp_path / "h.txt")
    hs.write_membership(labels, tmp_path / "z.txt")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("h.txt", "z.txt")]
    assert digests == ["6a5b92922633391d77c364537e51a3287ff00b31f4ac735a564bad1295d687a7",
                       "b393dcc7dc0fc784fc519038550ac44a3c9af1d99bf7e7c7bf6971f91c4555e9"]


def test_writing_needs_no_memory_sized_by_n(tmp_path):
    # three edges on n = 2**31 - 1 vertices: the only large allocation is
    # the fixed 4.8 MB digit table, built on first use
    h = Hypergraph(2**31 - 1, {2: np.array([[0, 1], [5, 2**31 - 2], [2**31 - 3, 2**31 - 2]])})
    tracemalloc.start()
    try:
        hs.write_hypergraph(h, tmp_path / "h.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert (tmp_path / "h.txt").read_text() == ("n=2147483647 orders=2\n2 1 2\n"
                                                "2 6 2147483647\n2 2147483646 2147483647\n")


@pytest.mark.parametrize("edges, message, n", [
    ({2: [[-1, 0]]}, "order 2: vertex ids must lie in 0..2, got -1", 3),
    ({2: [[0, 1]], 3: [[0, 1, -5]]}, "order 3: vertex ids must lie in 0..2, got -5", 3),
    ({2: [[0, 2**63 - 1]]}, f"order 2: vertex ids must lie in 0..2**63-2, got {2**63 - 1}",
     2**64),
    ({2: [[0, 5]]}, "order 2: vertex ids must lie in 0..2, got 5", 3),
])
def test_an_unwritable_id_is_an_error_before_the_file_opens(tmp_path, edges, message, n):
    path = tmp_path / "h.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hs.write_hypergraph(Hypergraph(n, {m: np.array(e) for m, e in edges.items()}), path)
    assert not path.exists()


def test_a_negative_label_is_an_error_before_the_file_opens(tmp_path):
    path = tmp_path / "z.txt"
    with pytest.raises(ValueError, match=r"^labels must lie in 0\.\.2\*\*63-2, got -2$"):
        hs.write_membership([0, -2, 1], path)
    assert not path.exists()


def test_hypergraph_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 0]]})      # repeated vertex
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 3]]})      # id out of range
    with pytest.raises(ValueError):
        make_hypergraph(3, {2: [[0, 1], [1, 0]]})  # duplicate edge
    with pytest.raises(ValueError, match="duplicate edges"):
        Hypergraph(3, {2: np.array([[0, 1], [0, 1]])}).validate()
    with pytest.raises(ValueError, match="lexicographic order"):
        Hypergraph(3, {2: np.array([[1, 2], [0, 1]])}).validate()


@pytest.mark.parametrize("edges, message", [
    ({2: [[0.5, 1.7]]}, "order 2: vertex ids must be integers, got float64"),
    ({2: np.array([[True, False]])}, "order 2: vertex ids must be integers, got bool"),
    ({2: [[0, 1, 2]]}, "order 2: edge array must have 2 columns"),
    ({2: [0, 1]}, "order 2: edge array must have 2 columns"),
    ({0: []}, "edge order must be >= 2, got 0"),
])
def test_make_hypergraph_rejects_malformed_edge_arrays(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_hypergraph(3, edges)


@pytest.mark.parametrize("ids", [np.array([[0.5, 1.7]]), np.array([[0.0, 1.0]]),
                                 np.array([[True, False]])])
def test_validate_and_write_reject_non_integer_ids(tmp_path, ids):
    h = Hypergraph(3, {2: ids})
    message = f"order 2: vertex ids must be integers, got {ids.dtype}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        h.validate()
    path = tmp_path / "h.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hs.write_hypergraph(h, path)
    assert not path.exists()


def test_make_hypergraph_accepts_empty_float_arrays():
    h = make_hypergraph(3, {2: [[1, 0]], 3: np.empty((0, 3)), 4: []})
    assert h.edges[2].tolist() == [[0, 1]]
    assert h.edges[3].shape == (0, 3) and h.edges[4].shape == (0, 4)
    assert h.edges[3].dtype == h.edges[4].dtype == np.int64


# ---------------------------------------------------------------------------
# File readers against the line-by-line oracles
# ---------------------------------------------------------------------------

BLOCK_SIZES = st.sampled_from([1, 2, 3, 7, 64, model.READ_BLOCK_CHARS])
CORRUPT_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz. \t\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def _read(reader, path, block):
    """The reader's result, or its ValueError message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "READ_BLOCK_CHARS", block)
        try:
            return reader(path)
        except ValueError as exc:
            return str(exc)


def _assert_same_hypergraph_outcome(path, block):
    got, want = _read(hs.read_hypergraph, path, block), _read(read_hypergraph_lines, path, block)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.n == want.n and list(got.edges) == list(want.edges)
    for m in want.edges:
        assert got.edges[m].dtype == want.edges[m].dtype
        assert np.array_equal(got.edges[m], want.edges[m])


def _assert_same_membership_outcome(path, block):
    got, want = _read(hs.read_membership, path, block), _read(read_membership_lines, path, block)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def hypergraph_texts(draw):
    """A valid hypergraph file in any row order, any vertex order within a
    row, orders interleaved, with blank lines, tabs, CRLF or LF line ends and
    an optional final newline."""
    n = draw(st.integers(4, 9))
    orders = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3, unique=True))
    rows = []
    for m in orders:
        subsets = list(itertools.combinations(range(1, n + 1), m))
        for edge in draw(st.lists(st.sampled_from(subsets), unique=True, max_size=10)):
            rows.append([m] + draw(st.permutations(edge)))
    rows = draw(st.permutations(rows))
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = [f"n={n} orders={','.join(map(str, orders))}"]
    for row in rows:
        lines += [draw(st.sampled_from(["", " ", "\t"]))] * draw(st.integers(0, 1))
        lines.append(draw(space).join(map(str, row)) + draw(st.sampled_from(["", " "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def membership_texts(draw):
    labels = draw(st.lists(st.integers(1, 5), max_size=30))
    lines = []
    for z in labels:
        lines += [draw(st.sampled_from(["", " ", "\t"]))] * draw(st.integers(0, 1))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + str(z))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def corrupted(draw, texts, keep=0):
    """A valid text with a few characters replaced, inserted or deleted,
    using only characters of CORRUPT_ALPHABET, past its first ``keep``
    lines."""
    text = draw(texts).replace("\r\n", "\n")
    start = sum(len(line) for line in text.splitlines(keepends=True)[:keep])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(start, len(text)))
        char = draw(st.sampled_from(CORRUPT_ALPHABET))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "replace":
            text = text[:at] + char + text[at + 1:]
        else:
            text = text[:at] + text[at + 1:]
    # the oracle overflows int64 on longer numbers, where the reader names the line
    assume(all(len(run) <= model.MAX_DIGITS for run in re.findall(r"[0-9]+", text)))
    return text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hypergraph_texts(), BLOCK_SIZES)
def test_read_hypergraph_matches_line_oracle_on_valid_files(scratch, text, block):
    path = scratch / "valid.txt"
    path.write_bytes(text.encode())
    _assert_same_hypergraph_outcome(path, block)
    assert not isinstance(_read(hs.read_hypergraph, path, block), str)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corrupted(hypergraph_texts(), keep=1), BLOCK_SIZES)
def test_read_hypergraph_matches_line_oracle_on_corrupted_files(scratch, text, block):
    path = scratch / "corrupted.txt"
    path.write_bytes(text.encode())
    _assert_same_hypergraph_outcome(path, block)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(membership_texts(), BLOCK_SIZES)
def test_read_membership_matches_line_oracle_on_valid_files(scratch, text, block):
    path = scratch / "labels.txt"
    path.write_bytes(text.encode())
    _assert_same_membership_outcome(path, block)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corrupted(membership_texts()), BLOCK_SIZES)
def test_read_membership_matches_line_oracle_on_corrupted_files(scratch, text, block):
    path = scratch / "labels.txt"
    path.write_bytes(text.encode())
    _assert_same_membership_outcome(path, block)


@pytest.mark.parametrize("block", [1, 2, 5, 9])
def test_lines_straddling_read_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(model, "READ_BLOCK_CHARS", block)
    path = tmp_path / "h.txt"
    path.write_text("n=12 orders=2,3\n2 10 11\n3 1 2 12\n\n2 1 12\n")
    h = hs.read_hypergraph(path)
    assert h.edges[2].tolist() == [[0, 11], [9, 10]] and h.edges[3].tolist() == [[0, 1, 11]]
    path.write_text("n=12 orders=2,3\n2 10 11\n3 1 2 12\n\n2 1 1x2\n2 1 2\n")
    with pytest.raises(ValueError, match="line 5: order and vertex ids must be integers, "
                                         "got '2 1 1x2'"):
        hs.read_hypergraph(path)
    path.write_text("1\n22\n\n1")
    assert hs.read_membership(path).tolist() == [0, 21, 0]
