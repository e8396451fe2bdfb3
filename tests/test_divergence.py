"""Divergences, the recovery threshold, and model assumption checks."""

import math

import numpy as np
import pytest

import hypersbm as hs
from hypersbm.divergence import maximize_concave, pair_objective

ALPHA2 = (0.5, 0.5)


def graph_coeffs(a, b):
    return hs.two_level_coefficients(2, {2: float(a)}, {2: float(b)})


def random_coefficients(rng, k, orders):
    return {m: rng.uniform(0.2, 12.0, size=len(hs.weak_compositions(m, k)))
            for m in orders}


def grid_max(objective, points=20001):
    ts = np.linspace(0.0, 1.0, points)
    vals = np.array([objective(t) for t in ts])
    i = int(np.argmax(vals))
    return ts[i], vals[i]


# ---------------------------------------------------------------------------
# Bernoulli KL
# ---------------------------------------------------------------------------

def test_kl_zero_at_equal_means():
    assert hs.kl_bernoulli(0.3, 0.3) == 0.0


def test_kl_zero_mean_limit():
    q = 0.2
    assert np.isclose(hs.kl_bernoulli(0.0, q), -math.log(1 - q))


def test_kl_frozen_value():
    # 0.5 log 2 + 0.5 log(2/3), evaluated independently of the implementation
    assert np.isclose(hs.kl_bernoulli(0.5, 0.25), 0.14384103622589045, atol=1e-12)


def test_kl_rejects_degenerate_reference():
    with pytest.raises(ValueError):
        hs.kl_bernoulli(0.5, 0.0)
    with pytest.raises(ValueError):
        hs.kl_bernoulli(0.5, 1.0)


# ---------------------------------------------------------------------------
# Pairwise divergence
# ---------------------------------------------------------------------------

def test_identical_tensors_give_zero():
    coeffs = {2: np.full(3, 4.0), 3: np.full(4, 2.0)}
    pair = hs.chernoff_hellinger_pair(0, 1, ALPHA2, coeffs, 500)
    assert abs(pair.value) < 1e-12


def test_graph_closed_form():
    # binary symmetric graph model: threshold (sqrt(a) - sqrt(b))^2 / 2
    pair = hs.chernoff_hellinger_pair(0, 1, ALPHA2, graph_coeffs(9, 1), 10**6)
    assert abs(pair.value - 2.0) < 0.01 * 2.0
    assert abs(pair.t_star - 0.5) < 1e-4
    asym = hs.chernoff_hellinger_pair(0, 1, ALPHA2, graph_coeffs(9, 1), 10**6,
                                      weights="asymptotic")
    assert abs(asym.value - 2.0) < 1e-6


def test_three_uniform_closed_form():
    # symmetric one-layer triple model: 2^-(m-1) (sqrt(a) - sqrt(b))^2
    coeffs = hs.two_level_coefficients(2, {3: 20.0}, {3: 4.0})
    target = 0.25 * (math.sqrt(20) - 2.0) ** 2
    pair = hs.chernoff_hellinger_pair(0, 1, ALPHA2, coeffs, 10**6)
    assert abs(pair.value - target) < 0.01 * target


def test_pair_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        alpha = rng.dirichlet(np.ones(k) * 4)
        coeffs = random_coefficients(rng, k, [2, 3])
        j, l = 0, int(rng.integers(1, k))
        a = hs.chernoff_hellinger_pair(j, l, alpha, coeffs, 400)
        b = hs.chernoff_hellinger_pair(l, j, alpha, coeffs, 400)
        assert abs(a.value - b.value) < 1e-10


def test_nonnegative_and_matches_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        alpha = rng.dirichlet(np.ones(k) * 4)
        coeffs = random_coefficients(rng, k, rng.choice([2, 3, 4], size=2, replace=False))
        pair = hs.chernoff_hellinger_pair(0, 1, alpha, coeffs, 300)
        assert pair.value >= -1e-12
        f = pair_objective(0, 1, alpha, coeffs, 300)
        t_grid, v_grid = grid_max(f, 10001)
        assert pair.value >= v_grid - 1e-9
        assert abs(pair.value - v_grid) < 1e-6


def test_zero_rate_entries_are_handled():
    coeffs = {2: np.array([4.0, 0.0, 3.0])}
    pair = hs.chernoff_hellinger_pair(0, 1, ALPHA2, coeffs, 200)
    assert np.isfinite(pair.value) and pair.value > 0


def test_global_minimum_and_argmin():
    report = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 1000)
    assert report.value == report.pair(0, 1).value  # single pair

    # symmetric three-block model: all pairs equal
    coeffs3 = hs.two_level_coefficients(3, {2: 12.0}, {2: 2.0})
    rep3 = hs.chernoff_hellinger((1 / 3,) * 3, coeffs3, 2000)
    vals = [p.value for p in rep3.pairs]
    assert np.allclose(vals, vals[0], atol=1e-9)
    assert np.isclose(rep3.value, min(vals))

    # one nearly indistinguishable pair drags the minimum down:
    # types (2,0,0),(1,1,0),(1,0,1),(0,2,0),(0,1,1),(0,0,2) chosen so the
    # first two communities see almost identical rates everywhere
    q = {2: np.array([5.0, 5.2, 2.0, 5.1, 2.1, 12.0])}
    rep = hs.chernoff_hellinger((1 / 3,) * 3, q, 2000)
    assert rep.argmin == (0, 1)
    assert rep.value < min(p.value for p in rep.pairs if (p.j, p.k) != (0, 1))


def test_k1_rejected():
    with pytest.raises(ValueError):
        hs.chernoff_hellinger([1.0], {2: np.array([3.0])}, 100)


def test_layer_objectives_add_pointwise():
    # multi-layer objective is the sum of the per-layer objectives at each t,
    # hence the joint maximum dominates every single layer's maximum
    rng = np.random.default_rng(9)
    for _ in range(10):
        alpha = rng.dirichlet((4.0, 4.0))
        c2 = random_coefficients(rng, 2, [2])
        c3 = random_coefficients(rng, 2, [3])
        both = {**c2, **c3}
        f2 = pair_objective(0, 1, alpha, c2, 500)
        f3 = pair_objective(0, 1, alpha, c3, 500)
        fb = pair_objective(0, 1, alpha, both, 500)
        for t in np.linspace(0, 1, 21):
            assert np.isclose(fb(t), f2(t) + f3(t), atol=1e-12)
        joint = hs.chernoff_hellinger_pair(0, 1, alpha, both, 500).value
        singles = [hs.chernoff_hellinger_pair(0, 1, alpha, c, 500).value
                   for c in (c2, c3)]
        assert joint >= max(singles) - 1e-9


def test_golden_section_on_known_function():
    t, v = maximize_concave(lambda t: -(t - 0.3) ** 2 + 1.0)
    assert abs(t - 0.3) < 1e-6 and abs(v - 1.0) < 1e-12
    t, v = maximize_concave(lambda t: t)  # maximum at the right endpoint
    assert t == 1.0 and v == 1.0


# ---------------------------------------------------------------------------
# KL form
# ---------------------------------------------------------------------------

def test_minimax_kl_zero_when_identical():
    T = hs.ProbabilityTensors(k=2, q={2: np.full(3, 0.01)})
    assert hs.minimax_kl_pair(0, 1, T, ALPHA2, 100) == 0.0


def test_minimax_kl_tracks_scaled_divergence_in_border_regime():
    n = 10**4
    coeffs = graph_coeffs(9, 1)
    T = hs.ProbabilityTensors.from_unscaled(2, coeffs, n)
    gkl = hs.minimax_kl_pair(0, 1, T, ALPHA2, n)
    gch = hs.chernoff_hellinger_pair(0, 1, ALPHA2, coeffs, n).value
    assert abs(gkl - gch * math.log(n)) <= 0.05 * gch * math.log(n)


def test_minimax_kl_matches_numeric_oracle():
    # independent oracle: per type, minimize the larger of the two KL
    # divergences numerically (each is convex in the mean)
    from scipy.optimize import minimize_scalar
    from hypersbm.compositions import expected_capacity_vector, member_lift_table

    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(2, 4))
        alpha = rng.dirichlet(np.ones(k) * 4)
        n = 200
        q = {m: rng.uniform(0.01, 0.4, len(hs.weak_compositions(m, k)))
             for m in (2, 3)}
        T = hs.ProbabilityTensors(k=k, q=q)
        expected = 0.0
        for m in (2, 3):
            caps = expected_capacity_vector(m - 1, k, alpha, n)
            lift = member_lift_table(m, k)
            for cap, qj, qk in zip(caps, q[m][lift[0]], q[m][lift[1]]):
                res = minimize_scalar(
                    lambda y: max(hs.kl_bernoulli(y, qj), hs.kl_bernoulli(y, qk)),
                    bounds=(1e-12, 1 - 1e-12), method="bounded",
                    options={"xatol": 1e-13})
                expected += cap * res.fun
        got = hs.minimax_kl_pair(0, 1, T, alpha, n)
        assert np.isclose(got, expected, rtol=1e-7)


def test_minimax_kl_monotone_in_separation():
    # same mean rate, doubled gap: the separation cannot decrease
    n = 2000
    narrow = hs.ProbabilityTensors.from_unscaled(2, graph_coeffs(5, 3), n)
    wide = hs.ProbabilityTensors.from_unscaled(2, graph_coeffs(6, 2), n)
    assert (hs.minimax_kl_pair(0, 1, wide, ALPHA2, n)
            >= hs.minimax_kl_pair(0, 1, narrow, ALPHA2, n))


# ---------------------------------------------------------------------------
# Regime classification and assumptions
# ---------------------------------------------------------------------------

def test_classify_regime():
    assert hs.classify_regime(2.0).label == "achievable"
    assert hs.classify_regime(0.5).label == "impossible"
    assert hs.classify_regime(1.0005, tol=0.01).label == "critical"
    with pytest.raises(ValueError):
        hs.classify_regime(1.0, tol=0.0)


def test_separation_false_for_identical_rows():
    T = hs.ProbabilityTensors(k=2, q={2: np.full(3, 0.05)})
    table = hs.center_separation_table(T, ALPHA2, 200)
    assert not table[0, 1]


def test_separation_true_for_binary_asymmetric():
    T = hs.ProbabilityTensors.from_unscaled(2, graph_coeffs(9, 1), 500)
    assert hs.center_separation_table(T, ALPHA2, 500)[0, 1]


def test_separation_holds_for_rank_deficient_mixture():
    # mixed assortative/disassortative model whose third expected-adjacency
    # row is the sum of the first two: rows still pairwise distinct
    vals = {(2, 0, 0): 4, (1, 1, 0): 3, (1, 0, 1): 7,
            (0, 2, 0): 5, (0, 1, 1): 8, (0, 0, 2): 15}
    coeffs = {2: np.array([float(vals[w]) for w in hs.weak_compositions(2, 3)])}
    n = 3000
    T = hs.ProbabilityTensors.from_unscaled(3, coeffs, n)
    table = hs.center_separation_table(T, (1 / 3,) * 3, n)
    assert table.all()


def test_separation_matches_direct_enumeration():
    # oracle: rebuild the inner sums with explicit composition arithmetic
    from oracles import add_member, composition_index, expected_capacity
    from hypersbm.model import max_expected_degree

    rng = np.random.default_rng(17)
    k, n = 3, 400
    alpha = (0.5, 0.3, 0.2)
    q = {m: rng.uniform(0.001, 0.05, len(hs.weak_compositions(m, k)))
         for m in (2, 3)}
    T = hs.ProbabilityTensors(k=k, q=q)
    rho = max_expected_degree(T, alpha, n)
    for eps in (0.05, 0.5, 5.0, 50.0):
        table = hs.center_separation_table(T, alpha, n, eps=eps)
        for j in range(k):
            for kk in range(j + 1, k):
                best = 0.0
                for l in range(k):
                    acc = 0.0
                    for m in (2, 3):
                        index = composition_index(m, k)
                        for w in hs.weak_compositions(m - 2, k):
                            cap = expected_capacity(w, alpha, n)
                            jj = index[add_member(add_member(w, l), j)]
                            kz = index[add_member(add_member(w, l), kk)]
                            acc += cap * (q[m][jj] - q[m][kz])
                    best = max(best, abs(acc) * n / rho)
                assert table[j, kk] == (best >= eps), (j, kk, eps, best)


def test_probability_ratio_bound():
    assert hs.probability_ratio_bound(
        hs.ProbabilityTensors(k=2, q={2: np.full(3, 0.2)})) == 1.0
    T = hs.ProbabilityTensors(k=2, q={2: np.array([0.2, 0.4, 0.8])})
    assert np.isclose(hs.probability_ratio_bound(T), 4.0)
    # ratios taken within each layer, then the max across layers
    T2 = hs.ProbabilityTensors(k=2, q={2: np.array([0.2, 0.4, 0.8]),
                                       3: np.array([0.1, 0.1, 0.1, 0.6])})
    assert np.isclose(hs.probability_ratio_bound(T2), 6.0)
    T3 = hs.ProbabilityTensors(k=2, q={2: np.array([0.0, 0.4, 0.8])})
    assert hs.probability_ratio_bound(T3) == math.inf
