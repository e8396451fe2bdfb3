"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or ``-rA``) and asserts at the stated tolerance.  Monte Carlo
criteria use fixed seed bases; operating points below/above the unit
threshold are selected by scanning the divergence itself, not hard-coded.
"""

import itertools
import math
import time

import numpy as np

import hypersbm as hs
from hypersbm.compositions import expected_capacity_vector, member_lift_table
from hypersbm.model import Hypergraph, adjacency_matrix
from hypersbm.spectral import default_radius, keep_by_mean_degree, spectral_init, trim
from oracles import expected_adjacency, mismatch_ratio_bruteforce

ALPHA2 = (0.5, 0.5)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def graph_coeffs(a, b, k=2, order=2):
    return hs.two_level_coefficients(k, {order: float(a)}, {order: float(b)})


def planted(n, coeffs, k, seed, alpha=None):
    alpha = alpha if alpha is not None else [1.0 / k] * k
    T = hs.ProbabilityTensors.from_unscaled(k, coeffs, n)
    z = hs.sample_membership(n, alpha, seed=[seed, 11])
    h = hs.sample_hypergraph(n, z, T, seed=[seed, 12])
    return h, z, T


def smallest_with(predicate, values):
    for v in values:
        if predicate(v):
            return v
    raise AssertionError("no admissible value in scan range")


def test_criterion_01_graph_threshold_closed_form():
    start = time.perf_counter()
    target = 0.5 * (3.0 - 1.0) ** 2
    finite = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 10**6).value
    asym = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 10**6,
                                 weights="asymptotic").value
    elapsed = time.perf_counter() - start
    ok = (abs(finite - target) <= 0.01 * target
          and abs(asym - target) <= 1e-6
          and elapsed < 1.0)
    report(1, ok, f"finite={finite:.8f} asymptotic={asym:.10f} "
                  f"target={target} in {elapsed:.3f}s")


def test_criterion_02_triple_threshold_closed_form():
    target = 2.0 ** -2 * (math.sqrt(20.0) - 2.0) ** 2
    coeffs = graph_coeffs(20, 4, order=3)
    finite = hs.chernoff_hellinger(ALPHA2, coeffs, 10**6).value
    ok = abs(finite - target) <= 0.01 * target
    report(2, ok, f"finite={finite:.8f} target={target:.8f}")


def test_criterion_03_optimizer_matches_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ts = np.linspace(0.0, 1.0, 100_000)
    step = ts[1] - ts[0]
    worst_val = 0.0
    worst_t = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        alpha = rng.dirichlet(np.ones(k) * 4)
        orders = rng.choice([2, 3, 4], size=int(rng.integers(1, 4)), replace=False)
        coeffs = {int(m): rng.uniform(0.2, 10.0, len(hs.weak_compositions(int(m), k)))
                  for m in orders}
        n = 500
        # independent oracle: rebuild the objective from capacities directly
        # and maximize it on a dense grid
        total = np.zeros_like(ts)
        for m, c in coeffs.items():
            wts = expected_capacity_vector(m - 1, k, alpha, n) / math.comb(n - 1, m - 1)
            lift = member_lift_table(m, k)
            cj, ck = c[lift[0]], c[lift[1]]
            tcol = ts[:, None]
            total += (tcol * cj + (1 - tcol) * ck
                      - cj[None, :] ** tcol * ck[None, :] ** (1 - tcol)) @ wts
        i = int(np.argmax(total))
        pair = hs.chernoff_hellinger_pair(0, 1, alpha, coeffs, n)
        worst_val = max(worst_val, abs(pair.value - total[i]))
        worst_t = max(worst_t, abs(pair.t_star - ts[i]))
    elapsed = time.perf_counter() - start
    # the grid only locates the true maximizer to one spacing, so t-agreement
    # is certified at step + 1e-6
    ok = worst_val <= 1e-6 and worst_t <= step + 1e-6 and elapsed < 30.0
    report(3, ok, f"max value gap {worst_val:.2e}, max t gap {worst_t:.2e} "
                  f"(grid step {step:.1e}) in {elapsed:.1f}s")


def _recovery_rate(mode, n, a, b, trials, base_seed):
    coeffs = graph_coeffs(a, b)
    wins = 0
    for t in range(trials):
        h, z, T = planted(n, coeffs, 2, base_seed + t)
        if mode == "agnostic":
            rep = hs.agnostic_partition(h, 2, seed=base_seed + t, truth=z)
        else:
            rep = hs.partition_with_prior(h, 2, T, ALPHA2, seed=base_seed + t, truth=z)
        wins += rep.eta == 0.0
    return wins / trials


def test_criterion_04_agnostic_phase_transition():
    start = time.perf_counter()
    n, b = 500, 2.0

    def divergence(a):
        return hs.chernoff_hellinger(ALPHA2, graph_coeffs(a, b), n).value

    a_hi = smallest_with(lambda a: divergence(a) >= 2.0, range(3, 40))
    a_lo = max(a for a in range(3, 40) if divergence(a) <= 0.5)
    rate_hi = _recovery_rate("agnostic", n, a_hi, b, 20, 41_000)
    rate_lo = _recovery_rate("agnostic", n, a_lo, b, 20, 42_000)
    elapsed = time.perf_counter() - start
    ok = rate_hi >= 0.8 and rate_lo <= 0.3 and elapsed < 600.0
    report(4, ok, f"a={a_hi} (D={divergence(a_hi):.2f}) rate={rate_hi:.2f}; "
                  f"a={a_lo} (D={divergence(a_lo):.2f}) rate={rate_lo:.2f} "
                  f"in {elapsed:.0f}s")


def test_criterion_05_prior_phase_transition():
    start = time.perf_counter()
    n, b = 500, 2.0

    def divergence(a):
        return hs.chernoff_hellinger(ALPHA2, graph_coeffs(a, b), n).value

    a_hi = smallest_with(lambda a: divergence(a) >= 3.0, range(3, 40))
    a_lo = max(a for a in range(3, 40) if divergence(a) <= 0.5)
    rate_hi = _recovery_rate("prior", n, a_hi, b, 20, 51_000)
    rate_lo = _recovery_rate("prior", n, a_lo, b, 20, 52_000)
    elapsed = time.perf_counter() - start
    ok = rate_hi >= 0.8 and rate_lo <= 0.3 and elapsed < 600.0
    report(5, ok, f"a={a_hi} (D={divergence(a_hi):.2f}) rate={rate_hi:.2f}; "
                  f"a={a_lo} (D={divergence(a_lo):.2f}) rate={rate_lo:.2f} "
                  f"in {elapsed:.0f}s")


def test_criterion_06_stage_one_error_scales_with_degree():
    n, ratio = 1000, 2.5
    means = []
    for rho_hat in (4.0, 8.0, 16.0, 32.0):
        b = 2.0 * rho_hat / (1.0 + ratio)
        coeffs = graph_coeffs(ratio * b, b)
        etas = []
        for t in range(10):
            h, z, _ = planted(n, coeffs, 2, 61_000 + t)
            degrees = h.degrees()
            keep = keep_by_mean_degree(degrees)
            a_kept = trim(adjacency_matrix(h), keep)
            labels = spectral_init(a_kept, keep, 2, default_radius(degrees),
                                   seed=[61_000 + t, 1])
            etas.append(hs.mismatch_ratio(z, labels)[0])
        means.append(float(np.mean(etas)))
    inversions = sum(1 for lo, hi in zip(means, means[1:]) if hi > lo)
    ok = inversions <= 1
    report(6, ok, "stage-one mismatch means "
                  + ", ".join(f"{m:.4f}" for m in means)
                  + f" ({inversions} inversions)")


def test_criterion_07_adjacency_concentration():
    n = 300
    coeffs = {2: graph_coeffs(5, 2)[2], 3: graph_coeffs(5, 2, order=3)[3]}
    d_max = (5.0 + 5.0) * math.log(n)  # ~10 log n
    worst = 0.0
    for t in range(20):
        h, z, T = planted(n, coeffs, 2, 71_000 + t)
        w = adjacency_matrix(h).toarray() - expected_adjacency(z, T)
        worst = max(worst, np.linalg.norm(w, 2) / math.sqrt(d_max))
    ok = worst <= 30.0
    report(7, ok, f"max ||A - EA|| / sqrt(d_max) = {worst:.2f} over 20 seeds")


def test_criterion_08_combinatorial_invariants():
    for m in range(7):
        for k in range(1, 6):
            ws = hs.weak_compositions(m, k)
            brute = {t for t in itertools.product(range(m + 1), repeat=k)
                     if sum(t) == m}
            assert len(ws) == math.comb(m + k - 1, k - 1) and set(ws) == brute

    rng = np.random.default_rng(88)
    for trial in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 4))
        orders = rng.choice([2, 3, 4], size=int(rng.integers(1, 3)), replace=False)
        q = {int(m): rng.uniform(0, 0.8, len(hs.weak_compositions(int(m), k)))
             for m in orders}
        T = hs.ProbabilityTensors(k=k, q=q)
        z = rng.integers(0, k, size=n)
        h = hs.sample_hypergraph(n, z, T, seed=int(rng.integers(2**31)))
        assert h.degrees().sum() == sum(m * h.num_edges(m) for m in h.orders)
        a = adjacency_matrix(h).toarray()
        brute = np.zeros((n, n), dtype=np.int64)
        for m, e in h.edges.items():
            for row in e:
                for i, j in itertools.combinations(row, 2):
                    brute[i, j] += 1
                    brute[j, i] += 1
        assert np.array_equal(a, brute)
    report(8, True, "composition counts, handshake identity (100 instances), "
                    "adjacency pair counts (100 instances)")


def test_criterion_09_estimator_consistency():
    n = 400
    coeffs = graph_coeffs(30, 6)
    good = 0
    worst = []
    for t in range(20):
        h, z, T = planted(n, coeffs, 2, 91_000 + t)
        est = hs.estimate_tensors(h, z, 2)
        rel = np.abs(est.values[2] - T.q[2]) / T.q[2]
        worst.append(rel.max())
        good += rel.max() <= 0.10
    ok = good >= 18
    report(9, ok, f"{good}/20 seeds with max relative error <= 10% "
                  f"(worst {max(worst):.3f})")


def test_criterion_10_community_count():
    n = 300
    hits = {}
    for k in (2, 3):
        coeffs = graph_coeffs(48, 8, k=k)  # within 6x cross, mean degree > 40
        hit = 0
        for t in range(20):
            h, z, _ = planted(n, coeffs, k, 10_100 + 37 * k + t)
            hit += hs.estimate_num_communities(h).k_hat == k
        hits[k] = hit
    ok = all(v >= 18 for v in hits.values())
    report(10, ok, f"planted k recovered in {hits[2]}/20 (k=2) "
                   f"and {hits[3]}/20 (k=3) seeds")


def test_criterion_11_mismatch_oracle():
    rng = np.random.default_rng(111)
    exact = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 51))
        z = rng.integers(0, k, size=n)
        zh = rng.integers(0, k, size=n)
        eta, _ = hs.mismatch_ratio(z, zh, k=k)
        exact += np.isclose(eta, mismatch_ratio_bruteforce(z, zh, k))
    ok = exact == 100
    report(11, ok, f"assignment minimum equals brute force on {exact}/100 pairs")


def test_criterion_12_aggregating_layers_beats_each_alone():
    start = time.perf_counter()
    n = 1000

    # grid search with the divergence oracle: each single layer below the
    # threshold with margin, the combined model above it
    def layer_value(coeffs):
        return hs.chernoff_hellinger(ALPHA2, coeffs, n).value

    best = None
    for a2 in (5.0, 5.5, 6.0, 6.5):
        for a3 in (8.0, 9.0, 10.0, 11.0):
            c2 = graph_coeffs(a2, 2.0)
            c3 = graph_coeffs(a3, 3.0, order=3)
            d2, d3 = layer_value(c2), layer_value(c3)
            dc = layer_value({**c2, **c3})
            if d2 <= 0.66 and d3 <= 0.66 and dc > 1.0:
                if best is None or dc > best[0]:
                    best = (dc, d2, d3, c2, c3)
    assert best is not None, "grid search found no admissible parameter set"
    dc, d2, d3, c2, c3 = best

    both = {**c2, **c3}
    T = hs.ProbabilityTensors.from_unscaled(2, both, n)
    wins = {"combined": 0, "m2": 0, "m3": 0}
    for t in range(20):
        z = hs.sample_membership(n, ALPHA2, seed=[12_100 + t, 11])
        h = hs.sample_hypergraph(n, z, T, seed=[12_100 + t, 12])
        only2 = Hypergraph(n, {2: h.edges[2]})
        only3 = Hypergraph(n, {3: h.edges[3]})
        seed = 12_100 + t
        wins["combined"] += hs.agnostic_partition(h, 2, seed=seed, truth=z).eta == 0.0
        wins["m2"] += hs.agnostic_partition(only2, 2, seed=seed, truth=z).eta == 0.0
        wins["m3"] += hs.agnostic_partition(only3, 2, seed=seed, truth=z).eta == 0.0
    rates = {key: v / 20 for key, v in wins.items()}
    elapsed = time.perf_counter() - start
    ok = (rates["combined"] >= rates["m2"] + 0.3
          and rates["combined"] >= rates["m3"] + 0.3)
    report(12, ok, f"D: singles {d2:.2f}/{d3:.2f}, combined {dc:.2f}; rates: "
                   f"combined {rates['combined']:.2f}, m=2 {rates['m2']:.2f}, "
                   f"m=3 {rates['m3']:.2f} in {elapsed:.0f}s")
