"""Pairwise divergences, the recovery threshold and its regime verdict."""

import math

import numpy as np
import pytest

import hypersbm as hs
from hypersbm.divergence import _layers, _tilting, maximize_concave

ALPHA2 = (0.5, 0.5)


def graph_coeffs(a, b):
    return hs.two_level_coefficients(2, {2: float(a)}, {2: float(b)})


def random_coefficients(rng, k, orders):
    return {m: rng.uniform(0.2, 12.0, size=len(hs.weak_compositions(m, k)))
            for m in orders}


def pair_objective(alpha, coeffs, n):
    """The tilting objective of communities 0 and 1 at finite n."""
    return _tilting(_layers(hs.validate_prior(alpha), coeffs, n, "finite"), 0, 1)


def grid_max(objective, points=20001):
    ts = np.linspace(0.0, 1.0, points)
    vals = np.array([objective(t) for t in ts])
    i = int(np.argmax(vals))
    return ts[i], vals[i]


# ---------------------------------------------------------------------------
# Pairwise divergence
# ---------------------------------------------------------------------------

def test_identical_tensors_give_zero():
    coeffs = {2: np.full(3, 4.0), 3: np.full(4, 2.0)}
    pair = hs.chernoff_hellinger(ALPHA2, coeffs, 500).pairs[0]
    assert abs(pair.value) < 1e-12


def test_graph_closed_form():
    # binary symmetric graph model: threshold (sqrt(a) - sqrt(b))^2 / 2
    pair = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 10**6).pairs[0]
    assert abs(pair.value - 2.0) < 0.01 * 2.0
    assert abs(pair.t_star - 0.5) < 1e-4
    asym = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 10**6,
                                 weights="asymptotic").pairs[0]
    assert abs(asym.value - 2.0) < 1e-6


def test_three_uniform_closed_form():
    # symmetric one-layer triple model: 2^-(m-1) (sqrt(a) - sqrt(b))^2
    coeffs = hs.two_level_coefficients(2, {3: 20.0}, {3: 4.0})
    target = 0.25 * (math.sqrt(20) - 2.0) ** 2
    pair = hs.chernoff_hellinger(ALPHA2, coeffs, 10**6).pairs[0]
    assert abs(pair.value - target) < 0.01 * target


def test_nonnegative_and_matches_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        alpha = rng.dirichlet(np.ones(k) * 4)
        coeffs = random_coefficients(rng, k, rng.choice([2, 3, 4], size=2, replace=False))
        pair = hs.chernoff_hellinger(alpha, coeffs, 300).pairs[0]
        assert pair.value >= -1e-12
        f = pair_objective(alpha, coeffs, 300)
        t_grid, v_grid = grid_max(f, 10001)
        assert pair.value >= v_grid - 1e-9
        assert abs(pair.value - v_grid) < 1e-6


def test_zero_rate_entries_are_handled():
    coeffs = {2: np.array([4.0, 0.0, 3.0])}
    pair = hs.chernoff_hellinger(ALPHA2, coeffs, 200).pairs[0]
    assert np.isfinite(pair.value) and pair.value > 0


def test_global_minimum_and_argmin():
    report = hs.chernoff_hellinger(ALPHA2, graph_coeffs(9, 1), 1000)
    assert report.value == report.pairs[0].value  # single pair

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
        f2 = pair_objective(alpha, c2, 500)
        f3 = pair_objective(alpha, c3, 500)
        fb = pair_objective(alpha, both, 500)
        for t in np.linspace(0, 1, 21):
            assert np.isclose(fb(t), f2(t) + f3(t), atol=1e-12)
        joint = hs.chernoff_hellinger(alpha, both, 500).value
        singles = [hs.chernoff_hellinger(alpha, c, 500).value for c in (c2, c3)]
        assert joint >= max(singles) - 1e-9


def test_golden_section_on_known_function():
    t, v = maximize_concave(lambda t: -(t - 0.3) ** 2 + 1.0)
    assert abs(t - 0.3) < 1e-6 and abs(v - 1.0) < 1e-12
    t, v = maximize_concave(lambda t: t)  # maximum at the right endpoint
    assert t == 1.0 and v == 1.0


def test_pairs_follow_a_relabelling():
    # Relabel the communities by a permutation pi: the prior and every type's
    # coefficient move with their communities, so pair (j, k) reappears as
    # (pi(j), pi(k)) with the same value.  When pi reverses the pair, t*
    # becomes 1 - t*, since f_jk(t) = f_kj(1 - t).  The relabelled sums run
    # in another order, so values agree to rounding (rtol 1e-12), and t* to
    # what the search's flat top allows (atol 1e-6).
    rng = np.random.default_rng(23)
    for k in (3, 4):
        for weights in ("finite", "asymptotic"):
            for _ in range(3):
                orders = sorted(int(m) for m in rng.choice([2, 3, 4], size=2, replace=False))
                alpha = rng.dirichlet(np.ones(k) * 4)
                coeffs = random_coefficients(rng, k, orders)
                pi = rng.permutation(k)
                moved_alpha = np.empty(k)
                moved_alpha[pi] = alpha
                moved = {}
                for m, c in coeffs.items():
                    index = {w: i for i, w in enumerate(hs.weak_compositions(m, k))}
                    moved[m] = np.empty_like(c)
                    for w, value in zip(hs.weak_compositions(m, k), c):
                        target = [0] * k
                        for community, count in enumerate(w):
                            target[pi[community]] = count
                        moved[m][index[tuple(target)]] = value
                report = hs.chernoff_hellinger(alpha, coeffs, 300, weights=weights)
                relabelled = hs.chernoff_hellinger(moved_alpha, moved, 300, weights=weights)
                by_pair = {(p.j, p.k): p for p in relabelled.pairs}
                for p in report.pairs:
                    a, b = int(pi[p.j]), int(pi[p.k])
                    q = by_pair[min(a, b), max(a, b)]
                    assert q.value == pytest.approx(p.value, rel=1e-12, abs=0)
                    t_star = p.t_star if a < b else 1.0 - p.t_star
                    assert q.t_star == pytest.approx(t_star, rel=0, abs=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -3.0])
def test_bad_coefficients_are_an_error(bad):
    coeffs = {2: np.array([bad, 2.0, 2.0])}
    message = "^order 2: coefficients must be finite and nonnegative$"
    with pytest.raises(ValueError, match=message):
        hs.chernoff_hellinger(ALPHA2, coeffs, 200)
    with pytest.raises(ValueError, match=message):
        hs.ProbabilityTensors.from_unscaled(2, coeffs, 200)
    with pytest.raises(ValueError, match=message):
        hs.LayerSpec(order=2, within=bad, cross=2.0).coefficients(2)
    with pytest.raises(ValueError, match=message):
        hs.LayerSpec(order=2, values=(2.0, bad, 2.0)).coefficients(2)
    with pytest.raises(ValueError, match=r"^order 2: probabilities must lie in \[0, 1\]$"):
        hs.ProbabilityTensors(k=2, q={2: [bad, 0.1, 0.1]})


# float.hex of (value, t_star) per pair, recorded before the search bounds and
# tolerance became module constants; any change to the search shows here.
THRESHOLD_BITS = {
    (2, "finite"): [("0x1.819e433daea44p+1", "0x1.ffffffe56a25bp-2")],
    (2, "asymptotic"): [("0x1.813b8b5d9ed9cp+1", "0x1.ffffffec2f378p-2")],
    (3, "finite"): [("0x1.23cbf0377f397p+0", "0x1.f02ff88c4a07cp-2"),
                    ("0x1.ac8cb48c19a67p+0", "0x1.defcbca4ae40ep-2"),
                    ("0x1.e9ff006e506d4p+0", "0x1.ec5b1100f5a7ap-2")],
    (3, "asymptotic"): [("0x1.23abe68f51893p+0", "0x1.f030467ebfef2p-2"),
                        ("0x1.ac587907b9c49p+0", "0x1.defd318a6699ap-2"),
                        ("0x1.e9c2ebe7c578ap+0", "0x1.ec5b65e7641a6p-2")],
    # instance-k4's model: its six pairs share one layer table
    (4, "finite"): [("0x1.fca9c0ed50e54p+0", "0x1.ffffff76e3a40p-2")] * 6,
}


@pytest.mark.parametrize("k, weights", sorted(THRESHOLD_BITS))
def test_threshold_bits_are_pinned(k, weights):
    if k == 2:
        alpha, n = [0.5, 0.5], 1000
        coeffs = hs.two_level_coefficients(2, {2: 9.0, 3: 14.0}, {2: 1.0, 3: 3.0})
    elif k == 3:
        alpha, n = [0.2, 0.3, 0.5], 2000
        coeffs = hs.two_level_coefficients(3, {2: 12.0, 3: 10.0}, {2: 2.0, 3: 4.0})
    else:
        alpha, n = [0.25] * 4, 20000
        coeffs = hs.two_level_coefficients(4, {2: 12.0, 3: 14.0, 4: 10.0},
                                           {2: 1.0, 3: 1.5, 4: 1.0})
    report = hs.chernoff_hellinger(alpha, coeffs, n, weights=weights)
    got = [(p.value.hex(), p.t_star.hex()) for p in report.pairs]
    assert got == THRESHOLD_BITS[k, weights]


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

def test_classify_regime():
    assert hs.classify_regime(2.0) == "achievable"
    assert hs.classify_regime(0.5) == "impossible"
    assert hs.classify_regime(1.0005) == "critical"
    assert hs.classify_regime(0.9995) == "critical"
    assert hs.classify_regime(1.002) == "achievable"
    assert hs.classify_regime(0.998) == "impossible"


def test_threshold_and_tensors_share_the_bound_on_n():
    # both need the C(n-1, m-1) edges of order m around a vertex: n >= m
    coeffs = hs.two_level_coefficients(2, {3: 0.5}, {3: 0.2})
    assert math.isfinite(hs.chernoff_hellinger([0.5, 0.5], coeffs, 3).value)
    assert hs.ProbabilityTensors.from_unscaled(2, coeffs, 3).orders == [3]
    for build in (lambda: hs.chernoff_hellinger([0.5, 0.5], coeffs, 2),
                  lambda: hs.ProbabilityTensors.from_unscaled(2, coeffs, 2)):
        with pytest.raises(ValueError, match=r"^need n >= 3 for order 3$"):
            build()
