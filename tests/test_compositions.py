"""Combinatorial foundations: enumeration order, counts, capacities."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersbm.compositions import (
    capacity,
    capacity_vector,
    expected_capacity_vector,
    member_drop_table,
    member_lift_table,
    multinomial_weight_vector,
    num_weak_compositions,
    weak_compositions,
)
from oracles import add_member, composition_index, composition_rank, expected_capacity


def brute_force_compositions(m, k):
    """Oracle: enumerate all k-tuples with entries in 0..m summing to m."""
    return {t for t in itertools.product(range(m + 1), repeat=k) if sum(t) == m}


def test_counts_match_binomial_formula():
    for m in range(7):
        for k in range(1, 6):
            ws = weak_compositions(m, k)
            assert len(ws) == comb(m + k - 1, k - 1)
            assert len(ws) == num_weak_compositions(m, k)
            assert set(ws) == brute_force_compositions(m, k)
            assert len(set(ws)) == len(ws)


def test_enumeration_is_lex_descending():
    assert weak_compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert weak_compositions(1, 1) == ((1,),)
    assert len(weak_compositions(3, 3)) == 10
    for m, k in [(3, 3), (4, 2), (2, 5)]:
        ws = weak_compositions(m, k)
        assert list(ws) == sorted(ws, reverse=True)


def test_invalid_part_count():
    with pytest.raises(ValueError):
        weak_compositions(2, 0)
    with pytest.raises(ValueError):
        num_weak_compositions(2, 0)


def test_composition_index_roundtrip():
    for m, k in [(0, 2), (2, 2), (3, 4)]:
        idx = composition_index(m, k)
        for i, w in enumerate(weak_compositions(m, k)):
            assert idx[w] == i


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 8), st.integers(1, 8))
def test_rank_is_position_in_canonical_order(m, k):
    ws = np.array(weak_compositions(m, k), dtype=np.int64).reshape(-1, k)
    assert np.array_equal(composition_rank(ws, m), np.arange(len(ws)))
    # leading axes broadcast: one rank per row, shape kept
    assert composition_rank(ws[None, ::-1], m).tolist() == [list(range(len(ws)))[::-1]]


def test_member_drop_table_inverts_lift():
    for m, k in [(2, 1), (2, 2), (3, 3), (4, 3), (6, 12)]:
        drop = member_drop_table(m, k)
        lift = member_lift_table(m, k)
        upper = weak_compositions(m, k)
        lower = weak_compositions(m - 1, k)
        for i, w in enumerate(upper):
            for label in range(k):
                j = drop[i, label]
                if w[label] == 0:
                    assert j == -1
                else:
                    assert add_member(lower[j], label) == w
                    assert lift[label, j] == i


def test_add_member():
    assert add_member((0, 0), 0) == (1, 0)
    assert add_member((1, 1), 1) == (1, 2)
    with pytest.raises(ValueError):
        add_member((1, 0), 2)
    with pytest.raises(ValueError):
        add_member((1, 0), -1)


def test_add_member_commutes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = rng.integers(2, 5)
        w = tuple(rng.integers(0, 3, size=k))
        j, l = rng.integers(0, k, size=2)
        assert add_member(add_member(w, j), l) == add_member(add_member(w, l), j)


def test_member_lift_table_consistency():
    for m, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        table = member_lift_table(m, k)
        upper = weak_compositions(m, k)
        lower = weak_compositions(m - 1, k)
        for label in range(k):
            for i, w in enumerate(lower):
                assert upper[table[label, i]] == add_member(w, label)


def test_cached_compositions_have_int_parts_whatever_the_first_caller_passed():
    # np.int64(4) hashes and compares like 4, so a cache keyed on the
    # arguments hands the first call's result to every later one
    weak_compositions.cache_clear()
    first = weak_compositions(np.int64(4), np.int64(2))
    assert {type(part) for w in first for part in w} == {int}
    assert weak_compositions(4, 2) is first
    assert weak_compositions(np.int64(4), 1) == ((4,),)
    assert type(weak_compositions(4, 1)[0][0]) is int


@pytest.mark.parametrize("table", [member_lift_table, member_drop_table])
def test_cached_type_tables_are_read_only(table):
    t = table(np.int64(3), np.int64(2))
    assert t is table(3, 2)
    with pytest.raises(ValueError, match="read-only"):
        t[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        t += 1


def test_capacity():
    assert capacity((1, 1), (3, 2)) == 6
    assert capacity((2, 0), (1, 5)) == 0
    assert capacity((0, 0, 0), (4, 1, 7)) == 1
    # oracle: count subsets realizing the type directly
    sizes = (3, 2, 2)
    for w in weak_compositions(3, 3):
        members = []
        pools = [range(sum(sizes[:l]), sum(sizes[:l + 1])) for l in range(3)]
        count = 0
        for combo in itertools.combinations(range(sum(sizes)), 3):
            got = tuple(sum(1 for v in combo if v in pools[l]) for l in range(3))
            count += got == w
        assert capacity(w, sizes) == count


def test_expected_capacity():
    assert expected_capacity((1, 1), (0.5, 0.5), 10) == 25
    assert expected_capacity((0, 0), (0.3, 0.7), 50) == 1
    for w in weak_compositions(2, 2):
        assert expected_capacity(w, (0.3, 0.7), 41) == capacity(w, (12, 28))


def test_capacity_vector_matches_scalar():
    sizes = (4, 0, 3)
    vec = capacity_vector(2, 3, sizes)
    assert vec.dtype == np.float64
    assert vec.tolist() == [float(capacity(w, sizes)) for w in weak_compositions(2, 3)]
    # bit for bit, with empty communities, communities smaller than a part,
    # and products far above 2^53 that must be rounded once
    rng = np.random.default_rng(0)
    for k in range(1, 13):
        for m in range(7):
            sizes = rng.choice([0, 1, 2, 5, 37, 1667, 10**6 + 3], size=k).tolist()
            want = np.array([float(capacity(w, sizes)) for w in weak_compositions(m, k)])
            got = capacity_vector(m, k, sizes)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (m, k, sizes)


def test_expected_capacity_vector_matches_scalar():
    vec = expected_capacity_vector(2, 2, (0.5, 0.5), 20)
    expected = [expected_capacity(w, (0.5, 0.5), 20) for w in weak_compositions(2, 2)]
    assert np.allclose(vec, expected)


def test_multinomial_weights_are_capacity_limits():
    # finite-n capacity ratios converge to the multinomial law over types
    alpha = (0.6, 0.4)
    m = 2
    limit = multinomial_weight_vector(m, 2, alpha)
    n = 10**6
    finite = expected_capacity_vector(m, 2, alpha, n) / comb(n - 1, m)
    assert np.allclose(finite, limit, rtol=1e-4)
    assert abs(limit.sum() - 1.0) < 1e-12
