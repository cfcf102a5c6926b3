"""Kendall's tau tests, including a scipy cross-check."""

import random

import pytest
from scipy.stats import kendalltau as scipy_kendalltau

from repro.combinatorics import (
    count_inversions,
    kendall_tau,
    kendall_tau_from_inversions,
    rank_map,
)
from repro.errors import ConfigError


def test_count_inversions_basic():
    assert count_inversions([1, 2, 3]) == 0
    assert count_inversions([3, 2, 1]) == 3
    assert count_inversions([2, 1, 3]) == 1
    assert count_inversions([]) == 0
    assert count_inversions([5]) == 0


def test_count_inversions_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(0, 12)
        values = [rng.randint(0, 20) for _ in range(n)]
        brute = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if values[i] > values[j]
        )
        assert count_inversions(values) == brute


def test_tau_identity_and_reverse():
    items = ["a", "b", "c", "d", "e"]
    assert kendall_tau(items, items) == 1.0
    assert kendall_tau(items, list(reversed(items))) == -1.0


def test_tau_adjacent_swap():
    items = ["a", "b", "c", "d"]
    swapped = ["b", "a", "c", "d"]
    # 1 inversion out of C(4,2)=6 pairs: tau = 1 - 2/6.
    assert kendall_tau(items, swapped) == pytest.approx(1 - 2 / 6)


def test_tau_matches_scipy():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(2, 15)
        reference = list(range(k))
        candidate = reference[:]
        rng.shuffle(candidate)
        ours = kendall_tau(reference, candidate)
        theirs = scipy_kendalltau(reference, [candidate.index(i) for i in reference])
        assert ours == pytest.approx(theirs.statistic)


def test_tau_single_item():
    assert kendall_tau(["a"], ["a"]) == 1.0


def test_tau_validation():
    with pytest.raises(ConfigError):
        kendall_tau(["a", "b"], ["a"])
    with pytest.raises(ConfigError):
        kendall_tau(["a", "b"], ["a", "c"])
    with pytest.raises(ConfigError):
        kendall_tau(["a", "b"], ["a", "a"])
    with pytest.raises(ConfigError):
        rank_map(["a", "a"])


def test_tau_from_inversions_bounds():
    k = 6
    pairs = k * (k - 1) // 2
    assert kendall_tau_from_inversions(0, k) == 1.0
    assert kendall_tau_from_inversions(pairs, k) == -1.0
    assert kendall_tau_from_inversions(0, 1) == 1.0


def test_tau_decreases_with_inversions():
    k = 5
    taus = [kendall_tau_from_inversions(i, k) for i in range(11)]
    assert taus == sorted(taus, reverse=True)
