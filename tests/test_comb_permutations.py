"""Fisher–Yates and permutation sampling tests."""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.combinatorics import (
    all_permutations,
    fisher_yates_shuffle,
    naive_sample_permutations,
    sample_permutations,
)
from repro.errors import ConfigError


def test_shuffle_is_permutation():
    rng = random.Random(0)
    items = list(range(10))
    for _ in range(50):
        assert sorted(fisher_yates_shuffle(items, rng)) == items


def test_shuffle_does_not_mutate_input():
    items = [1, 2, 3]
    fisher_yates_shuffle(items, random.Random(0))
    assert items == [1, 2, 3]


def test_shuffle_deterministic_given_seed():
    a = fisher_yates_shuffle(list(range(8)), random.Random(42))
    b = fisher_yates_shuffle(list(range(8)), random.Random(42))
    assert a == b


def test_shuffle_uniformity_chi_square():
    """All 3! = 6 permutations should appear with near-equal frequency."""
    rng = random.Random(7)
    n = 6000
    counts = Counter(tuple(fisher_yates_shuffle([0, 1, 2], rng)) for _ in range(n))
    assert len(counts) == 6
    expected = n / 6
    chi2 = sum((count - expected) ** 2 / expected for count in counts.values())
    # 5 degrees of freedom; 99.9th percentile is ~20.5.
    assert chi2 < 20.5


def test_sample_permutations_distinct():
    perms = sample_permutations(list(range(5)), 20, random.Random(0))
    assert len(perms) == 20
    assert len(set(perms)) == 20


def test_sample_permutations_saturating():
    perms = sample_permutations([0, 1, 2], 100, random.Random(0))
    assert sorted(perms) == sorted(itertools.permutations([0, 1, 2]))


def test_sample_permutations_with_replacement():
    perms = sample_permutations([0, 1], 10, random.Random(0), distinct=False)
    assert len(perms) == 10  # k!=2 so duplicates are required


def test_sample_permutations_invalid():
    with pytest.raises(ConfigError):
        sample_permutations([1, 2], 0, random.Random(0))


def test_naive_sample_matches_population():
    rng = random.Random(3)
    perms = naive_sample_permutations([0, 1, 2, 3], 5, rng)
    assert len(perms) == 5
    universe = set(itertools.permutations([0, 1, 2, 3]))
    assert set(perms) <= universe


def test_naive_sample_saturating():
    perms = naive_sample_permutations([0, 1], 99, random.Random(0))
    assert sorted(perms) == [(0, 1), (1, 0)]


def test_all_permutations_lexicographic():
    perms = list(all_permutations([0, 1, 2]))
    assert perms == sorted(perms)
    assert len(perms) == 6


def test_sample_permutations_exclude_rejects_during_draw():
    items = ("a", "b", "c")
    for seed in range(20):
        picks = sample_permutations(
            items, 2, random.Random(seed), exclude=[items]
        )
        assert len(picks) == 2
        assert items not in picks


def test_sample_permutations_exclude_caps_population():
    items = ("a", "b", "c")
    picks = sample_permutations(items, 50, random.Random(0), exclude=[items])
    assert len(picks) == math.factorial(3) - 1
    assert items not in picks


def test_sample_permutations_exclude_all_raises():
    """Regression guard: distinct=False with a fully excluded population
    must raise instead of rejection-sampling forever."""
    with pytest.raises(ConfigError):
        sample_permutations(
            ("a",), 1, random.Random(0), distinct=False, exclude=[("a",)]
        )


def test_sample_permutations_exclude_ignores_non_permutations():
    items = ("a", "b")
    picks = sample_permutations(
        items, 2, random.Random(0), exclude=[("z", "q"), ("a",)]
    )
    assert sorted(picks) == [("a", "b"), ("b", "a")]
