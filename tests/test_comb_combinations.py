"""Combination enumeration and sampling tests."""

import itertools
import random

import pytest

from repro.combinatorics import (
    all_combinations,
    count_combinations,
    ordered_combinations,
    sample_combinations,
)
from repro.errors import ConfigError

ITEMS = ["a", "b", "c", "d"]


def test_all_combinations_size_major():
    combos = list(all_combinations(ITEMS))
    sizes = [len(c) for c in combos]
    assert sizes == sorted(sizes)
    assert len(combos) == 2 ** len(ITEMS)
    assert combos[0] == ()
    assert combos[-1] == tuple(ITEMS)


def test_all_combinations_exclusions():
    combos = list(all_combinations(ITEMS, include_empty=False, include_full=False))
    assert () not in combos
    assert tuple(ITEMS) not in combos
    assert len(combos) == 2 ** len(ITEMS) - 2


def test_count_combinations_matches_enumeration():
    for include_empty in (True, False):
        for include_full in (True, False):
            expected = len(list(all_combinations(ITEMS, include_empty, include_full)))
            assert count_combinations(len(ITEMS), include_empty, include_full) == expected


def test_ordered_combinations_size_then_relevance():
    scores = {"a": 0.1, "b": 0.9, "c": 0.5, "d": 0.3}
    combos = list(ordered_combinations(ITEMS, scores=scores))
    sizes = [len(c) for c in combos]
    assert sizes == sorted(sizes)
    size1 = [c for c in combos if len(c) == 1]
    assert size1 == [("b",), ("c",), ("d",), ("a",)]
    size2 = [c for c in combos if len(c) == 2]
    totals = [sum(scores[d] for d in combo) for combo in size2]
    assert totals == sorted(totals, reverse=True)


def test_ordered_combinations_ascending():
    scores = {"a": 0.1, "b": 0.9, "c": 0.5, "d": 0.3}
    size1 = [
        c for c in ordered_combinations(ITEMS, scores=scores, descending=False)
        if len(c) == 1
    ]
    assert size1 == [("a",), ("d",), ("c",), ("b",)]


def test_ordered_combinations_without_scores_lexicographic():
    size2 = [c for c in ordered_combinations(ITEMS) if len(c) == 2]
    assert size2 == list(itertools.combinations(ITEMS, 2))


def test_ordered_combinations_bounds():
    combos = list(ordered_combinations(ITEMS, min_size=2, max_size=3))
    assert {len(c) for c in combos} == {2, 3}
    with pytest.raises(ConfigError):
        list(ordered_combinations(ITEMS, min_size=3, max_size=2))
    with pytest.raises(ConfigError):
        list(ordered_combinations(ITEMS, min_size=0, max_size=9))


def test_ordered_combinations_deterministic_ties():
    scores = {item: 1.0 for item in ITEMS}
    first = list(ordered_combinations(ITEMS, scores=scores))
    second = list(ordered_combinations(ITEMS, scores=scores))
    assert first == second


def test_sample_combinations_distinct_and_valid():
    rng = random.Random(0)
    picks = sample_combinations(ITEMS, 5, rng)
    assert len(picks) == 5
    assert len(set(picks)) == 5
    for combo in picks:
        assert set(combo) <= set(ITEMS)
        assert list(combo) == [i for i in ITEMS if i in combo]  # original order


def test_sample_combinations_excludes_empty_by_default():
    rng = random.Random(1)
    for _ in range(20):
        assert () not in sample_combinations(ITEMS, 3, rng)


def test_sample_combinations_saturating_returns_all():
    rng = random.Random(2)
    picks = sample_combinations(ITEMS, 10_000, rng, include_empty=True)
    assert len(picks) == 2 ** len(ITEMS)


def test_sample_combinations_invalid():
    with pytest.raises(ConfigError):
        sample_combinations(ITEMS, 0, random.Random(0))


def test_mask_combination_rejects_out_of_range():
    from repro.combinatorics import mask_combination

    with pytest.raises(ConfigError):
        mask_combination(ITEMS, 1 << len(ITEMS))
    with pytest.raises(ConfigError):
        mask_combination(ITEMS, -1)


def test_sample_combinations_empty_items_returns_early():
    # Regression: rng.getrandbits(0) raises ValueError on Python < 3.11;
    # the degenerate universe must never reach the sampling loop.
    rng = random.Random(0)
    assert sample_combinations([], 3, rng) == []
    assert sample_combinations([], 3, rng, include_empty=True) == [()]
    # The empty combination is also the full one: excluding either
    # excludes it (mirrors all_combinations' flag semantics).
    assert sample_combinations([], 3, rng, include_empty=True, include_full=False) == []
    with pytest.raises(ConfigError):
        sample_combinations([], 0, rng)
