"""Permutation generation and sampling.

Implements the paper's two generation strategies:

* exhaustive — "generates all length-k permutations for the k sources"
  (O(k!), only viable for small k), and
* sampled — s independent Fisher–Yates shuffles, each O(k), for an
  overall O(ks) instead of the naive generate-all-then-sample O(k!).

The naive baseline is kept (``naive_sample_permutations``) because
benchmark E5 reproduces the paper's complexity comparison.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, List, Sequence, Tuple, TypeVar

from ..errors import ConfigError

T = TypeVar("T")


def fisher_yates_shuffle(items: Sequence[T], rng: random.Random) -> List[T]:
    """Return an unbiased uniform random permutation of ``items``.

    Classic Fisher–Yates / Knuth shuffle: one pass, one ``randint`` per
    element, O(k) time and space.  The input is not modified.
    """
    result = list(items)
    for i in range(len(result) - 1, 0, -1):
        j = rng.randint(0, i)
        result[i], result[j] = result[j], result[i]
    return result


def sample_permutations(
    items: Sequence[T],
    sample_size: int,
    rng: random.Random,
    distinct: bool = True,
    exclude: Sequence[Sequence[T]] = (),
) -> List[Tuple[T, ...]]:
    """Draw ``sample_size`` random permutations in O(k * sample_size).

    With ``distinct=True`` duplicate draws are rejected; if the request
    exceeds the admissible population all admissible permutations are
    returned instead (still bounded).  ``exclude`` lists forbidden
    permutations (e.g. the identity) that are rejected *during* the
    draw, so the result never silently under-fills.
    """
    if sample_size <= 0:
        raise ConfigError(f"sample_size must be positive, got {sample_size}")
    k = len(items)
    reference = sorted(items)
    # Only true permutations of ``items`` shrink the population; other
    # entries could never be drawn anyway.
    excluded = {
        order
        for order in {tuple(o) for o in exclude}
        if sorted(order) == reference
    }
    population = math.factorial(k) - len(excluded)
    if population <= 0:
        # Every permutation is forbidden: rejection sampling below
        # would loop forever regardless of the distinct flag.
        raise ConfigError("exclude forbids every permutation of the items")
    if distinct and sample_size >= population:
        return [
            perm for perm in itertools.permutations(items) if perm not in excluded
        ]
    picks: List[Tuple[T, ...]] = []
    seen: set = set()
    while len(picks) < sample_size:
        perm = tuple(fisher_yates_shuffle(items, rng))
        if perm in excluded:
            continue
        if distinct:
            if perm in seen:
                continue
            seen.add(perm)
        picks.append(perm)
    return picks


def naive_sample_permutations(
    items: Sequence[T],
    sample_size: int,
    rng: random.Random,
) -> List[Tuple[T, ...]]:
    """The O(k!) baseline: materialize every permutation, then sample.

    Kept only for the complexity benchmark (E5); do not use in library
    code paths.
    """
    if sample_size <= 0:
        raise ConfigError(f"sample_size must be positive, got {sample_size}")
    universe = list(itertools.permutations(items))
    if sample_size >= len(universe):
        return universe
    return rng.sample(universe, sample_size)


def all_permutations(items: Sequence[T]) -> Iterator[Tuple[T, ...]]:
    """Every permutation in lexicographic index order (O(k!))."""
    return itertools.permutations(items)
