"""Kendall's tau rank correlation for permutations.

The permutation counterfactual search evaluates candidate orders "in
decreasing order of similarity, based on decreasing Kendall's Tau" with
respect to the original retrieval order ``Dq``.  Permutations carry no
ties, so tau-a applies:

    tau = 1 - 4 * inversions / (k * (k - 1))

Inversions are counted with a merge-sort pass, O(k log k).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TypeVar

from ..errors import ConfigError

T = TypeVar("T")


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs (i < j) with values[i] > values[j]."""
    work = list(values)
    buffer = [0] * len(work)
    return _merge_count(work, buffer, 0, len(work))


def _merge_count(work: List[int], buffer: List[int], lo: int, hi: int) -> int:
    if hi - lo <= 1:
        return 0
    mid = (lo + hi) // 2
    inversions = _merge_count(work, buffer, lo, mid) + _merge_count(work, buffer, mid, hi)
    left, right, out = lo, mid, lo
    while left < mid and right < hi:
        if work[left] <= work[right]:
            buffer[out] = work[left]
            left += 1
        else:
            buffer[out] = work[right]
            inversions += mid - left
            right += 1
        out += 1
    while left < mid:
        buffer[out] = work[left]
        left += 1
        out += 1
    while right < hi:
        buffer[out] = work[right]
        right += 1
        out += 1
    work[lo:hi] = buffer[lo:hi]
    return inversions


def kendall_tau_from_inversions(inversions: int, k: int) -> float:
    """tau-a from an inversion count over k items."""
    if k < 2:
        return 1.0
    pairs = k * (k - 1) // 2
    return 1.0 - 2.0 * inversions / pairs


def rank_map(reference: Sequence[T]) -> Dict[T, int]:
    """Item -> position map for a reference ordering (items unique)."""
    ranks: Dict[T, int] = {}
    for position, item in enumerate(reference):
        if item in ranks:
            raise ConfigError(f"duplicate item {item!r} in reference ordering")
        ranks[item] = position
    return ranks


def kendall_tau(reference: Sequence[T], candidate: Sequence[T]) -> float:
    """tau-a between a candidate ordering and the reference ordering.

    Both sequences must contain exactly the same unique items.  Returns
    1.0 for identical orderings, -1.0 for the exact reversal.
    """
    if len(reference) != len(candidate):
        raise ConfigError("orderings must have equal length")
    ranks = rank_map(reference)
    if set(ranks) != set(candidate) or len(set(candidate)) != len(candidate):
        raise ConfigError("orderings must contain the same unique items")
    projected = [ranks[item] for item in candidate]
    inversions = count_inversions(projected)
    return kendall_tau_from_inversions(inversions, len(reference))
