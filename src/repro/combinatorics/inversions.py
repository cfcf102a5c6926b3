"""Lazy enumeration of permutations in decreasing Kendall-tau order.

The paper's permutation counterfactual search "generates all length-k
permutations ... then computes Kendall's Tau ... sorted and evaluated in
decreasing order of similarity".  This module yields that exact order
without materializing or sorting k! permutations, so a search only ever
constructs the orders it evaluates.

The construction is the Lehmer code: an order of k items is built by
picking, position by position, one of the items not yet placed.  The
item of rank ``r`` among those left (ranks follow the original order)
has ``r`` originally earlier items still to be placed after it, so
picking it adds exactly ``r`` inversions, and an order's inversion count
is the sum of its picked ranks.  For each inversion count in turn, the
ranks are tried smallest first at every position, which is
lexicographic order by original position.  Tau is a strictly decreasing
function of the inversion count, so the stream is the paper's
generate-all-then-sort order with ties kept in the lexicographic order
of :func:`itertools.permutations`: the stable sort of every permutation
by decreasing tau.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, TypeVar

from ..errors import ConfigError
from .kendall import kendall_tau_from_inversions

T = TypeVar("T")


def max_inversions(k: int) -> int:
    """The inversion count of the full reversal: k(k-1)/2."""
    return k * (k - 1) // 2


def _orders_with_inversions(left: Tuple[T, ...], total: int) -> Iterator[Tuple[T, ...]]:
    """Every order of ``left`` with exactly ``total`` inversions, in
    lexicographic order by position in ``left``."""
    if not left:
        yield ()
        return
    # The rank picked first adds that many inversions; the rest of the
    # order can add at most max_inversions(len(left) - 1).
    lowest = max(0, total - max_inversions(len(left) - 1))
    for rank in range(lowest, min(total, len(left) - 1) + 1):
        rest = left[:rank] + left[rank + 1:]
        for tail in _orders_with_inversions(rest, total - rank):
            yield (left[rank],) + tail


def permutations_by_inversions(items: Sequence[T]) -> Iterator[Tuple[Tuple[T, ...], int]]:
    """Yield ``(permutation, inversion_count)`` in increasing inversion
    order — i.e. decreasing Kendall tau to the original order.

    The identity (0 inversions) comes first; the full reversal comes
    last.  Within one inversion count, permutations come in
    lexicographic order by position.  Generation is lazy: consuming the
    first n permutations costs O(n * k^2), independent of k!.
    """
    k = len(items)
    if len(set(map(id, items))) != k and len(set(items)) != k:
        raise ConfigError("items must be unique to define permutations")
    for total in range(0, max_inversions(k) + 1):
        for order in _orders_with_inversions(tuple(items), total):
            yield order, total


def permutations_by_tau(
    items: Sequence[T],
    include_identity: bool = False,
) -> Iterator[Tuple[Tuple[T, ...], float]]:
    """Yield ``(permutation, tau)`` in decreasing-tau order, lazily."""
    k = len(items)
    for order, inversions in permutations_by_inversions(items):
        if not include_identity and inversions == 0:
            continue
        yield order, kendall_tau_from_inversions(inversions, k)
