"""Combination enumeration and sampling over context sources.

The combination counterfactual search "tests combinations in increasing
order of subset size", and within one size "in order of their estimated
relevance" (sum of member relevance scores).  This module provides that
ordered enumeration as a lazy generator, plus uniform random sampling of
combinations for the insight analyses.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError


def mask_combination(items: Sequence[str], mask: int) -> Tuple[str, ...]:
    """Members of ``mask`` in ``items`` order: bit ``i`` keeps ``items[i]``.

    The subset decoding shared by :func:`sample_combinations` and
    :meth:`repro.core.lattice.AnswerLattice.decode`; a negative mask, or
    one with a bit beyond ``items``, raises :class:`ConfigError`.
    """
    if mask < 0 or mask >> len(items):
        raise ConfigError(f"mask {mask:#x} out of range for {len(items)} items")
    return tuple(item for index, item in enumerate(items) if mask >> index & 1)


def all_combinations(
    items: Sequence[str],
    include_empty: bool = True,
    include_full: bool = True,
) -> Iterator[Tuple[str, ...]]:
    """Every combination, size-major (0, 1, ..., k)."""
    k = len(items)
    start = 0 if include_empty else 1
    end = k if include_full else k - 1
    for size in range(start, end + 1):
        yield from itertools.combinations(items, size)


def count_combinations(k: int, include_empty: bool = True, include_full: bool = True) -> int:
    """Number of combinations :func:`all_combinations` would yield."""
    total = 2**k
    if not include_empty:
        total -= 1
    if not include_full and k >= 0:
        total -= 1
    return total


def ordered_combinations(
    items: Sequence[str],
    scores: Optional[Dict[str, float]] = None,
    min_size: int = 1,
    max_size: Optional[int] = None,
    descending: bool = True,
) -> Iterator[Tuple[str, ...]]:
    """Size-major enumeration, relevance-ordered within each size.

    Parameters
    ----------
    items:
        The source ids (the retrieved context ``Dq``).
    scores:
        Per-source estimated relevance ``S(q, d, Dq)``.  A combination's
        estimate is the sum over its members (no size normalization —
        only equal-size combinations are compared).  ``None`` falls back
        to lexicographic order within each size.
    min_size, max_size:
        Inclusive size bounds; ``max_size`` defaults to ``len(items)``.
    descending:
        Highest estimated relevance first (the paper's prioritization).
    """
    k = len(items)
    upper = k if max_size is None else max_size
    if min_size < 0 or upper > k or min_size > upper:
        raise ConfigError(f"invalid size bounds [{min_size}, {upper}] for k={k}")
    for size in range(min_size, upper + 1):
        combos = list(itertools.combinations(items, size))
        if scores is not None:
            combos.sort(
                key=lambda combo: (
                    -sum(scores.get(d, 0.0) for d in combo) if descending
                    else sum(scores.get(d, 0.0) for d in combo),
                    combo,
                )
            )
        yield from combos


def sample_combinations(
    items: Sequence[str],
    sample_size: int,
    rng: random.Random,
    include_empty: bool = False,
    include_full: bool = True,
) -> List[Tuple[str, ...]]:
    """Draw ``sample_size`` distinct combinations uniformly at random.

    Sampling draws a uniform bitmask per attempt and rejects duplicates,
    so no factorial-sized materialization occurs.  When ``sample_size``
    meets or exceeds the number of admissible combinations, all of them
    are returned (size-major order).
    """
    if sample_size <= 0:
        raise ConfigError(f"sample_size must be positive, got {sample_size}")
    k = len(items)
    if k == 0:
        # Degenerate universe: the only combination is the empty one —
        # which is also the full one, so both flags must admit it.
        # Guarded explicitly because ``rng.getrandbits(0)`` raises
        # ValueError on Python < 3.11.
        return [()] if include_empty and include_full else []
    population = count_combinations(k, include_empty, include_full)
    if sample_size >= population:
        return list(all_combinations(items, include_empty, include_full))
    seen: set = set()
    picks: List[Tuple[str, ...]] = []
    while len(picks) < sample_size:
        mask = rng.getrandbits(k)
        if not include_empty and mask == 0:
            continue
        if not include_full and mask == (1 << k) - 1:
            continue
        if mask in seen:
            continue
        seen.add(mask)
        picks.append(mask_combination(items, mask))
    return picks
