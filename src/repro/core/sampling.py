"""Perturbation selection for the insight analyses.

    "To obtain a set of combinations, RAGE considers all combinations of
    the retrieved sources Dq, or draws a fixed-size random sample of s
    combinations. ... Users may again choose to analyze all
    permutations, or a fixed-size random sample of s permutations."

Permutation sampling uses Fisher–Yates (O(ks) total) rather than the
naive enumerate-then-sample O(k!) — the paper's efficiency contribution,
benchmarked in E5.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..combinatorics.combinations import all_combinations, sample_combinations
from ..combinatorics.permutations import all_permutations, sample_permutations
from ..errors import ConfigError
from .context import CombinationPerturbation, Context, PermutationPerturbation

#: The widest context whose k! orderings :func:`select_permutations`
#: enumerates when no sample size is given (8! = 40320 orders); wider
#: contexts must sample.  ``Rage.explain`` also gives its permutation
#: counterfactual search a smaller budget above it.
MAX_EXHAUSTIVE_K = 8


def select_combinations(
    context: Context,
    sample_size: Optional[int] = None,
    seed: int = 0,
    include_empty: bool = False,
    include_full: bool = True,
) -> List[CombinationPerturbation]:
    """All combinations, or a uniform random sample of ``sample_size``.

    ``sample_size=None`` enumerates everything (size-major order).
    """
    doc_ids = context.doc_ids()
    if sample_size is None:
        kept_sets = list(all_combinations(doc_ids, include_empty, include_full))
    else:
        if sample_size <= 0:
            raise ConfigError(f"sample_size must be positive, got {sample_size}")
        kept_sets = sample_combinations(
            doc_ids,
            sample_size,
            random.Random(seed),
            include_empty=include_empty,
            include_full=include_full,
        )
    return [CombinationPerturbation(kept=kept) for kept in kept_sets]


def select_permutations(
    context: Context,
    sample_size: Optional[int] = None,
    seed: int = 0,
    include_identity: bool = True,
) -> List[PermutationPerturbation]:
    """All permutations, or ``sample_size`` Fisher–Yates draws.

    Exhaustive selection refuses contexts wider than
    :data:`MAX_EXHAUSTIVE_K`; sampling has no such limit.  With
    ``include_identity=False`` the sampled path always returns exactly
    ``sample_size`` permutations (capped by k! - 1): the identity is
    rejected during the draw, never filtered out afterwards.
    """
    doc_ids = context.doc_ids()
    if sample_size is None:
        if context.k > MAX_EXHAUSTIVE_K:
            raise ConfigError(
                f"enumerating all {context.k}! permutations is intractable; "
                "pass sample_size"
            )
        orders: List[Tuple[str, ...]] = list(all_permutations(doc_ids))
        if not include_identity:
            orders = [order for order in orders if order != doc_ids]
    else:
        if sample_size <= 0:
            raise ConfigError(f"sample_size must be positive, got {sample_size}")
        # Excluding the identity rejects it *during* the draw: filtering
        # it out afterwards would silently return sample_size - 1
        # permutations whenever the identity happened to be drawn.
        orders = sample_permutations(
            doc_ids,
            sample_size,
            random.Random(seed),
            exclude=() if include_identity else (doc_ids,),
        )
    return [PermutationPerturbation(order=order) for order in orders]
