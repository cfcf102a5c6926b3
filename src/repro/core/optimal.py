"""Optimal permutations: counteracting the "lost in the middle" bias.

    "Given a distribution of the expected attention paid to each
    position, this 'lost in the middle' bias can be counteracted by
    positioning important sources in high-attention positions. ...
    Optimal permutations aim to maximize both the relevance and
    attention of their constituent sources. ... we propose an efficient
    solution by formulating this problem as an instance of the
    assignment problem ... a variant that seeks the s assignments with
    minimal cost ... the algorithm proposed by Chegireddy and Hamacher
    ... allows us to calculate the s optimal permutations in O(sk^3)."

The benefit of placing source ``d`` at position ``p`` is
``relevance(d) x expected_attention(p)``; the top-s orderings of total
benefit are exactly the s-best assignments of the negated benefit
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..attention.positional import PositionPrior, position_weights
from ..combinatorics.kbest import kbest_assignments_ch
from ..errors import ConfigError
from .context import Context, PermutationPerturbation


@dataclass(frozen=True)
class OptimalPermutation:
    """One of the top-s placements."""

    rank: int
    perturbation: PermutationPerturbation
    score: float

    @property
    def order(self) -> Tuple[str, ...]:
        """Document ids, best-placement order."""
        return self.perturbation.order


def benefit_matrix(
    context: Context,
    relevance_scores: Dict[str, float],
    attention_weights: Sequence[float],
) -> List[List[float]]:
    """``B[i][j] = relevance(source_i) x attention(position_j)``."""
    doc_ids = context.doc_ids()
    if len(attention_weights) != len(doc_ids):
        raise ConfigError("attention weights must match the context size")
    return [
        [relevance_scores.get(doc_id, 0.0) * weight for weight in attention_weights]
        for doc_id in doc_ids
    ]


def optimal_permutations(
    context: Context,
    relevance_scores: Dict[str, float],
    s: int = 5,
    prior: PositionPrior | str = PositionPrior.V_SHAPED,
    depth: float = 0.8,
    attention_weights: Optional[Sequence[float]] = None,
) -> List[OptimalPermutation]:
    """The s orderings maximizing total relevance x attention.

    Parameters
    ----------
    context:
        The retrieved context to re-order.
    relevance_scores:
        ``S(q, d, Dq)`` per source — attention- or retrieval-based.
    s:
        Number of top placements to return.
    prior, depth:
        The expected positional attention distribution (the paper's
        user-calibrated "predefined V-shaped distribution").
    attention_weights:
        Explicit per-position weights; overrides ``prior``/``depth``.

    The s best assignments come from Chegireddy–Hamacher, O(sk^3).
    """
    if s <= 0:
        raise ConfigError(f"s must be positive, got {s}")
    if context.k == 0:
        raise ConfigError("cannot order an empty context")
    if attention_weights is None:
        attention_weights = position_weights(prior, context.k, depth=depth)
    benefits = benefit_matrix(context, relevance_scores, attention_weights)
    costs = [[-value for value in row] for row in benefits]
    ranked = kbest_assignments_ch(costs, s)
    doc_ids = context.doc_ids()
    results: List[OptimalPermutation] = []
    for solution in ranked:
        order: List[Optional[str]] = [None] * context.k
        for source_index, position in enumerate(solution.assignment):
            order[position] = doc_ids[source_index]
        assert all(doc_id is not None for doc_id in order)
        results.append(
            OptimalPermutation(
                rank=solution.rank,
                perturbation=PermutationPerturbation(order=tuple(order)),  # type: ignore[arg-type]
                score=-solution.cost,
            )
        )
    return results


def naive_optimal_permutations(
    context: Context,
    relevance_scores: Dict[str, float],
    s: int,
    attention_weights: Sequence[float],
) -> List[OptimalPermutation]:
    """The O(k!) baseline: score every permutation, sort, take s.

    Kept for benchmark E6 and the cross-check tests; never used by the
    engine.
    """
    import itertools

    doc_ids = context.doc_ids()
    scored = []
    for order in itertools.permutations(doc_ids):
        total = sum(
            relevance_scores.get(doc_id, 0.0) * attention_weights[position]
            for position, doc_id in enumerate(order)
        )
        scored.append((total, order))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [
        OptimalPermutation(
            rank=rank,
            perturbation=PermutationPerturbation(order=order),
            score=total,
        )
        for rank, (total, order) in enumerate(scored[:s], start=1)
    ]
