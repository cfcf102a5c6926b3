"""Permutation counterfactual search — order-stability explanations.

    "RAGE searches for the most similar source permutation (with respect
    to their given order) such that the LLM responds with a different
    answer. ... Our algorithm generates all length-k permutations ...
    then computes Kendall's Tau rank correlation coefficient for each
    permutation ... the permutations are subsequently sorted and
    evaluated in decreasing order of similarity."

A found counterfactual therefore maximizes Kendall's tau among all
answer-changing permutations (subject to the evaluation budget), which
"quantifies the stability of the LLM's answer with respect to the order
of the context sources".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..combinatorics.kendall import kendall_tau
from ..combinatorics.permutations import all_permutations
from ..errors import SearchBudgetError
from ..textproc import normalize_answer
from .context import Context, PermutationPerturbation
from .evaluate import ContextEvaluator, scan_candidates
from .lattice import AnswerLattice

#: Enumerating k! permutations is the paper's algorithm; above this k we
#: refuse and ask the caller to sample instead (8! = 40320 evaluations).
MAX_EXHAUSTIVE_K = 8


@dataclass(frozen=True)
class PermutationCounterfactual:
    """A found permutation counterfactual."""

    perturbation: PermutationPerturbation
    tau: float
    baseline_answer: str
    new_answer: str
    moved_sources: Tuple[str, ...]


@dataclass
class PermutationSearchResult:
    """Outcome of one permutation counterfactual search."""

    baseline_answer: str
    target_answer: Optional[str]
    counterfactual: Optional[PermutationCounterfactual]
    num_evaluations: int
    budget_exhausted: bool
    trail: List[Tuple[Tuple[str, ...], float, str]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """True when an answer-changing permutation was found."""
        return self.counterfactual is not None


def ranked_permutations(context: Context) -> List[Tuple[Tuple[str, ...], float]]:
    """All non-identity permutations with tau, most-similar first.

    Ties in tau keep lexicographic-by-position order (stable sort over
    the lexicographic generator), so e.g. the adjacent transposition of
    positions (0, 1) is tried before that of (1, 2).
    """
    reference = context.doc_ids()
    candidates = [
        (perm, kendall_tau(reference, perm))
        for perm in all_permutations(reference)
        if perm != reference
    ]
    candidates.sort(key=lambda item: -item[1])
    return candidates


def lazy_ranked_permutations(context: Context):
    """Decreasing-tau candidate stream without materializing k! orders.

    Extension beyond the paper's generate-all-then-sort: uses the
    inversion-vector enumeration in
    :mod:`repro.combinatorics.inversions`, so a budgeted search over a
    large context only constructs the orders it actually evaluates.
    Equal-tau tie-break order differs from :func:`ranked_permutations`
    (lexicographic inversion vectors instead of lexicographic
    positions); the found flip's tau is identical.
    """
    from ..combinatorics.inversions import permutations_by_tau

    return permutations_by_tau(context.doc_ids(), include_identity=False)


def search_permutation_counterfactual(
    evaluator: ContextEvaluator,
    target_answer: Optional[str] = None,
    max_evaluations: int = 1000,
    keep_trail: bool = False,
    lazy: Optional[bool] = None,
    lattice: Optional[AnswerLattice] = None,
) -> PermutationSearchResult:
    """Find the most-similar answer-changing permutation.

    For ``k <= MAX_EXHAUSTIVE_K`` the paper's algorithm is used
    verbatim (generate all k!, sort by decreasing tau).  Larger contexts
    switch to the lazy decreasing-tau generator, bounded by
    ``max_evaluations``.  Pass ``lazy=True``/``False`` to force a mode.

    Candidates are evaluated one at a time in decreasing-tau order and
    the search stops at the first flip.  ``max_evaluations`` bounds
    *real* LLM calls: orders the (possibly shared) evaluator has
    already memoized — e.g. from a permutation insight analysis over
    the same context — are free, matching the paper's LLM-call
    semantics.  A ``lattice`` cannot imply permutation answers
    (orderings beyond context-order subsets are outside the combination
    lattice) but every evaluated permutation feeds its order-stability
    evidence.

    Raises
    ------
    SearchBudgetError
        On a non-positive budget, or when ``lazy=False`` is forced for
        a context beyond the exhaustive cap.
    """
    if max_evaluations <= 0:
        raise SearchBudgetError(f"max_evaluations must be positive, got {max_evaluations}")
    context = evaluator.context
    if lazy is None:
        lazy = context.k > MAX_EXHAUSTIVE_K
    if not lazy and context.k > MAX_EXHAUSTIVE_K:
        raise SearchBudgetError(
            f"exhaustive permutation search over k={context.k} would enumerate "
            f"{math.factorial(context.k)} orders; cap is k={MAX_EXHAUSTIVE_K} "
            "(lazy mode or sampled permutation insights handle larger contexts)"
        )
    baseline = evaluator.original()
    target_norm = normalize_answer(target_answer) if target_answer is not None else None
    result = PermutationSearchResult(
        baseline_answer=baseline.answer,
        target_answer=target_answer,
        counterfactual=None,
        num_evaluations=0,
        budget_exhausted=False,
    )
    candidates = lazy_ranked_permutations(context) if lazy else ranked_permutations(context)

    # Budget = real LLM calls from here on (the baseline is the caller's
    # shared cost; memo hits are free).  scan_candidates owns the
    # accounting shared with the combination search.
    def match(payload, evaluation):
        order, tau = payload
        if keep_trail:
            result.trail.append((order, tau, evaluation.answer))
        changed = evaluation.normalized_answer != baseline.normalized_answer
        hits_target = (
            target_norm is None or evaluation.normalized_answer == target_norm
        )
        if not (changed and hits_target):
            return None
        perturbation = PermutationPerturbation(order=order)
        return PermutationCounterfactual(
            perturbation=perturbation,
            tau=tau,
            baseline_answer=baseline.answer,
            new_answer=evaluation.answer,
            moved_sources=tuple(perturbation.moved_sources(context)),
        )

    result.counterfactual, result.num_evaluations, result.budget_exhausted = (
        scan_candidates(
            evaluator,
            ((order, (order, tau)) for order, tau in candidates),
            match,
            max_evaluations,
            lattice=lattice,
        )
    )
    return result
