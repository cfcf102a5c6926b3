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
of the context sources".  The search walks that sorted order as one lazy
stream (:mod:`repro.combinatorics.inversions`) at every k, so it never
builds or sorts the k! orders it does not reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..combinatorics.inversions import permutations_by_tau
from ..errors import SearchBudgetError
from ..textproc import normalize_answer
from .context import Context, PermutationPerturbation
from .evaluate import ContextEvaluator, scan_candidates
from .lattice import AnswerLattice


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

    Ties in tau keep lexicographic-by-position order, so e.g. the
    adjacent transposition of positions (0, 1) is tried after that of
    (1, 2).  This is the whole candidate stream the search walks.
    """
    return list(permutations_by_tau(context.doc_ids()))


def search_permutation_counterfactual(
    evaluator: ContextEvaluator,
    target_answer: Optional[str] = None,
    max_evaluations: int = 1000,
    keep_trail: bool = False,
    lattice: Optional[AnswerLattice] = None,
) -> PermutationSearchResult:
    """Find the most-similar answer-changing permutation.

    Candidates are evaluated one at a time in decreasing-tau order and
    the search stops at the first flip.  They come from the lazy stream
    of :func:`~repro.combinatorics.inversions.permutations_by_tau`,
    which is the paper's generate-all-then-sort order at every k, so a
    search builds only the orders it reaches.  ``max_evaluations`` bounds
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
        On a non-positive budget.
    """
    if max_evaluations <= 0:
        raise SearchBudgetError(f"max_evaluations must be positive, got {max_evaluations}")
    context = evaluator.context
    baseline = evaluator.original()
    target_norm = normalize_answer(target_answer) if target_answer is not None else None
    result = PermutationSearchResult(
        baseline_answer=baseline.answer,
        target_answer=target_answer,
        counterfactual=None,
        num_evaluations=0,
        budget_exhausted=False,
    )
    candidates = permutations_by_tau(context.doc_ids())

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
