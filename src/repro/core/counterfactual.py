"""Combination counterfactual search — RAGE's primary explanation.

    "A top-down counterfactual must remove a combination of sources
    (subset of Dq) to flip the full-context answer to a target answer.
    ... a bottom-up counterfactual must retain sources to flip the
    empty-context answer to the target answer."

The search "tests combinations in increasing order of subset size", and
within a size "in order of their estimated relevance ... the sum of the
relative relevance scores of all sources within the combination".  It
stops at the first flip or when the evaluation budget is exhausted, so
found counterfactuals are *minimal* in subset size by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..combinatorics.combinations import ordered_combinations
from ..errors import SearchBudgetError
from ..textproc import normalize_answer
from .context import CombinationPerturbation, Context
from .evaluate import ContextEvaluator, scan_candidates
from .lattice import AnswerLattice


class SearchDirection(str, Enum):
    """Which baseline the counterfactual flips."""

    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"


@dataclass(frozen=True)
class CombinationCounterfactual:
    """A found combination counterfactual.

    For TOP_DOWN, ``changed_sources`` is the *removed* set (the citation
    reads "removing these sources changes the answer"); for BOTTOM_UP it
    is the *retained* set ("these sources suffice to reach the target").
    """

    direction: SearchDirection
    perturbation: CombinationPerturbation
    changed_sources: Tuple[str, ...]
    baseline_answer: str
    new_answer: str
    estimated_relevance: float

    @property
    def size(self) -> int:
        """Number of sources removed (top-down) / retained (bottom-up)."""
        return len(self.changed_sources)


@dataclass
class CombinationSearchResult:
    """Outcome of one counterfactual search."""

    direction: SearchDirection
    baseline_answer: str
    target_answer: Optional[str]
    counterfactual: Optional[CombinationCounterfactual]
    num_evaluations: int
    budget_exhausted: bool
    trail: List[Tuple[Tuple[str, ...], str]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """True when a counterfactual was found within budget."""
        return self.counterfactual is not None


def search_combination_counterfactual(
    evaluator: ContextEvaluator,
    relevance_scores: Dict[str, float],
    direction: SearchDirection | str = SearchDirection.TOP_DOWN,
    target_answer: Optional[str] = None,
    max_evaluations: int = 1000,
    keep_trail: bool = False,
    lattice: Optional[AnswerLattice] = None,
) -> CombinationSearchResult:
    """Find a minimal combination counterfactual.

    Candidates are evaluated one at a time, size-major and
    relevance-ordered within a size, and the search stops at the first
    flip, so a found counterfactual is minimal in subset size.

    Parameters
    ----------
    evaluator:
        The context/LLM evaluation gateway.
    relevance_scores:
        ``S(q, d, Dq)`` per source (attention- or retrieval-based); used
        to order equal-size candidate combinations.
    direction:
        TOP_DOWN flips the full-context answer by removing sources;
        BOTTOM_UP flips the empty-context answer by retaining sources.
    target_answer:
        Specific answer to flip *to*.  ``None`` accepts any change for
        TOP_DOWN and defaults to the full-context answer for BOTTOM_UP
        (the paper's "citation" reading).
    max_evaluations:
        LLM-call budget for this search, in *real* LLM calls: candidates
        already memoized by the (possibly shared) evaluator are free,
        matching the paper's LLM-call semantics.
    keep_trail:
        Record every (candidate, answer) pair, for tests that inspect
        the search order; off by default to save memory.
    lattice:
        Optional :class:`~repro.core.lattice.AnswerLattice`.  When its
        implication gate is open, candidates whose implied answer
        cannot flip are skipped without an LLM call and an implied flip
        is confirmed by one real evaluation (verify-on-hit) before it
        can be returned — a found counterfactual is always backed by a
        genuine answer.  Trail entries only cover evaluated candidates;
        implied skips never appear in it.
    """
    if max_evaluations <= 0:
        raise SearchBudgetError(f"max_evaluations must be positive, got {max_evaluations}")
    direction = SearchDirection(direction)
    context = evaluator.context
    doc_ids = list(context.doc_ids())

    if direction is SearchDirection.TOP_DOWN:
        baseline = evaluator.original()
    else:
        baseline = evaluator.empty()
        if target_answer is None:
            target_answer = evaluator.original().answer
    target_norm = normalize_answer(target_answer) if target_answer is not None else None

    result = CombinationSearchResult(
        direction=direction,
        baseline_answer=baseline.answer,
        target_answer=target_answer,
        counterfactual=None,
        num_evaluations=0,
        budget_exhausted=False,
    )

    # Candidate subsets: removed sets (top-down) or retained sets
    # (bottom-up), size-major, relevance-ordered within a size.  More
    # relevant sources are more likely to be answer-critical, so both
    # directions try high-relevance subsets first.
    candidates = ordered_combinations(
        doc_ids,
        scores=relevance_scores,
        min_size=1,
        max_size=len(doc_ids),
        descending=True,
    )

    # The budget counts real LLM calls only: the baselines above are the
    # caller's cost (they are shared across every explanation), and memo
    # hits — e.g. subsets a prior insight analysis already evaluated —
    # are free.  scan_candidates owns the accounting.
    def stream():
        for subset in candidates:
            if direction is SearchDirection.TOP_DOWN:
                perturbation = CombinationPerturbation.from_removal(context, subset)
            else:
                # Retained sets render in *context* order: candidate
                # tuples are only guaranteed context-ordered by the
                # default enumerator, and a relevance-ordered prompt
                # would conflate the combination effect with a
                # permutation effect.
                perturbation = CombinationPerturbation(
                    kept=tuple(sorted(subset, key=context.position_of))
                )
            yield perturbation.apply(context), (subset, perturbation)

    def match(payload, evaluation):
        subset, perturbation = payload
        if keep_trail:
            result.trail.append((subset, evaluation.answer))
        if not _flips(evaluation.normalized_answer, baseline, target_norm):
            return None
        return CombinationCounterfactual(
            direction=direction,
            perturbation=perturbation,
            changed_sources=perturbation.kept
            if direction is SearchDirection.BOTTOM_UP
            else subset,
            baseline_answer=baseline.answer,
            new_answer=evaluation.answer,
            estimated_relevance=sum(relevance_scores.get(d, 0.0) for d in subset),
        )

    result.counterfactual, result.num_evaluations, result.budget_exhausted = (
        scan_candidates(
            evaluator,
            stream(),
            match,
            max_evaluations,
            lattice=lattice,
            flips=lambda normalized: _flips(normalized, baseline, target_norm),
        )
    )
    return result


def _flips(candidate_norm: str, baseline, target_norm: Optional[str]) -> bool:
    if target_norm is not None:
        return candidate_norm == target_norm and candidate_norm != baseline.normalized_answer
    return candidate_norm != baseline.normalized_answer
