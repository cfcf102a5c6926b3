"""Perturbation evaluation: one place where prompts meet the LLM.

Every explanation algorithm reduces to "render this ordered subset of
sources into a prompt, ask the LLM, normalize the answer".  The
:class:`ContextEvaluator` centralizes that step, counts LLM calls (the
unit the pruning benchmarks measure), and memoizes by ordered id tuple
so re-visited perturbations are free.

:meth:`ContextEvaluator.evaluate_many` is the batched entry point: it
deduplicates the requested orderings, consults the memo, and submits
only the misses — as a single batch — to the prompt cache, which hands
its own misses to an :class:`~repro.exec.ExecutionBackend` (with
``cache=False`` the batch goes straight to the backend).  So batch
execution policy (native batching, thread pools, asyncio, deadlines)
is decided in one place and every caller — evaluation plans, lattice
probe rounds, candidate scans, counterfactual searches, ``ask()`` —
inherits it without knowing.  ``llm_calls`` counts *memo misses
only*, whichever entry point triggered them, making it the paper's
LLM-call metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..exec import ExecutionBackend, SerialBackend
from ..llm.base import GenerationResult, LanguageModel
from ..llm.cache import CachingLLM
from ..llm.prompts import DEFAULT_PROMPT_BUILDER, PromptBuilder
from ..textproc import normalize_answer
from .context import Context


@dataclass(frozen=True)
class Evaluation:
    """One evaluated perturbation."""

    ordered_doc_ids: Tuple[str, ...]
    answer: str
    normalized_answer: str


class ContextEvaluator:
    """Evaluate orderings of (subsets of) a context against an LLM.

    Parameters
    ----------
    llm:
        The language model to evaluate against.  A
        :class:`~repro.llm.cache.CachingLLM` is consulted first and
        hands only its misses to the backend.
    context:
        The retrieved context whose perturbations are evaluated.
    prompt_builder:
        Prompt renderer; defaults to the paper's template.
    backend:
        The :class:`~repro.exec.ExecutionBackend` that calls the model;
        ``None`` means a :class:`~repro.exec.SerialBackend`.
    """

    def __init__(
        self,
        llm: LanguageModel,
        context: Context,
        prompt_builder: Optional[PromptBuilder] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.llm = llm
        self.context = context
        self.prompt_builder = prompt_builder or DEFAULT_PROMPT_BUILDER
        self.backend = backend if backend is not None else SerialBackend()
        self._memo: Dict[Tuple[str, ...], Evaluation] = {}
        self._llm_calls = 0

    @property
    def llm_calls(self) -> int:
        """Number of distinct LLM invocations made so far."""
        return self._llm_calls

    @property
    def memo_size(self) -> int:
        """Number of distinct orderings memoized so far."""
        return len(self._memo)

    def is_memoized(self, ordered_doc_ids: Sequence[str]) -> bool:
        """True when evaluating this ordering would be free (memo hit)."""
        return tuple(ordered_doc_ids) in self._memo

    def evaluate(self, ordered_doc_ids: Sequence[str]) -> Evaluation:
        """Answer for the given ordered source ids (memoized)."""
        return self.evaluate_many([ordered_doc_ids])[0]

    def evaluate_many(
        self, orderings: Sequence[Sequence[str]]
    ) -> List[Evaluation]:
        """Evaluate many orderings, batching the memo misses.

        Duplicate orderings and memo hits cost nothing; the distinct
        misses are rendered into prompts and submitted as one batch
        (see the module docstring).  Results align with
        ``orderings`` (one evaluation per entry, in input order), and
        every result is memoized for later single :meth:`evaluate`
        calls.
        """
        keys = [tuple(ordering) for ordering in orderings]
        miss_order: List[Tuple[str, ...]] = []
        seen: set = set()
        for key in keys:
            if key not in self._memo and key not in seen:
                seen.add(key)
                miss_order.append(key)
        if miss_order:
            self._llm_calls += len(miss_order)
            results = self._run([self._prompt(key) for key in miss_order])
            for key, result in zip(miss_order, results):
                self._memoize(key, result)
        return [self._memo[key] for key in keys]

    def generation(self, ordered_doc_ids: Sequence[str]) -> GenerationResult:
        """Full generation result, attention trace included.

        Bypasses the memo, which keeps only answers, and asks the
        backend for a per-prompt call: a native batch entry point may
        drop the attention trace that ``ask()`` and attention relevance
        read.
        """
        self._llm_calls += 1
        return self._run([self._prompt(tuple(ordered_doc_ids))], per_prompt=True)[0]

    def prime(
        self, ordered_doc_ids: Sequence[str], result: GenerationResult
    ) -> Evaluation:
        """Memoize an externally produced generation for an ordering.

        Lets a caller that already paid for a full generation (e.g. the
        engine's ``ask``, which needs the attention trace) seed the memo
        so later ``evaluate`` calls on the same ordering are free.
        """
        return self._memoize(tuple(ordered_doc_ids), result)

    def _prompt(self, ordered_doc_ids: Tuple[str, ...]) -> str:
        texts = self.context.texts_for(ordered_doc_ids)
        return self.prompt_builder.build(self.context.query, texts)

    def _run(
        self, prompts: List[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        """The prompt cache first, then the backend for its misses."""
        run = self.backend.run
        if per_prompt:
            run = functools.partial(run, per_prompt=True)
        if isinstance(self.llm, CachingLLM):
            return self.llm.generate_batch(prompts, run=run)
        return run(self.llm, prompts)

    def _memoize(
        self, key: Tuple[str, ...], result: GenerationResult
    ) -> Evaluation:
        evaluation = Evaluation(
            ordered_doc_ids=key,
            answer=result.answer,
            normalized_answer=normalize_answer(result.answer),
        )
        self._memo[key] = evaluation
        return evaluation

    # -- canonical evaluations -------------------------------------------

    def original(self) -> Evaluation:
        """The unperturbed full-context evaluation."""
        return self.evaluate(self.context.doc_ids())

    def empty(self) -> Evaluation:
        """The empty-context (parametric knowledge only) evaluation."""
        return self.evaluate(())


def scan_candidates(
    evaluator: ContextEvaluator,
    candidates: Iterable[Tuple[Tuple[str, ...], Any]],
    match: Callable[[Any, Evaluation], Optional[Any]],
    max_evaluations: int,
    *,
    lattice: Optional["AnswerLattice"] = None,
    flips: Optional[Callable[[str], bool]] = None,
) -> Tuple[Optional[Any], int, bool]:
    """Budgeted, sequential, in-order scan over evaluation candidates.

    The shared engine of both counterfactual searches: ``candidates``
    yields ``(ordering, payload)`` pairs in priority order and is
    evaluated one candidate at a time; ``match(payload, evaluation)``
    is invoked once per evaluated candidate (record trails there) and
    the first non-``None`` return stops the scan.

    Budget semantics: ``max_evaluations`` bounds *real* LLM calls —
    memo hits are free, so the scan only stops for budget at a fresh
    candidate once ``max_evaluations`` calls are spent.

    Lattice pruning: with an active
    :class:`~repro.core.lattice.AnswerLattice` and a ``flips``
    predicate over normalized answers, un-memoized combination
    candidates whose known (implied) answer cannot flip are skipped for
    free, and an *implied flip* is never trusted — the candidate is
    evaluated for real (verify-on-hit), so a found counterfactual is
    always backed by a genuine LLM answer and stays exactly minimal
    wherever implication is sound.  Full-context candidates additionally
    feed the lattice's order-stability evidence.

    Returns ``(hit, real_llm_calls, budget_exhausted)`` where
    ``budget_exhausted`` is only set when a fresh candidate was left
    unevaluated.
    """
    start_calls = evaluator.llm_calls
    hit: Optional[Any] = None
    budget_exhausted = False
    for ordering, payload in candidates:
        fresh = not evaluator.is_memoized(ordering)
        verifying = False
        if fresh and lattice is not None and flips is not None:
            mask = lattice.mask_for(ordering)
            entry = lattice.lookup(mask) if mask is not None else None
            if entry is not None:
                if not flips(entry.normalized_answer):
                    # Implied (or lattice-recorded) answer cannot flip:
                    # skip without spending budget.
                    lattice.stats.skipped_candidates += 1
                    continue
                verifying = entry.inferred  # verify-on-hit
        if fresh and evaluator.llm_calls - start_calls >= max_evaluations:
            budget_exhausted = True
            break
        evaluation = evaluator.evaluate(ordering)
        if lattice is not None:
            lattice.record(ordering, evaluation.answer, evaluation.normalized_answer)
            if verifying and flips(evaluation.normalized_answer):
                lattice.stats.verified += 1
        hit = match(payload, evaluation)
        if hit is not None:
            break
    return hit, evaluator.llm_calls - start_calls, budget_exhausted
