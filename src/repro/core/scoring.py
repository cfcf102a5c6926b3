"""Relative relevance scores ``S(q, d, Dq)`` — the paper's two methods.

    "To estimate the relative relevance of a source d in Dq, the user
    can select from two scoring methods S. In the first method, we
    aggregate the LLM's attention values ... In the second method, we
    sum the relevance scores produced by the retrieval model."

Scores order equal-size combinations in the counterfactual search and
weight sources in the optimal-permutation assignment.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Protocol

from ..attention.aggregate import aggregate_by_source, normalize_scores
from ..errors import ConfigError
from ..exec import ExecutionBackend
from ..llm.base import LanguageModel
from ..llm.prompts import PromptBuilder
from .context import Context
from .evaluate import ContextEvaluator


class RelevanceMethod(str, Enum):
    """Which signal estimates source relevance."""

    ATTENTION = "attention"
    RETRIEVAL = "retrieval"


class RelevanceScorer(Protocol):
    """Produces per-source relevance estimates for a context."""

    def scores(self, context: Context) -> Dict[str, float]:
        """doc_id -> relative relevance."""
        ...


class RetrievalRelevance:
    """Relevance = the retrieval model's scores (BM25 by default)."""

    def scores(self, context: Context) -> Dict[str, float]:
        return context.retrieval_scores()


class AttentionRelevance:
    """Relevance = LLM attention summed over layers, heads and tokens.

    Runs one full-context generation through ``backend`` (the engine's,
    so its deadline applies) and aggregates its attention trace per
    source.  Models that expose no attention are a configuration error
    — fall back to :class:`RetrievalRelevance` for those.
    """

    def __init__(
        self,
        llm: LanguageModel,
        prompt_builder: Optional[PromptBuilder] = None,
        normalize: bool = True,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.llm = llm
        self.prompt_builder = prompt_builder or PromptBuilder()
        self.normalize = normalize
        self.backend = backend

    def scores(self, context: Context) -> Dict[str, float]:
        evaluator = ContextEvaluator(
            self.llm, context, self.prompt_builder, backend=self.backend
        )
        result = evaluator.generation(context.doc_ids())
        if result.attention is None:
            raise ConfigError(
                f"model {self.llm.name!r} exposes no attention; "
                "use RelevanceMethod.RETRIEVAL"
            )
        scores = aggregate_by_source(result.attention, context.doc_ids())
        return normalize_scores(scores) if self.normalize else scores


def make_scorer(
    method: RelevanceMethod | str,
    llm: Optional[LanguageModel] = None,
    prompt_builder: Optional[PromptBuilder] = None,
    backend: Optional[ExecutionBackend] = None,
) -> RelevanceScorer:
    """Factory for the paper's two scoring methods."""
    method = RelevanceMethod(method)
    if method is RelevanceMethod.RETRIEVAL:
        return RetrievalRelevance()
    if llm is None:
        raise ConfigError("attention-based relevance needs the LLM")
    return AttentionRelevance(llm, prompt_builder, backend=backend)
