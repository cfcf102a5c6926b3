"""Interactive session object — the web-app flow without the web app.

The Dash UI keeps per-user state: the current question, its retrieved
context, and the explanations generated so far.  :class:`RageSession`
models that flow for scripts and the CLI: load a use case (or a custom
corpus), pose a question once, then request explanations against the
cached context without re-retrieving.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..core.context import Context
from ..core.counterfactual import CombinationSearchResult, SearchDirection
from ..core.engine import Rage, RageConfig, RageReport
from ..core.insights import CombinationInsights, PermutationInsights
from ..core.optimal import OptimalPermutation
from ..core.permutation_cf import PermutationSearchResult
from ..datasets.base import UseCase, load_use_case
from ..errors import ConfigError
from ..llm.base import LanguageModel
from ..llm.simulated import SimulatedLLM


class RageSession:
    """Stateful wrapper over :class:`repro.core.engine.Rage`."""

    def __init__(self, rage: Rage) -> None:
        self.rage = rage
        # (query, context, answer) always change together: every write
        # happens under this lock as one all-or-nothing assignment, and
        # every consumer snapshots under it, so two interleaved pose()
        # calls (concurrent server requests on one session) can never
        # pair one question with another question's context.
        self._lock = threading.Lock()
        self.query: Optional[str] = None
        self.context: Optional[Context] = None
        self.answer: Optional[str] = None

    @classmethod
    def for_use_case(
        cls,
        name_or_case: str | UseCase,
        config: Optional[RageConfig] = None,
        llm: Optional[LanguageModel] = None,
    ) -> "RageSession":
        """Start a session on one of the built-in demo datasets.

        ``llm=None`` answers with the deterministic simulated model over
        the case's knowledge base.
        """
        case = (
            load_use_case(name_or_case)
            if isinstance(name_or_case, str)
            else name_or_case
        )
        config = config or RageConfig(k=case.k)
        if llm is None:
            llm = SimulatedLLM(knowledge=case.knowledge)
        session = cls(Rage.from_corpus(case.corpus, llm, config=config))
        session.pose(case.query)
        return session

    # -- the interaction flow ---------------------------------------------

    def pose(self, query: str) -> str:
        """Pose a question: retrieve the context and answer it.

        The retrieval and the answer are computed *before* any session
        state changes, then committed atomically: a failed ``ask``
        leaves the previous question fully intact (never a new query
        with a stale answer), and concurrent poses each install a
        consistent (query, context, answer) triple — last writer wins
        wholesale.
        """
        return self.pose_state(query)[2]

    def pose_state(
        self, query: str, k: Optional[int] = None
    ) -> Tuple[str, Context, str]:
        """:meth:`pose`, returning *this* pose's committed triple.

        ``k`` overrides the configured retrieval depth for this pose
        only (the HTTP server threads a per-request ``k`` through here).

        Under concurrent poses the session's current :meth:`state` may
        already belong to a later writer by the time this call returns;
        callers answering a specific request (the HTTP server) need the
        triple their own pose produced, not whatever is newest.
        """
        context = self.rage.retrieve(query, k=k)
        result = self.rage.ask(query, context=context)
        with self._lock:
            self.query = query
            self.context = context
            self.answer = result.answer
        return query, context, result.answer

    def state(self) -> Tuple[Optional[str], Optional[Context], Optional[str]]:
        """A consistent ``(query, context, answer)`` snapshot."""
        with self._lock:
            return self.query, self.context, self.answer

    def _require_question(self) -> Tuple[str, Context]:
        """Snapshot the posed (query, context) pair, atomically."""
        with self._lock:
            if self.query is None or self.context is None:
                raise ConfigError("pose a question first (RageSession.pose)")
            return self.query, self.context

    def combination_insights(
        self, sample_size: Optional[int] = None
    ) -> CombinationInsights:
        """Combination insights for the posed question."""
        query, context = self._require_question()
        return self.rage.combination_insights(
            query, context=context, sample_size=sample_size
        )

    def permutation_insights(
        self, sample_size: Optional[int] = None
    ) -> PermutationInsights:
        """Permutation insights for the posed question."""
        query, context = self._require_question()
        return self.rage.permutation_insights(
            query, context=context, sample_size=sample_size
        )

    def combination_counterfactual(
        self,
        direction: SearchDirection | str = SearchDirection.TOP_DOWN,
        target_answer: Optional[str] = None,
    ) -> CombinationSearchResult:
        """Combination counterfactual for the posed question."""
        query, context = self._require_question()
        return self.rage.combination_counterfactual(
            query, context=context, direction=direction, target_answer=target_answer
        )

    def permutation_counterfactual(
        self, target_answer: Optional[str] = None
    ) -> PermutationSearchResult:
        """Permutation counterfactual for the posed question."""
        query, context = self._require_question()
        return self.rage.permutation_counterfactual(
            query, context=context, target_answer=target_answer
        )

    def optimal_permutations(self, s: int = 5) -> List[OptimalPermutation]:
        """Optimal placements for the posed question."""
        query, context = self._require_question()
        return self.rage.optimal_permutations(query, context=context, s=s)

    def report(self, sample_size: Optional[int] = None) -> RageReport:
        """Full explanation bundle for the posed question."""
        query, context = self._require_question()
        return self.rage.explain(query, context=context, sample_size=sample_size)
