"""The RAGE engine — the library's front door.

Wires together retrieval (index + BM25), the LLM (wrapped in a cache),
relevance scoring, and every explanation primitive behind one object,
mirroring the architecture of Figure 1: users pose a question, the
retrieval model builds the context, the LLM answers, and the
perturbation/counterfactual searches explain.

Typical use::

    from repro import Rage, RageConfig, SimulatedLLM
    from repro.datasets import load_use_case

    uc = load_use_case("big_three")
    rage = Rage.from_corpus(uc.corpus, SimulatedLLM(knowledge=uc.knowledge),
                            config=RageConfig(k=4))
    answered = rage.ask(uc.query)
    insights = rage.combination_insights(uc.query)
    flip = rage.combination_counterfactual(uc.query)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..attention.positional import PositionPrior
from ..errors import ConfigError
from ..exec import CoalescingBackend, ExecutionBackend, make_backend
from ..llm.base import GenerationResult, LanguageModel
from ..llm.cache import CachingLLM
from ..llm.store import PromptStore
from ..llm.prompts import DEFAULT_PROMPT_BUILDER, PromptBuilder
from ..retrieval.bm25 import Scorer
from ..retrieval.document import Corpus, Document
from ..retrieval.index import InvertedIndex
from ..retrieval.searcher import Searcher
from ..retrieval.sqlindex import (
    FUSION_STRATEGIES,
    RETRIEVAL_MODES,
    SqliteIndex,
    SqliteSearcher,
    make_retrieval_scorer,
    open_index,
)
from .context import Context
from .counterfactual import (
    CombinationSearchResult,
    SearchDirection,
    search_combination_counterfactual,
)
from .evaluate import ContextEvaluator
from .insights import (
    CombinationInsights,
    PermutationInsights,
    analyze_combinations,
    analyze_permutations,
)
from .optimal import OptimalPermutation, optimal_permutations
from .lattice import AnswerLattice
from .permutation_cf import PermutationSearchResult, search_permutation_counterfactual
from .plan import EvaluationPlan, PlanStats
from .sampling import MAX_EXHAUSTIVE_K, select_combinations, select_permutations
from .scoring import RelevanceMethod, make_scorer
from .stability import OrderStability, order_stability as compute_order_stability

#: Optimal permutations listed in an ``explain()`` report.
REPORT_OPTIMAL_PERMUTATIONS = 3

#: LLM calls the permutation counterfactual search may spend in an
#: ``explain()`` report on a context wider than ``MAX_EXHAUSTIVE_K``
#: (still capped by ``max_evaluations``).
WIDE_PERMUTATION_BUDGET = 200


@dataclass(frozen=True)
class RageConfig:
    """Engine configuration.

    Attributes
    ----------
    k:
        Retrieval depth (size of the context ``Dq``).
    relevance_method:
        Which ``S(q, d, Dq)`` orders combinations and weights optimal
        permutations: RETRIEVAL (BM25 scores) or ATTENTION (aggregated
        LLM attention).
    max_evaluations:
        LLM-call budget per counterfactual search.  Each search
        evaluates one candidate at a time and stops at the first flip
        or once this many real calls are spent.
    sample_size:
        Default perturbation sample size for the insight analyses;
        ``None`` analyzes all combinations / permutations.
    seed:
        Seed for perturbation sampling.
    expected_prior, expected_depth:
        The user-calibrated expected position-attention distribution
        used by optimal permutations.
    cache:
        Put a prompt cache in front of the backend (recommended).
    backend:
        Execution-backend spec, the one place the LLM is called, with
        at most ``N`` calls in flight: ``serial`` (default, one),
        ``threaded[:N]`` (thread pool) or ``asyncio[:N]`` (event loop,
        for models that wait on a socket).  See :mod:`repro.exec`.
    cache_dir:
        Directory for the content-addressed persistent generation
        store (:class:`~repro.llm.store.PromptStore`).  The prompt
        cache gains a write-through disk tier shared across processes:
        a re-run report answers warm with zero real LLM calls.
        Requires ``cache=True``.
    cache_max_bytes:
        LRU size cap for the persistent store; ``None`` = unbounded.
    batch_window_ms:
        Opt-in cross-request micro-batch window (milliseconds): hold
        the first evaluation batch submitted to the execution backend
        open for up to this long, merge every batch that arrives in
        the window — across requests and tenants — and flush them as
        one native batch (see :mod:`repro.exec.coalesce`).  ``None``
        (default) disables the window; it is a throughput/latency
        trade that pays off when the model rewards bigger batches.
    plan_pruning:
        Let ``explain()`` attach an
        :class:`~repro.core.lattice.AnswerLattice` to its evaluation
        plan: combination answers that are implied by already-evaluated
        combinations (monotone sandwich bounds between confirmed
        answer-rule intervals) are pruned from the batch instead of
        paying an LLM call, and the counterfactual searches skip
        candidates whose implied answer cannot flip (implied flips are
        verified by one real evaluation).  Implication self-gates on
        observed order stability and rolls back on any conflict, so
        position-sensitive contexts degrade to the unpruned plan;
        ``rage report --no-prune`` and ``plan_pruning=False`` disable
        it outright.
    request_timeout:
        Local deadline per model call, in seconds, enforced by the
        execution backend (the prompt cache never calls the model).
        A native batch entry point is one call, so the bound covers
        its whole batch.  ``None`` (default) waits forever.  A remote
        model or provider pool owns its deadline per HTTP request in
        its transport (``RemoteLLM(timeout=...)``); leave this unset
        for one, or the bound would stack over its retries and
        failover walk.
    index_dir:
        Directory for the persistent SQLite retrieval index
        (:class:`~repro.retrieval.sqlindex.SqliteIndex`).
        :meth:`Rage.from_corpus` then opens (or creates) the index
        there and syncs the corpus incrementally — unchanged documents
        are never re-analyzed, so a warm restart serves the first query
        without rebuilding.  ``None`` (default) keeps the historical
        in-memory :class:`~repro.retrieval.index.InvertedIndex`.
    retrieval_mode:
        How the context ``Dq`` is ranked: ``"bm25"`` (sparse,
        default), ``"dense"`` (hashed-embedding cosine) or ``"hybrid"``
        (scale-safe fusion of both).  Dense vectors live in the
        persistent index, so the non-sparse modes require
        ``index_dir``.
    fusion:
        Hybrid fusion strategy: ``"minmax"`` (min-max-normalized
        linear fusion, the default) or ``"rrf"`` (reciprocal-rank
        fusion).  Requires ``retrieval_mode="hybrid"``.
    hybrid_alpha:
        Sparse-side weight of the hybrid fusion, in ``[0, 1]``
        (default 0.5).  Requires ``retrieval_mode="hybrid"``.
    """

    k: int = 10
    relevance_method: RelevanceMethod = RelevanceMethod.RETRIEVAL
    max_evaluations: int = 2000
    sample_size: Optional[int] = None
    seed: int = 0
    expected_prior: PositionPrior = PositionPrior.V_SHAPED
    expected_depth: float = 0.8
    cache: bool = True
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    batch_window_ms: Optional[float] = None
    plan_pruning: bool = True
    request_timeout: Optional[float] = None
    index_dir: Optional[str] = None
    retrieval_mode: str = "bm25"
    fusion: Optional[str] = None
    hybrid_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.max_evaluations <= 0:
            raise ConfigError("max_evaluations must be positive")
        if self.cache_dir is not None and not self.cache:
            raise ConfigError("cache_dir requires cache=True (the disk store "
                              "is a tier of the prompt cache)")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ConfigError("cache_max_bytes must be >= 1 (or None)")
        if self.batch_window_ms is not None and self.batch_window_ms <= 0:
            raise ConfigError(
                f"batch_window_ms must be > 0 milliseconds (or None to "
                f"disable the window), got {self.batch_window_ms}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigError("request_timeout must be > 0 seconds (or None)")
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ConfigError(
                f"retrieval_mode must be one of {RETRIEVAL_MODES}, "
                f"got {self.retrieval_mode!r}"
            )
        if self.retrieval_mode != "bm25" and self.index_dir is None:
            raise ConfigError(
                f"retrieval_mode={self.retrieval_mode!r} requires index_dir: "
                "dense vectors live in the persistent index"
            )
        if self.fusion is not None and self.fusion not in FUSION_STRATEGIES:
            raise ConfigError(
                f"fusion must be one of {FUSION_STRATEGIES}, got {self.fusion!r}"
            )
        if self.hybrid_alpha is not None and not 0.0 <= self.hybrid_alpha <= 1.0:
            raise ConfigError(
                f"hybrid_alpha must be in [0, 1], got {self.hybrid_alpha}"
            )
        if self.retrieval_mode != "hybrid":
            inert_fusion = [
                name
                for name, value in (
                    ("fusion", self.fusion),
                    ("hybrid_alpha", self.hybrid_alpha),
                )
                if value is not None
            ]
            if inert_fusion:
                raise ConfigError(
                    f"{', '.join(inert_fusion)} only affect hybrid fusion; "
                    "set retrieval_mode='hybrid' (or drop them)"
                )
        make_backend(self.backend, timeout=self.request_timeout)  # validate spec


@dataclass
class AskResult:
    """Answer to a plain (un-explained) question."""

    query: str
    answer: str
    context: Context
    generation: GenerationResult


@dataclass
class RageReport:
    """One-call bundle of every explanation for a question.

    ``plan_stats`` carries the evaluation plan's flush accounting when
    ``explain()`` pre-batched the report; ``implied`` and ``pruned``
    surface the answer-implication savings (lattice-implied answers
    consumed, and LLM calls avoided net of verification probes) — both
    zero when plan pruning is disabled or self-gated off.
    """

    query: str
    answer: str
    context: Context
    combination_insights: CombinationInsights
    permutation_insights: Optional[PermutationInsights]
    top_down: CombinationSearchResult
    bottom_up: CombinationSearchResult
    permutation_counterfactual: Optional[PermutationSearchResult]
    optimal: List[OptimalPermutation] = field(default_factory=list)
    stability: Optional[OrderStability] = None
    llm_calls: int = 0
    plan_stats: Optional[PlanStats] = None
    implied: int = 0
    pruned: int = 0


class Rage:
    """Retrieval-Augmented Generation Explainer."""

    def __init__(
        self,
        index: InvertedIndex | SqliteIndex,
        llm: LanguageModel,
        config: Optional[RageConfig] = None,
        retrieval_scorer: Optional[Scorer] = None,
        prompt_builder: Optional[PromptBuilder] = None,
    ) -> None:
        self.config = config or RageConfig()
        self.index = index
        if retrieval_scorer is None and self.config.retrieval_mode != "bm25":
            # Dense/hybrid ranking needs the vectors only a persistent
            # index stores; an in-memory index here means the config and
            # the construction path disagree.
            if not isinstance(index, SqliteIndex):
                raise ConfigError(
                    f"retrieval_mode={self.config.retrieval_mode!r} needs a "
                    "persistent SqliteIndex (build the engine with "
                    "from_corpus and config.index_dir)"
                )
            retrieval_scorer = make_retrieval_scorer(
                index,
                mode=self.config.retrieval_mode,
                fusion=self.config.fusion or "minmax",
                alpha=(
                    self.config.hybrid_alpha
                    if self.config.hybrid_alpha is not None
                    else 0.5
                ),
            )
        if isinstance(index, SqliteIndex):
            # Snapshot-per-search: rankings never straddle a concurrent
            # indexer commit.
            self.searcher: Searcher = SqliteSearcher(index, scorer=retrieval_scorer)
        else:
            self.searcher = Searcher(index, scorer=retrieval_scorer)
        self.backend: ExecutionBackend = make_backend(
            self.config.backend, timeout=self.config.request_timeout
        )
        if self.config.batch_window_ms is not None:
            self.backend = CoalescingBackend(self.backend, self.config.batch_window_ms)
        self.store: Optional[PromptStore] = (
            PromptStore(self.config.cache_dir, max_bytes=self.config.cache_max_bytes)
            if self.config.cache_dir is not None
            else None
        )
        self.llm: LanguageModel = (
            CachingLLM(llm, store=self.store)
            if self.config.cache
            else llm
        )
        self.prompt_builder = prompt_builder or DEFAULT_PROMPT_BUILDER

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus | Sequence[Document],
        llm: LanguageModel,
        config: Optional[RageConfig] = None,
        retrieval_scorer: Optional[Scorer] = None,
    ) -> "Rage":
        """Index a corpus and build the engine in one step.

        With ``config.index_dir`` set, the corpus is mirrored into the
        persistent SQLite index at that directory instead of an
        in-memory rebuild: unchanged documents are detected by content
        hash and skipped (zero re-tokenization on a warm restart),
        changed ones re-indexed, and documents no longer in the corpus
        withdrawn.
        """
        config = config or RageConfig()
        if config.index_dir is not None:
            index: InvertedIndex | SqliteIndex = open_index(
                config.index_dir, dense=config.retrieval_mode != "bm25"
            )
            index.sync(corpus, remove_missing=True)
        else:
            index = InvertedIndex.build(corpus)
        return cls(index, llm, config=config, retrieval_scorer=retrieval_scorer)

    # -- retrieval and answering ------------------------------------------

    def retrieve(self, query: str, k: Optional[int] = None) -> Context:
        """Build the context ``Dq`` for a query."""
        result = self.searcher.search(query, k=k if k is not None else self.config.k)
        return Context.from_retrieval(result)

    def ask(
        self,
        query: str,
        context: Optional[Context] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> AskResult:
        """Retrieve (unless given a context) and answer.

        The full generation (with attention trace) also primes the
        evaluator's memo, so a shared evaluator never re-pays for the
        full-context evaluation.
        """
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        generation = evaluator.generation(context.doc_ids())
        evaluator.prime(context.doc_ids(), generation)
        return AskResult(
            query=query,
            answer=generation.answer,
            context=context,
            generation=generation,
        )

    # -- explanations -------------------------------------------------------

    def relevance_scores(self, context: Context) -> Dict[str, float]:
        """``S(q, d, Dq)`` under the configured method."""
        scorer = make_scorer(
            self.config.relevance_method,
            llm=self.llm,
            prompt_builder=self.prompt_builder,
            backend=self.backend,
        )
        return scorer.scores(context)

    def combination_insights(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        include_empty: bool = False,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> CombinationInsights:
        """Answer distribution, table and rules over combinations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_combinations(
            context,
            sample_size=sample_size if sample_size is not None else self.config.sample_size,
            seed=self.config.seed,
            include_empty=include_empty,
        )
        return analyze_combinations(evaluator, perturbations)

    def permutation_insights(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> PermutationInsights:
        """Answer distribution, table and rules over permutations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_permutations(
            context,
            sample_size=sample_size if sample_size is not None else self.config.sample_size,
            seed=self.config.seed,
        )
        return analyze_permutations(evaluator, perturbations)

    def combination_counterfactual(
        self,
        query: str,
        context: Optional[Context] = None,
        direction: SearchDirection | str = SearchDirection.TOP_DOWN,
        target_answer: Optional[str] = None,
        max_evaluations: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> CombinationSearchResult:
        """Minimal source removal (top-down) or retention (bottom-up)
        that flips the answer."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        return search_combination_counterfactual(
            evaluator,
            relevance_scores=self.relevance_scores(context),
            direction=direction,
            target_answer=target_answer,
            max_evaluations=(
                max_evaluations if max_evaluations is not None else self.config.max_evaluations
            ),
        )

    def permutation_counterfactual(
        self,
        query: str,
        context: Optional[Context] = None,
        target_answer: Optional[str] = None,
        max_evaluations: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> PermutationSearchResult:
        """Most-similar reordering (max Kendall tau) that flips the answer."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        return search_permutation_counterfactual(
            evaluator,
            target_answer=target_answer,
            max_evaluations=(
                max_evaluations if max_evaluations is not None else self.config.max_evaluations
            ),
        )

    def optimal_permutations(
        self,
        query: str,
        context: Optional[Context] = None,
        s: int = 5,
    ) -> List[OptimalPermutation]:
        """Top-s placements of sources into high-attention positions."""
        context = context or self.retrieve(query)
        return optimal_permutations(
            context,
            relevance_scores=self.relevance_scores(context),
            s=s,
            prior=self.config.expected_prior,
            depth=self.config.expected_depth,
        )

    def source_salience(
        self,
        query: str,
        context: Optional[Context] = None,
        answer: Optional[str] = None,
        sample_size: Optional[int] = None,
    ):
        """Per-source influence contrasts for an answer (defaults to the
        most frequent answer across the analyzed combinations)."""
        from .stability import source_salience

        context = context or self.retrieve(query)
        insights = self.combination_insights(
            query, context=context, sample_size=sample_size
        )
        return source_salience(insights, answer=answer)

    def order_stability(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = 50,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> OrderStability:
        """Order-stability summary over sampled permutations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_permutations(
            context, sample_size=sample_size, seed=self.config.seed
        )
        return compute_order_stability(evaluator, perturbations)

    def explain(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        stability_sample: int = 50,
        permutation_sample: Optional[int] = None,
    ) -> RageReport:
        """Everything at once (powers the CLI report command).

        One :class:`~repro.core.evaluate.ContextEvaluator` — one memo,
        one LLM-call counter — is shared across every sub-explanation,
        and every enumerable perturbation set (both baselines, the
        combination insight set, the permutation insight and stability
        sets) is pre-batched through an
        :class:`~repro.core.plan.EvaluationPlan` before the sequential
        counterfactual searches run.  The searches then walk their
        candidate lists mostly through memo hits; only orderings the
        plan never saw reach the LLM.  ``report.llm_calls`` records the
        shared evaluator's total real LLM calls.

        With ``config.plan_pruning`` (the default) an
        :class:`~repro.core.lattice.AnswerLattice` rides along: the
        plan executes *staged* (seed round, rule-interval confirmation,
        implication rounds with probes), combination answers implied by
        monotone sandwich bounds never reach the LLM, and the
        counterfactual searches skip candidates whose implied answer
        cannot flip (verifying implied flips with one real call).
        ``report.implied``/``report.pruned`` count the savings;
        implication self-disables on order-sensitive contexts so
        position-biased models keep their exact unpruned behavior.

        ``permutation_sample`` overrides ``sample_size`` for the
        permutation insight set only (benchmarks enumerate every
        combination while sampling the k! orderings); ``None`` keeps
        the shared ``sample_size`` semantics.

        The permutation counterfactual search walks the same lazy
        decreasing-tau stream at every k; only its budget differs: on
        contexts wider than the exhaustive permutation cap it may spend
        at most :data:`WIDE_PERMUTATION_BUDGET` LLM calls.
        The report lists :data:`REPORT_OPTIMAL_PERMUTATIONS` optimal
        permutations.
        """
        context = context or self.retrieve(query)
        evaluator = self._evaluator(context)
        answered = self.ask(query, context=context, evaluator=evaluator)
        sample = sample_size if sample_size is not None else self.config.sample_size
        perm_sample = permutation_sample if permutation_sample is not None else sample

        combination_set = select_combinations(
            context, sample_size=sample, seed=self.config.seed, include_empty=False
        )
        permutation_set = None
        if context.k <= MAX_EXHAUSTIVE_K or perm_sample is not None:
            permutation_set = select_permutations(
                context, sample_size=perm_sample, seed=self.config.seed
            )
        stability_set = select_permutations(
            context, sample_size=stability_sample, seed=self.config.seed
        )

        # Score once and share: with attention-based relevance each
        # scores() call is a fresh full-context generation outside the
        # shared evaluator, so per-search recomputation would both
        # duplicate prompts and escape report.llm_calls.  The staged
        # plan also wants the scores, to order its seed round.
        scores = self.relevance_scores(context)

        lattice = AnswerLattice(context) if self.config.plan_pruning else None
        plan = EvaluationPlan(evaluator, lattice=lattice)
        plan.add_baselines()
        plan.add_perturbations(combination_set)
        if permutation_set is not None:
            plan.add_perturbations(permutation_set)
        plan.add_perturbations(stability_set)
        plan_stats = plan.execute(relevance_scores=scores)

        combination = analyze_combinations(
            evaluator, combination_set, lattice=lattice
        )
        permutation: Optional[PermutationInsights] = None
        if permutation_set is not None:
            permutation = analyze_permutations(evaluator, permutation_set)
        if context.k <= MAX_EXHAUSTIVE_K:
            permutation_budget = self.config.max_evaluations
        else:
            permutation_budget = min(WIDE_PERMUTATION_BUDGET, self.config.max_evaluations)
        permutation_cf = search_permutation_counterfactual(
            evaluator,
            max_evaluations=permutation_budget,
            lattice=lattice,
        )
        report = RageReport(
            query=query,
            answer=answered.answer,
            context=context,
            combination_insights=combination,
            permutation_insights=permutation,
            top_down=search_combination_counterfactual(
                evaluator,
                relevance_scores=scores,
                direction=SearchDirection.TOP_DOWN,
                max_evaluations=self.config.max_evaluations,
                lattice=lattice,
            ),
            bottom_up=search_combination_counterfactual(
                evaluator,
                relevance_scores=scores,
                direction=SearchDirection.BOTTOM_UP,
                max_evaluations=self.config.max_evaluations,
                lattice=lattice,
            ),
            permutation_counterfactual=permutation_cf,
            optimal=optimal_permutations(
                context,
                relevance_scores=scores,
                s=REPORT_OPTIMAL_PERMUTATIONS,
                prior=self.config.expected_prior,
                depth=self.config.expected_depth,
            ),
            stability=compute_order_stability(evaluator, stability_set),
            llm_calls=evaluator.llm_calls,
            plan_stats=plan_stats,
        )
        if lattice is not None:
            report.implied = lattice.stats.implied
            report.pruned = plan_stats.pruned
        return report

    # -- internals ---------------------------------------------------------

    def _evaluator(self, context: Context) -> ContextEvaluator:
        return ContextEvaluator(
            self.llm, context, self.prompt_builder, backend=self.backend
        )
