"""The simulated LLM — the Llama-2-7B-chat substitute.

The model is a deterministic open-book question answerer whose behaviour
reproduces the three properties RAGE's explanations probe:

1. **Presence sensitivity** — answers are derived from claims extracted
   from the sources actually present in the prompt, so removing sources
   (combination perturbations) changes the evidence pool.
2. **Order sensitivity** — each source's evidence is weighted by a
   positional attention prior (V-shaped by default: the "lost in the
   middle" bias), so reordering sources (permutation perturbations) can
   flip the answer even though the evidence set is unchanged.
3. **Parametric knowledge** — a :class:`~repro.llm.knowledge.KnowledgeBase`
   supplies the empty-context answer and contributes a weighted prior to
   in-context voting, so context evidence competes with (and can
   override) "trained" beliefs.

Decision rules by intent
------------------------
SUPERLATIVE / FACTOID
    Weighted vote per candidate entity: sum over sources of
    ``position_weight x claim_strength`` for topical claims, plus the
    knowledge-base prior.  Highest vote wins.
MOST_RECENT
    Each dated award claim scores
    ``position_weight x recency_decay^(max_year - year)``; an entity
    takes its best claim; highest score wins.  Recency and attention
    therefore trade off: a newer claim *in a low-attention position* can
    lose to an older claim in a high-attention one — exactly the failure
    mode Use Case 2 demonstrates.
COUNT
    Count the distinct in-range years for which some source asserts the
    subject won; order-insensitive by design (Use Case 3's stability).

All ties break lexicographically on the normalized entity so the model
is a pure function of the prompt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..attention.model import AttentionModel, AttentionTrace
from ..attention.positional import PositionPrior, position_weights
from ..errors import ConfigError
from ..textproc import Tokenizer, normalize_entity
from .base import GenerationResult, TokenUsage
from .extraction import Claim, ClaimExtractor, ClaimKind
from .intents import ParsedQuestion, QuestionIntent, parse_question
from .knowledge import KnowledgeBase
from .prompts import parse_prompt


# Stemmed trigger words shared by question intents and claim patterns;
# never counted as topical overlap (see SimulatedLLM._topical).
_INTENT_TERMS = frozenset(
    {
        "best", "greatest", "top", "finest", "recent", "latest", "newest",
        "current", "last", "winner", "won", "win", "champion", "mani",
        "time", "consid", "wide", "rank", "first", "lead",
    }
)


@dataclass(frozen=True)
class SimulatedLLMConfig:
    """Behavioural knobs of the simulated model.

    The defaults are the ones used throughout the reproduction; the
    benchmarks vary ``prior``/``prior_depth`` to ablate position bias.
    """

    prior: PositionPrior = PositionPrior.V_SHAPED
    prior_depth: float = 0.8
    kb_prior_weight: float = 0.1
    recency_decay: float = 0.8
    superlative_strength: float = 1.5
    rank_first_strength: float = 1.0
    award_strength: float = 1.0
    num_layers: int = 4
    num_heads: int = 4
    unknown_answer: str = "I do not know"

    def __post_init__(self) -> None:
        if not 0.0 < self.recency_decay <= 1.0:
            raise ConfigError(f"recency_decay must be in (0, 1], got {self.recency_decay}")
        if self.kb_prior_weight < 0:
            raise ConfigError("kb_prior_weight must be >= 0")
        for name in ("superlative_strength", "rank_first_strength", "award_strength"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class _VoteBoard:
    """Accumulates candidate scores and remembers display surfaces."""

    scores: Dict[str, float] = field(default_factory=dict)
    surfaces: Dict[str, str] = field(default_factory=dict)

    def add(self, surface: str, amount: float) -> None:
        key = normalize_entity(surface)
        self.scores[key] = self.scores.get(key, 0.0) + amount
        self.surfaces.setdefault(key, surface)

    def maximize(self, surface: str, amount: float) -> None:
        key = normalize_entity(surface)
        if amount > self.scores.get(key, float("-inf")):
            self.scores[key] = amount
        self.surfaces.setdefault(key, surface)

    def winner(self) -> Optional[str]:
        """Surface form of the best candidate (deterministic ties)."""
        if not self.scores:
            return None
        best_key = min(self.scores, key=lambda key: (-self.scores[key], key))
        return self.surfaces[best_key]

    def tally(self) -> Dict[str, float]:
        """Surface-keyed score map for diagnostics."""
        return {self.surfaces[key]: score for key, score in self.scores.items()}


class SimulatedLLM:
    """Deterministic retrieval-augmented question answerer.

    Implements the :class:`repro.llm.base.LanguageModel` protocol: the
    prompt is the sole input; sources are parsed back out of the prompt
    text, read by the claim extractor, and adjudicated by the intent
    decision rules.
    """

    def __init__(
        self,
        knowledge: Optional[KnowledgeBase] = None,
        config: Optional[SimulatedLLMConfig] = None,
        seed: int = 0,
    ) -> None:
        self.knowledge = knowledge or KnowledgeBase()
        self.config = config or SimulatedLLMConfig()
        self.seed = seed
        self._tokenizer = Tokenizer()
        self._extractor = ClaimExtractor(self._tokenizer)
        self._attention = AttentionModel(
            num_layers=self.config.num_layers,
            num_heads=self.config.num_heads,
            prior=self.config.prior,
            seed=seed,
            depth=self.config.prior_depth,
        )
        self._claim_cache: Dict[str, List[Claim]] = {}
        self._weight_cache: Dict[int, List[float]] = {}

    @property
    def name(self) -> str:
        """Model identifier used in reports and cache keys."""
        return f"simulated-llm/{self.config.prior.value}-d{self.config.prior_depth}-s{self.seed}"

    @property
    def cache_params(self) -> Dict[str, object]:
        """Persistent-cache identity beyond :attr:`name`.

        ``name`` encodes prior/depth/seed only; every other behavioural
        knob — the remaining config fields and the knowledge base —
        also changes answers, so they must split the content-addressed
        store (:mod:`repro.llm.store`) or differently-configured runs
        would serve each other's entries.
        """
        params: Dict[str, object] = {
            field_name: str(value)
            for field_name, value in vars(self.config).items()
        }
        params["knowledge"] = self.knowledge.fingerprint()
        return params

    # -- LanguageModel protocol -----------------------------------------

    def generate(self, prompt: str) -> GenerationResult:
        """Answer the prompt (see module docstring for the rules)."""
        parsed = parse_prompt(prompt)
        question = parse_question(parsed.question, self._tokenizer)
        return self._answer_one(prompt, parsed, question)

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        """Vectorized :meth:`generate` over many prompts.

        Perturbation batches share almost everything: the question is
        usually identical and the source texts are drawn from one small
        context, so parsing the question once per distinct surface form
        and extracting claims once per distinct source text (the claim
        cache) amortizes the per-prompt work to the decision rules.
        """
        questions: Dict[str, ParsedQuestion] = {}
        results: List[GenerationResult] = []
        for prompt in prompts:
            parsed = parse_prompt(prompt)
            question = questions.get(parsed.question)
            if question is None:
                question = parse_question(parsed.question, self._tokenizer)
                questions[parsed.question] = question
            results.append(self._answer_one(prompt, parsed, question))
        return results

    def _answer_one(self, prompt: str, parsed, question: ParsedQuestion) -> GenerationResult:
        """Shared result construction for both generation entry points."""
        trace = self._attention.trace(parsed.question, parsed.source_texts)
        answer, votes = self._decide(question, parsed.source_texts)
        return GenerationResult(
            answer=answer,
            prompt=prompt,
            attention=trace,
            usage=TokenUsage(
                prompt_tokens=len(prompt.split()),
                completion_tokens=len(answer.split()),
            ),
            diagnostics={"intent": question.intent.value, "votes": votes},
        )

    # -- decision core ---------------------------------------------------

    def _decide(
        self,
        question: ParsedQuestion,
        source_texts: Sequence[str],
    ) -> Tuple[str, Dict[str, float]]:
        if not source_texts:
            return self._parametric_answer(question), {}
        weights = self._position_weights(len(source_texts))
        claims_per_source = [self._claims(text) for text in source_texts]
        if question.intent is QuestionIntent.COUNT:
            return self._decide_count(question, claims_per_source)
        if question.intent is QuestionIntent.MOST_RECENT:
            return self._decide_temporal(question, claims_per_source, weights, newest=True)
        if question.intent is QuestionIntent.EARLIEST:
            return self._decide_temporal(question, claims_per_source, weights, newest=False)
        return self._decide_vote(question, claims_per_source, weights)

    def _decide_vote(
        self,
        question: ParsedQuestion,
        claims_per_source: Sequence[List[Claim]],
        weights: Sequence[float],
    ) -> Tuple[str, Dict[str, float]]:
        """SUPERLATIVE and FACTOID: attention-weighted entity vote."""
        board = _VoteBoard()
        allowed = (
            (ClaimKind.SUPERLATIVE, ClaimKind.RANK_FIRST)
            if question.intent is QuestionIntent.SUPERLATIVE
            else tuple(ClaimKind)
        )
        for weight, claims in zip(weights, claims_per_source):
            for claim in claims:
                if claim.kind not in allowed:
                    continue
                if not self._topical(claim, question):
                    continue
                board.add(claim.entity, weight * self._strength(claim.kind))
        fact = self.knowledge.lookup(question)
        if fact is not None:
            board.add(fact.answer, self.config.kb_prior_weight * fact.confidence)
        winner = board.winner()
        if winner is None:
            return self._parametric_answer(question), board.tally()
        return winner, board.tally()

    def _decide_temporal(
        self,
        question: ParsedQuestion,
        claims_per_source: Sequence[List[Claim]],
        weights: Sequence[float],
        newest: bool,
    ) -> Tuple[str, Dict[str, float]]:
        """MOST_RECENT / EARLIEST: time-discounted, attention-weighted
        claims.  The discount anchors at the newest (or oldest) year in
        the context, so a claim from the wrong end of the timeline can
        still win from a high-attention position — the Use Case 2
        failure mode, in either temporal direction."""
        dated: List[Tuple[float, Claim]] = []
        for weight, claims in zip(weights, claims_per_source):
            for claim in claims:
                if claim.kind is not ClaimKind.AWARD or claim.year is None:
                    continue
                if not self._topical(claim, question):
                    continue
                dated.append((weight, claim))
        if not dated:
            return self._parametric_answer(question), {}
        years = [claim.year for _, claim in dated if claim.year is not None]
        anchor = max(years) if newest else min(years)
        board = _VoteBoard()
        for weight, claim in dated:
            assert claim.year is not None
            score = (
                weight
                * self.config.award_strength
                * self.config.recency_decay ** abs(anchor - claim.year)
            )
            board.maximize(claim.entity, score)
        winner = board.winner()
        assert winner is not None  # dated is non-empty
        return winner, board.tally()

    def _decide_count(
        self,
        question: ParsedQuestion,
        claims_per_source: Sequence[List[Claim]],
    ) -> Tuple[str, Dict[str, float]]:
        """COUNT: distinct matching years; position-independent."""
        if question.subject is None:
            return self._parametric_answer(question), {}
        years: set = set()
        for claims in claims_per_source:
            for claim in claims:
                if claim.kind is not ClaimKind.AWARD or claim.year is None:
                    continue
                if claim.entity_key != question.subject:
                    continue
                if not self._topical(claim, question):
                    continue
                if question.year_range is not None:
                    low, high = question.year_range
                    if not low <= claim.year <= high:
                        continue
                years.add(claim.year)
        return str(len(years)), {str(len(years)): float(len(years))}

    # -- helpers ----------------------------------------------------------

    def _parametric_answer(self, question: ParsedQuestion) -> str:
        fact = self.knowledge.lookup(question)
        if fact is not None:
            return fact.answer
        return self.config.unknown_answer

    def _position_weights(self, k: int) -> List[float]:
        cached = self._weight_cache.get(k)
        if cached is None:
            cached = position_weights(self.config.prior, k, depth=self.config.prior_depth)
            self._weight_cache[k] = cached
        return cached

    def _claims(self, text: str) -> List[Claim]:
        cached = self._claim_cache.get(text)
        if cached is None:
            cached = self._extractor.extract(text)
            self._claim_cache[text] = cached
        return cached

    def _strength(self, kind: ClaimKind) -> float:
        if kind is ClaimKind.SUPERLATIVE:
            return self.config.superlative_strength
        if kind is ClaimKind.RANK_FIRST:
            return self.config.rank_first_strength
        return self.config.award_strength

    def _topical(self, claim: Claim, question: ParsedQuestion) -> bool:
        """A claim counts only when it shares *content* terms with the
        question.  Intent trigger words ("best", "winner", ...) appear in
        both superlative questions and superlative claims regardless of
        topic, so they are excluded from the overlap — otherwise a source
        about the best chemist would vote on the best archer.
        """
        return bool((claim.terms & question.terms) - _INTENT_TERMS)
