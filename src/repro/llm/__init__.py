"""LLM substrate: prompts, intents, claim extraction, knowledge base,
and the deterministic simulated model (Llama-2-7B-chat substitute).
"""

from .base import GenerationResult, LanguageModel, TokenUsage
from .cache import CacheStats, CachingLLM
from .coalesce import FlightMap, FlightStats, Latch
from .remote import RemoteLLM, UsageStats, parse_model_spec
from .router import (
    BreakerState,
    CircuitBreaker,
    ProviderHealth,
    RouterLLM,
    RouterStats,
)
from .store import PromptStore, StoreStats, store_key
from .transport import (
    HttpClient,
    HttpResponse,
    HttpTransport,
    RetryPolicy,
    TokenBucket,
    TransportStats,
    UrllibTransport,
)
from .extraction import Claim, ClaimExtractor, ClaimKind, split_sentences
from .intents import (
    ENTITY_PATTERN,
    ParsedQuestion,
    QuestionIntent,
    classify_intent,
    parse_question,
)
from .knowledge import KBFact, KnowledgeBase
from .prompts import DEFAULT_PROMPT_BUILDER, ParsedPrompt, PromptBuilder, parse_prompt
from .scripted import ScriptedLLM
from .simulated import SimulatedLLM, SimulatedLLMConfig

__all__ = [
    "GenerationResult",
    "LanguageModel",
    "TokenUsage",
    "CacheStats",
    "CachingLLM",
    "FlightMap",
    "FlightStats",
    "Latch",
    "RemoteLLM",
    "UsageStats",
    "parse_model_spec",
    "BreakerState",
    "CircuitBreaker",
    "ProviderHealth",
    "RouterLLM",
    "RouterStats",
    "PromptStore",
    "StoreStats",
    "store_key",
    "HttpClient",
    "HttpResponse",
    "HttpTransport",
    "RetryPolicy",
    "TokenBucket",
    "TransportStats",
    "UrllibTransport",
    "Claim",
    "ClaimExtractor",
    "ClaimKind",
    "split_sentences",
    "ENTITY_PATTERN",
    "ParsedQuestion",
    "QuestionIntent",
    "classify_intent",
    "parse_question",
    "KBFact",
    "KnowledgeBase",
    "DEFAULT_PROMPT_BUILDER",
    "ParsedPrompt",
    "PromptBuilder",
    "parse_prompt",
    "ScriptedLLM",
    "SimulatedLLM",
    "SimulatedLLMConfig",
]
