"""Language-model interface: what RAGE requires of an LLM.

The paper runs Llama-2-7B-chat but notes the software "is fully
compatible with any similar transformer-based LLM".  We keep that
property: everything above this layer sees only :class:`LanguageModel`
— a name plus ``generate(prompt) -> GenerationResult``.  The simulated
model (:mod:`repro.llm.simulated`), the scripted model, the remote
adapter and a Hugging Face client all implement it; none of the
explanation code knows which one it is talking to.

The batching contract
---------------------
Every RAGE explanation reduces to evaluating *many* prompts against the
same model, so models may additionally implement any of::

    generate_batch(prompts: Sequence[str]) -> List[GenerationResult]
    agenerate(prompt: str) -> Awaitable[GenerationResult]
    agenerate_batch(prompts: Sequence[str]) -> Awaitable[List[GenerationResult]]

with these guarantees, which all callers rely on:

* **Alignment** — exactly one result per input prompt, in input order.
* **Equivalence** — ``generate_batch(ps)[i].answer`` equals
  ``generate(ps[i]).answer`` for deterministic models, and the async
  entry points answer exactly as their sync counterparts.  Auxiliary
  fields are best-effort: a model may omit the attention trace (one
  total per source) in batch mode when capturing it per prompt would
  negate the batching win (answers, usage and diagnostics must still be
  populated).
* **No partial failure** — a model either answers every prompt or
  raises; callers never receive a short list.

All three entry points are *optional*.  Which one a batch uses is the
execution backend's decision (:mod:`repro.exec.backend`), which also
enforces alignment and the per-call deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, runtime_checkable

from ..attention.model import AttentionTrace


@dataclass(frozen=True)
class TokenUsage:
    """Token accounting for one generation call."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens


@dataclass
class GenerationResult:
    """Everything one LLM call returns.

    Attributes
    ----------
    answer:
        The raw answer string (pre-normalization).
    prompt:
        The exact prompt that produced it.
    attention:
        Synthetic (or real) attention over the prompt's sources, one
        total per source; ``None`` when the model does not expose
        attention.
    usage:
        Token accounting.
    diagnostics:
        Model-specific extras; the simulated model reports the candidate
        vote tally and the detected question intent here.  Purely
        informational — the explanation algorithms never read it.
    """

    answer: str
    prompt: str
    attention: Optional[AttentionTrace] = None
    usage: TokenUsage = field(default_factory=TokenUsage)
    diagnostics: Dict[str, object] = field(default_factory=dict)


@runtime_checkable
class LanguageModel(Protocol):
    """The minimal LLM contract the explanation layer depends on."""

    @property
    def name(self) -> str:
        """Human-readable model identifier (reports, cache keys)."""
        ...

    def generate(self, prompt: str) -> GenerationResult:
        """Produce an answer for a fully-rendered prompt."""
        ...
