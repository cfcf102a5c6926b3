"""A scripted LLM: canned answers keyed by context signature.

Useful in two situations the simulated model cannot cover:

* **Tests and what-if analysis** — drive the explanation algorithms
  against an exactly specified answer function (e.g. adversarial cases:
  "flip only when sources 2 and 4 are both missing").
* **Replays** — reproduce a recorded interaction with a real LLM: dump
  (ordered source ids -> answer) pairs from a live system and re-run
  every RAGE explanation against the recording, deterministically and
  offline.

The script maps an ordered tuple of source *texts* (as parsed back out
of the prompt) to an answer; a default answer covers everything
unscripted.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import GenerationResult, TokenUsage
from .prompts import parse_prompt

AnswerFn = Callable[[str, Tuple[str, ...]], Optional[str]]


class ScriptedLLM:
    """Answers from an explicit script instead of a model.

    Parameters
    ----------
    script:
        Mapping from ordered source-text tuples to answers.  The empty
        tuple keys the empty-context answer.
    default:
        Answer for unscripted contexts.
    answer_fn:
        Alternative to ``script``: a callable ``(question, source_texts)
        -> answer | None`` tried before the script (None falls through).
    """

    def __init__(
        self,
        script: Optional[Dict[Tuple[str, ...], str]] = None,
        default: str = "unscripted",
        answer_fn: Optional[AnswerFn] = None,
    ) -> None:
        self.script = dict(script or {})
        self.default = default
        self.answer_fn = answer_fn
        self.calls = 0

    @property
    def name(self) -> str:
        """Identifier for reports and cache keys."""
        return f"scripted-llm/{len(self.script)}-entries"

    @property
    def cache_params(self) -> Dict[str, object]:
        """Persistent-cache identity: a digest of the script contents.

        Two scripts of equal length answer differently, and ``name``
        only carries the length.  ``answer_fn`` is arbitrary code and
        contributes only its qualified name — replays that rely on an
        ``answer_fn`` closure should not share one store directory
        across differing closures.
        """
        digest = hashlib.sha256()
        for key in sorted(self.script):
            digest.update("\x1f".join(key).encode("utf-8"))
            digest.update(b"\x1e")
            digest.update(self.script[key].encode("utf-8"))
        params: Dict[str, object] = {
            "script": digest.hexdigest()[:16],
            "default": self.default,
        }
        if self.answer_fn is not None:
            params["answer_fn"] = getattr(
                self.answer_fn, "__qualname__", repr(self.answer_fn)
            )
        return params

    def generate(self, prompt: str) -> GenerationResult:
        """Look the parsed context up in the script."""
        self.calls += 1
        parsed = parse_prompt(prompt)
        key = tuple(parsed.source_texts)
        answer: Optional[str] = None
        if self.answer_fn is not None:
            answer = self.answer_fn(parsed.question, key)
        if answer is None:
            answer = self.script.get(key, self.default)
        return GenerationResult(
            answer=answer,
            prompt=prompt,
            attention=None,
            usage=TokenUsage(
                prompt_tokens=len(prompt.split()),
                completion_tokens=len(answer.split()),
            ),
            diagnostics={"scripted": True},
        )

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        """Batch entry point; a plain per-prompt loop.

        Script lookup has no shared work to amortize, so this matches
        what a serial backend's ``generate`` loop would do.  It is kept
        explicit so replay scripts count calls the same way on both
        paths and tests pin the contract on this class directly.
        """
        return [self.generate(prompt) for prompt in prompts]

    async def agenerate(self, prompt: str) -> GenerationResult:
        """Async :meth:`generate`: the script lookup is pure compute."""
        # repro: disable=async-hygiene -- dict lookup, nothing blocks.
        return self.generate(prompt)

    async def agenerate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        """Async :meth:`generate_batch` (call counting stays identical)."""
        # repro: disable=async-hygiene -- dict lookup, nothing blocks.
        return self.generate_batch(prompts)

    def record(self, source_texts: Sequence[str], answer: str) -> None:
        """Add one (context -> answer) pair to the script."""
        self.script[tuple(source_texts)] = answer
