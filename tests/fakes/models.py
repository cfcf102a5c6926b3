"""In-process LanguageModel test doubles (no HTTP involved).

Promoted from the per-benchmark copies in ``bench_e14``–``bench_e16``
so every suite counts and delays calls the same way.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import List, Optional, Sequence

from repro.llm.base import GenerationResult, TokenUsage


class CountingLLM:
    """Counts every prompt that reaches the wrapped model.

    Mirrors the inner model's identity (``name`` *and* ``cache_params``)
    so content addressing — the prompt cache and the disk store — never
    notices the shim; the counters are the only observable difference.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0
        self.batches = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def cache_params(self):
        return getattr(self.inner, "cache_params", None)

    def generate(self, prompt: str) -> GenerationResult:
        self.calls += 1
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        self.calls += len(prompts)
        self.batches += 1
        return self.inner.generate_batch(prompts)


class LatencyLLM:
    """A remote-API stand-in: deterministic answers behind a wait.

    Deliberately exposes *only* per-prompt entry points (``generate`` /
    ``agenerate``) so the execution backends are what differentiates a
    batch: serial pays every wait in sequence, threads overlap up to
    the pool width, and the event loop overlaps everything in flight.
    ``max_inflight`` records the highest observed concurrency.
    """

    def __init__(self, inner, latency: float = 0.01) -> None:
        self.inner = inner
        self.latency = latency
        self.calls = 0
        self.inflight = 0
        self.max_inflight = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"latency({self.inner.name})"

    def _enter(self) -> None:
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def _exit(self) -> None:
        with self._lock:
            self.inflight -= 1

    def generate(self, prompt: str) -> GenerationResult:
        self._enter()
        try:
            time.sleep(self.latency)
            return self.inner.generate(prompt)
        finally:
            self._exit()

    async def agenerate(self, prompt: str) -> GenerationResult:
        self._enter()
        try:
            await asyncio.sleep(self.latency)
            return self.inner.generate(prompt)
        finally:
            self._exit()


class SlowPromptLLM:
    """Instant answers except prompts containing ``hang_marker``.

    The timeout suites use it to model one hung request inside an
    otherwise healthy batch: marked prompts sleep ``hang_seconds``
    (async variants sleep on the loop, so ``asyncio.wait_for`` can
    cancel them); everything else answers immediately.
    """

    name = "slow-prompt-llm"

    def __init__(
        self,
        hang_marker: str = "HANG",
        hang_seconds: float = 5.0,
        answer: str = "ok",
        offer_async: bool = True,
    ) -> None:
        self.hang_marker = hang_marker
        self.hang_seconds = hang_seconds
        self.answer = answer
        self.calls = 0
        self.completed: List[str] = []
        self._lock = threading.Lock()
        if not offer_async:
            # Hide the async entry point so every backend takes its
            # sync strategy (a generate loop or thread pool).
            self.agenerate = None  # type: ignore[assignment]

    def _result(self, prompt: str) -> GenerationResult:
        with self._lock:
            self.completed.append(prompt)
        return GenerationResult(
            answer=self.answer, prompt=prompt, usage=TokenUsage(1, 1)
        )

    def generate(self, prompt: str) -> GenerationResult:
        with self._lock:
            self.calls += 1
        if self.hang_marker in prompt:
            time.sleep(self.hang_seconds)
        return self._result(prompt)

    async def agenerate(self, prompt: str) -> GenerationResult:  # type: ignore[misc]
        with self._lock:
            self.calls += 1
        if self.hang_marker in prompt:
            await asyncio.sleep(self.hang_seconds)
        return self._result(prompt)
