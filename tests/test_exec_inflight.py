"""The in-flight bound: ``asyncio:N`` and ``threaded:N`` keep exactly N
calls in flight, whatever entry points the model exposes.

Each case runs a per-prompt batch of 2N calls and reads the peak
concurrency the model (or, over HTTP, the server) saw.  A model call
waits for the rest of its wave of N before its 50 ms, so a bound of N
peaks at exactly N however slowly the backend starts its threads (under
``python -X dev`` and the lock watchdog a wave of 40 threads took longer
than 50 ms to start); a looser bound peaks above N, and a tighter one
never completes a wave.
The three shapes are the ones the engine meets: a ``generate``-only
model, an ``agenerate`` that waits in a worker thread (the shape of
``RemoteLLM``'s transport), and ``RemoteLLM`` itself against the
loopback fake server.  N > 32 in the threaded-wait case, which is
wider than asyncio's own default thread pool on any host.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from fakes import FakeLLMServer

from repro.exec import AsyncioBackend, ThreadedBackend
from repro.llm import GenerationResult, RemoteLLM
from repro.llm.transport import RetryPolicy

WAIT = 0.05

BACKENDS = {"asyncio": AsyncioBackend, "threaded": ThreadedBackend}


class GenerateOnly:
    """Per-prompt ``generate`` behind a wait, recording peak concurrency;
    each call first waits until ``width`` calls are in it."""

    name = "generate-only"

    def __init__(self, width: int) -> None:
        self.inflight = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._wave = threading.Barrier(width, timeout=10)

    def generate(self, prompt: str) -> GenerationResult:
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            self._wave.wait()
            time.sleep(WAIT)
            return GenerationResult(answer="ok", prompt=prompt)
        finally:
            with self._lock:
                self.inflight -= 1


class ThreadedWait(GenerateOnly):
    """``agenerate`` awaits the blocking call in the loop's thread pool."""

    name = "threaded-wait"

    async def agenerate(self, prompt: str) -> GenerationResult:
        return await asyncio.to_thread(self.generate, prompt)


def _prompts(n):
    return [f"prompt {i}" for i in range(n)]


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize(
    "model_cls, width",
    [(GenerateOnly, 16), (ThreadedWait, 40)],
    ids=["generate-only", "threaded-wait"],
)
def test_backend_keeps_exactly_width_calls_in_flight(kind, model_cls, width):
    model = model_cls(width)
    results = BACKENDS[kind](width).run(model, _prompts(2 * width))
    assert len(results) == 2 * width
    assert model.peak == width


@pytest.mark.parametrize("kind", BACKENDS)
def test_remote_model_keeps_exactly_width_requests_in_flight(kind):
    width = 8
    with FakeLLMServer(latency=WAIT) as server:
        llm = RemoteLLM(
            "openai", "m", base_url=server.base_url, retry=RetryPolicy(max_attempts=1)
        )
        results = BACKENDS[kind](width).run(llm, _prompts(2 * width))
        assert len(results) == 2 * width
        assert server.max_inflight == width


def test_plain_asyncio_applies_the_default_bound(monkeypatch):
    import repro.exec.backend as backend

    monkeypatch.setattr(backend, "DEFAULT_MAX_INFLIGHT", 12)
    model = GenerateOnly(12)
    AsyncioBackend().run(model, _prompts(24))
    assert model.peak == 12
