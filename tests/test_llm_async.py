"""Async LLM contract tests: the asyncio backend's strategy order, its
in-flight bound, and which concrete models run on an event loop.

Async tests run through ``asyncio.run`` inside plain sync test
functions, so they need no pytest plugin.
"""

import asyncio
import threading

import pytest

from repro.errors import BatchContractError
from repro.exec import AsyncioBackend, SerialBackend, ThreadedBackend
from repro.exec.backend import run_coroutine
from repro.llm import (
    CachingLLM,
    GenerationResult,
    PromptBuilder,
    RemoteLLM,
    RouterLLM,
    ScriptedLLM,
    SimulatedLLM,
)
from repro.llm.transformers_adapter import TransformersLLM

BUILDER = PromptBuilder()


def _prompts(n):
    return [
        BUILDER.build("Who won the race?", [f"Runner {i} won the race in 201{i}."])
        for i in range(n)
    ]


class SyncOnly:
    name = "sync-only"

    def generate(self, prompt):
        return GenerationResult(answer="s", prompt=prompt)


class SyncBatch(SyncOnly):
    name = "sync-batch"

    def __init__(self):
        self.threads = set()

    def generate_batch(self, prompts):
        self.threads.add(threading.get_ident())
        return [GenerationResult(answer="sb", prompt=p) for p in prompts]


class AsyncSingle(SyncOnly):
    """Per-prompt async model that records observed concurrency."""

    name = "async-single"

    def __init__(self, delay=0.0):
        self.delay = delay
        self.inflight = 0
        self.max_inflight = 0
        self.calls = 0

    async def agenerate(self, prompt):
        self.calls += 1
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        await asyncio.sleep(self.delay)
        self.inflight -= 1
        return GenerationResult(answer="a", prompt=prompt)


class MisalignedBatch(SyncOnly):
    name = "misaligned-batch"

    def generate_batch(self, prompts):
        return []


def _answers(backend, model, n=2):
    return {r.answer for r in backend.run(model, _prompts(n))}


# -- strategy order ------------------------------------------------------------


def test_resolver_canonical_order_is_async_first():
    """Per-prompt calls go to ``agenerate`` when the model has one; a
    native batch goes first on every backend, a per-prompt run skips it."""

    class Both(SyncBatch, AsyncSingle):
        name = "both"

        def __init__(self):
            SyncBatch.__init__(self)
            AsyncSingle.__init__(self)

    backend = AsyncioBackend()
    assert _answers(backend, AsyncSingle()) == {"a"}
    assert _answers(backend, SyncBatch()) == {"sb"}
    assert _answers(backend, SyncOnly()) == {"s"}
    for other in (backend, SerialBackend(), ThreadedBackend(4)):
        assert _answers(other, Both()) == {"sb"}
    per_prompt = backend.run(Both(), _prompts(2), per_prompt=True)
    assert {r.answer for r in per_prompt} == {"a"}


def test_resolver_async_single_beats_thread_pool():
    model = AsyncSingle()
    assert _answers(AsyncioBackend(8), model, n=3) == {"a"}
    assert model.calls == 3


def test_resolver_on_shipped_models():
    """Only the models that wait on a socket have ``agenerate``; the
    in-process ones take their native batch on the asyncio backend too."""
    for model_cls in (SimulatedLLM, ScriptedLLM, TransformersLLM):
        assert not hasattr(model_cls, "agenerate"), model_cls
        assert callable(getattr(model_cls, "generate_batch", None)), model_cls
    for model_cls in (RemoteLLM, RouterLLM):
        assert callable(getattr(model_cls, "agenerate", None)), model_cls
        assert not hasattr(model_cls, "generate_batch"), model_cls

    class Spy(SimulatedLLM):
        def __init__(self):
            super().__init__()
            self.used = []

        def generate_batch(self, prompts):
            self.used.append("generate_batch")
            return super().generate_batch(prompts)

    llm = Spy()
    AsyncioBackend().run(llm, _prompts(2))
    SerialBackend().run(llm, _prompts(2))
    assert llm.used == ["generate_batch", "generate_batch"]


# -- the asyncio backend -------------------------------------------------------


def test_abatched_generate_empty_is_free():
    model = AsyncSingle()
    assert AsyncioBackend().run(model, []) == []
    assert model.calls == 0


def test_abatched_generate_task_group_overlaps_calls():
    model = AsyncSingle(delay=0.01)
    results = AsyncioBackend().run(model, _prompts(6))
    assert len(results) == 6
    assert model.max_inflight == 6  # within the default cap: all in flight


def test_abatched_generate_max_inflight_bounds_concurrency():
    model = AsyncSingle(delay=0.01)
    AsyncioBackend(max_inflight=2).run(model, _prompts(6))
    assert model.max_inflight == 2


def test_abatched_generate_sync_batch_off_loop():
    """A native batch is one plain call on the caller's thread: no
    event loop, no helper thread."""
    model = SyncBatch()
    results = AsyncioBackend().run(model, _prompts(3))
    assert [r.answer for r in results] == ["sb"] * 3
    assert model.threads == {threading.get_ident()}


def test_abatched_generate_thread_pool_and_sequential():
    results = AsyncioBackend(max_inflight=2).run(SyncOnly(), _prompts(3))
    assert len(results) == 3
    results = AsyncioBackend(max_inflight=1).run(SyncOnly(), _prompts(3))
    assert len(results) == 3


def test_abatched_generate_misaligned_batch_raises():
    with pytest.raises(BatchContractError, match="misaligned-batch"):
        AsyncioBackend().run(MisalignedBatch(), _prompts(2))


def test_sync_batched_generate_drives_async_only_models():
    model = AsyncSingle()
    results = AsyncioBackend(max_inflight=1).run(model, _prompts(3))
    assert [r.answer for r in results] == ["a"] * 3
    assert model.calls == 3


def test_run_coroutine_inside_running_loop():
    async def inner():
        return 41

    async def outer():
        # A sync helper invoked from async code must not deadlock.
        return run_coroutine(inner()) + 1

    assert asyncio.run(outer()) == 42


# -- the shipped in-process models on the asyncio backend ---------------------


def test_scripted_async_counts_calls_identically():
    """Replays count the same calls whichever backend runs them."""
    counts = []
    for backend in (SerialBackend(), AsyncioBackend(), AsyncioBackend(1)):
        llm = ScriptedLLM(default="d")
        backend.run(llm, _prompts(3))
        backend.run(llm, _prompts(1), per_prompt=True)
        counts.append(llm.calls)
    assert counts == [4, 4, 4]


# -- the cache in front of the asyncio backend --------------------------------


def test_caching_llm_async_batch_partitions_hits_and_misses():
    inner = AsyncSingle()
    cached = CachingLLM(inner)
    run = AsyncioBackend().run
    prompts = _prompts(4)
    first = cached.generate_batch(prompts + prompts[:2], run=run)
    assert len(first) == 6
    assert inner.calls == 4  # distinct misses only
    assert cached.stats.hits == 2 and cached.stats.misses == 4
    second = cached.generate_batch(prompts, run=run)
    assert [r.answer for r in second] == [r.answer for r in first[:4]]
    assert inner.calls == 4  # all hits


def test_caching_llm_agenerate_miss_reaches_inner_once():
    inner = AsyncSingle()
    cached = CachingLLM(inner)
    run = AsyncioBackend().run
    prompt = _prompts(1)[0]
    (one,) = cached.generate_batch([prompt], run=run)
    (two,) = cached.generate_batch([prompt], run=run)
    assert one is two
    assert inner.calls == 1


def test_caching_llm_forwards_max_inflight_to_inner_async_dispatch():
    inner = AsyncSingle(delay=0.01)
    cached = CachingLLM(inner)
    cached.generate_batch(_prompts(6), run=AsyncioBackend(max_inflight=2).run)
    assert inner.max_inflight == 2


def test_sync_and_async_caching_paths_share_one_cache():
    inner = SyncBatch()
    cached = CachingLLM(inner)
    prompts = _prompts(2)
    cached.generate_batch(prompts, run=SerialBackend().run)
    before = cached.stats.misses
    cached.generate_batch(prompts, run=AsyncioBackend().run)
    assert cached.stats.misses == before  # the asyncio pass was all hits


def test_default_inflight_cap_applies_when_unspecified(monkeypatch):
    """No caller-chosen bound never means unbounded fan-out."""
    import repro.exec.backend as backend

    monkeypatch.setattr(backend, "DEFAULT_MAX_INFLIGHT", 3)
    model = AsyncSingle(delay=0.01)
    AsyncioBackend().run(model, _prompts(9))
    assert model.max_inflight == 3


def test_nonsensical_max_inflight_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        AsyncioBackend(max_inflight=0)
