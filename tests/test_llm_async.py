"""Async LLM contract tests: the asyncio backend's strategy order, its
in-flight bound, and the async entry points of the concrete models.

Async tests run through ``asyncio.run`` inside plain sync test
functions, so they need no pytest plugin; CI additionally installs
pytest-asyncio for downstream suites that prefer native async tests.
"""

import asyncio

import pytest

from repro.exec import AsyncioBackend, SerialBackend, ThreadedBackend
from repro.exec.backend import run_coroutine
from repro.llm import (
    CachingLLM,
    GenerationResult,
    PromptBuilder,
    ScriptedLLM,
    SimulatedLLM,
)

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

    def generate_batch(self, prompts):
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


class AsyncBatch(AsyncSingle):
    name = "async-batch"

    async def agenerate_batch(self, prompts):
        self.calls += len(prompts)
        return [GenerationResult(answer="ab", prompt=p) for p in prompts]


class MisalignedAsyncBatch(SyncOnly):
    name = "misaligned-async"

    async def agenerate_batch(self, prompts):
        return []


def _answers(backend, model, n=2):
    return {r.answer for r in backend.run(model, _prompts(n))}


# -- strategy order ------------------------------------------------------------


def test_resolver_canonical_order_is_async_first():
    backend = AsyncioBackend()
    assert _answers(backend, AsyncBatch()) == {"ab"}
    assert _answers(backend, AsyncSingle()) == {"a"}
    assert _answers(backend, SyncBatch()) == {"sb"}
    assert _answers(backend, SyncOnly()) == {"s"}


def test_resolver_async_batch_beats_sync_batch():
    class Both(SyncBatch, AsyncBatch):
        name = "both"

    assert _answers(AsyncioBackend(), Both()) == {"ab"}
    # The sync backends never stand up an event loop.
    assert _answers(SerialBackend(), Both()) == {"sb"}
    assert _answers(ThreadedBackend(4), Both()) == {"sb"}


def test_resolver_async_single_beats_thread_pool():
    model = AsyncSingle()
    assert _answers(AsyncioBackend(8), model, n=3) == {"a"}
    assert model.calls == 3


def test_resolver_on_shipped_models():
    class Spy(SimulatedLLM):
        def __init__(self):
            super().__init__()
            self.used = []

        def generate_batch(self, prompts):
            self.used.append("generate_batch")
            return super().generate_batch(prompts)

        async def agenerate_batch(self, prompts):
            self.used.append("agenerate_batch")
            return super().generate_batch(prompts)

    llm = Spy()
    AsyncioBackend().run(llm, _prompts(2))
    SerialBackend().run(llm, _prompts(2))
    assert llm.used == ["agenerate_batch", "generate_batch"]


# -- the asyncio backend -------------------------------------------------------


def test_abatched_generate_empty_is_free():
    model = AsyncSingle()
    assert AsyncioBackend().run(model, []) == []
    assert model.calls == 0


def test_abatched_generate_async_batch_path():
    model = AsyncBatch()
    prompts = _prompts(4)
    results = AsyncioBackend().run(model, prompts)
    assert [r.prompt for r in results] == prompts
    assert [r.answer for r in results] == ["ab"] * 4


def test_abatched_generate_task_group_overlaps_calls():
    model = AsyncSingle(delay=0.01)
    results = AsyncioBackend().run(model, _prompts(6))
    assert len(results) == 6
    assert model.max_inflight == 6  # within the default cap: all in flight


def test_abatched_generate_max_inflight_bounds_concurrency():
    model = AsyncSingle(delay=0.01)
    AsyncioBackend(max_inflight=2).run(model, _prompts(6))
    assert 1 <= model.max_inflight <= 2


def test_abatched_generate_sync_batch_off_loop():
    model = SyncBatch()
    results = AsyncioBackend().run(model, _prompts(3))
    assert [r.answer for r in results] == ["sb"] * 3


def test_abatched_generate_thread_pool_and_sequential():
    results = AsyncioBackend(max_inflight=2).run(SyncOnly(), _prompts(3))
    assert len(results) == 3
    results = AsyncioBackend(max_inflight=1).run(SyncOnly(), _prompts(3))
    assert len(results) == 3


def test_abatched_generate_misaligned_batch_raises():
    with pytest.raises(RuntimeError, match="misaligned-async"):
        AsyncioBackend().run(MisalignedAsyncBatch(), _prompts(2))


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


# -- async parity on the shipped models --------------------------------------


def test_simulated_async_entry_points_match_sync():
    llm = SimulatedLLM()
    prompts = _prompts(3)
    sync_answers = [llm.generate(p).answer for p in prompts]
    async_one = [asyncio.run(llm.agenerate(p)).answer for p in prompts]
    async_batch = [
        r.answer for r in asyncio.run(llm.agenerate_batch(prompts))
    ]
    assert sync_answers == async_one == async_batch


def test_scripted_async_counts_calls_identically():
    llm = ScriptedLLM(default="d")
    asyncio.run(llm.agenerate_batch(_prompts(3)))
    assert llm.calls == 3


# -- the cache in front of the asyncio backend --------------------------------


def test_caching_llm_async_batch_partitions_hits_and_misses():
    inner = AsyncBatch()
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
    assert 1 <= inner.max_inflight <= 2


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
    assert 1 <= model.max_inflight <= 3


def test_nonsensical_max_inflight_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        AsyncioBackend(max_inflight=0)
