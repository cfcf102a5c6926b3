"""Per-call timeout suites: a hung prompt fails *that prompt*.

The execution backend is the one owner of the local deadline: every
strategy it picks honors it per call, the error names the hung
prompt(s), and sibling calls in the batch still complete.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from fakes import SlowPromptLLM

from repro import RageConfig
from repro.errors import ConfigError, GenerationTimeoutError
from repro.exec import AsyncioBackend, SerialBackend, ThreadedBackend, make_backend
from repro.llm.cache import CachingLLM

PROMPTS = ["fast one", "HANG this one", "fast two"]


def _assert_failed_only_the_hung(error: GenerationTimeoutError, model) -> None:
    assert list(error.prompts) == ["HANG this one"]
    # The siblings ran to completion despite the hang.
    assert "fast one" in model.completed
    assert "fast two" in model.completed


def test_sequential_timeout_fails_only_hung_prompt():
    model = SlowPromptLLM(offer_async=False)
    started = time.monotonic()
    with pytest.raises(GenerationTimeoutError) as err:
        SerialBackend(timeout=0.1).run(model, PROMPTS)
    assert time.monotonic() - started < 2.0  # never waited the 5s hang out
    _assert_failed_only_the_hung(err.value, model)


def test_sequential_no_timeout_preserves_old_behavior():
    model = SlowPromptLLM(hang_seconds=0.01, offer_async=False)
    results = SerialBackend().run(model, PROMPTS)
    assert [r.answer for r in results] == ["ok"] * 3


def test_pooled_timeout_fails_only_hung_prompt():
    model = SlowPromptLLM(offer_async=False)
    with pytest.raises(GenerationTimeoutError) as err:
        ThreadedBackend(3, timeout=0.1).run(model, PROMPTS)
    _assert_failed_only_the_hung(err.value, model)


def test_async_rung_timeout_cancels_only_hung_prompt():
    model = SlowPromptLLM()
    with pytest.raises(GenerationTimeoutError) as err:
        AsyncioBackend(timeout=0.1).run(model, PROMPTS)
    assert list(err.value.prompts) == ["HANG this one"]
    assert "fast one" in model.completed and "fast two" in model.completed


def test_batched_generate_sync_entry_times_out_async_model():
    """A sync run made from inside a running event loop (its private
    loop lives on a helper thread) still deadlines an async model."""
    model = SlowPromptLLM()

    async def caller():
        AsyncioBackend(timeout=0.1).run(model, PROMPTS)

    with pytest.raises(GenerationTimeoutError) as err:
        asyncio.run(caller())
    assert list(err.value.prompts) == ["HANG this one"]


def test_native_sync_batch_gets_whole_batch_bound():
    class SlowBatch:
        name = "slow-batch"

        def generate(self, prompt):
            raise AssertionError("batch path expected")

        def generate_batch(self, prompts):
            time.sleep(1.0)
            return []

    with pytest.raises(GenerationTimeoutError) as err:
        SerialBackend(timeout=0.1).run(SlowBatch(), ["a", "b"])
    assert set(err.value.prompts) == {"a", "b"}  # one call, one deadline


@pytest.mark.parametrize(
    "backend_factory",
    [
        lambda: SerialBackend(timeout=0.1),
        lambda: ThreadedBackend(3, timeout=0.1),
        lambda: AsyncioBackend(max_inflight=3, timeout=0.1),
    ],
    ids=["serial", "threaded", "asyncio"],
)
def test_backends_enforce_per_call_timeout(backend_factory):
    backend = backend_factory()
    offer_async = isinstance(backend, AsyncioBackend)
    model = SlowPromptLLM(offer_async=offer_async)
    with pytest.raises(GenerationTimeoutError) as err:
        backend.run(model, PROMPTS)
    assert list(err.value.prompts) == ["HANG this one"]


def test_backends_without_timeout_do_not_deadline():
    model = SlowPromptLLM(hang_seconds=0.02, offer_async=False)
    results = SerialBackend().run(model, PROMPTS)
    assert [r.answer for r in results] == ["ok"] * 3


def test_make_backend_threads_timeout_through_specs():
    assert make_backend("serial", timeout=2.5).timeout == 2.5
    assert make_backend("threaded:4", timeout=2.5).timeout == 2.5
    assert make_backend("asyncio:4", timeout=2.5).timeout == 2.5
    assert make_backend(None, timeout=2.5).timeout == 2.5
    assert make_backend("asyncio").timeout is None
    for spec in ("serial", "threaded:2", "asyncio:2"):
        with pytest.raises(ConfigError):
            make_backend(spec, timeout=0)


def test_caching_llm_forwards_timeout_to_miss_dispatch():
    model = SlowPromptLLM(hang_marker="slow", hang_seconds=0.3, offer_async=False)
    cached = CachingLLM(model)
    run = SerialBackend(timeout=0.1).run
    with pytest.raises(GenerationTimeoutError):
        cached.generate_batch(["slow one"], run=run)
    # Misses are deadlined by the backend; hits never reach it.
    model.hang_marker = "never-matches"
    cached.generate_batch(["slow two"], run=run)
    model.hang_marker = "slow"
    assert cached.generate_batch(["slow two"], run=run)[0].answer == "ok"


def test_caching_llm_batch_timeout_names_hung_prompt():
    model = SlowPromptLLM()
    cached = CachingLLM(model)
    with pytest.raises(GenerationTimeoutError) as err:
        cached.generate_batch(PROMPTS, run=AsyncioBackend(timeout=0.1).run)
    assert list(err.value.prompts) == ["HANG this one"]
    assert cached.flights.inflight() == 0  # the failed flights were retired


def test_config_request_timeout_reaches_backend():
    config = RageConfig(backend="asyncio:2", request_timeout=1.5)
    backend = make_backend(config.backend, timeout=config.request_timeout)
    assert backend.timeout == 1.5
    with pytest.raises(ConfigError):
        RageConfig(request_timeout=-2)


def test_engine_enforces_deadline_at_one_layer_only(big_three):
    """The backend owns the deadline with the cache on or off; the
    cache only looks up and records, so it has no deadline to stack."""
    from repro import Rage

    for cache in (True, False):
        rage = Rage.from_corpus(
            big_three.corpus,
            SlowPromptLLM(hang_seconds=0.0, offer_async=False),
            config=RageConfig(k=big_three.k, request_timeout=0.2, cache=cache),
        )
        assert rage.backend.timeout == 0.2
        assert isinstance(rage.llm, CachingLLM) is cache
        assert not hasattr(rage.llm, "timeout")


def test_healthy_batch_slower_than_deadline_survives(big_three):
    """Finding-1 regression: a batch whose total wall-clock exceeds
    the per-call deadline — while every individual call is well under
    it — must complete, not die wholesale."""
    from repro import Rage

    model = SlowPromptLLM(
        hang_marker="never-matches", hang_seconds=0.0, offer_async=False
    )
    real_generate = model.generate

    def slow_generate(prompt):
        time.sleep(0.06)  # healthy, but 8 calls exceed the 0.15s deadline
        return real_generate(prompt)

    model.generate = slow_generate
    rage = Rage.from_corpus(
        big_three.corpus,
        model,
        config=RageConfig(k=big_three.k, request_timeout=0.15),
    )
    context = rage.retrieve(big_three.query)
    evaluator = rage._evaluator(context)
    ids = context.doc_ids()
    orderings = [ids[: n + 1] for n in range(len(ids))] * 2
    evaluations = evaluator.evaluate_many(orderings)
    assert len(evaluations) == len(orderings)


def test_asyncio_backend_times_out_hung_sync_batch():
    """Finding-2 regression: a hung native sync batch under the
    asyncio backend must raise within the deadline — not block the
    loop's shutdown forever."""

    class HungBatch:
        name = "hung-batch"

        def generate(self, prompt):
            raise AssertionError("batch path expected")

        def generate_batch(self, prompts):
            time.sleep(30.0)
            return []

    backend = AsyncioBackend(max_inflight=2, timeout=0.2)
    started = time.monotonic()
    with pytest.raises(GenerationTimeoutError) as err:
        backend.run(HungBatch(), ["a", "b"])
    assert time.monotonic() - started < 5.0
    assert set(err.value.prompts) == {"a", "b"}
