"""Caching LLM wrapper tests."""

import pytest

from repro.errors import ConfigError
from repro.llm import CachingLLM, GenerationResult, PromptBuilder, SimulatedLLM


class CountingModel:
    """Stub model that counts real generate calls."""

    def __init__(self):
        self.calls = 0

    @property
    def name(self):
        return "counting-stub"

    def generate(self, prompt):
        self.calls += 1
        return GenerationResult(answer=f"answer-{len(prompt) % 7}", prompt=prompt)


def test_cache_hit_avoids_inner_call():
    inner = CountingModel()
    cached = CachingLLM(inner)
    first = cached.generate("prompt one")
    second = cached.generate("prompt one")
    assert inner.calls == 1
    assert first is second
    assert cached.stats.hits == 1
    assert cached.stats.misses == 1
    assert cached.stats.hit_rate == 0.5


def test_different_prompts_miss():
    inner = CountingModel()
    cached = CachingLLM(inner)
    cached.generate("a")
    cached.generate("b")
    assert inner.calls == 2
    assert cached.stats.misses == 2


def test_clear_resets_entries_not_stats():
    inner = CountingModel()
    cached = CachingLLM(inner)
    cached.generate("a")
    cached.clear()
    cached.generate("a")
    assert inner.calls == 2
    assert cached.stats.misses == 2
    assert len(cached) == 1


def test_fifo_eviction():
    inner = CountingModel()
    cached = CachingLLM(inner, max_entries=2)
    cached.generate("a")
    cached.generate("b")
    cached.generate("c")  # evicts "a"
    assert len(cached) == 2
    cached.generate("a")  # must re-generate
    assert inner.calls == 4


def test_name_and_inner():
    inner = CountingModel()
    cached = CachingLLM(inner)
    assert "counting-stub" in cached.name
    assert cached.inner is inner


def test_stats_empty():
    cached = CachingLLM(CountingModel())
    assert cached.stats.calls == 0
    assert cached.stats.hit_rate == 0.0


def test_invalid_max_entries_rejected():
    """Regression: max_entries=0 used to crash the first eviction with
    StopIteration (next(iter({})) on an empty cache) instead of failing
    fast at construction."""
    with pytest.raises(ConfigError):
        CachingLLM(CountingModel(), max_entries=0)
    with pytest.raises(ConfigError):
        CachingLLM(CountingModel(), max_entries=-3)


def test_eviction_survives_clear_between_inserts():
    """An externally emptied cache must not break the eviction path."""
    inner = CountingModel()
    cached = CachingLLM(inner, max_entries=1)
    cached.generate("a")
    cached.clear()
    cached.generate("b")  # cache is empty but at the size boundary
    assert len(cached) == 1
    cached.generate("c")  # normal eviction of "b"
    assert len(cached) == 1


def test_generate_batch_partitions_hits_and_misses():
    inner = CountingModel()
    cached = CachingLLM(inner)
    cached.generate("a")
    results = cached.generate_batch(["a", "b", "c", "b"])
    assert [r.prompt for r in results] == ["a", "b", "c", "b"]
    # only the two distinct misses reached the model
    assert inner.calls == 3  # "a" earlier + "b", "c" now
    assert cached.stats.batches == 1
    assert cached.stats.batched_prompts == 4
    assert cached.stats.batched_misses == 2
    # "a" hit, "b" miss, "c" miss, duplicate "b" served from cache = hit
    assert cached.stats.hits == 2
    assert cached.stats.misses == 3  # 1 sequential + 2 batched


def test_generate_batch_second_pass_all_hits():
    inner = CountingModel()
    cached = CachingLLM(inner)
    cached.generate_batch(["a", "b"])
    calls = inner.calls
    results = cached.generate_batch(["a", "b"])
    assert inner.calls == calls
    assert [r.prompt for r in results] == ["a", "b"]


def test_generate_batch_bounded_cache_still_aligned():
    """Eviction during a batch larger than the cache must not lose
    results for the batch itself."""
    inner = CountingModel()
    cached = CachingLLM(inner, max_entries=2)
    results = cached.generate_batch(["a", "b", "c", "d", "a"])
    assert [r.prompt for r in results] == ["a", "b", "c", "d", "a"]
    assert len(cached) == 2  # only the two newest entries survive


def test_generate_batch_uses_inner_native_batch():
    class BatchingModel(CountingModel):
        def __init__(self):
            super().__init__()
            self.batch_calls = 0

        def generate_batch(self, prompts):
            self.batch_calls += 1
            self.calls += len(prompts)
            return [
                GenerationResult(answer="from-batch", prompt=p) for p in prompts
            ]

    inner = BatchingModel()
    cached = CachingLLM(inner)
    cached.generate_batch(["x", "y", "z"])
    assert inner.batch_calls == 1


def test_generate_batch_forwards_thread_pool_to_non_batch_backend():
    """The misses go to the ``run`` the caller hands in — here a
    threaded backend's pool over a model without a native batch."""
    import threading

    from repro.exec import ThreadedBackend

    barrier = threading.Barrier(3, timeout=10.0)

    class ThreadTrackingModel(CountingModel):
        def __init__(self):
            super().__init__()
            self.threads = set()

        def generate(self, prompt):
            barrier.wait()  # only passes with 3 calls in flight
            self.threads.add(threading.get_ident())
            return super().generate(prompt)

    inner = ThreadTrackingModel()
    cached = CachingLLM(inner)
    backend = ThreadedBackend(3)
    prompts = [f"prompt-{i}" for i in range(6)]
    results = cached.generate_batch(prompts + prompts[:2], run=backend.run)
    assert [r.prompt for r in results] == prompts + prompts[:2]
    assert inner.calls == 6  # distinct misses only
    assert len(inner.threads) == 3
    assert backend.stats.batches == 1 and backend.stats.prompts == 6


def test_cache_wraps_simulated_llm_transparently():
    builder = PromptBuilder()
    raw = SimulatedLLM()
    cached = CachingLLM(SimulatedLLM())
    prompt = builder.build(
        "Who won the pie contest trophy?",
        ["Sam Baker won the pie contest trophy in 2015."],
    )
    assert cached.generate(prompt).answer == raw.generate(prompt).answer


# -- the persistent second tier -------------------------------------------


def test_disk_tier_write_through_and_promotion(tmp_path):
    from repro.llm import PromptStore

    store = PromptStore(tmp_path)
    inner = CountingModel()
    cached = CachingLLM(inner, store=store)
    result = cached.generate("prompt one")
    assert inner.calls == 1
    assert store.stats.writes == 1  # write-through on the miss

    # A fresh wrapper on the same store: the disk answers, the model
    # is never touched, and the entry is promoted into memory.
    revived = CachingLLM(CountingModel(), store=store)
    warm = revived.generate("prompt one")
    assert warm.answer == result.answer
    assert revived.inner.calls == 0
    assert revived.stats.disk_hits == 1
    assert revived.stats.hits == 1
    assert len(revived) == 1
    # Second lookup is a pure memory hit — no further disk traffic.
    lookups_before = store.stats.lookups
    revived.generate("prompt one")
    assert store.stats.lookups == lookups_before
    assert revived.stats.disk_hits == 1


def test_concurrent_disk_hits_promote_once(tmp_path):
    """Two simultaneous readers of one stored key decode it once.

    The first reader leads the key's flight and parks inside
    ``store.get``; the second arrives meanwhile, follows that flight and
    never reads the disk.  Regression: both readers used to decode
    *and* both promote, double-counting ``disk_hits``.
    """
    import threading
    import time

    from repro.llm import PromptStore

    class ParkingStore(PromptStore):
        def __init__(self, root):
            super().__init__(root)
            self.release = threading.Event()
            self.reads = 0

        def get(self, model_name, prompt, params=None):
            self.reads += 1
            assert self.release.wait(10.0), "test never released the reader"
            return super().get(model_name, prompt, params)

    expected = CachingLLM(CountingModel(), store=PromptStore(tmp_path)).generate("hot prompt")
    store = ParkingStore(tmp_path)
    cold = CachingLLM(CountingModel(), store=store)
    results = [None, None]

    def read(i):
        results[i] = cold.generate("hot prompt")

    def wait_for(predicate):
        deadline = time.monotonic() + 10.0
        while not predicate():
            assert time.monotonic() < deadline, "condition never became true"
            time.sleep(0.002)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    threads[0].start()
    wait_for(lambda: store.reads == 1)  # the leader is inside store.get
    threads[1].start()
    wait_for(lambda: cold.flights.stats.coalesced == 1)  # the second follows
    store.release.set()
    for t in threads:
        t.join(timeout=10.0)
    assert [r.answer for r in results] == [expected.answer, expected.answer]
    assert store.reads == 1
    assert cold.inner.calls == 0
    assert cold.stats.disk_hits == 1  # one promotion, not two
    assert cold.stats.hits == 2  # the follower is charged as a hit
    assert len(cold) == 1


def test_disk_tier_serves_batches(tmp_path):
    from repro.llm import PromptStore

    store = PromptStore(tmp_path)
    first = CachingLLM(CountingModel(), store=store)
    prompts = [f"prompt {i}" for i in range(4)]
    expected = [r.answer for r in first.generate_batch(prompts)]
    assert first.inner.calls == 4

    second = CachingLLM(CountingModel(), store=store)
    answers = [r.answer for r in second.generate_batch(prompts + prompts[:2])]
    assert answers[:4] == expected
    assert second.inner.calls == 0
    assert second.stats.disk_hits == 4  # distinct prompts hit disk once each
    assert second.stats.misses == 0


def test_disk_tier_keys_on_inner_model_name(tmp_path):
    from repro.llm import GenerationResult, PromptStore

    class NamedModel(CountingModel):
        def __init__(self, name):
            super().__init__()
            self._name = name

        @property
        def name(self):
            return self._name

        def generate(self, prompt):
            self.calls += 1
            return GenerationResult(answer=self._name, prompt=prompt)

    store = PromptStore(tmp_path)
    CachingLLM(NamedModel("model-a"), store=store).generate("p")
    other = CachingLLM(NamedModel("model-b"), store=store)
    assert other.generate("p").answer == "model-b"  # no cross-model bleed
    assert other.inner.calls == 1


def test_no_store_keeps_memory_only_behavior():
    cached = CachingLLM(CountingModel())
    cached.generate("p")
    assert cached.store is None
    assert cached.stats.disk_hits == 0


def test_disk_tier_splits_on_cache_params(tmp_path):
    """Models whose `name` hides behavioural knobs must not share
    persistent entries: cache_params is part of the content address."""
    from repro.llm import PromptStore, SimulatedLLM
    from repro.llm.simulated import SimulatedLLMConfig

    store = PromptStore(tmp_path)
    mild = SimulatedLLM(config=SimulatedLLMConfig(recency_decay=0.8))
    sharp = SimulatedLLM(config=SimulatedLLMConfig(recency_decay=0.2))
    assert mild.name == sharp.name  # the name alone cannot tell them apart
    assert mild.cache_params != sharp.cache_params

    prompt = (
        "Answer the question using only the numbered sources.\n\n"
        "Sources:\n1. Roger Federer is widely considered the best player.\n\n"
        "Question: Who is the best tennis player?\n\nAnswer:"
    )
    CachingLLM(mild, store=store).generate(prompt)
    other = CachingLLM(sharp, store=store)
    other.generate(prompt)
    assert other.stats.disk_hits == 0  # no cross-configuration bleed
    assert store.entry_count == 2


def test_scripted_cache_params_track_recorded_answers():
    from repro.llm import ScriptedLLM

    llm = ScriptedLLM(script={("a",): "one"})
    before = llm.cache_params
    llm.record(["a"], "two")
    assert llm.cache_params != before  # stale identity would serve stale answers


@pytest.mark.parametrize("with_store", [False, True], ids=["memory", "store"])
def test_recorded_answer_replaces_one_already_served(tmp_path, with_store):
    """``ScriptedLLM.record`` changes ``cache_params`` without changing
    ``name``; the next call is a new identity and gets the new answer.
    Regression: the memory tier was keyed by the prompt alone and kept
    serving the old answer while a fresh cache over the same store
    served the new one."""
    from repro.llm import PromptStore, ScriptedLLM

    source = "Ann won the final."
    prompt = PromptBuilder().build("Who won the final?", [source])
    llm = ScriptedLLM(script={(source,): "nobody"})
    store = PromptStore(tmp_path) if with_store else None
    cached = CachingLLM(llm, store=store)
    assert cached.generate(prompt).answer == "nobody"
    name = llm.name
    llm.record([source], "Ann")
    assert llm.name == name
    assert cached.generate(prompt).answer == "Ann"
    assert cached.generate_batch([prompt])[0].answer == "Ann"
    assert llm.calls == 2
    assert cached.stats.misses == 2 and cached.stats.hits == 1
    if with_store:
        assert CachingLLM(llm, store=store).generate(prompt).answer == "Ann"
        assert llm.calls == 2  # the disk tier answers under the same identity


def test_transformers_cache_params_include_generation_settings():
    from repro.llm.transformers_adapter import TransformersLLM

    def loader(model_name, device):
        return object(), object()

    short = TransformersLLM(max_new_tokens=8, loader=loader)
    long = TransformersLLM(max_new_tokens=64, loader=loader)
    assert short.cache_params != long.cache_params
