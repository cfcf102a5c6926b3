"""Single-flight coalescing: thundering herds pay exactly one call.

Covers the :mod:`repro.llm.coalesce` primitives (Latch, SingleFlight)
and their integration into :class:`~repro.llm.cache.CachingLLM`: N
concurrent misses on one key — with or without a disk store, with or
without an execution backend behind the cache — produce exactly one
inner call and identical results for every caller; a failing flight
reaches every waiter and never poisons the registry.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import BatchContractError, GenerationError
from repro.exec import ThreadedBackend
from repro.llm.base import GenerationResult
from repro.llm.cache import CachingLLM
from repro.llm.coalesce import Latch, SingleFlight
from repro.llm.store import PromptStore

HERD = 16


class GatedLLM:
    """Deterministic answers; the first call blocks until released.

    ``entered`` fires when a call reaches the model, so a test can be
    certain the leader is in flight before unleashing the herd's
    followers; ``calls`` counts every prompt that got through.
    """

    name = "gated-llm"

    def __init__(self, gate: threading.Event = None, fail_times: int = 0) -> None:
        self.gate = gate
        self.fail_times = fail_times
        self.entered = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> GenerationResult:
        with self._lock:
            self.calls += 1
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "test gate never released"
        with self._lock:
            if self.fail_times > 0:
                self.fail_times -= 1
                raise GenerationError("inner model exploded")
        return GenerationResult(answer=f"answer:{prompt}", prompt=prompt)


def _await(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.002)


def _run_herd(cached, prompt, n=HERD):
    """Fire n threads at one prompt; return (results, errors)."""
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = [None] * n

    def worker(i):
        barrier.wait()
        try:
            results[i] = cached.generate(prompt)
        except BaseException as error:  # noqa: BLE001 - recorded for asserts
            errors[i] = error

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads, results, errors


# ---------------------------------------------------------------------------
# Thundering herd — threads


def test_thundering_herd_threads_single_inner_call():
    gate = threading.Event()
    inner = GatedLLM(gate=gate)
    cached = CachingLLM(inner)
    threads, results, errors = _run_herd(cached, "same prompt")
    inner.entered.wait(5.0)
    # Every non-leader must have joined the flight before it resolves.
    _await(lambda: cached.flights.stats.coalesced == HERD - 1)
    assert cached.flights.inflight() == 1
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
    assert errors == [None] * HERD
    assert inner.calls == 1
    assert {r.answer for r in results} == {"answer:same prompt"}
    assert cached.flights.stats.flights == 1
    assert cached.flights.inflight() == 0
    assert cached.stats.misses == 1
    assert cached.stats.hits == HERD - 1


def test_thundering_herd_with_disk_store_writes_once(tmp_path):
    gate = threading.Event()
    inner = GatedLLM(gate=gate)
    store = PromptStore(str(tmp_path / "store"))
    cached = CachingLLM(inner, store=store)
    threads, results, errors = _run_herd(cached, "persisted prompt")
    inner.entered.wait(5.0)
    _await(lambda: cached.flights.stats.coalesced == HERD - 1)
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
    assert errors == [None] * HERD
    assert inner.calls == 1
    assert store.stats.writes == 1  # the winner writes through exactly once
    assert {r.answer for r in results} == {"answer:persisted prompt"}
    # A fresh wrapper over the same store answers warm, no real call.
    rewarmed = CachingLLM(GatedLLM(), store=store)
    assert rewarmed.generate("persisted prompt").answer == "answer:persisted prompt"
    assert rewarmed.inner.calls == 0


def test_distinct_prompts_do_not_coalesce():
    inner = GatedLLM()
    cached = CachingLLM(inner)
    barrier = threading.Barrier(2)
    outs = [None, None]

    def worker(i, prompt):
        barrier.wait()
        outs[i] = cached.generate(prompt)

    threads = [
        threading.Thread(target=worker, args=(i, f"prompt-{i}")) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert inner.calls == 2
    assert outs[0].answer == "answer:prompt-0"
    assert outs[1].answer == "answer:prompt-1"


def test_thundering_herd_through_backend_runs_one_call():
    """The engine path: every herd member hands its misses to a
    backend's run, and only the flight's leader reaches it."""
    gate = threading.Event()
    inner = GatedLLM(gate=gate)
    cached = CachingLLM(inner)
    backend = ThreadedBackend(4)
    barrier = threading.Barrier(HERD)
    results = [None] * HERD

    def worker(i):
        barrier.wait()
        results[i] = cached.generate_batch(["same prompt"], run=backend.run)[0]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(HERD)]
    for t in threads:
        t.start()
    inner.entered.wait(5.0)
    _await(lambda: cached.flights.stats.coalesced == HERD - 1)
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
    assert inner.calls == 1
    assert backend.stats.batches == 1
    assert {r.answer for r in results} == {"answer:same prompt"}


# ---------------------------------------------------------------------------
# Failure propagation


def test_failure_reaches_every_waiter_and_next_request_retries():
    gate = threading.Event()
    inner = GatedLLM(gate=gate, fail_times=1)
    cached = CachingLLM(inner)
    threads, results, errors = _run_herd(cached, "flaky prompt")
    inner.entered.wait(5.0)
    _await(lambda: cached.flights.stats.coalesced == HERD - 1)
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
    assert results == [None] * HERD
    assert all(isinstance(e, GenerationError) for e in errors)
    assert inner.calls == 1  # the herd shared the one doomed flight
    assert cached.flights.stats.failures == 1
    assert cached.flights.inflight() == 0
    # The registry entry died with the flight: a retry dispatches fresh.
    retried = cached.generate("flaky prompt")
    assert retried.answer == "answer:flaky prompt"
    assert inner.calls == 2


# ---------------------------------------------------------------------------
# Batch entry points


def test_batch_follows_anothers_flight_and_dispatches_only_its_own():
    gate = threading.Event()
    inner = GatedLLM(gate=gate)
    cached = CachingLLM(inner)
    leader_out = []
    leader = threading.Thread(
        target=lambda: leader_out.append(cached.generate("shared"))
    )
    leader.start()
    inner.entered.wait(5.0)

    batch_out = []
    follower = threading.Thread(
        target=lambda: batch_out.append(cached.generate_batch(["shared", "solo"]))
    )
    follower.start()
    # The batch must dispatch its own miss and then block on the flight.
    _await(lambda: cached.flights.stats.coalesced == 1)
    _await(lambda: inner.calls == 2)  # "shared" (leader) + "solo" (batch)
    assert not batch_out  # still waiting on the shared flight
    gate.set()
    leader.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert [r.answer for r in batch_out[0]] == ["answer:shared", "answer:solo"]
    assert inner.calls == 2
    # The coalesced prompt is charged as a hit: no real call was paid.
    assert cached.stats.hits >= 1


def test_batch_failure_rejects_all_led_flights():
    inner = GatedLLM(fail_times=1)
    cached = CachingLLM(inner)
    with pytest.raises(GenerationError):
        cached.generate_batch(["a", "b"])
    assert cached.flights.inflight() == 0
    # Both keys retry cleanly afterwards.
    results = cached.generate_batch(["a", "b"])
    assert [r.answer for r in results] == ["answer:a", "answer:b"]


def test_misaligned_batch_rejects_its_flights():
    class ShortBatch(GatedLLM):
        def generate_batch(self, prompts):
            return [self.generate(p) for p in prompts[1:]]

    cached = CachingLLM(ShortBatch())
    with pytest.raises(BatchContractError):
        cached.generate_batch(["a", "b"])
    assert cached.flights.inflight() == 0  # no follower is left waiting
    assert cached.flights.stats.failures == 2


# ---------------------------------------------------------------------------
# Latch / SingleFlight primitives


def test_latch_settles_exactly_once():
    latch = Latch()
    latch.resolve("first")
    latch.reject(RuntimeError("late"))  # ignored: already settled
    assert latch.wait() == "first"
    assert latch.settled


def test_latch_reject_raises_for_every_waiter():
    latch = Latch()
    error = RuntimeError("boom")
    latch.reject(error)
    for _ in range(3):
        with pytest.raises(RuntimeError):
            latch.wait()


def test_single_flight_join_leader_then_followers():
    flights = SingleFlight()
    leader, latch = flights.join("k")
    assert leader
    for _ in range(3):
        again, same = flights.join("k")
        assert not again
        assert same is latch
    assert flights.inflight() == 1
    flights.resolve("k", latch, "value")
    assert flights.inflight() == 0
    assert flights.stats.flights == 1
    assert flights.stats.coalesced == 3
    assert latch.wait() == "value"


def test_single_flight_reject_clears_key_for_retry():
    flights = SingleFlight()
    _, latch = flights.join("k")
    flights.reject("k", latch, RuntimeError("boom"))
    assert flights.inflight() == 0
    leader, fresh = flights.join("k")
    assert leader and fresh is not latch
    assert flights.stats.failures == 1
