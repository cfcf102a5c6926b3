"""Micro-batch window tests: CoalescingBackend merges cross-request batches."""

from __future__ import annotations

import threading
import time
from typing import List, Sequence

import pytest

from repro.errors import ConfigError, GenerationError
from repro.exec import CoalescingBackend, SerialBackend, ThreadedBackend
from repro.llm.base import GenerationResult

WINDOW_MS = 120.0


class EchoBatchLLM:
    """Native-batch model that records every batch it receives."""

    name = "echo-batch-llm"

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.batches: List[List[str]] = []
        self._lock = threading.Lock()

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        with self._lock:
            self.batches.append(list(prompts))
        if self.fail:
            raise GenerationError("window inner exploded")
        return [
            GenerationResult(answer=f"answer:{p}", prompt=p) for p in prompts
        ]


def _submit_concurrently(backend, model, batches):
    """Run each prompt list through backend.run on its own thread."""
    barrier = threading.Barrier(len(batches))
    results = [None] * len(batches)
    errors = [None] * len(batches)

    def worker(i, prompts):
        barrier.wait()
        try:
            results[i] = backend.run(model, prompts)
        except BaseException as error:  # noqa: BLE001 - recorded for asserts
            errors[i] = error

    threads = [
        threading.Thread(target=worker, args=(i, b)) for i, b in enumerate(batches)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    return results, errors


def test_window_merges_concurrent_submissions_into_one_flush():
    model = EchoBatchLLM()
    backend = CoalescingBackend(SerialBackend(), window_ms=WINDOW_MS)
    results, errors = _submit_concurrently(
        backend, model, [["a"], ["b"], ["c"]]
    )
    assert errors == [None] * 3
    assert len(model.batches) == 1  # one merged native batch
    assert sorted(model.batches[0]) == ["a", "b", "c"]
    assert [r.answer for r in results[0]] == ["answer:a"]
    assert [r.answer for r in results[1]] == ["answer:b"]
    assert [r.answer for r in results[2]] == ["answer:c"]
    stats = backend.window_stats
    assert stats.submissions == 3
    assert stats.windows == 1
    assert stats.merged_windows == 1
    assert stats.max_flush == 3
    assert stats.mean_flush_size == 3.0
    assert backend.inner.stats.batches == 1


def test_window_dedups_overlapping_prompts_and_realigns():
    model = EchoBatchLLM()
    backend = CoalescingBackend(SerialBackend(), window_ms=WINDOW_MS)
    results, errors = _submit_concurrently(
        backend, model, [["x", "y"], ["y", "z"]]
    )
    assert errors == [None, None]
    assert len(model.batches) == 1
    assert len(model.batches[0]) == 3  # y dispatched once
    assert [r.answer for r in results[0]] == ["answer:x", "answer:y"]
    assert [r.answer for r in results[1]] == ["answer:y", "answer:z"]


def test_sequential_submissions_open_separate_windows():
    model = EchoBatchLLM()
    backend = CoalescingBackend(SerialBackend(), window_ms=20.0)
    first = backend.run(model, ["a"])
    second = backend.run(model, ["b"])
    assert [r.answer for r in first] == ["answer:a"]
    assert [r.answer for r in second] == ["answer:b"]
    assert backend.window_stats.windows == 2
    assert backend.window_stats.merged_windows == 0


def test_window_error_propagates_to_every_submission():
    model = EchoBatchLLM(fail=True)
    backend = CoalescingBackend(SerialBackend(), window_ms=WINDOW_MS)
    results, errors = _submit_concurrently(backend, model, [["a"], ["b"]])
    assert results == [None, None]
    assert all(isinstance(e, GenerationError) for e in errors)
    assert errors[0] is errors[1]  # one flush, one failure domain
    # The window registry is clean: the next submission flushes fresh.
    model.fail = False
    assert [r.answer for r in backend.run(model, ["c"])] == ["answer:c"]


def test_empty_submission_short_circuits():
    model = EchoBatchLLM()
    backend = CoalescingBackend(SerialBackend(), window_ms=WINDOW_MS)
    assert backend.run(model, []) == []
    assert model.batches == []
    assert backend.window_stats.submissions == 0


def test_per_prompt_run_skips_the_window():
    class PerPrompt(EchoBatchLLM):
        def generate(self, prompt):
            return GenerationResult(answer=f"single:{prompt}", prompt=prompt)

    model = PerPrompt()
    backend = CoalescingBackend(SerialBackend(), window_ms=WINDOW_MS)
    results = backend.run(model, ["a"], per_prompt=True)
    assert [r.answer for r in results] == ["single:a"]
    assert model.batches == []
    assert backend.window_stats.submissions == 0
    assert backend.inner.stats.batches == 1


def test_window_preserves_inner_capacity_timeout_and_name():
    inner = ThreadedBackend(4, timeout=2.5)
    backend = CoalescingBackend(inner, window_ms=10.0)
    assert backend.capacity == 4
    assert backend.timeout == 2.5
    assert backend.name == "coalesce:10ms+threaded:4"


@pytest.mark.parametrize("bad", [0, -1, -0.5, None])
def test_invalid_window_rejected(bad):
    with pytest.raises(ConfigError):
        CoalescingBackend(SerialBackend(), window_ms=bad)


def test_per_prompt_timeout_still_enforced_through_the_window():
    from fakes import SlowPromptLLM

    from repro.errors import GenerationTimeoutError

    model = SlowPromptLLM(hang_seconds=5.0, offer_async=False)
    backend = CoalescingBackend(SerialBackend(timeout=0.2), window_ms=30.0)
    results, errors = _submit_concurrently(
        backend, model, [["fine"], ["HANG this one"]]
    )
    # The hung prompt fails the merged flush after its sibling completes;
    # both submissions observe the same timeout error (shared failure
    # domain), and it names only the hung prompt.
    assert all(isinstance(e, GenerationTimeoutError) for e in errors)
    assert errors[0].prompts == ("HANG this one",)
