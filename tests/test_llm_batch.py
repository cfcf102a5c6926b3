"""Batching contract tests: the sync backends' strategy (native batch,
else a ``generate`` loop or thread pool) and the models' batch entry
points."""

import threading

import pytest

from repro.exec import SerialBackend, ThreadedBackend
from repro.llm import PromptBuilder, ScriptedLLM, SimulatedLLM
from repro.llm.base import GenerationResult

BUILDER = PromptBuilder()


def _prompts(n):
    return [
        BUILDER.build("Who won the race?", [f"Runner {i} won the race in 201{i}."])
        for i in range(n)
    ]


class LoopOnlyModel:
    """A model without generate_batch (forces the fallback paths)."""

    def __init__(self):
        self.calls = 0
        self.threads = set()

    @property
    def name(self):
        return "loop-only"

    def generate(self, prompt):
        self.calls += 1
        self.threads.add(threading.get_ident())
        return GenerationResult(answer=f"len-{len(prompt)}", prompt=prompt)


class MisalignedModel:
    """Violates the alignment guarantee on purpose."""

    name = "misaligned"

    def generate(self, prompt):  # pragma: no cover - never reached
        raise AssertionError

    def generate_batch(self, prompts):
        return []


def test_batched_generate_empty_is_free():
    model = LoopOnlyModel()
    assert SerialBackend().run(model, []) == []
    assert model.calls == 0


def test_batched_generate_sequential_fallback_preserves_order():
    model = LoopOnlyModel()
    prompts = _prompts(4)
    results = SerialBackend().run(model, prompts)
    assert [r.prompt for r in results] == prompts
    assert model.calls == 4


def test_batched_generate_thread_pool_fallback():
    model = LoopOnlyModel()
    prompts = _prompts(6)
    results = ThreadedBackend(3).run(model, prompts)
    assert [r.prompt for r in results] == prompts
    assert model.calls == 6


def test_batched_generate_prefers_native_batch():
    class NativeModel(LoopOnlyModel):
        def __init__(self):
            super().__init__()
            self.batch_calls = 0

        def generate_batch(self, prompts):
            self.batch_calls += 1
            return [
                GenerationResult(answer="batched", prompt=p) for p in prompts
            ]

    model = NativeModel()
    results = ThreadedBackend(4).run(model, _prompts(3))
    assert model.batch_calls == 1
    assert model.calls == 0  # generate never used when a native batch exists
    assert all(r.answer == "batched" for r in results)
    # ...unless the run asks for per-prompt calls.
    ThreadedBackend(4).run(model, _prompts(3), per_prompt=True)
    assert model.batch_calls == 1 and model.calls == 3


def test_batched_generate_rejects_misaligned_backend():
    with pytest.raises(RuntimeError):
        SerialBackend().run(MisalignedModel(), _prompts(2))


def test_simulated_batch_matches_sequential():
    llm = SimulatedLLM()
    prompts = _prompts(5) + [BUILDER.build("Who won the race?", [])]
    sequential = [llm.generate(p) for p in prompts]
    batched = llm.generate_batch(prompts)
    assert [r.answer for r in batched] == [r.answer for r in sequential]
    assert [r.prompt for r in batched] == prompts
    # batch results keep full fidelity: attention + diagnostics present
    assert batched[0].attention is not None
    assert "intent" in batched[0].diagnostics


def test_scripted_batch_matches_sequential_and_counts_calls():
    llm = ScriptedLLM(answer_fn=lambda q, texts: f"{len(texts)} sources")
    prompts = [
        BUILDER.build("q?", [f"text {j}" for j in range(i)]) for i in range(4)
    ]
    batched = llm.generate_batch(prompts)
    assert [r.answer for r in batched] == [f"{i} sources" for i in range(4)]
    assert llm.calls == 4


def test_thread_pool_clamped_to_batch_size(monkeypatch):
    """Small batches must not spawn idle threads: the pool width is
    min(max_workers, len(prompts))."""
    import repro.exec.backend as backend

    captured = []
    real_pool = backend.ThreadPoolExecutor

    class SpyPool(real_pool):
        def __init__(self, max_workers=None, **kwargs):
            captured.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(backend, "ThreadPoolExecutor", SpyPool)
    model = LoopOnlyModel()
    results = ThreadedBackend(8).run(model, _prompts(2))
    assert len(results) == 2
    assert captured == [2]

    captured.clear()
    ThreadedBackend(4).run(LoopOnlyModel(), _prompts(6))
    assert captured == [4]


def test_single_prompt_never_builds_a_pool(monkeypatch):
    import repro.exec.backend as backend

    def explode(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("no pool for a single prompt")

    monkeypatch.setattr(backend, "ThreadPoolExecutor", explode)
    model = LoopOnlyModel()
    results = ThreadedBackend(8).run(model, _prompts(1))
    assert len(results) == 1
