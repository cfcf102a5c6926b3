"""Engine-level dispatch: evaluator -> prompt cache -> backend -> model.

Every generation the engine makes — evaluation rounds, ``ask()``'s full
generation, attention relevance — reaches the model only through the
execution backend, with the prompt cache in front of it or not.  Three
properties are checked on every backend, with the cache on and off:

* the backend's deadline bounds ``ask()`` and attention relevance;
* the model never sees more calls in flight than the backend's
  capacity, whichever entry points it exposes, and the report does not
  depend on the backend or the cache;
* a model whose batch entry point drops the attention trace (as
  ``TransformersLLM.generate_batch`` does) still gets it to ``ask()``
  and attention relevance, while evaluation rounds keep its batch.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time

import pytest

from repro import Rage, RageConfig, RelevanceMethod, SimulatedLLM
from repro.app.server import encode_json, report_payload
from repro.errors import GenerationTimeoutError

BACKENDS = ["serial", "threaded:4", "asyncio:3"]
CAPACITY = {"serial": 1, "threaded:4": 4, "asyncio:3": 3}


class Observed:
    """Simulated answers behind a short wait, with peak in-flight calls.

    A native batch is one call in flight, like any other entry point.
    """

    def __init__(self, knowledge, latency: float = 0.002) -> None:
        self.inner = SimulatedLLM(knowledge=knowledge)
        self.latency = latency
        self.inflight = 0
        self.peak = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.inner.name

    def _enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)

    def _exit(self) -> None:
        with self._lock:
            self.inflight -= 1

    def generate(self, prompt):
        self._enter()
        try:
            time.sleep(self.latency)
            return self.inner.generate(prompt)
        finally:
            self._exit()


class WithAsync(Observed):
    """``generate`` + ``agenerate``, the shape of ``RemoteLLM``."""

    async def agenerate(self, prompt):
        self._enter()
        try:
            await asyncio.sleep(self.latency)
            return self.inner.generate(prompt)
        finally:
            self._exit()


class NativeBatch(Observed):
    """``generate`` + ``generate_batch``, the shape of the local models."""

    def generate_batch(self, prompts):
        self._enter()
        try:
            time.sleep(self.latency)
            return self.inner.generate_batch(prompts)
        finally:
            self._exit()


SHAPES = {"generate-only": Observed, "agenerate": WithAsync, "native-batch": NativeBatch}


def _engine(case, llm, **config):
    return Rage.from_corpus(case.corpus, llm, config=RageConfig(k=case.k, **config))


# -- the deadline ------------------------------------------------------------


class Sleepy:
    """Every ``generate`` outlasts the deadline under test."""

    def __init__(self, knowledge) -> None:
        self.inner = SimulatedLLM(knowledge=knowledge)

    @property
    def name(self) -> str:
        return self.inner.name

    def generate(self, prompt):
        time.sleep(1.5)
        return self.inner.generate(prompt)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_deadline_bounds_ask_and_attention_relevance(big_three, backend, cache):
    rage = _engine(
        big_three,
        Sleepy(big_three.knowledge),
        backend=backend,
        cache=cache,
        request_timeout=0.2,
        relevance_method=RelevanceMethod.ATTENTION,
    )
    context = rage.retrieve(big_three.query)
    for call in (
        lambda: rage.ask(big_three.query, context=context),
        lambda: rage.relevance_scores(context),
    ):
        started = time.monotonic()
        with pytest.raises(GenerationTimeoutError):
            call()
        assert time.monotonic() - started < 0.5


# -- capacity ------------------------------------------------------------------


def test_explain_stays_within_backend_capacity(big_three):
    payloads = {}
    for backend in BACKENDS:
        for cache in (True, False):
            for shape, model_cls in SHAPES.items():
                model = model_cls(big_three.knowledge)
                rage = _engine(big_three, model, backend=backend, cache=cache)
                report = rage.explain(big_three.query)
                payloads[backend, cache, shape] = encode_json(report_payload(report))
                case = f"{backend} cache={cache} {shape}"
                assert 1 <= model.peak <= CAPACITY[backend], case
                if backend != "serial" and shape != "native-batch":
                    assert model.peak > 1, case  # the width is really used
    assert len(set(payloads.values())) == 1


# -- attention -------------------------------------------------------------------


class DropsAttentionInBatch:
    """Traces from ``generate``, none from ``generate_batch``."""

    def __init__(self, knowledge) -> None:
        self.inner = SimulatedLLM(knowledge=knowledge)
        self.batch_calls = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.inner.name

    def generate(self, prompt):
        return self.inner.generate(prompt)

    def generate_batch(self, prompts):
        with self._lock:
            self.batch_calls += 1
        return [
            dataclasses.replace(result, attention=None)
            for result in self.inner.generate_batch(prompts)
        ]


CONFIGS = {
    **{
        f"{b}-{'cache' if c else 'no-cache'}": dict(backend=b, cache=c)
        for b in BACKENDS
        for c in (True, False)
    },
    "window": dict(backend="serial", cache=True, batch_window_ms=5.0),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_attention_survives_a_batch_that_drops_it(big_three, config):
    model = DropsAttentionInBatch(big_three.knowledge)
    asked = _engine(big_three, model, **config).ask(big_three.query)
    assert asked.generation.attention is not None

    explained = _engine(
        big_three, model, relevance_method=RelevanceMethod.ATTENTION, **config
    ).explain(big_three.query)
    assert explained.answer == asked.answer
    assert model.batch_calls > 0  # evaluation rounds kept the native batch
