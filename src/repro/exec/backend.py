"""Execution backends: the one place the engine calls a model.

An :class:`ExecutionBackend` takes the prompts the prompt cache could
not answer and calls the model for them — serially, across a thread
pool, or on an asyncio event loop — with an explicit capacity (maximum
in-flight LLM calls) and an optional per-call deadline.
:class:`~repro.core.evaluate.ContextEvaluator` submits every
generation through one: evaluation rounds, ``ask()``'s full
generation and attention relevance alike.  So every explanation
algorithm — evaluation plans, lattice probe rounds, candidate scans,
both counterfactual searches — inherits the chosen strategy without
knowing it exists.

Backends never change *what* is computed: answers are byte-identical
across all of them (the models are deterministic and results realign
with the input order); only wall-clock and resource usage differ.

Choosing a backend
------------------
``serial``
    No added concurrency: the model's native ``generate_batch`` when it
    has one, else one ``generate`` at a time.  The right default for
    compute-bound in-process models (the simulated LLM, a local
    transformer) whose native batch already is the fastest path.
``threaded[:N]``
    The native ``generate_batch`` when there is one (re-slicing the
    same compute across threads cannot beat it, and for padded
    transformer batches would regress), else up to ``N`` (default 8)
    concurrent ``generate`` calls on a thread pool.  Wins only when the
    model releases the GIL or waits on I/O (remote HTTP APIs).
``asyncio[:N]``
    Drives the model on an event loop with at most ``N`` calls in
    flight (:data:`DEFAULT_MAX_INFLIGHT` when omitted): its
    ``agenerate_batch``, else its ``generate_batch`` off-loop, else a
    bounded gather of ``agenerate`` calls, else ``generate`` on ``N``
    threads.  The scalable choice for async remote models — in-flight
    calls cost coroutines, not threads.

:func:`make_backend` parses exactly those specs (CLI ``--backend`` and
:class:`~repro.core.engine.RageConfig.backend` use it).

Deadlines
---------
``timeout`` bounds each model call.  A per-prompt call that expires
fails *that prompt*: its siblings run to completion, then one
:class:`~repro.errors.GenerationTimeoutError` names every expired
prompt.  A native batch is one call, so the bound covers the whole
batch.  A remote model owns its deadline in its transport instead.

Per-prompt runs
---------------
``run(..., per_prompt=True)`` skips the native batch entry points.
:meth:`~repro.core.evaluate.ContextEvaluator.generation` asks for it
because a batch entry point may drop the attention trace
(``TransformersLLM.generate_batch`` does), and ``ask()`` and attention
relevance need that trace.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Coroutine, Dict, Iterator, List, Optional, Sequence

from ..errors import BatchContractError, ConfigError, GenerationTimeoutError
from ..llm.base import GenerationResult, LanguageModel

#: Thread-pool width when ``threaded`` is requested without a count.
DEFAULT_THREAD_WORKERS = 8

#: In-flight bound of ``asyncio`` without a count.  Unbounded fan-out
#: is never the default: a 4000-prompt plan batch against a remote API
#: must not open 4000 simultaneous requests because nobody chose a
#: bound.  Pick one explicitly where it matters, e.g. ``asyncio:1000``.
DEFAULT_MAX_INFLIGHT = 64


def _check_timeout(timeout: Optional[float]) -> Optional[float]:
    if timeout is not None and timeout <= 0:
        raise ConfigError(
            f"timeout must be > 0 seconds (or None for no deadline), got {timeout}"
        )
    return timeout


def run_coroutine(coroutine: Coroutine) -> object:
    """Run a coroutine to completion from synchronous code.

    ``asyncio.run`` refuses to nest inside a running event loop, so when
    one is already running in this thread the coroutine is executed on
    a fresh loop in a short-lived helper thread instead.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    box: Dict[str, object] = {}

    def runner() -> None:
        try:
            box["result"] = asyncio.run(coroutine)
        except BaseException as error:  # propagate to the caller's thread
            box["error"] = error

    thread = threading.Thread(target=runner, name="repro-run-coroutine")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]


def _check_alignment(
    model: LanguageModel, prompts: Sequence[str], results: List[GenerationResult]
) -> List[GenerationResult]:
    if len(results) != len(prompts):
        raise BatchContractError(
            f"{model.name}: batch returned {len(results)} "
            f"results for {len(prompts)} prompts"
        )
    return results


def _run_with_deadline(
    thunk: Callable[[], object], prompts: Sequence[str], timeout: float
):
    """Run a blocking ``thunk`` with a hard deadline.

    Python cannot kill a thread, so the call runs in a *daemon* helper
    joined for ``timeout`` seconds: on expiry the caller gets
    :class:`~repro.errors.GenerationTimeoutError` (naming ``prompts``)
    immediately and the hung call is abandoned — being a daemon, it can
    no longer block anything the caller waits on, including event-loop
    shutdown.  Async models get real cancellation via
    ``asyncio.wait_for`` instead.
    """
    box: Dict[str, object] = {}

    def runner() -> None:
        try:
            box["result"] = thunk()
        except BaseException as error:  # surfaced in the caller's thread
            box["error"] = error

    thread = threading.Thread(target=runner, name="repro-deadline", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise GenerationTimeoutError(prompts, timeout)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]


def _native_batch(
    model: LanguageModel, prompts: Sequence[str], timeout: Optional[float]
) -> List[GenerationResult]:
    """One ``generate_batch`` call under a whole-batch deadline."""

    def call() -> List[GenerationResult]:
        return list(model.generate_batch(prompts))  # type: ignore[attr-defined]

    results = call() if timeout is None else _run_with_deadline(call, prompts, timeout)
    return _check_alignment(model, prompts, results)


def _generate_each(
    model: LanguageModel,
    prompts: Sequence[str],
    workers: int,
    timeout: Optional[float],
) -> List[GenerationResult]:
    """``generate`` per prompt on up to ``workers`` threads.

    The pool is clamped to the batch size, and one prompt (or width 1)
    never builds a pool at all.  Each call gets its own deadline,
    measured from its start: expired prompts are collected while their
    siblings run to completion, then raised as one
    :class:`~repro.errors.GenerationTimeoutError`.
    """

    def call(prompt: str) -> Optional[GenerationResult]:
        if timeout is None:
            return model.generate(prompt)
        try:
            return _run_with_deadline(lambda: model.generate(prompt), [prompt], timeout)
        except GenerationTimeoutError:
            return None

    workers = min(workers, len(prompts))
    if workers <= 1:
        results = [call(prompt) for prompt in prompts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(call, prompts))
    hung = [prompt for prompt, result in zip(prompts, results) if result is None]
    if hung:
        raise GenerationTimeoutError(hung, timeout)
    return results


def _has(model: LanguageModel, entry_point: str) -> bool:
    return callable(getattr(model, entry_point, None))


@dataclass
class BackendStats:
    """Submission counters for one :class:`ExecutionBackend` instance.

    One backend is shared by every consumer of one engine — all
    evaluators, and all request threads of a serving process — so these
    counters describe the engine's whole model traffic.
    ``batches``/``prompts`` count submissions through
    :meth:`ExecutionBackend.run`; ``active`` the batches executing
    right now and ``max_active`` their high-water mark, which exceeds 1
    exactly when concurrent callers (server request handlers) actually
    overlapped on the backend.
    """

    batches: int = 0
    prompts: int = 0
    active: int = 0
    max_active: int = 0


class ExecutionBackend:
    """Strategy for calling one model on one batch of prompts.

    Subclasses implement :meth:`run` and wrap its body in
    :meth:`_track` so the shared :class:`BackendStats` stay truthful
    whoever calls.

    Attributes
    ----------
    name:
        Spec-style identifier (``serial``, ``threaded:8``, ...).
    capacity:
        Maximum concurrent in-flight LLM calls one :meth:`run` makes;
        ``None`` means the :data:`DEFAULT_MAX_INFLIGHT` cap.  A native
        batch counts as one call.
    timeout:
        Optional per-call deadline in seconds (see the module
        docstring); ``None`` waits forever.
    """

    name: str = "abstract"
    capacity: Optional[int] = 1
    timeout: Optional[float] = None

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._stats_lock = threading.Lock()

    @contextmanager
    def _track(self, num_prompts: int) -> Iterator[None]:
        """Account one batch submission for the lifetime of its run."""
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.prompts += num_prompts
            self.stats.active += 1
            self.stats.max_active = max(self.stats.max_active, self.stats.active)
        try:
            yield
        finally:
            with self._stats_lock:
                self.stats.active -= 1

    def run(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        """Call ``model`` on ``prompts``; one result per prompt, in order.

        ``per_prompt=True`` skips the native batch entry points (see
        the module docstring).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


def _run_sync(
    model: LanguageModel,
    prompts: Sequence[str],
    workers: int,
    timeout: Optional[float],
    per_prompt: bool,
) -> List[GenerationResult]:
    """The serial and threaded strategy: native batch, else ``generate``."""
    if not prompts:
        return []
    if not per_prompt and _has(model, "generate_batch"):
        return _native_batch(model, prompts, timeout)
    return _generate_each(model, prompts, workers, timeout)


class SerialBackend(ExecutionBackend):
    """No added concurrency — the library's default.

    The native ``generate_batch`` counts as the one call; otherwise
    prompts run strictly one ``generate`` at a time, so the model never
    sees more than one call in flight.  That makes it the honest
    baseline the E16 benchmark compares against.
    """

    name = "serial"
    capacity = 1

    def __init__(self, timeout: Optional[float] = None) -> None:
        super().__init__()
        self.timeout = _check_timeout(timeout)

    def run(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        with self._track(len(prompts)):
            return _run_sync(model, prompts, 1, self.timeout, per_prompt)


class ThreadedBackend(ExecutionBackend):
    """A thread pool of concurrent ``generate`` calls.

    A native batch entry point still takes precedence; the pool engages
    exactly when the model exposes only per-prompt calls (or the run is
    per-prompt), and is clamped to the batch size so small batches stop
    spawning idle threads.
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_THREAD_WORKERS,
        timeout: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__()
        self.max_workers = max_workers
        self.name = f"threaded:{max_workers}"
        self.capacity = max_workers
        self.timeout = _check_timeout(timeout)

    def run(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        with self._track(len(prompts)):
            return _run_sync(model, prompts, self.max_workers, self.timeout, per_prompt)


class AsyncioBackend(ExecutionBackend):
    """Event-loop execution with at most ``max_inflight`` calls in flight.

    Strategy, first match wins: ``agenerate_batch`` (awaited under the
    deadline), ``generate_batch`` off-loop, a gather of ``agenerate``
    calls behind a semaphore, and for a model exposing only sync
    ``generate`` a thread pool as wide as the bound — so ``asyncio:8``
    never silently degrades to a sequential loop.  ``None`` applies the
    :data:`DEFAULT_MAX_INFLIGHT` cap rather than unbounded fan-out.
    Each :meth:`run` drives a private event loop via
    :func:`run_coroutine`.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1 (or None for the default cap), "
                f"got {max_inflight}"
            )
        super().__init__()
        self.max_inflight = max_inflight
        self.name = "asyncio" if max_inflight is None else f"asyncio:{max_inflight}"
        self.capacity = max_inflight
        self.timeout = _check_timeout(timeout)

    def run(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool = False
    ) -> List[GenerationResult]:
        with self._track(len(prompts)):
            if not prompts:
                return []
            return run_coroutine(self._gather(model, prompts, per_prompt))

    async def _gather(
        self, model: LanguageModel, prompts: Sequence[str], per_prompt: bool
    ) -> List[GenerationResult]:
        timeout = self.timeout
        if not per_prompt and _has(model, "agenerate_batch"):
            try:
                results = await asyncio.wait_for(
                    model.agenerate_batch(prompts), timeout  # type: ignore[attr-defined]
                )
            except asyncio.TimeoutError:
                raise GenerationTimeoutError(prompts, timeout) from None
            return _check_alignment(model, prompts, list(results))
        if not per_prompt and _has(model, "generate_batch"):
            # Not wait_for(to_thread(...)): abandoning a to_thread call
            # leaves its worker blocked in the loop's default executor,
            # and loop shutdown joins those workers — the "timed out"
            # caller would hang on exit anyway.  _native_batch parks the
            # hung call on a disposable daemon thread instead, so the
            # executor worker is released within the deadline.
            return await asyncio.to_thread(_native_batch, model, prompts, timeout)
        if not _has(model, "agenerate"):
            workers = self.max_inflight or DEFAULT_THREAD_WORKERS
            return await asyncio.to_thread(
                _generate_each, model, prompts, workers, timeout
            )
        gate = asyncio.Semaphore(self.max_inflight or DEFAULT_MAX_INFLIGHT)

        async def bounded(prompt: str) -> GenerationResult:
            async with gate:
                call = model.agenerate(prompt)  # type: ignore[attr-defined]
                return await asyncio.wait_for(call, timeout)

        # Siblings always finish: gather with exceptions captured, then
        # fold the expired calls into one error naming the hung prompts.
        outcomes = await asyncio.gather(
            *(bounded(prompt) for prompt in prompts), return_exceptions=True
        )
        hung: List[str] = []
        for prompt, outcome in zip(prompts, outcomes):
            if timeout is not None and isinstance(outcome, asyncio.TimeoutError):
                hung.append(prompt)
            elif isinstance(outcome, BaseException):
                raise outcome
        if hung:
            raise GenerationTimeoutError(hung, timeout)
        return list(outcomes)


def make_backend(
    spec: Optional[str], timeout: Optional[float] = None
) -> ExecutionBackend:
    """Build a backend from a spec string.

    Specs: ``serial``, ``threaded``, ``threaded:N``, ``asyncio``,
    ``asyncio:N``; ``None`` means ``serial``.  ``timeout`` is the
    per-call deadline applied to whichever backend results.
    """
    if spec is None:
        return SerialBackend(timeout=timeout)
    head, sep, tail = spec.strip().partition(":")
    count: Optional[int] = None
    if sep and not tail:
        raise ConfigError(f"invalid backend spec {spec!r}: empty count after ':'")
    if tail:
        try:
            count = int(tail)
        except ValueError:
            raise ConfigError(f"invalid backend spec {spec!r}: {tail!r} is not an int")
    if head == "serial":
        if tail:
            raise ConfigError(f"backend 'serial' takes no count, got {spec!r}")
        return SerialBackend(timeout=timeout)
    if head == "threaded":
        return ThreadedBackend(
            count if count is not None else DEFAULT_THREAD_WORKERS, timeout=timeout
        )
    if head == "asyncio":
        return AsyncioBackend(max_inflight=count, timeout=timeout)
    raise ConfigError(
        f"unknown backend {spec!r} (expected serial, threaded[:N] or asyncio[:N])"
    )
