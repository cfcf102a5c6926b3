"""Outside-in span recorder for the RAGE benchmark.

The traced run times every layer from *outside*: :class:`Instrumentation`
swaps each layer's public entry points (``Rage.explain``,
``EvaluationPlan.execute``, ``ExecutionBackend.run``,
``CachingLLM.generate_batch``, ``PromptStore.get``, ...) for wrappers
that record a span around the original call, and puts the originals
back on :meth:`Instrumentation.uninstall`.  Nothing under ``src/``
knows it is being traced.

A span is ``(id, parent, request, name, start, end, attrs)``.  The
parent is whatever span was open in the caller's context, carried by a
:class:`contextvars.ContextVar`; thread-pool submissions copy the
submitting context so model calls fanned out by the threaded backend
still nest under the cache span that dispatched them.  Spans live in
memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may overlap when they ran on
pool threads, so the covered part is the union of their intervals).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One recorded span: (id, parent id, request id, name, start, end, attrs).
Span = Tuple[int, Optional[int], Optional[int], str, float, float, Dict[str, Any]]

#: ``probe(args, kwargs)`` -> ``finisher(result)`` -> span attributes.
Probe = Callable[
    [Tuple[Any, ...], Dict[str, Any]], Callable[[Any], Dict[str, Any]]
]


class SpanRecorder:
    """Thread-safe in-memory span sink with context-propagated parents."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "ragebench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "ragebench_request", default=None
        )
        self._muted: contextvars.ContextVar = contextvars.ContextVar(
            "ragebench_muted", default=False
        )

    @contextmanager
    def muted(self) -> Iterator[None]:
        """Record nothing in this context (untimed reference work)."""
        token = self._muted.set(True)
        try:
            yield
        finally:
            self._muted.reset(token)

    @contextmanager
    def request(self) -> Iterator[int]:
        """Open one benchmark request; spans beneath it share its id."""
        rid = next(self._ids)
        token = self._request.set(rid)
        try:
            yield rid
        finally:
            self._request.reset(token)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        probe: Optional[Probe] = None,
        root: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` recorded around every call.

        ``probe(args, kwargs)`` runs just before the call and returns a
        finisher; ``finisher(result)`` runs just after it and returns
        numbers to attach to the span.  ``root`` starts a fresh request
        id when none is open (server handler threads, which no
        benchmark request context reaches).  Coroutine functions get a
        coroutine wrapper whose span covers the awaited call.
        """

        def begin(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[Any, ...]:
            sid = next(self._ids)
            parent = self._current.get()
            span_token = self._current.set(sid)
            request_token = None
            if root and self._request.get() is None:
                request_token = self._request.set(sid)
            finish = probe(args, kwargs) if probe is not None else None
            return (sid, parent, self._request.get(), span_token, request_token, finish,
                    time.perf_counter())

        def end(state: Tuple[Any, ...], result: Any) -> None:
            sid, parent, rid, span_token, request_token, finish, start = state
            stop = time.perf_counter()
            self._current.reset(span_token)
            if request_token is not None:
                self._request.reset(request_token)
            extra = finish(result) if finish is not None else {}
            self.add((sid, parent, rid, name, start, stop, extra))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if self._muted.get():
                    return await fn(*args, **kwargs)
                state, result = begin(args, kwargs), None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(state, result)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._muted.get():
                return fn(*args, **kwargs)
            state, result = begin(args, kwargs), None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(state, result)

        return traced

    def add(self, span: Span) -> None:
        """Record one finished span."""
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        """Every span recorded so far, in completion order."""
        with self._lock:
            return list(self._spans)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "request", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, _, _, start, end, _ in spans
    }


def max_overlap(intervals: Sequence[Tuple[float, float]]) -> int:
    """Highest number of intervals open at one instant."""
    events = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    open_now = peak = 0
    for _, step in events:
        open_now += step
        peak = max(peak, open_now)
    return peak


class Instrumentation:
    """Installs span wrappers around each layer's public entry points.

    Layers, in the README architecture order: ``app`` (``RageServer``
    handlers), ``retrieval`` (searchers and ``SqliteIndex`` writes),
    ``core`` (``Rage.explain``, ``EvaluationPlan.execute``, the insight
    analyses, the counterfactual searches, ``evaluate_many``), ``exec``
    (``ExecutionBackend.run``), ``llm.cache`` (``CachingLLM``),
    ``llm.store`` (``PromptStore.get``/``put``), ``llm.model`` (the
    model object behind the cache, wrapped per instance through
    :meth:`model`) and ``attention`` (``AttentionModel.trace``).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        probe: Optional[Probe] = None,
        root: bool = False,
    ) -> None:
        self._replace(
            owner, attr, lambda fn: self.recorder.wrap(name, fn, probe=probe, root=root)
        )

    def install(self) -> "Instrumentation":
        """Wrap every layer entry point (idempotence is the caller's job)."""
        from repro.app import server
        from repro.attention import model as attention
        from repro.core import engine, evaluate, plan
        from repro.exec import backend, coalesce
        from repro.llm import cache, store
        from repro.retrieval import searcher, sqlindex

        self._patch(server.RageServer, "handle_ask", "app.ask", root=True)
        self._patch(server.RageServer, "handle_explain", "app.explain", root=True)
        self._patch(searcher.Searcher, "search", "retrieval.search")
        self._patch(sqlindex.SqliteSearcher, "search", "retrieval.search")
        self._patch(sqlindex.SqliteIndex, "add", "retrieval.write")
        self._patch(sqlindex.SqliteIndex, "update", "retrieval.write")
        self._patch(engine.Rage, "explain", "core.explain")
        self._patch(plan.EvaluationPlan, "execute", "core.plan")
        for fn in (
            "analyze_combinations",
            "analyze_permutations",
            "compute_order_stability",
            "optimal_permutations",
        ):
            self._patch(engine, fn, "core.analysis")
        for fn in ("search_combination_counterfactual", "search_permutation_counterfactual"):
            self._patch(engine, fn, "core.search")
        self._patch(
            evaluate.ContextEvaluator, "evaluate_many", "core.evaluate_many",
            probe=_evaluate_many_probe,
        )
        for cls in (
            backend.SerialBackend,
            backend.ThreadedBackend,
            backend.AsyncioBackend,
            coalesce.CoalescingBackend,
        ):
            self._patch(cls, "run", "exec.run")
        self._patch(cache.CachingLLM, "generate", "llm.cache")
        self._patch(cache.CachingLLM, "generate_batch", "llm.cache")
        self._patch(store.PromptStore, "get", "llm.store.get", probe=_store_get_probe)
        self._patch(store.PromptStore, "put", "llm.store.put")
        self._patch(attention.AttentionModel, "trace", "attention.trace")
        # Not a layer: pool submissions carry the caller's context (and
        # so its open span) into the worker thread.
        self._replace(ThreadPoolExecutor, "submit", _context_submit)
        return self

    def uninstall(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def model(self, llm: Any) -> Any:
        """Wrap one model instance's entry points as ``llm.model`` spans.

        When ``llm`` wraps another model (``.inner``, as the latency
        and counting shims do), the innermost model's entry points are
        wrapped too, as ``llm.model.compute``: the model's time outside
        those spans is time spent waiting, not computing.  Only entry
        points the instance already has are wrapped, so the dispatch
        layer (which probes for batch and async entry points) sees the
        same model shape traced and untraced.
        """
        self._wrap_model(llm, "llm.model")
        inner = llm
        while getattr(inner, "inner", None) is not None:
            inner = inner.inner
        if inner is not llm:
            self._wrap_model(inner, "llm.model.compute")
        return llm

    def _wrap_model(self, llm: Any, name: str) -> None:
        for attr in ("generate", "agenerate", "generate_batch", "agenerate_batch"):
            bound = getattr(llm, attr, None)
            if bound is not None:
                count = _one if attr.endswith("generate") else _many
                setattr(llm, attr, self.recorder.wrap(name, bound, probe=count))


def _one(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Callable[[Any], Dict[str, Any]]:
    return lambda result: {"prompts": 1}


def _many(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Callable[[Any], Dict[str, Any]]:
    return lambda result: {"prompts": len(args[0])}


def _evaluate_many_probe(
    args: Tuple[Any, ...], kwargs: Dict[str, Any]
) -> Callable[[Any], Dict[str, Any]]:
    # The evaluator counts one LLM invocation per distinct memo miss.
    evaluator, orderings = args[0], args[1]
    calls_before = evaluator.llm_calls
    return lambda result: {
        "orderings": len(orderings),
        "misses": evaluator.llm_calls - calls_before,
    }


def _store_get_probe(
    args: Tuple[Any, ...], kwargs: Dict[str, Any]
) -> Callable[[Any], Dict[str, Any]]:
    def finish(result: Any) -> Dict[str, Any]:
        if result is None:
            return {"hit": 0, "bytes": 0}
        store, model_name, prompt = args[:3]
        params = args[3] if len(args) > 3 else kwargs.get("params")
        try:
            size = store.path_for(model_name, prompt, params).stat().st_size
        except OSError as error:  # evicted between the read and the stat
            return {"hit": 1, "bytes": 0, "stat_error": type(error).__name__}
        return {"hit": 1, "bytes": size}

    return finish


def _context_submit(submit: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(submit)
    def carrying(self: Any, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return carrying
