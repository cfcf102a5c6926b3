"""Prompt-level memoization for perturbation searches.

A counterfactual search may evaluate hundreds of perturbations, and the
insight analyses re-evaluate many of the same combinations; caching on
the exact prompt string makes repeated evaluations free while keeping
the wrapped model a pure prompt -> answer function.

The cache is a lookup/record tier, not a dispatcher.
:meth:`CachingLLM.generate_batch` sorts a batch into hits, flights to
follow and distinct misses to lead, hands *only the misses* to the
``run`` callable it is given — on the engine path, the execution
backend's :meth:`~repro.exec.ExecutionBackend.run`, which owns
concurrency and deadlines — records the results, and reassembles them
in prompt order.  Used standalone (no ``run``), it calls the wrapped
model itself: its native ``generate_batch`` when it has one, else
``generate`` per prompt.  :class:`CacheStats` counts both the
per-prompt hit/miss totals and the batch-level traffic, so benchmarks
can report how much batching actually reached the model.

One map
-------
Every entry lives in one :class:`~repro.llm.coalesce.FlightMap` under
one key: the inner model's name and its optional ``cache_params``
mapping (generation settings and other behavioural knobs the name does
not encode), read once per call, plus the prompt.  The key holds either
a settled result, which is a hit, or the latch of the call computing
it: a concurrent requester of the same key follows that call instead of
paying its own, and is counted as a hit and in
``flights.stats.coalesced``.  A model whose ``cache_params`` change
between calls (:meth:`repro.llm.scripted.ScriptedLLM.record`) is a new
identity, so it never gets an answer recorded under the old one.

Pass a :class:`~repro.llm.store.PromptStore` and it becomes the
write-through disk tier, keyed by the same name, ``cache_params`` and
prompt (:func:`repro.llm.store.store_key` hashes them).  Only a
flight's leader consults it: a disk hit settles the flight and is
counted in ``stats.disk_hits`` as well as ``hits``; a disk miss calls
the model and persists the result.  Any process pointed at the same
directory shares the cache — repeated reports and benchmark reruns
answer warm with zero real calls, while differently-configured models
never serve each other's entries.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import BatchContractError, ConfigError
from .base import GenerationResult, LanguageModel
from .coalesce import FlightMap
from .store import PromptStore

#: ``run(model, prompts) -> results``: how a batch of misses reaches the
#: model (an execution backend's ``run`` on the engine path).
Run = Callable[[LanguageModel, Sequence[str]], List[GenerationResult]]


def _call_each(model: LanguageModel, prompts: Sequence[str]) -> List[GenerationResult]:
    return [model.generate(prompt) for prompt in prompts]


def _call_batch(model: LanguageModel, prompts: Sequence[str]) -> List[GenerationResult]:
    batch = getattr(model, "generate_batch", None)
    return list(batch(prompts)) if callable(batch) else _call_each(model, prompts)


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`CachingLLM` instance.

    ``hits``/``misses`` count individual prompts whichever entry point
    served them; ``disk_hits`` the subset of hits answered by the
    persistent store rather than memory; ``batches`` and
    ``batched_prompts`` additionally track
    :meth:`CachingLLM.generate_batch` traffic, and ``batched_misses``
    the prompts within those batches that actually reached the wrapped
    model (after deduplication).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    batches: int = 0
    batched_prompts: int = 0
    batched_misses: int = 0

    @property
    def calls(self) -> int:
        """Total generate() invocations observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0.0 when unused)."""
        if self.calls == 0:
            return 0.0
        return self.hits / self.calls


class CachingLLM:
    """Memoizing wrapper around any :class:`LanguageModel`.

    The wrapped model must be deterministic (the simulated model is);
    caching a sampling model would freeze one sample per prompt.

    Parameters
    ----------
    model:
        The wrapped model.
    max_entries:
        In-memory entry cap (FIFO eviction); ``None`` = unbounded.
    store:
        Optional persistent disk tier (see the module docstring).

    ``flights`` is the :class:`~repro.llm.coalesce.FlightMap` holding
    every settled entry and every call in flight, with its stats.
    """

    def __init__(
        self,
        model: LanguageModel,
        max_entries: Optional[int] = None,
        store: Optional[PromptStore] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1 (or None for unbounded), got {max_entries}"
            )
        self._model = model
        self.store = store
        self.flights = FlightMap(max_entries)
        self.stats = CacheStats()
        # The serving layer shares one wrapper across request threads,
        # where a bare `+=` loses increments; the counters change only
        # under this lock.
        self._stats_lock = threading.Lock()

    @property
    def name(self) -> str:
        """Wrapped model's name with a cache marker."""
        return f"cached({self._model.name})"

    @property
    def inner(self) -> LanguageModel:
        """The wrapped model."""
        return self._model

    def generate(self, prompt: str) -> GenerationResult:
        """Serve from memory, a flight in progress, or disk; else call
        the wrapped model's ``generate``.

        The same pipeline as :meth:`generate_batch`, minus the batch
        counters in :class:`CacheStats`.
        """
        return self._serve([prompt], _call_each, batch=False)[0]

    def generate_batch(
        self, prompts: Sequence[str], run: Optional[Run] = None
    ) -> List[GenerationResult]:
        """Serve hits from the map; hand distinct misses to ``run``.

        ``run(model, misses)`` calls the wrapped model (the engine
        passes its execution backend's ``run``); without one the cache
        calls the model itself.  Duplicate prompts within the batch
        reach the model once; the repeats are counted as hits, exactly
        as a second sequential call would be.  Misses another request
        is already computing are not handed to ``run`` either — this
        batch follows those flights after settling its own leads
        (leads always settle before any follower waits, so two batches
        following each other's flights can never deadlock).
        """
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batched_prompts += len(prompts)
        return self._serve(prompts, run or _call_batch, batch=True)

    def _serve(
        self, prompts: Sequence[str], run: Run, batch: bool
    ) -> List[GenerationResult]:
        # The identity is read once per call, not per prompt: a model's
        # `cache_params` may change between calls, never within one.
        name = self._model.name
        raw = getattr(self._model, "cache_params", None)
        params = dict(raw) if raw else None
        # Canonical as `store_key` makes it; interned so that every key
        # of one identity shares one string.
        identity = sys.intern(json.dumps([name, params or {}], sort_keys=True, default=str))
        keys = [(identity, prompt) for prompt in prompts]
        served, leads, follows = self.flights.claim(keys)
        found: Dict[Tuple[str, str], GenerationResult] = {}
        try:
            if self.store is not None:
                for key in leads:
                    persisted = self.store.get(name, key[1], params)
                    if persisted is not None:
                        found[key] = persisted
                if found:
                    self.flights.settle(leads, found)
                    served.update(found)
            missed = [key for key in leads if key not in found]
            if missed:
                generated = run(self._model, [prompt for _, prompt in missed])
                if len(generated) != len(missed):
                    raise BatchContractError(
                        f"{name}: {len(generated)} results "
                        f"for {len(missed)} prompts"
                    )
                fresh = dict(zip(missed, generated))
                if self.store is not None:
                    for (_, prompt), result in fresh.items():
                        self.store.put(name, prompt, result, params)
                self.flights.settle(leads, fresh, called=True)
                served.update(fresh)
        except BaseException as error:
            # Every lead must settle, or its followers wait forever.
            self.flights.fail(leads, error)
            raise
        for key, latch in follows.items():
            served[key] = latch.wait()
        with self._stats_lock:
            self.stats.hits += len(prompts) - len(missed)
            self.stats.misses += len(missed)
            self.stats.disk_hits += len(found)
            if batch:
                self.stats.batched_misses += len(missed)
        return [served[key] for key in keys]

    def clear(self) -> None:
        """Drop every settled entry; stats, flights in progress and the
        disk tier are kept."""
        self.flights.drop_settled()

    def __len__(self) -> int:
        return len(self.flights)
