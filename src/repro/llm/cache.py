"""Prompt-level memoization for perturbation searches.

A counterfactual search may evaluate hundreds of perturbations, and the
insight analyses re-evaluate many of the same combinations; caching on
the exact prompt string makes repeated evaluations free while keeping
the wrapped model a pure prompt -> answer function.

The cache is a lookup/record tier, not a dispatcher.
:meth:`CachingLLM.generate_batch` partitions a batch into hits and
distinct misses, hands *only the misses* to the ``run`` callable it is
given — on the engine path, the execution backend's
:meth:`~repro.exec.ExecutionBackend.run`, which owns concurrency and
deadlines — records the results, and reassembles them in prompt order.
Used standalone (no ``run``), it calls the wrapped model itself: its
native ``generate_batch`` when it has one, else ``generate`` per
prompt.  :class:`CacheStats` counts both the per-prompt hit/miss
totals and the batch-level traffic, so benchmarks can report how much
batching actually reached the model.

Two tiers
---------
The in-memory dict is tier one.  Pass a
:class:`~repro.llm.store.PromptStore` and it becomes the write-through
second tier: every generated result is persisted, and a memory miss
consults the disk before paying a real LLM call (a disk hit is promoted
into memory and counted in ``stats.disk_hits`` as well as ``hits``).
The store is keyed by the *inner* model's name, its optional
``cache_params`` mapping (generation settings and other behavioural
knobs the name does not encode — see
:func:`repro.llm.store.store_key`), and the prompt, so any process
pointed at the same directory shares the cache — repeated reports and
benchmark reruns answer warm with zero real calls, while
differently-configured models never serve each other's entries.

Single-flight
-------------
The tiers only deduplicate *completed* work.  With ``single_flight``
(the default) concurrent misses on the same key are also deduplicated:
the first requester leads the real call, every simultaneous requester
follows its flight (see :mod:`repro.llm.coalesce`), and the winner
writes through to memory + disk exactly once.  Followers are counted
as ``hits`` (they paid no real call) and tallied in
``flights.stats.coalesced``.  Disable it (``single_flight=False``) to
restore the historical every-miss-dispatches behavior.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import BatchContractError, ConfigError
from .base import GenerationResult, LanguageModel
from .coalesce import Latch, SingleFlight
from .store import PromptStore, store_key

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
        Optional persistent second tier (see the module docstring).
    single_flight:
        Coalesce concurrent misses on the same key onto one real call
        (default on; see the module docstring).  When enabled,
        ``flights`` holds the :class:`~repro.llm.coalesce.SingleFlight`
        registry and its stats.
    """

    def __init__(
        self,
        model: LanguageModel,
        max_entries: Optional[int] = None,
        store: Optional[PromptStore] = None,
        single_flight: bool = True,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1 (or None for unbounded), got {max_entries}"
            )
        self._model = model
        self._max_entries = max_entries
        self.store = store
        self.flights: Optional[SingleFlight] = SingleFlight() if single_flight else None
        self._cache: Dict[str, GenerationResult] = {}
        self.stats = CacheStats()
        # Counter updates and the eviction-then-insert pair happen
        # under this lock: the serving layer shares one wrapper across
        # request threads, where bare `+=` loses increments and two
        # racing evictions can pick the same victim.  Model calls
        # themselves never run under it.
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
        """Serve from memory, disk, or a flight in progress; else call
        the wrapped model's ``generate``.

        The same pipeline as :meth:`generate_batch`, minus the batch
        counters in :class:`CacheStats`.
        """
        return self._serve([prompt], _call_each, batch=False)[0]

    def generate_batch(
        self, prompts: Sequence[str], run: Optional[Run] = None
    ) -> List[GenerationResult]:
        """Serve hits from the tiers; hand distinct misses to ``run``.

        ``run(model, misses)`` calls the wrapped model (the engine
        passes its execution backend's ``run``); without one the cache
        calls the model itself.  Duplicate prompts within the batch
        reach the model once; the repeats are served from the
        freshly-filled cache and counted as hits, exactly as a second
        sequential call would be.  Under single-flight, misses another
        request is already computing are not handed to ``run`` either —
        this batch awaits those flights after running its own leads
        (leads always run before any follower wait, so two batches
        following each other's flights can never deadlock).
        """
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batched_prompts += len(prompts)
        return self._serve(prompts, run or _call_batch, batch=True)

    # -- the pipeline, shared by both entry points -------------------------

    def _serve(
        self, prompts: Sequence[str], run: Run, batch: bool
    ) -> List[GenerationResult]:
        params = self._store_params()
        resolved, misses, miss_order = self._partition(prompts, params)
        leads, followers, miss_order = self._coalesce_misses(
            resolved, misses, miss_order, params
        )
        if miss_order:
            try:
                generated = run(self._model, miss_order)
                if len(generated) != len(miss_order):
                    raise BatchContractError(
                        f"{self._model.name}: {len(generated)} results "
                        f"for {len(miss_order)} prompts"
                    )
                for prompt, result in zip(miss_order, generated):
                    self._store(prompt, result, params)
                    resolved[prompt] = result
            except BaseException as error:
                # Every led flight must settle, or its followers wait forever.
                self._reject_leads(leads, error)
                raise
            if batch:
                with self._stats_lock:
                    self.stats.batched_misses += len(miss_order)
            self._resolve_leads(leads, resolved)
        for prompt, latch in followers:
            resolved[prompt] = latch.wait()
        return self._assemble(prompts, resolved, misses)

    def _partition(
        self, prompts: Sequence[str], params: Optional[Dict[str, object]]
    ) -> Tuple[Dict[str, GenerationResult], set, List[str]]:
        """Split a batch into resolved hits and ordered distinct misses."""
        # Resolve eagerly: under a bounded cache the miss inserts below
        # may evict entries this very batch still needs.
        resolved: Dict[str, GenerationResult] = {}
        misses: set = set()
        miss_order: List[str] = []
        for prompt in prompts:
            if prompt in resolved or prompt in misses:
                continue
            cached = self._lookup(prompt, params)
            if cached is not None:
                resolved[prompt] = cached
            else:
                misses.add(prompt)
                miss_order.append(prompt)
        return resolved, misses, miss_order

    def _coalesce_misses(
        self,
        resolved: Dict[str, GenerationResult],
        misses: set,
        miss_order: List[str],
        params: Optional[Dict[str, object]],
    ) -> Tuple[
        List[Tuple[str, str, Latch]], List[Tuple[str, Latch]], List[str]
    ]:
        """Split distinct misses into flights this batch leads vs follows.

        Returns ``(leads, followers, still_missing)``: ``leads`` are the
        flights this batch owns and must settle after running
        ``still_missing``; ``followers`` are prompts another request is
        already computing (removed from ``misses`` so they are charged
        as hits — no real call was paid here).  A miss
        whose flight resolved between partition and join is adopted from
        the freshly-filled cache and charged as a hit too.
        """
        if self.flights is None or not miss_order:
            return [], [], miss_order
        leads: List[Tuple[str, str, Latch]] = []
        followers: List[Tuple[str, Latch]] = []
        still_missing: List[str] = []
        for prompt in miss_order:
            key = store_key(self._model.name, prompt, params)
            leader, latch = self.flights.join(key)
            if not leader:
                followers.append((prompt, latch))
                misses.discard(prompt)
                continue
            cached = self._cache.get(prompt)
            if cached is not None:
                self.flights.resolve(key, latch, cached)
                resolved[prompt] = cached
                misses.discard(prompt)
                continue
            leads.append((prompt, key, latch))
            still_missing.append(prompt)
        return leads, followers, still_missing

    def _resolve_leads(
        self,
        leads: List[Tuple[str, str, Latch]],
        resolved: Dict[str, GenerationResult],
    ) -> None:
        for prompt, key, latch in leads:
            self.flights.resolve(key, latch, resolved[prompt])

    def _reject_leads(
        self, leads: List[Tuple[str, str, Latch]], error: BaseException
    ) -> None:
        for _prompt, key, latch in leads:
            self.flights.reject(key, latch, error)

    def _assemble(
        self,
        prompts: Sequence[str],
        resolved: Dict[str, GenerationResult],
        misses: set,
    ) -> List[GenerationResult]:
        charged: set = set()
        results: List[GenerationResult] = []
        new_misses = 0
        new_hits = 0
        for prompt in prompts:
            if prompt in misses and prompt not in charged:
                charged.add(prompt)
                new_misses += 1
            else:
                new_hits += 1
            results.append(resolved[prompt])
        with self._stats_lock:
            self.stats.misses += new_misses
            self.stats.hits += new_hits
        return results

    # -- tiers -------------------------------------------------------------

    def _store_params(self) -> Optional[Dict[str, object]]:
        """The inner model's persistent-cache identity, if it has one.

        Re-read once per entry-point call (not per prompt): a model's
        ``cache_params`` may legitimately change *between* calls (e.g.
        :meth:`repro.llm.scripted.ScriptedLLM.record` grows the
        script) and a stale identity would serve stale answers, but
        within one batch it is frozen.
        """
        if self.store is None:
            return None
        raw = getattr(self._model, "cache_params", None)
        return dict(raw) if raw else None

    def _lookup(
        self, prompt: str, params: Optional[Dict[str, object]]
    ) -> Optional[GenerationResult]:
        """Memory first, then the persistent tier (promoting its hits)."""
        cached = self._cache.get(prompt)
        if cached is not None:
            return cached
        if self.store is None:
            return None
        persisted = self.store.get(self._model.name, prompt, params)
        if persisted is None:
            return None
        return self._install(prompt, persisted, promotion=True)

    def _store(
        self, prompt: str, result: GenerationResult, params: Optional[Dict[str, object]]
    ) -> None:
        self._install(prompt, result, promotion=False)
        if self.store is not None:
            self.store.put(self._model.name, prompt, result, params)

    def _install(
        self, prompt: str, result: GenerationResult, promotion: bool
    ) -> GenerationResult:
        """Insert into the memory tier under the lock; return the entry.

        ``promotion`` marks a disk hit being lifted into memory: two
        concurrent disk hits on one key both decode, but only the first
        installs and is counted in ``disk_hits`` — the loser adopts the
        winner's entry and is charged as a plain memory hit, so neither
        the counter nor the FIFO order records a promotion twice.
        """
        with self._stats_lock:
            if promotion:
                current = self._cache.get(prompt)
                if current is not None:
                    return current
                self.stats.disk_hits += 1
            if (
                self._max_entries is not None
                and len(self._cache) >= self._max_entries
                and self._cache
            ):
                # FIFO eviction: drop the oldest inserted entry.  The
                # emptiness guard keeps a cleared (or externally
                # drained) cache from raising StopIteration on the next
                # insert; the lock keeps two racing inserts from
                # deleting the same victim.
                oldest = next(iter(self._cache))
                del self._cache[oldest]
            self._cache[prompt] = result
        return result

    def clear(self) -> None:
        """Empty the in-memory tier (stats and the disk tier are kept).

        Runs under the stats lock: a bare ``dict.clear`` racing a
        concurrent insert's eviction could delete the same victim twice
        and raise ``KeyError`` from inside :meth:`_install`.
        """
        with self._stats_lock:
            self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
