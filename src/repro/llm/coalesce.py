"""Single-flight coalescing for concurrent identical prompts.

At fleet scale many tenants explore the same corpus concurrently and
issue *identical* perturbation prompts.  The two cache tiers only help
once a result has landed: between a miss and its write-through, every
other requester of the same prompt also misses and pays for its own
real model call — the classic thundering herd.  :class:`SingleFlight`
closes that gap with a per-key in-flight registry: the first requester
of a key becomes the **leader** and dispatches the real call; every
concurrent requester of the same key becomes a **follower** and simply
awaits the leader's flight.  One call serves them all.

Keys are the same content hashes the persistent store uses
(:func:`repro.llm.store.store_key` over model name, prompt, and
``cache_params``), so two prompts coalesce exactly when the disk tier
would consider them the same entry — differently-configured models
never serve each other's flights.

Failure semantics
-----------------
A flight settles exactly once, with either a result or an error.  The
leader removes the registry entry *before* settling, so

* an error propagates to every waiter of that flight, but the registry
  is never poisoned: the next requester of the key finds no entry and
  starts a fresh flight (retries are possible immediately);
* a successful leader writes through to the cache tiers before
  resolving, so a requester arriving after the registry entry is gone
  is guaranteed to find the cache entry instead — between cache and
  registry there is no window in which a second real call can start.

Followers wait with :meth:`Latch.wait`, which blocks their thread on an
event until the leader settles the flight.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass
class SingleFlightStats:
    """Counters for one :class:`SingleFlight` registry.

    ``flights`` counts leaders (real dispatches initiated);
    ``coalesced`` the followers that joined an existing flight instead
    of dispatching (the dedup hits — each one is a real model call that
    did not happen); ``failures`` the flights that settled with an
    error (each failure reached all of its followers).
    """

    flights: int = 0
    coalesced: int = 0
    failures: int = 0


class Latch:
    """A settle-once result box that threads wait on.

    ``resolve``/``reject`` may be called from any thread, exactly once
    between them; later calls are ignored (the first settlement wins,
    which keeps a belated double-settle from clobbering delivered
    results).
    """

    __slots__ = ("_lock", "_event", "_result", "_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None

    @property
    def settled(self) -> bool:
        """Whether a result or error has been delivered."""
        return self._event.is_set()

    def resolve(self, result: Any) -> None:
        """Deliver ``result`` to every current and future waiter."""
        self._settle(result, None)

    def reject(self, error: BaseException) -> None:
        """Deliver ``error`` to every current and future waiter."""
        self._settle(None, error)

    def _settle(self, result: Any, error: BaseException | None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._result = result
            self._error = error
            self._event.set()

    def wait(self) -> Any:
        """Block until settled; return the result or raise the error."""
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._result


class SingleFlight:
    """Per-key registry of in-flight computations.

    :meth:`join` either installs a fresh :class:`Latch` for ``key`` and
    declares the caller leader, or hands back the existing latch to
    follow.  The leader must eventually call exactly one of
    :meth:`resolve` / :meth:`reject`, both of which drop the registry
    entry before settling the latch (see the module docstring for why
    that ordering is the heart of the exactly-once guarantee).
    """

    def __init__(self) -> None:
        self.stats = SingleFlightStats()
        # The registry is shared mutable state across every request
        # thread of a serving process; all entries and counters are
        # touched only under this lock (the lock-discipline checker
        # enforces it).  Latch settlement happens outside.
        self._lock = threading.Lock()
        self._flights: Dict[str, Latch] = {}

    def inflight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._flights)

    def join(self, key: str) -> Tuple[bool, Latch]:
        """Return ``(leader, latch)`` for ``key``.

        The leader owns the real call and must settle the latch;
        followers just :meth:`Latch.wait`.
        """
        with self._lock:
            latch = self._flights.get(key)
            if latch is not None:
                self.stats.coalesced += 1
                return False, latch
            latch = Latch()
            self._flights[key] = latch
            self.stats.flights += 1
            return True, latch

    def resolve(self, key: str, latch: Latch, result: Any) -> None:
        """Retire the flight and deliver ``result`` to its followers.

        The caller must have written the result through to the cache
        tiers first; dropping the registry entry is what re-opens the
        key, and the cache is the only thing that keeps a requester
        arriving in that instant from dispatching a duplicate call.
        """
        self._forget(key, latch)
        latch.resolve(result)

    def reject(self, key: str, latch: Latch, error: BaseException) -> None:
        """Retire the flight and deliver ``error`` to its followers.

        Nothing was cached, so the next requester of the key starts a
        fresh flight — a failed computation never poisons the registry.
        """
        with self._lock:
            if self._flights.get(key) is latch:
                del self._flights[key]
            self.stats.failures += 1
        latch.reject(error)

    def _forget(self, key: str, latch: Latch) -> None:
        with self._lock:
            if self._flights.get(key) is latch:
                del self._flights[key]
