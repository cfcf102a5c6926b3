"""One map for settled results and calls in flight.

At fleet scale many tenants explore the same corpus concurrently and
issue *identical* perturbation prompts.  A cache that only records
completed work lets every requester that arrives between a miss and its
result pay for its own real model call: the classic thundering herd.
:class:`FlightMap` closes that gap by keeping both states in one map
under one lock: a key holds either its settled result, which is a hit,
or the :class:`Latch` of the call computing it, which later requesters
follow.  An absent key is led: the first requester installs a latch
and owns the computation, and one call serves everyone who asks for
the key meanwhile.

Settlement
----------
A flight settles exactly once, with either a result or an error.

* Success swaps the latch for the result under the map's lock, then
  wakes the followers.  A requester arriving before the swap follows
  the latch; one arriving after it finds the result.  There is no
  window in which a second call can start.
* Failure drops the key, then rejects every follower with the error.
  Nothing is cached, so the map is never poisoned: the next requester
  of the key leads a fresh call.

Followers wait with :meth:`Latch.wait`, which blocks their thread on an
event until the leader settles the flight.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Tuple


@dataclass
class FlightStats:
    """Counters for one :class:`FlightMap`.

    ``flights`` counts the flights whose leader called the model (real
    dispatches); ``coalesced`` the followers that joined a flight
    instead of leading one (the dedup hits: each one is a real call
    that did not happen); ``failures`` the flights that settled with an
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


class FlightMap:
    """Each key maps to its settled result or to the latch of its flight.

    :meth:`claim` sorts keys into hits, leads and follows.  The caller
    must settle every lead with exactly one of :meth:`settle` or
    :meth:`fail`, or its followers wait forever.  Results are never
    ``None``.

    ``max_entries`` caps the settled entries (FIFO by settle order;
    ``None`` = unbounded).  Flights in progress are not counted and
    never evicted.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.stats = FlightStats()
        self._max_entries = max_entries
        # Shared by every request thread of a serving process: entries,
        # the settled count and the counters change only under this
        # lock; latches settle outside it.
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, Any] = {}
        self._settled = 0

    def __len__(self) -> int:
        """Settled entries (flights in progress are not counted)."""
        return self._settled

    def inflight(self) -> int:
        """Number of keys currently being computed."""
        with self._lock:
            return len(self._entries) - self._settled

    def claim(
        self, keys: Iterable[Hashable]
    ) -> Tuple[Dict[Hashable, Any], Dict[Hashable, Latch], Dict[Hashable, Latch]]:
        """Return ``(hits, leads, follows)`` over the distinct ``keys``.

        ``hits`` maps settled keys to their results.  ``leads`` maps
        each absent key to the latch now installed for it: the caller
        computes those.  ``follows`` maps keys another caller is
        computing to that caller's latch.
        """
        distinct = dict.fromkeys(keys)
        hits: Dict[Hashable, Any] = {}
        leads: Dict[Hashable, Latch] = {}
        follows: Dict[Hashable, Latch] = {}
        with self._lock:
            for key in distinct:
                entry = self._entries.get(key)
                if entry is None:
                    leads[key] = self._entries[key] = Latch()
                elif type(entry) is Latch:
                    follows[key] = entry
                else:
                    hits[key] = entry
            self.stats.coalesced += len(follows)
        return hits, leads, follows

    def settle(
        self,
        leads: Mapping[Hashable, Latch],
        results: Mapping[Hashable, Any],
        called: bool = False,
    ) -> None:
        """Swap each lead's latch for its result, then wake its followers.

        ``called`` marks results the model computed: each counts as a
        flight.  Results read from elsewhere (the disk tier) do not.
        """
        with self._lock:
            for key, result in results.items():
                # Re-inserted, not overwritten: FIFO order is settle order.
                del self._entries[key]
                if self._settled == self._max_entries:
                    oldest = next(
                        k for k, v in self._entries.items() if type(v) is not Latch
                    )
                    del self._entries[oldest]
                else:
                    self._settled += 1
                self._entries[key] = result
            if called:
                self.stats.flights += len(results)
        for key, result in results.items():
            leads[key].resolve(result)

    def fail(self, leads: Mapping[Hashable, Latch], error: BaseException) -> None:
        """Drop every lead still in flight, then reject its followers.

        Leads already settled keep their results; the next claim of a
        dropped key leads a fresh flight.
        """
        with self._lock:
            for key, latch in leads.items():
                if self._entries.get(key) is latch:
                    del self._entries[key]
                    self.stats.flights += 1
                    self.stats.failures += 1
        for latch in leads.values():
            latch.reject(error)

    def drop_settled(self) -> None:
        """Drop every settled entry; flights in progress keep their latches."""
        with self._lock:
            self._entries = {
                key: entry for key, entry in self._entries.items() if type(entry) is Latch
            }
            self._settled = 0
