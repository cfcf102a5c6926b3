"""Multi-provider routing: fallback chains, circuit breakers, hedging.

A single :class:`~repro.llm.remote.RemoteLLM` endpoint is a single
point of failure for every tenant behind ``rage serve``.
:class:`RouterLLM` removes it: an ordered pool of
:class:`~repro.llm.base.LanguageModel` members (remote endpoints, a
local simulated fallback, anything implementing the contract) answers
as *one* model, failing over member by member when transport faults
strike.  Because every member must answer identically (same knowledge,
different backends), a degraded provider changes only who served a
report — never its bytes.

Per-provider state lives in a :class:`ProviderHealth` record:

:class:`CircuitBreaker`
    Closed → open after ``threshold`` *consecutive*
    :class:`~repro.errors.TransportError` /
    :class:`~repro.errors.GenerationTimeoutError` faults; open →
    half-open after ``cooldown`` seconds; one probe request (claimed
    exclusively via :meth:`CircuitBreaker.try_claim`) decides re-close
    vs re-open.  While a breaker is open, selection skips the member
    without paying a doomed request.
rolling latency / error-rate scoring
    A bounded deque of recent success latencies (drives the hedging
    default — observed p95) plus lifetime call/failure counters.
usage/cost attribution
    Each member keeps its own usage counters; the router's
    :meth:`RouterLLM.provider_stats` / :meth:`RouterLLM.usage_lines`
    surface per-provider cost so ``/metrics`` and ``report --stats``
    can attribute spend to the backend that actually served.

Hedging (``hedge=True``, ``agenerate`` only, so only the ``asyncio``
backend hedges): once the primary has been in flight longer than
``hedge_delay`` (default: the primary's observed p95 latency), a
backup request fires on the next healthy provider; first response wins
and the loser is cancelled — the cancellation propagates through
:meth:`~repro.llm.transport.TokenBucket.aacquire`'s cancellation-safe
refund path, so an abandoned hedge never bleeds a member's rate limit.
Hedges share the backend's capacity: a backup's socket wait takes a
slot in the loop's thread pool, which is as wide as the in-flight
bound, so it waits for a free slot like any other call.

Deliberately *no* ``generate_batch``: like the remote adapter, the
router answers one prompt per call so the execution backend's capacity
governs fan-out — and failover/hedging decisions stay per-prompt,
never all-or-nothing for a whole batch.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    ConfigError,
    GenerationTimeoutError,
    NoProviderAvailableError,
    TransportError,
)
from .base import GenerationResult, LanguageModel

#: Consecutive-failure count that trips a breaker when the caller
#: picks none.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker waits before allowing a half-open probe.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Rolling window of success latencies kept per provider (p95 source).
LATENCY_WINDOW = 128

#: The faults that fail over to the next provider and count against a
#: breaker.  Anything else (config errors, malformed-prompt bugs) says
#: nothing about provider health and propagates unchanged.
FAILOVER_ERRORS = (TransportError, GenerationTimeoutError)


class BreakerState(Enum):
    """Circuit-breaker lifecycle states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    Closed is the healthy state; ``threshold`` consecutive recorded
    failures trip it open.  After ``cooldown`` seconds the breaker
    turns half-open: exactly one caller may :meth:`try_claim` the
    probe request, and that request's outcome decides — success
    re-closes (and resets the failure count), failure re-opens for a
    fresh cooldown.  ``clock`` is injectable so tests drive the
    cooldown deterministically.

    Thread-safe: routing happens from handler threads and event-loop
    tasks alike.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ConfigError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        if cooldown < 0:
            raise ConfigError(
                f"breaker cooldown must be >= 0 seconds, got {cooldown}"
            )
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0  # transitions to OPEN (initial and re-open)
        self.reclosures = 0  # half-open probes that re-closed

    def _refresh(self) -> None:
        """Open → half-open once the cooldown elapsed (under lock)."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = BreakerState.HALF_OPEN

    @property
    def state(self) -> BreakerState:
        """Current state (cooldown-aware: open turns half-open lazily)."""
        with self._lock:
            self._refresh()
            return self._state

    @property
    def available(self) -> bool:
        """Whether a request may be routed here right now."""
        with self._lock:
            self._refresh()
            if self._state is BreakerState.CLOSED:
                return True
            return self._state is BreakerState.HALF_OPEN and not self._probing

    @property
    def consecutive_failures(self) -> int:
        """Current consecutive-failure count (resets on success)."""
        with self._lock:
            return self._consecutive

    def try_claim(self) -> bool:
        """Claim the right to send one request.

        Closed: always granted.  Half-open: granted to exactly one
        caller (the probe) until its outcome is recorded.  Open: never.
        Every granted claim MUST be resolved by :meth:`record_success`,
        :meth:`record_failure` or :meth:`abort` — the probe slot is
        exclusive and an unresolved claim would wedge the breaker
        half-open forever.
        """
        with self._lock:
            self._refresh()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """A routed request succeeded; a probe success re-closes."""
        with self._lock:
            if self._probing:
                self._probing = False
                self._state = BreakerState.CLOSED
                self._consecutive = 0
                self.reclosures += 1
            elif self._state is BreakerState.CLOSED:
                self._consecutive = 0
            # Success while OPEN is a pre-trip straggler landing late;
            # only the probe may re-close.

    def record_failure(self) -> None:
        """A routed request failed; threshold/probe semantics apply."""
        with self._lock:
            if self._probing:
                self._probing = False
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self.trips += 1
                return
            if self._state is BreakerState.CLOSED:
                self._consecutive += 1
                if self._consecutive >= self.threshold:
                    self._state = BreakerState.OPEN
                    self._opened_at = self._clock()
                    self.trips += 1
            # Failure while OPEN: already open, nothing to decide.

    def abort(self) -> None:
        """Release a claim without deciding it.

        For requests that ended in something that says nothing about
        provider health — a cancelled hedge loser, a programming
        error propagating out.  A closed breaker is untouched; a
        claimed probe slot is handed back so the next caller may probe.
        """
        with self._lock:
            self._probing = False


class ProviderHealth:
    """Per-provider routing state: breaker, latency window, counters.

    ``calls``/``successes``/``failures`` count requests the router
    actually routed to this member (breaker-skipped requests touch
    nothing).  ``hedges_fired``/``hedges_won`` attribute hedging to the
    member that served as the backup.
    """

    def __init__(
        self,
        name: str,
        breaker: CircuitBreaker,
        window: int = LATENCY_WINDOW,
    ) -> None:
        self.name = name
        self.breaker = breaker
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=window)
        self.calls = 0
        self.successes = 0
        self.failures = 0
        self.hedges_fired = 0
        self.hedges_won = 0

    def record_success(self, latency: float) -> None:
        """Fold one served request into the breaker and the window."""
        self.breaker.record_success()
        with self._lock:
            self.calls += 1
            self.successes += 1
            self._latencies.append(latency)

    def record_failure(self) -> None:
        """Fold one failed request into the breaker and the counters."""
        self.breaker.record_failure()
        with self._lock:
            self.calls += 1
            self.failures += 1

    def note_hedge_fired(self) -> None:
        with self._lock:
            self.hedges_fired += 1

    def note_hedge_won(self) -> None:
        with self._lock:
            self.hedges_won += 1

    def p95_latency(self) -> Optional[float]:
        """p95 of the rolling success-latency window; ``None`` when empty."""
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return None
        return samples[int(0.95 * (len(samples) - 1))]

    def error_rate(self) -> float:
        """Failures over routed calls (0.0 before any traffic)."""
        with self._lock:
            return self.failures / self.calls if self.calls else 0.0


@dataclass
class RouterStats:
    """Router-level counters (provider attribution lives in health)."""

    requests: int = 0  # generate/agenerate entries
    failovers: int = 0  # requests served after at least one member failed
    hedges_fired: int = 0
    hedges_won: int = 0
    exhausted: int = 0  # requests no provider could serve


class _BreakerOpen(Exception):
    """Internal: a member was skipped because its breaker refused."""

    def __init__(self, name: str, state: str) -> None:
        self.name = name
        self.detail = f"circuit {state}"
        super().__init__(f"{name}: {self.detail}")


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


class RouterLLM:
    """An ordered provider pool as one :class:`LanguageModel`.

    Parameters
    ----------
    providers:
        Members in priority order; the first healthy one serves.  All
        members must answer identically for the router's byte-identity
        guarantee to hold (same knowledge behind different backends).
        Each member's name keys its health state and attribution; two
        members sharing a name (one model behind two endpoints) are
        keyed ``name@base_url`` instead, and members that stay
        indistinguishable are rejected.
    breaker_threshold / breaker_cooldown:
        Per-provider :class:`CircuitBreaker` parameters.
    hedge:
        Enable hedged requests on the async path: a backup request
        fires on the next healthy provider once the primary has been
        in flight longer than the hedge delay; first response wins,
        the loser is cancelled (rate-limit reservation refunded).
    hedge_delay:
        Seconds before the backup fires; ``None`` uses the primary's
        observed p95 latency (no hedge until a window exists).
    clock:
        Injectable monotonic clock shared by the breakers and the
        latency measurements (deterministic tests).
    """

    def __init__(
        self,
        providers: Sequence[LanguageModel],
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        hedge: bool = False,
        hedge_delay: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        members = list(providers)
        if not members:
            raise ConfigError("a router needs at least one provider")
        names = [member.name for member in members]
        labels = [
            f"{name}@{getattr(member, 'base_url', None)}"
            if names.count(name) > 1
            else name
            for name, member in zip(names, members)
        ]
        if len(set(labels)) != len(labels):
            raise ConfigError(
                f"duplicate provider names in router pool: {names!r}"
            )
        if hedge_delay is not None and hedge_delay <= 0:
            raise ConfigError(
                f"hedge_delay must be > 0 seconds (or None), got {hedge_delay}"
            )
        self._members = members
        self._clock = clock
        self.hedge = hedge
        self.hedge_delay = hedge_delay
        self.health: Dict[str, ProviderHealth] = {
            label: ProviderHealth(
                label,
                CircuitBreaker(
                    threshold=breaker_threshold,
                    cooldown=breaker_cooldown,
                    clock=clock,
                ),
            )
            for label in labels
        }
        self.stats = RouterStats()
        self._lock = threading.Lock()

    # -- identity ----------------------------------------------------------

    @property
    def members(self) -> Tuple[LanguageModel, ...]:
        """The pool, in priority order."""
        return tuple(self._members)

    @property
    def name(self) -> str:
        """Identifier for reports and cache keys."""
        return "router(" + "+".join(m.name for m in self._members) + ")"

    @property
    def cache_params(self) -> Dict[str, object]:
        """Merged member identities: the pool answers as ONE model.

        Deliberately the union of every member's identity — never the
        serving member's: a degraded run answered by the fallback must
        hit exactly the store entries a healthy-primary run wrote, or
        warm-cache byte-identity would silently depend on which
        backend happened to be up.
        """
        return {
            "providers": [
                {
                    "name": member.name,
                    "params": dict(getattr(member, "cache_params", None) or {}),
                }
                for member in self._members
            ]
        }

    def _pool(self) -> List[Tuple[LanguageModel, ProviderHealth]]:
        return list(zip(self._members, self.health.values()))

    # -- sync failover -----------------------------------------------------

    def generate(self, prompt: str) -> GenerationResult:
        """Walk healthy providers in priority order until one answers.

        A member whose breaker refuses is skipped without a request; a
        member that raises a :data:`FAILOVER_ERRORS` fault is recorded
        against its breaker and the walk continues.  An exhausted walk
        raises :class:`~repro.errors.NoProviderAvailableError` naming
        every member's reason.
        """
        with self._lock:
            self.stats.requests += 1
        failures: Dict[str, str] = {}
        for member, health in self._pool():
            if not health.breaker.try_claim():
                failures[health.name] = f"circuit {health.breaker.state.value}"
                continue
            start = self._clock()
            try:
                result = member.generate(prompt)
            except FAILOVER_ERRORS as error:
                health.record_failure()
                failures[health.name] = _describe(error)
                continue
            except BaseException:
                # Not a health signal (programming error, cancellation):
                # hand back any claimed probe slot and propagate.
                health.breaker.abort()
                raise
            health.record_success(self._clock() - start)
            if failures:
                with self._lock:
                    self.stats.failovers += 1
            return result
        with self._lock:
            self.stats.exhausted += 1
        raise NoProviderAvailableError(failures)

    # -- async failover and hedging ----------------------------------------

    async def agenerate(self, prompt: str) -> GenerationResult:
        """Async :meth:`generate`; with ``hedge=True``, hedged."""
        with self._lock:
            self.stats.requests += 1
        if self.hedge:
            return await self._agenerate_hedged(prompt)
        return await self._afailover(prompt, {})

    async def _attempt(
        self, member: LanguageModel, health: ProviderHealth, prompt: str
    ) -> GenerationResult:
        """One claimed, recorded request against one member."""
        if not health.breaker.try_claim():
            raise _BreakerOpen(health.name, health.breaker.state.value)
        start = self._clock()
        try:
            agen = getattr(member, "agenerate", None)
            if callable(agen):
                result = await agen(prompt)
            else:
                result = await asyncio.to_thread(member.generate, prompt)
        except FAILOVER_ERRORS:
            health.record_failure()
            raise
        except BaseException:
            # Cancellation (a hedge loser) or a non-transport fault:
            # says nothing about health; release any probe claim.
            health.breaker.abort()
            raise
        health.record_success(self._clock() - start)
        return result

    async def _afailover(
        self, prompt: str, failures: Dict[str, str]
    ) -> GenerationResult:
        """Sequential async walk, skipping members already in ``failures``."""
        for member, health in self._pool():
            if health.name in failures:
                continue
            try:
                result = await self._attempt(member, health, prompt)
            except _BreakerOpen as skip:
                failures[skip.name] = skip.detail
                continue
            except FAILOVER_ERRORS as error:
                failures[health.name] = _describe(error)
                continue
            if failures:
                with self._lock:
                    self.stats.failovers += 1
            return result
        with self._lock:
            self.stats.exhausted += 1
        raise NoProviderAvailableError(failures)

    async def _agenerate_hedged(self, prompt: str) -> GenerationResult:
        """Primary with a delayed backup race; first response wins.

        Falls back to the plain failover walk when there is no second
        healthy provider to hedge onto, or no delay to hedge with
        (neither configured nor an observed p95 yet).
        """
        available = [
            (member, health)
            for member, health in self._pool()
            if health.breaker.available
        ]
        if len(available) < 2:
            return await self._afailover(prompt, {})
        p_member, p_health = available[0]
        b_member, b_health = available[1]
        delay = (
            self.hedge_delay
            if self.hedge_delay is not None
            else p_health.p95_latency()
        )
        if delay is None:
            return await self._afailover(prompt, {})

        failures: Dict[str, str] = {}
        primary_task = asyncio.ensure_future(
            self._attempt(p_member, p_health, prompt)
        )
        owners: Dict[asyncio.Future, ProviderHealth] = {primary_task: p_health}
        try:
            done, _ = await asyncio.wait({primary_task}, timeout=delay)
            if primary_task in done:
                try:
                    return primary_task.result()
                except _BreakerOpen as skip:
                    failures[skip.name] = skip.detail
                except FAILOVER_ERRORS as error:
                    failures[p_health.name] = _describe(error)
                return await self._afailover(prompt, failures)

            # Primary exceeded the hedge delay: fire the backup.
            backup_task = asyncio.ensure_future(
                self._attempt(b_member, b_health, prompt)
            )
            owners[backup_task] = b_health
            b_health.note_hedge_fired()
            with self._lock:
                self.stats.hedges_fired += 1

            pending: set = set(owners)
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    try:
                        result = task.result()
                    except _BreakerOpen as skip:
                        failures[skip.name] = skip.detail
                        continue
                    except FAILOVER_ERRORS as error:
                        failures[owners[task].name] = _describe(error)
                        continue
                    # First success wins; cancel the loser and wait out
                    # its cancellation so the token-bucket refund has
                    # landed before this call returns.
                    for loser in pending:
                        loser.cancel()
                    if pending:
                        await asyncio.wait(pending)
                    if task is backup_task:
                        b_health.note_hedge_won()
                        with self._lock:
                            self.stats.hedges_won += 1
                    if failures:
                        with self._lock:
                            self.stats.failovers += 1
                    return result
            # Both racers failed; walk whatever remains of the pool.
            return await self._afailover(prompt, failures)
        except asyncio.CancelledError:
            # The caller timed out / was cancelled: take the in-flight
            # attempts down with us (their refunds ride the same path).
            for task in owners:
                task.cancel()
            await asyncio.gather(*owners, return_exceptions=True)
            raise

    # -- accounting --------------------------------------------------------

    def provider_stats(self) -> List[Dict[str, object]]:
        """Ordered per-provider routing state (the ``/metrics`` block)."""
        entries: List[Dict[str, object]] = []
        for member, health in self._pool():
            breaker = health.breaker
            cost: Optional[float] = None
            usage_cost = getattr(member, "usage_cost", None)
            if callable(usage_cost):
                cost = usage_cost()
            entries.append(
                {
                    "name": health.name,
                    "state": breaker.state.value,
                    "available": breaker.available,
                    "consecutive_failures": breaker.consecutive_failures,
                    "trips": breaker.trips,
                    "reclosures": breaker.reclosures,
                    "calls": health.calls,
                    "failures": health.failures,
                    "error_rate": health.error_rate(),
                    "p95_latency": health.p95_latency(),
                    "hedges_fired": health.hedges_fired,
                    "hedges_won": health.hedges_won,
                    "cost": cost,
                }
            )
        return entries

    def usage_cost(self) -> Optional[float]:
        """Summed member costs; ``None`` when no member prices usage."""
        costs: List[float] = []
        for member in self._members:
            usage_cost = getattr(member, "usage_cost", None)
            if callable(usage_cost):
                cost = usage_cost()
                if cost is not None:
                    costs.append(cost)
        return sum(costs) if costs else None

    def usage_lines(self) -> List[str]:
        """Human-readable routing summary (``report --stats``)."""
        stats = self.stats
        lines = [
            f"Router: {len(self._members)} providers, "
            f"{stats.requests} requests, {stats.failovers} failovers, "
            f"{stats.hedges_fired} hedges fired ({stats.hedges_won} won)"
        ]
        for entry in self.provider_stats():
            line = (
                f"  {entry['name']}: {entry['state']}, "
                f"{entry['calls']} calls, {entry['failures']} failures, "
                f"{entry['trips']} trips"
            )
            if entry["cost"] is not None:
                line += f", ${entry['cost']:.6f}"
            lines.append(line)
        total = self.usage_cost()
        if total is not None:
            lines.append(f"Estimated cost (all providers): ${total:.6f}")
        return lines
