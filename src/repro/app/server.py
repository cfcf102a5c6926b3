"""Multi-tenant HTTP serving layer: ask/explain as a web service.

The paper demos RAGE as an interactive web service — users pose a
question, read the answer, then request explanations against the cached
context.  :class:`RageServer` is that service over the library's own
stack, stdlib-only:

* **One engine, N sessions** — every tenant gets its own
  :class:`~repro.app.session.RageSession` (its posed question, context
  and answer are per-tenant state) over one shared
  :class:`~repro.core.engine.Rage`, so all tenants share one prompt
  cache, one :class:`~repro.llm.store.PromptStore` and one
  :class:`~repro.exec.ExecutionBackend` — a question any tenant already
  paid for answers warm for every other tenant.
* **Per-tenant admission** — each tenant owns a
  :class:`~repro.llm.transport.TokenBucket`; a request whose slot is
  not immediately available is answered ``429`` with a ``Retry-After``
  header (the same delta-seconds contract the client-side transport
  honors) and its reservation is *refunded* so rejected traffic never
  consumes capacity.
* **Threaded service** — ``http.server.ThreadingHTTPServer`` handles
  each request on its own thread; sessions serialize their own state
  (atomic :meth:`~repro.app.session.RageSession.pose`), the cache and
  store tolerate concurrent readers/writers, and the shared backend
  tracks how often request threads actually overlap.  The listen
  backlog is the host's ``SOMAXCONN``, not the stdlib's 5, so a burst
  of connecting clients queues instead of being reset or stalled.

Endpoints (all JSON)
--------------------
``POST /ask``
    ``{"tenant": t, "query": q?, "k": n?}`` — retrieve + answer (poses
    the session); ``query`` defaults to the server's canonical question
    and ``k`` overrides the retrieval depth for this request.  The body
    carries the ranked per-source retrieval scores alongside the
    answer, so clients see why each source made the context.
``POST /explain``
    ``{"tenant": t, "sample_size": n?}`` — the full explanation report
    for the tenant's posed question, byte-identical to what the
    in-process engine produces (see :func:`report_payload`).
``GET /metrics``
    Usage/traffic counters: per-tenant admission, retrieval-index
    statistics (backend, mode, collection counts; for the persistent
    SQLite index also its incremental-indexing counters and on-disk
    size), prompt-cache and disk-store stats, execution-backend stats,
    and — for remote models
    — :class:`~repro.llm.remote.RemoteLLM` usage plus
    :class:`~repro.llm.transport.TransportStats`; behind a
    :class:`~repro.llm.router.RouterLLM`, per-provider breaker state,
    trips, hedges and attributed cost.
``GET /healthz``
    Readiness, not just liveness: ``ok`` (200) all providers healthy,
    ``degraded`` (200 + detail) some provider's breaker open,
    ``unhealthy`` (503) no provider available, ``draining`` (503)
    shutdown in progress.

Shutdown is a *graceful drain*: :meth:`RageServer.close` (and the CLI's
SIGTERM/Ctrl-C path) first stops admitting new POSTs — they answer
``503`` with ``Retry-After`` — then waits up to ``drain_window``
seconds for in-flight handlers to finish before stopping the listener
and persisting store counters.

Every payload encoder is a module-level function on purpose: tests and
clients can render the *same* JSON from an in-process session and
assert the server's bytes equal it exactly.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.context import Context
from ..core.counterfactual import CombinationSearchResult
from ..core.engine import Rage, RageConfig, RageReport
from ..core.insights import CombinationInsights, PermutationInsights
from ..core.permutation_cf import PermutationSearchResult
from ..datasets.base import UseCase, load_use_case
from ..errors import ConfigError, ValidationError
from ..exec.coalesce import CoalescingBackend
from ..llm.base import LanguageModel
from ..llm.cache import CachingLLM
from ..llm.remote import RemoteLLM
from ..llm.router import RouterLLM
from ..llm.simulated import SimulatedLLM
from ..llm.transport import TokenBucket
from .session import RageSession

#: Admission burst when a rate is configured without one.
DEFAULT_ADMIT_BURST = 4

#: Journal retention: the most recent requests kept for observability.
#: Lifetime totals live in counters, so bounding the journal loses
#: detail, never accounting — and a long-running server stays O(1).
DEFAULT_JOURNAL_LIMIT = 10_000

#: How long /metrics may serve a cached store (entries, bytes) before
#: re-walking the disk.  Scrapers poll /metrics; a full readdir+stat
#: sweep per scrape would compete with live request handling.
STORE_USAGE_TTL = 15.0

#: How long :meth:`RageServer.close` waits for in-flight handlers to
#: finish once admission has stopped.  Bounded: a hung handler must not
#: wedge shutdown forever.
DEFAULT_DRAIN_WINDOW = 5.0


# -- payload encoders ------------------------------------------------------
#
# Canonical JSON for every response body: sorted keys, compact
# separators, UTF-8.  The encoders are pure functions over engine
# objects so "server response == in-process result" is a *bytes*
# comparison, not a fuzzy one.


def encode_json(payload: Mapping[str, object]) -> bytes:
    """The server's canonical JSON bytes for a payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def retrieval_payload(context: Context) -> List[Dict]:
    """Per-source retrieval scores, in rank order.

    Rides inside the ``/ask`` and ``/explain`` bodies so clients see
    *why* each source made the context ``Dq`` — the ranked scores the
    retrieval layer (BM25, dense cosine, or their fusion) assigned.
    """
    return [
        {
            "doc_id": source.document.doc_id,
            "rank": rank,
            "score": source.retrieval_score,
        }
        for rank, source in enumerate(context.sources, start=1)
    ]


def ask_payload(tenant: str, query: str, context: Context, answer: str) -> Dict:
    """The ``POST /ask`` response body."""
    return {
        "tenant": tenant,
        "query": query,
        "context": list(context.doc_ids()),
        "retrieval": retrieval_payload(context),
        "answer": answer,
    }


def _combination_insights_payload(insights: CombinationInsights) -> Dict:
    return {
        "total": insights.total,
        "num_evaluations": insights.num_evaluations,
        "pie": [
            {"answer": s.answer, "count": s.count, "fraction": s.fraction}
            for s in insights.pie()
        ],
        "rules": [
            {
                "answer": rule.answer,
                "required_sources": list(rule.required_sources),
                "excluded_sources": list(rule.excluded_sources),
            }
            for rule in insights.rules
        ],
    }


def _permutation_insights_payload(insights: PermutationInsights) -> Dict:
    return {
        "total": insights.total,
        "num_evaluations": insights.num_evaluations,
        "pie": [
            {"answer": s.answer, "count": s.count, "fraction": s.fraction}
            for s in insights.pie()
        ],
        "rules": [
            {
                "answer": rule.answer,
                "fixed_positions": [
                    {"position": position, "doc_id": doc_id}
                    for position, doc_id in rule.fixed_positions
                ],
            }
            for rule in insights.rules
        ],
    }


def _combination_cf_payload(result: CombinationSearchResult) -> Dict:
    payload: Dict[str, object] = {
        "direction": result.direction.value,
        "baseline_answer": result.baseline_answer,
        "target_answer": result.target_answer,
        "num_evaluations": result.num_evaluations,
        "budget_exhausted": result.budget_exhausted,
        "found": result.found,
        "counterfactual": None,
    }
    if result.counterfactual is not None:
        cf = result.counterfactual
        payload["counterfactual"] = {
            "changed_sources": list(cf.changed_sources),
            "new_answer": cf.new_answer,
            "size": cf.size,
            "estimated_relevance": cf.estimated_relevance,
        }
    return payload


def _permutation_cf_payload(result: Optional[PermutationSearchResult]) -> Optional[Dict]:
    if result is None:
        return None
    payload: Dict[str, object] = {
        "baseline_answer": result.baseline_answer,
        "target_answer": result.target_answer,
        "num_evaluations": result.num_evaluations,
        "budget_exhausted": result.budget_exhausted,
        "found": result.found,
        "counterfactual": None,
    }
    if result.counterfactual is not None:
        cf = result.counterfactual
        payload["counterfactual"] = {
            "order": list(cf.perturbation.order),
            "tau": cf.tau,
            "moved_sources": list(cf.moved_sources),
            "new_answer": cf.new_answer,
        }
    return payload


def report_payload(report: RageReport) -> Dict:
    """JSON form of a :class:`~repro.core.engine.RageReport`.

    This is the ``POST /explain`` body *and* the reference encoding
    tests compare against: an in-process ``session.report()`` run
    through this function must produce byte-identical JSON to the
    served response.
    """
    return {
        "query": report.query,
        "answer": report.answer,
        "context": list(report.context.doc_ids()),
        "retrieval": retrieval_payload(report.context),
        "combination_insights": _combination_insights_payload(
            report.combination_insights
        ),
        "permutation_insights": (
            _permutation_insights_payload(report.permutation_insights)
            if report.permutation_insights is not None
            else None
        ),
        "top_down": _combination_cf_payload(report.top_down),
        "bottom_up": _combination_cf_payload(report.bottom_up),
        "permutation_counterfactual": _permutation_cf_payload(
            report.permutation_counterfactual
        ),
        "optimal": [
            {"rank": opt.rank, "order": list(opt.order), "score": opt.score}
            for opt in report.optimal
        ],
        "stability": (
            {
                "stable_fraction": report.stability.stable_fraction,
                "flip_tau": report.stability.flip_tau,
                "num_permutations": report.stability.num_permutations,
            }
            if report.stability is not None
            else None
        ),
        "llm_calls": report.llm_calls,
        "plan": (
            {
                "requested": report.plan_stats.requested,
                "dispatched": report.plan_stats.dispatched,
                "implied": report.plan_stats.implied,
                "pruned": report.plan_stats.pruned,
            }
            if report.plan_stats is not None
            else None
        ),
        "implied": report.implied,
        "pruned": report.pruned,
    }


# -- the server ------------------------------------------------------------


@dataclass
class Tenant:
    """One tenant's session, admission bucket and counters."""

    name: str
    session: RageSession
    bucket: Optional[TokenBucket]
    admitted: int = 0
    rejected: int = 0


@dataclass
class ServedRequest:
    """One journal line: what was asked and how it was answered."""

    method: str
    path: str
    tenant: Optional[str]
    status: int
    time: float  # monotonic


class _Handler(BaseHTTPRequestHandler):
    # Quiet: serving tests must not spray access logs into pytest output.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def _server(self) -> "RageServer":
        return self.server.rage_server  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        srv = self._server
        try:
            if self.path == "/healthz":
                payload = srv.health_payload()
                # Readiness contract: ok/degraded still serve traffic
                # (200); unhealthy/draining tell load balancers to back
                # off (503).  GETs stay readable during a drain so
                # operators can watch it finish.
                status = 200 if payload["status"] in ("ok", "degraded") else 503
                self._respond(status, payload, tenant=None)
            elif self.path == "/metrics":
                self._respond(200, srv.metrics_payload(), tenant=None)
            else:
                self._respond(
                    404, {"error": f"unknown path {self.path}"}, tenant=None
                )
        except Exception as error:  # noqa: BLE001 - same contract as POST:
            # a failing metrics render is a 500 body, not a dead socket.
            self._respond(
                500,
                {"error": f"{type(error).__name__}: {error}"},
                tenant=None,
            )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        srv = self._server
        if self.path not in ("/ask", "/explain"):
            self._respond(
                404, {"error": f"unknown path {self.path}"}, tenant=None
            )
            return
        if not srv.begin_request():
            # Draining: admission is closed.  Retry-After advertises the
            # drain window — by then either the server is gone or (drain
            # aborted) admitting again.
            self._respond(
                503,
                {"error": "server is draining", "retry_after": srv.drain_window},
                tenant=None,
                retry_after=srv.drain_window,
            )
            return
        try:
            self._do_post(srv)
        finally:
            srv.end_request()

    def _do_post(self, srv: "RageServer") -> None:
        try:
            body = self._read_json()
        except ValueError as error:
            self._respond(400, {"error": str(error)}, tenant=None)
            return
        raw_tenant = body.get("tenant")
        if not isinstance(raw_tenant, str) or not raw_tenant:
            self._respond(
                400, {"error": "body must name a tenant"}, tenant=None
            )
            return
        tenant = srv.tenant(raw_tenant)
        if tenant is None:
            self._respond(
                404, {"error": f"unknown tenant {raw_tenant!r}"}, tenant=raw_tenant
            )
            return
        admitted, wait = srv.admit(tenant)
        # The journal stamp is the admission decision's, not the
        # response's: the window-bound checks measure what the bucket
        # admitted, and an expensive /explain must not let admissions
        # spread over several windows look bunched into one.
        stamp = time.monotonic()
        if not admitted:
            self._respond(
                429,
                {"error": "rate limited", "tenant": tenant.name, "retry_after": wait},
                tenant=tenant.name,
                retry_after=wait,
                stamp=stamp,
            )
            return
        try:
            if self.path == "/ask":
                payload = srv.handle_ask(tenant, body)
            else:
                payload = srv.handle_explain(tenant, body)
        except (ConfigError, ValueError) as error:
            self._respond(
                400, {"error": str(error)}, tenant=tenant.name, stamp=stamp
            )
        except Exception as error:  # noqa: BLE001 - a crashing model must
            # become a 500 JSON body (and a journal entry), never a
            # dropped socket and a handler-thread traceback.
            self._respond(
                500,
                {"error": f"{type(error).__name__}: {error}"},
                tenant=tenant.name,
                stamp=stamp,
            )
        else:
            self._respond(200, payload, tenant=tenant.name, stamp=stamp)

    # -- plumbing ----------------------------------------------------------

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ValidationError("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        return payload

    def _respond(
        self,
        status: int,
        payload: Mapping[str, object],
        tenant: Optional[str],
        retry_after: Optional[float] = None,
        stamp: Optional[float] = None,
    ) -> None:
        data = encode_json(payload)
        # Journal before the bytes hit the wire: once a client has read
        # its response, the journal provably contains the entry (tests
        # and operators race the handler thread otherwise).  ``stamp``
        # carries the admission-decision time for tenant-facing POSTs;
        # GETs and routing errors stamp at response time.
        self._server._journal_append(
            ServedRequest(
                method=self.command,
                path=self.path,
                tenant=tenant,
                status=status,
                time=stamp if stamp is not None else time.monotonic(),
            )
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if retry_after is not None:
                # Delta-seconds, ceiled: a client sleeping the advertised
                # integer is guaranteed a free slot (RFC 7231 allows no
                # fractional delta).
                self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            # Client gave up mid-response (broken pipe, connection
            # reset); the journal entry already landed, and a dead
            # socket must not traceback out of the handler thread.
            pass


class _Listener(ThreadingHTTPServer):
    """One thread per request, behind a listen backlog a burst fits in.

    The backlog is a class attribute because the base class listens
    inside its constructor.
    """

    daemon_threads = True
    request_queue_size = socket.SOMAXCONN


class RageServer:
    """The multi-tenant ask/explain HTTP service (see module docstring).

    Use as a context manager::

        with RageServer.for_use_case("big_three", tenants=["a", "b"]) as srv:
            requests.post(srv.base_url + "/ask", json={"tenant": "a"})

    Parameters
    ----------
    rage:
        The shared engine (one prompt cache, store and backend for all
        tenants).
    tenants:
        Tenant names; each gets a private :class:`RageSession` and —
        with ``admit_rate`` set — a private admission bucket.
    admit_rate / admit_burst:
        Per-tenant token-bucket admission (requests/second and burst).
        ``None`` rate = no admission control.  Exhaustion answers
        ``429`` + ``Retry-After`` and refunds the reservation.
    default_query:
        Query used by ``POST /ask`` bodies that omit one (the use
        case's canonical question when built via :meth:`for_use_case`).
    host / port:
        Bind address; port 0 picks an ephemeral port.
    journal_limit:
        How many recent requests the observability journal retains
        (lifetime totals are counters and never truncate).
    drain_window:
        Upper bound, in seconds, on how long :meth:`close` waits for
        in-flight requests after admission stops.
    """

    def __init__(
        self,
        rage: Rage,
        tenants: Sequence[str],
        admit_rate: Optional[float] = None,
        admit_burst: Optional[int] = None,
        default_query: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
        drain_window: float = DEFAULT_DRAIN_WINDOW,
    ) -> None:
        if not tenants:
            raise ConfigError("a server needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise ConfigError(f"duplicate tenant names in {list(tenants)!r}")
        if admit_burst is not None and admit_rate is None:
            raise ConfigError("admit_burst without admit_rate has no effect")
        self.rage = rage
        self.default_query = default_query
        self.admit_rate = admit_rate
        # Resolve the effective burst exactly once: the buckets and the
        # /metrics advertisement must never disagree.
        self.admit_burst = (
            (admit_burst if admit_burst is not None else DEFAULT_ADMIT_BURST)
            if admit_rate is not None
            else None
        )
        self._tenants: Dict[str, Tenant] = {
            name: Tenant(
                name=name,
                session=RageSession(rage),
                bucket=(
                    TokenBucket(admit_rate, burst=self.admit_burst)
                    if admit_rate is not None
                    else None
                ),
            )
            for name in tenants
        }
        if journal_limit < 1:
            raise ConfigError(f"journal_limit must be >= 1, got {journal_limit}")
        if drain_window <= 0:
            raise ConfigError(f"drain_window must be > 0, got {drain_window}")
        self.drain_window = drain_window
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        # Drain state: handlers register in-flight work via
        # begin_request/end_request; close() flips ``_draining`` (new
        # POSTs answer 503) and waits on ``_idle`` until the in-flight
        # count hits zero or the window expires.
        self._draining = False
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        # Bounded: the journal keeps the most recent requests for tests
        # and operators; lifetime totals live in the counters below so
        # a long-running server never grows without bound.
        self.journal: Deque[ServedRequest] = deque(maxlen=journal_limit)
        self._requests_total = 0
        self._store_usage_cache: Optional[Tuple[float, Tuple[int, int]]] = None
        self._httpd: Optional[_Listener] = None
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()

    @classmethod
    def for_use_case(
        cls,
        name_or_case: "str | UseCase",
        tenants: Sequence[str],
        config: Optional[RageConfig] = None,
        llm: Optional[LanguageModel] = None,
        **kwargs,
    ) -> "RageServer":
        """Serve one of the built-in demo datasets.

        Mirrors :meth:`RageSession.for_use_case`: ``llm=None`` answers
        with the deterministic simulated model; the case's canonical
        query becomes the ``/ask`` default.
        """
        case = (
            load_use_case(name_or_case)
            if isinstance(name_or_case, str)
            else name_or_case
        )
        config = config or RageConfig(k=case.k)
        if llm is None:
            llm = SimulatedLLM(knowledge=case.knowledge)
        rage = Rage.from_corpus(case.corpus, llm, config=config)
        kwargs.setdefault("default_query", case.query)
        return cls(rage, tenants, **kwargs)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "RageServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        assert self._httpd is None, "server already started"
        httpd = _Listener((self._host, self._port), _Handler)
        httpd.rage_server = self  # handlers reach back through the server
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="rage-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        """Block the calling thread while the server runs (CLI mode).

        Returns when the serving thread stops (:meth:`close`) or the
        timeout elapses; a ``KeyboardInterrupt`` propagates to the
        caller, which is how ``rage serve`` shuts down on Ctrl-C.
        """
        assert self._thread is not None, "server not started"
        self._thread.join(timeout)

    def close(self) -> None:
        """Gracefully drain, stop serving, and flush store counters.

        Ordering matters: admission stops *first* (new POSTs answer
        503), in-flight handlers get up to ``drain_window`` seconds to
        finish, and only then does the listener stop and the store meta
        hit disk — so counters persisted at shutdown include every
        request a client saw complete.
        """
        if self._httpd is not None:
            self.drain(self.drain_window)
            self._httpd.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._httpd.server_close()
            self._httpd = None
            self._thread = None
        if self.rage.store is not None:
            self.rage.store.persist_stats()

    def drain(self, window: Optional[float] = None) -> bool:
        """Stop admitting POSTs and wait for in-flight work to finish.

        Returns ``True`` when the server went idle within ``window``
        seconds (default: the configured ``drain_window``), ``False``
        if the bound expired with handlers still running — shutdown
        proceeds regardless; the bound exists so a hung model can't
        wedge it.
        """
        bound = window if window is not None else self.drain_window
        deadline = time.monotonic() + bound
        # ``_idle`` shares ``_lock``, so holding the lock is holding the
        # condition; wait() releases it while parked.
        with self._lock:
            self._draining = True
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
            return True

    def begin_request(self) -> bool:
        """Register an in-flight POST; ``False`` once draining."""
        with self._lock:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        """Unregister an in-flight POST; wakes a waiting :meth:`drain`."""
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def __enter__(self) -> "RageServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def base_url(self) -> str:
        """``http://host:port`` once started."""
        assert self._httpd is not None, "server not started"
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # -- request handling (called from handler threads) --------------------

    def tenant(self, name: str) -> Optional[Tenant]:
        """The named tenant, or ``None``."""
        return self._tenants.get(name)

    def tenant_names(self) -> List[str]:
        """Configured tenant names, sorted."""
        return sorted(self._tenants)

    def admit(self, tenant: Tenant) -> Tuple[bool, float]:
        """Per-tenant admission decision: ``(admitted, retry_after)``.

        Uses the bucket's non-queueing :meth:`TokenBucket.try_acquire`,
        so a rejected request's reservation is refunded — the 429 path
        consumes no capacity (the reservation-leak bugfix this server
        flushed out).
        """
        if tenant.bucket is None:
            with self._lock:
                tenant.admitted += 1
            return True, 0.0
        admitted, wait = tenant.bucket.try_acquire()
        with self._lock:
            if admitted:
                tenant.admitted += 1
            else:
                tenant.rejected += 1
        return admitted, wait

    def handle_ask(self, tenant: Tenant, body: Mapping[str, object]) -> Dict:
        """Pose (or re-pose) the tenant's question; the /ask body."""
        query = body.get("query", self.default_query)
        if not isinstance(query, str) or not query:
            raise ConfigError(
                "no query: pass one in the body or configure a default"
            )
        k = body.get("k")
        if k is not None and (
            isinstance(k, bool) or not isinstance(k, int) or k < 1
        ):
            raise ConfigError(f"k must be a positive integer, got {k!r}")
        # Answer from *this* pose's committed triple, not a fresh
        # state() read: under concurrent asks on one tenant the session
        # may already hold a later request's state, and this response
        # must describe the question its own client sent.
        posed_query, context, answer = tenant.session.pose_state(query, k=k)
        return ask_payload(tenant.name, posed_query, context, answer)

    def handle_explain(self, tenant: Tenant, body: Mapping[str, object]) -> Dict:
        """Full explanation report for the tenant's posed question."""
        sample_size = body.get("sample_size")
        if sample_size is not None and (
            isinstance(sample_size, bool) or not isinstance(sample_size, int)
        ):
            raise ConfigError(
                f"sample_size must be an integer, got {sample_size!r}"
            )
        report = tenant.session.report(sample_size=sample_size)
        return report_payload(report)

    # -- observability -----------------------------------------------------

    def _router(self) -> Optional[RouterLLM]:
        """The engine's router, unwrapped from the cache, or ``None``."""
        llm = self.rage.llm
        inner = llm.inner if isinstance(llm, CachingLLM) else llm
        return inner if isinstance(inner, RouterLLM) else None

    def health_payload(self) -> Dict:
        """The ``GET /healthz`` body — readiness, not just liveness.

        ``status`` is one of ``ok`` / ``degraded`` (some provider's
        breaker open, detail says which) / ``unhealthy`` (no provider
        available) / ``draining`` (shutdown in progress).  The handler
        maps the last two to 503.
        """
        with self._lock:
            draining = self._draining
        payload: Dict[str, object] = {
            "status": "ok",
            "tenants": len(self._tenants),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }
        router = self._router()
        if router is not None:
            providers = [
                {
                    "name": stats["name"],
                    "state": stats["state"],
                    "available": stats["available"],
                }
                for stats in router.provider_stats()
            ]
            payload["providers"] = providers
            open_names = [
                p["name"] for p in providers if p["state"] != "closed"
            ]
            if not any(p["available"] for p in providers):
                payload["status"] = "unhealthy"
                payload["detail"] = "no provider available"
            elif open_names:
                payload["status"] = "degraded"
                payload["detail"] = (
                    f"breaker open for {', '.join(open_names)}"
                )
        if draining:
            payload["status"] = "draining"
            payload["detail"] = "shutting down; not admitting requests"
        return payload

    def metrics_payload(self) -> Dict:
        """The ``GET /metrics`` body (schema is part of the API)."""
        llm = self.rage.llm
        cache = llm if isinstance(llm, CachingLLM) else None
        inner = cache.inner if cache is not None else llm
        store = self.rage.store
        backend = self.rage.backend
        with self._lock:
            admission = {
                tenant.name: {
                    "admitted": tenant.admitted,
                    "rejected": tenant.rejected,
                    "rate": self.admit_rate,
                    "burst": self.admit_burst,
                }
                for tenant in self._tenants.values()
            }
            requests_served = self._requests_total
        payload: Dict[str, object] = {
            "server": {
                "tenants": self.tenant_names(),
                "requests": requests_served,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            },
            "admission": admission,
            "backend": {
                "name": backend.name,
                "capacity": backend.capacity,
                "batches": backend.stats.batches,
                "prompts": backend.stats.prompts,
                "max_active": backend.stats.max_active,
            },
            "cache": (
                {
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "disk_hits": cache.stats.disk_hits,
                    "hit_rate": cache.stats.hit_rate,
                }
                if cache is not None
                else None
            ),
            "coalescing": {
                "single_flight": (
                    {
                        "enabled": True,
                        "inflight_keys": cache.flights.inflight(),
                        "flights": cache.flights.stats.flights,
                        "waiters_served": cache.flights.stats.coalesced,
                        "failures": cache.flights.stats.failures,
                    }
                    if cache is not None
                    else {"enabled": False}
                ),
                "window": (
                    {
                        "enabled": True,
                        "window_ms": backend.window_ms,
                        "submissions": backend.window_stats.submissions,
                        "windows_flushed": backend.window_stats.windows,
                        "merged_windows": backend.window_stats.merged_windows,
                        "mean_flush_size": backend.window_stats.mean_flush_size,
                        "max_flush": backend.window_stats.max_flush,
                    }
                    if isinstance(backend, CoalescingBackend)
                    else {"enabled": False}
                ),
            },
            "retrieval": self._retrieval_metrics(),
            "store": None,
            "remote": None,
            "router": None,
        }
        if store is not None:
            entries, nbytes = self._store_usage(store)
            payload["store"] = {
                "root": str(store.root),
                "entries": entries,
                "bytes": nbytes,
                "hits": store.stats.hits,
                "misses": store.stats.misses,
                "writes": store.stats.writes,
                "evictions": store.stats.evictions,
                "corrupt": store.stats.corrupt,
                "write_errors": store.stats.write_errors,
            }
        if isinstance(inner, RemoteLLM):
            transport = inner.client.stats
            payload["remote"] = {
                "model": inner.name,
                "usage": {
                    "calls": inner.usage.calls,
                    "prompt_tokens": inner.usage.prompt_tokens,
                    "completion_tokens": inner.usage.completion_tokens,
                    "total_tokens": inner.usage.total_tokens,
                },
                "transport": {
                    "requests": transport.requests,
                    "retries": transport.retries,
                    "throttle_waits": transport.throttle_waits,
                    "backoff_seconds": transport.backoff_seconds,
                },
                "cost": inner.usage_cost(),
            }
        if isinstance(inner, RouterLLM):
            payload["router"] = {
                "providers": inner.provider_stats(),
                "requests": inner.stats.requests,
                "failovers": inner.stats.failovers,
                "hedges_fired": inner.stats.hedges_fired,
                "hedges_won": inner.stats.hedges_won,
                "exhausted": inner.stats.exhausted,
                "cost": inner.usage_cost(),
            }
        return payload

    def _retrieval_metrics(self) -> Dict:
        """The ``/metrics`` retrieval block: which index backs the
        engine, its collection statistics, and — for the persistent
        index — the incremental-indexing and search counters."""
        from ..retrieval.sqlindex import SqliteIndex

        index = self.rage.index
        config = self.rage.config
        stats = index.stats
        payload: Dict[str, object] = {
            "backend": "sqlite" if isinstance(index, SqliteIndex) else "memory",
            "mode": config.retrieval_mode,
            "fusion": (
                (config.fusion or "minmax")
                if config.retrieval_mode == "hybrid"
                else None
            ),
            "documents": stats.num_documents,
            "vocabulary": stats.vocabulary_size,
            "total_terms": stats.total_terms,
        }
        if isinstance(index, SqliteIndex):
            with index._lock:
                counters = dict(index.counters)
            payload["path"] = str(index.path)
            payload["bytes"] = index.size_bytes()
            payload["counters"] = counters
        return payload

    def _store_usage(self, store) -> Tuple[int, int]:
        """``store.usage()`` with a short TTL: polled /metrics must not
        re-walk the whole store directory on every scrape."""
        now = time.monotonic()
        with self._lock:
            cached = self._store_usage_cache
            if cached is not None and now - cached[0] < STORE_USAGE_TTL:
                return cached[1]
        usage = store.usage()  # the walk happens outside the lock
        with self._lock:
            self._store_usage_cache = (time.monotonic(), usage)
        return usage

    # -- journal -----------------------------------------------------------

    def _journal_append(self, entry: ServedRequest) -> None:
        with self._lock:
            self.journal.append(entry)
            self._requests_total += 1

    def request_count(self, tenant: Optional[str] = None) -> int:
        """Requests served: the lifetime total, or one tenant's count
        within the (bounded) journal."""
        with self._lock:
            if tenant is None:
                return self._requests_total
            return sum(1 for entry in self.journal if entry.tenant == tenant)

    def statuses(self, tenant: Optional[str] = None) -> List[int]:
        """Status codes served, in order, optionally for one tenant."""
        with self._lock:
            return [
                entry.status
                for entry in self.journal
                if tenant is None or entry.tenant == tenant
            ]

    def max_admitted_per_window(
        self, tenant: str, window: float = 1.0
    ) -> int:
        """Highest count of admitted (2xx) requests for ``tenant`` in
        any sliding ``window`` — what the token-bucket contract bounds
        by ``burst + rate * window``."""
        with self._lock:
            times = sorted(
                entry.time
                for entry in self.journal
                if entry.tenant == tenant and 200 <= entry.status < 300
            )
        best = 0
        lo = 0
        for hi, stamp in enumerate(times):
            while stamp - times[lo] > window:
                lo += 1
            best = max(best, hi - lo + 1)
        return best
