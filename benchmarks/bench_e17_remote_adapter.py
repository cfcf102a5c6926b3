"""E17 — The remote HTTP adapter under the async execution stack.

PR 4 gives the library its first model that actually speaks HTTP
(:class:`~repro.llm.remote.RemoteLLM` over
:mod:`~repro.llm.transport`), so this benchmark closes the loop the
E16 latency *simulation* only gestured at: real sockets, real
concurrency, a real (loopback, in-process, deterministic) server.
Shapes asserted:

1. **Async saturation** — on a 10ms-latency fake server, one
   evaluation round through ``asyncio:8`` is at least 3x faster than
   ``serial`` with byte-identical answers, and the server observes
   exactly 8 requests in flight at its peak.
2. **Rate-limiter compliance** — with a token-bucket throttle
   configured, the *server-side* journal never sees more requests in
   any window than ``burst + rate * window`` allows.
3. **Warm store absorbs repeats** — a report answered once into a
   ``PromptStore`` re-renders byte-identically with **zero** new HTTP
   requests.
4. **Fault policy end-to-end** — injected 429/5xx/malformed/truncated
   faults are absorbed by retries mid-report; a non-retryable status
   surfaces as an error.

Everything runs against :class:`fakes.FakeLLMServer` on loopback — the
network guard (installed in ``conftest``) fails any test that tries to
leave the machine.  Set ``BENCH_E17_OUT`` to write the wall-clock table
as JSON (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from fakes import FakeLLMServer, Fault, simulated_answer_fn

from bench_e16_exec_backends import _render_report, _subset_orderings
from repro import Rage, RageConfig, RemoteLLM, SimulatedLLM
from repro.core.evaluate import ContextEvaluator
from repro.datasets import load_use_case
from repro.errors import HttpStatusError
from repro.exec import make_backend
from repro.llm.cache import CachingLLM
from repro.llm.factory import create_llm
from repro.llm.transport import RetryPolicy

#: Per-request simulated server latency (matches E16's shape).
LATENCY = 0.01

#: The saturation check's latency.  Each loopback round trip costs the
#: client ~2 ms of interpreter time, so at 10 ms the first wave of 8
#: reaches a busy host's server spread out and the peak in flight reads
#: 5 or 6; 100 ms waits overlap whatever the scheduler does.
SATURATION_LATENCY = 0.1

FAST_RETRY = RetryPolicy(
    max_attempts=6, base_delay=0.005, max_delay=0.05, jitter=0.0
)


def _remote(server, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return RemoteLLM("openai", "fake-model", base_url=server.base_url, **kwargs)


def _evaluation_round(server, case, backend_spec, orderings, rate_limit=None):
    """One batched evaluation round over HTTP; returns (answers, secs)."""
    llm = _remote(server, rate_limit=rate_limit)
    probe = Rage.from_corpus(
        case.corpus,
        SimulatedLLM(knowledge=case.knowledge),
        config=RageConfig(k=case.k),
    )
    context = probe.retrieve(case.query)
    backend = make_backend(backend_spec)
    cached = CachingLLM(llm)
    evaluator = ContextEvaluator(cached, context, backend=backend)
    started = time.perf_counter()
    evaluations = evaluator.evaluate_many(orderings)
    elapsed = time.perf_counter() - started
    return [e.normalized_answer for e in evaluations], elapsed


def test_e17_asyncio_saturates_without_exceeding_inflight():
    """Acceptance: asyncio:8 >= 3x faster than serial, equal answers,
    in-flight bounded by the configured capacity."""
    case = load_use_case("big_three")
    orderings = _subset_orderings(case)  # 15 distinct subsets at k=4
    rows = []
    answers = {}
    for spec in ("serial", "asyncio:8"):
        # Scripted echo answers: deterministic and lock-free, so the
        # only serialized resource is the wire — which is the thing
        # this shape measures.
        with FakeLLMServer(latency=SATURATION_LATENCY) as server:
            answers[spec], elapsed = _evaluation_round(
                server, case, spec, orderings
            )
            rows.append(
                {
                    "backend": spec,
                    "seconds": round(elapsed, 4),
                    "http_requests": server.request_count,
                    "max_inflight": server.max_inflight,
                }
            )
    by_spec = {row["backend"]: row for row in rows}
    print(
        f"\nE17 evaluation round over HTTP ({len(orderings)} prompts x "
        f"{SATURATION_LATENCY * 1000:.0f}ms):"
    )
    for row in rows:
        print(
            f"  {row['backend']:>9}  {row['seconds'] * 1000:>8.1f}ms  "
            f"requests={row['http_requests']}  max_inflight={row['max_inflight']}"
        )
    assert answers["serial"] == answers["asyncio:8"]
    assert all(row["http_requests"] == len(orderings) for row in rows)
    assert by_spec["serial"]["max_inflight"] == 1
    assert by_spec["asyncio:8"]["max_inflight"] == 8
    # The acceptance ratio: overlapping 100ms waits 8-wide.
    assert by_spec["asyncio:8"]["seconds"] * 3 <= by_spec["serial"]["seconds"]
    out_path = os.environ.get("BENCH_E17_OUT")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"bench": "e17_remote_adapter", "rows": rows}, handle, indent=2)


def test_e17_rate_limiter_never_exceeds_configured_rps():
    """Server-side journal proof: admissions respect burst + rate*W."""
    case = load_use_case("big_three")
    prompts_needed = _subset_orderings(case)
    rate, burst = 60.0, 3
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge)
    ) as server:
        llm = _remote(server, rate_limit=rate, rate_burst=burst)
        backend = make_backend("asyncio:16")
        probe = Rage.from_corpus(
            case.corpus,
            SimulatedLLM(knowledge=case.knowledge),
            config=RageConfig(k=case.k),
        )
        context = probe.retrieve(case.query)
        evaluator = ContextEvaluator(
            CachingLLM(llm), context, backend=backend
        )
        evaluator.evaluate_many(prompts_needed)
        assert server.request_count == len(prompts_needed)
        for window in (0.25, 0.5, 1.0):
            observed = server.max_requests_per_window(window)
            allowed = burst + rate * window
            print(
                f"E17 rate compliance: {observed} requests in worst {window}s "
                f"window (allowed {allowed:.0f})"
            )
            # +1 tolerance: server-side arrival timestamps jitter by a
            # socket hop relative to client-side admission times.
            assert observed <= allowed + 1


def _report_session(server, case, cache_dir):
    rage = Rage.from_corpus(
        case.corpus,
        create_llm(
            model="remote:openai:fake-model", base_url=server.base_url, retries=5
        ),
        config=RageConfig(
            k=case.k,
            max_evaluations=4000,
            backend="asyncio:8",
            cache_dir=cache_dir,
        ),
    )
    report = rage.explain(case.query)
    return _render_report(report), rage


def test_e17_warm_store_repeat_report_zero_http(tmp_path):
    """A repeated report against the same store makes zero HTTP calls."""
    case = load_use_case("big_three")
    cache_dir = str(tmp_path / "store")
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge), latency=LATENCY
    ) as server:
        cold_text, _ = _report_session(server, case, cache_dir)
        cold_requests = server.request_count
        assert cold_requests > 0
        warm_text, warm_rage = _report_session(server, case, cache_dir)
        print(
            f"\nE17 disk store: cold={cold_requests} HTTP requests, "
            f"warm={server.request_count - cold_requests}, "
            f"{warm_rage.store.stats.hits} disk hits"
        )
        assert server.request_count == cold_requests  # zero new requests
        assert warm_rage.store.stats.hits > 0
        assert warm_text == cold_text


def test_e17_report_survives_injected_faults():
    """Retryable faults mid-report are invisible to the explanation."""
    case = load_use_case("big_three")
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge)
    ) as server:
        llm = _remote(server)
        rage = Rage.from_corpus(
            case.corpus,
            llm,
            config=RageConfig(k=case.k, max_evaluations=4000, backend="asyncio:8"),
        )
        server.add_faults(
            Fault(kind="status", status=429, retry_after=0.01),
            Fault(kind="status", status=503),
            Fault(kind="malformed"),
            Fault(kind="truncated"),
            Fault(kind="status", status=500),
        )
        report = rage.explain(case.query)
        assert report.answer  # the report came out whole
        assert llm.client.stats.retries >= 5
        reference = Rage.from_corpus(
            case.corpus,
            SimulatedLLM(knowledge=case.knowledge),
            config=RageConfig(k=case.k, max_evaluations=4000),
        ).explain(case.query)
        assert report.answer == reference.answer


def test_e17_non_retryable_fault_surfaces():
    with FakeLLMServer() as server:
        llm = _remote(server)
        server.add_fault(Fault(kind="status", status=403))
        with pytest.raises(HttpStatusError) as err:
            llm.generate("blocked")
        assert err.value.status == 403
        assert server.request_count == 1


def test_e17_wallclock_serial(benchmark):
    case = load_use_case("big_three")
    orderings = _subset_orderings(case)
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge), latency=LATENCY
    ) as server:
        benchmark(
            lambda: _evaluation_round(server, case, "serial", orderings)
        )


def test_e17_wallclock_asyncio8(benchmark):
    case = load_use_case("big_three")
    orderings = _subset_orderings(case)
    with FakeLLMServer(
        answer_fn=simulated_answer_fn(case.knowledge), latency=LATENCY
    ) as server:
        benchmark(
            lambda: _evaluation_round(server, case, "asyncio:8", orderings)
        )
