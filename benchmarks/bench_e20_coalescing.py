"""E20 — Single-flight coalescing and cross-request micro-batch windows.

PR 8 makes concurrent duplicate work cheap: the prompt cache grows a
single-flight registry (the second concurrent requester of a prompt
awaits the first's in-flight call instead of dispatching its own), and
the execution layer gains an opt-in micro-batch window that holds
misses from *different* requests for a few milliseconds and flushes
them as one native batch.  Shapes asserted:

1. **Thundering herd pays one call** — 16 threads racing one cold
   prompt produce exactly one inner model call with single-flight on;
   with it off, every racer dispatches its own.
2. **M tenants cost one tenant's calls** — four tenants replaying the
   same report concurrently against one server spend the same number
   of real LLM calls as a single tenant serially (dedup factor M >= 3),
   with byte-identical response bodies, and ``/metrics`` shows the
   coalescing counters moving.
3. **Windows merge cross-request misses** — two requests exercising
   one windowed engine at the same time land in shared flushes
   (``merged_windows >= 1``, flush sizes > 1) without changing any
   answer.

Everything stays on loopback under the network guard.  Set
``BENCH_E20_OUT`` to write the wall-clock table as JSON (uploaded as a
CI artifact).
"""

from __future__ import annotations

import threading

from _harness import print_rows, timed, write_results
from fakes import CountingLLM, LatencyLLM, http_json

from repro import Rage, RageConfig, SimulatedLLM
from repro.app.server import RageServer
from repro.datasets import load_use_case
from repro.llm import PromptBuilder
from repro.llm.cache import CachingLLM
from repro.viz.ascii import render_combination_insights

#: Simulated per-call model latency — long enough that a herd started
#: behind a barrier is still in flight when the last racer looks up.
LATENCY = 0.05

HERD = 16
TENANTS = ["t0", "t1", "t2", "t3"]

#: Rows accumulated across the tests below; the last test writes them
#: out as the CI artifact.
RESULTS: list = []


def _herd(cached, prompt, n):
    """Race n threads at one prompt through ``cached``; return answers."""
    barrier = threading.Barrier(n)
    answers = [None] * n

    def worker(i):
        barrier.wait()
        answers[i] = cached.generate(prompt).answer

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    return answers


def test_e20_thundering_herd_pays_one_call():
    """Acceptance: N racers on one cold key -> exactly one inner call."""
    case = load_use_case("big_three")
    prompt = PromptBuilder().build(
        case.query, [doc.text for doc in list(case.corpus)[:3]]
    )

    def racers(single_flight):
        # Latency outermost: LatencyLLM only exposes per-prompt entry
        # points, so the cache never asks CountingLLM for a native
        # batch its inner model cannot serve.
        counting = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
        cached = CachingLLM(
            LatencyLLM(counting, latency=LATENCY), single_flight=single_flight
        )
        answers, seconds = timed(_herd, cached, prompt, HERD)
        assert len(set(answers)) == 1  # everyone saw the same result
        return counting.calls, seconds

    calls_on, seconds_on = racers(True)
    calls_off, seconds_off = racers(False)
    RESULTS.append(
        {"label": "herd:single-flight", "seconds": seconds_on, "calls": calls_on}
    )
    RESULTS.append(
        {"label": "herd:off", "seconds": seconds_off, "calls": calls_off}
    )
    print_rows(f"E20 thundering herd ({HERD} threads, one prompt)", RESULTS[-2:])
    assert calls_on == 1  # the whole herd shared one flight
    assert calls_off > calls_on * 3  # without it, racers pile onto the model


def _server_for(case):
    counting = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
    rage = Rage.from_corpus(
        case.corpus,
        LatencyLLM(counting, latency=0.01),
        config=RageConfig(k=case.k),
    )
    return RageServer(rage, TENANTS, default_query=case.query), counting


def _replay_report(base_url, tenant, bodies):
    status, _, _ = http_json.post_json(base_url + "/ask", {"tenant": tenant})
    assert status == 200
    status, _, body = http_json.post_json(base_url + "/explain", {"tenant": tenant})
    assert status == 200
    bodies[tenant] = body


def test_e20_concurrent_tenants_cost_one_tenants_calls():
    """Acceptance: M tenants concurrently ~= 1 tenant's real calls,
    byte-identical bodies, dedup factor >= 3."""
    case = load_use_case("big_three")

    serial_bodies = {}
    server, counting = _server_for(case)
    with server:
        # One tenant, serially: the baseline call budget.
        _, serial_seconds = timed(
            _replay_report, server.base_url, TENANTS[0], serial_bodies
        )
    serial_calls = counting.calls

    concurrent_bodies = {}
    server, counting = _server_for(case)
    with server:
        threads = [
            threading.Thread(
                target=_replay_report,
                args=(server.base_url, tenant, concurrent_bodies),
            )
            for tenant in TENANTS
        ]

        def drive():
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)

        _, concurrent_seconds = timed(drive)
        coalescing = server.metrics_payload()["coalescing"]

    concurrent_calls = counting.calls
    dedup = (len(TENANTS) * serial_calls) / max(concurrent_calls, 1)
    rows = [
        {
            "label": "tenants:1-serial",
            "seconds": serial_seconds,
            "calls": serial_calls,
        },
        {
            "label": f"tenants:{len(TENANTS)}-concurrent",
            "seconds": concurrent_seconds,
            "calls": concurrent_calls,
            "dedup": round(dedup, 2),
        },
    ]
    RESULTS.extend(rows)
    print_rows(
        f"E20 {len(TENANTS)} tenants replaying one report "
        f"(waiters_served={coalescing['single_flight']['waiters_served']})",
        rows,
    )
    # Every distinct prompt was dispatched exactly once across the fleet.
    assert concurrent_calls == serial_calls
    assert dedup >= 3.0
    # All four tenants read the very same bytes the lone tenant did.
    assert set(concurrent_bodies.values()) == set(serial_bodies.values())
    assert coalescing["single_flight"]["enabled"]
    assert coalescing["single_flight"]["flights"] > 0
    assert coalescing["single_flight"]["waiters_served"] > 0


def test_e20_window_merges_cross_request_misses():
    """Acceptance: concurrent requests on a windowed engine share
    flushes (> 1 submission per window) without changing answers."""
    case = load_use_case("big_three")
    queries = [
        case.query,
        "Who is the best tennis player by head to head record?",
    ]

    def insights_for(rage):
        rendered = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def worker(i):
            barrier.wait()
            rendered[i] = render_combination_insights(
                rage.combination_insights(queries[i])
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        return rendered

    def engine(**overrides):
        return Rage.from_corpus(
            case.corpus,
            LatencyLLM(SimulatedLLM(knowledge=case.knowledge), latency=0.005),
            config=RageConfig(k=case.k, **overrides),
        )

    baseline = insights_for(engine())
    windowed_engine = engine(batch_window_ms=60.0)
    windowed = insights_for(windowed_engine)
    stats = windowed_engine.backend.window_stats
    row = {
        "label": "window:60ms",
        "windows": stats.windows,
        "merged": stats.merged_windows,
        "mean_flush": round(stats.mean_flush_size, 1),
        "max_flush": stats.max_flush,
    }
    RESULTS.append(row)
    print_rows("E20 micro-batch window, 2 concurrent requests", [row])
    assert windowed == baseline  # the window never changes answers
    assert stats.merged_windows >= 1  # cross-request misses shared a flush
    assert stats.max_flush > 1
    write_results("BENCH_E20_OUT", "e20_coalescing", RESULTS)
