"""Per-layer metrics: spans from the traced run plus the engines' counters.

Every metric is printed for every workload; a layer a workload bypasses
reads 0.  Times are milliseconds per measured request unless the name
says otherwise; counts are per measured request; ratios are plain
fractions.  Each entry names the end-to-end metric it should move (see
``BENCHMARK.json`` for the workload).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from recorder import Span, max_overlap, self_times, union_length

#: Every per-layer metric, in README-diagram order: (name, unit, which
#: direction is better, the end-to-end metric it should move, and the
#: workload it should move it on).
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("app.ask_handler_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("app.explain_handler_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("app.http_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("retrieval.search_ms", "ms", "lower", "latency_p50_ms", "retrieval_churn"),
    ("retrieval.searches", "count", "lower", "latency_p50_ms", "retrieval_churn"),
    ("retrieval.search_after_write_ms", "ms", "lower", "latency_p50_ms", "retrieval_churn"),
    ("retrieval.write_ms", "ms", "lower", "requests_per_s", "retrieval_churn"),
    ("core.plan_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("core.search_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("core.analysis_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("core.evaluate_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("core.self_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("core.us_per_eval", "us", "lower", "requests_per_s", "explain_cpu"),
    ("core.plan.requested", "count", "lower", "requests_per_s", "explain_cpu"),
    ("core.plan.dispatched", "count", "lower", "requests_per_s", "explain_cpu"),
    ("core.lattice.implied", "count", "higher", "requests_per_s", "explain_cpu"),
    ("core.lattice.pruned", "count", "higher", "requests_per_s", "explain_cpu"),
    ("core.lattice.pruned_ratio", "ratio", "higher", "requests_per_s", "explain_cpu"),
    ("core.evaluate_many.calls", "count", "lower", "requests_per_s", "explain_cpu"),
    ("core.evaluate_many.miss_ratio", "ratio", "lower", "requests_per_s", "explain_cpu"),
    ("exec.batches", "count", "lower", "latency_p50_ms", "serve_mixed"),
    ("exec.prompts_per_batch", "count", "higher", "latency_p50_ms", "serve_mixed"),
    ("exec.run_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("exec.max_active", "count", "higher", "latency_p50_ms", "serve_mixed"),
    ("llm.cache.self_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("llm.cache.hit_ratio", "ratio", "higher", "latency_p50_ms", "serve_mixed"),
    ("llm.cache.misses", "count", "lower", "latency_p50_ms", "serve_mixed"),
    ("llm.single_flight.waiters_served", "count", "higher", "latency_p50_ms", "serve_mixed"),
    ("llm.store.get_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("llm.store.put_ms", "ms", "lower", "requests_per_s", "serve_mixed"),
    ("llm.store.disk_hit_ratio", "ratio", "higher", "latency_p50_ms", "serve_mixed"),
    ("llm.store.bytes_read_per_hit", "B", "lower", "latency_p50_ms", "serve_mixed"),
    ("llm.store.bytes_per_entry", "B", "lower", "requests_per_s", "serve_mixed"),
    ("llm.model.calls", "count", "lower", "requests_per_s", "explain_cpu"),
    ("llm.model.busy_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("llm.model.wait_ms", "ms", "lower", "latency_p50_ms", "serve_mixed"),
    ("llm.model.max_inflight", "count", "higher", "latency_p50_ms", "serve_mixed"),
    ("attention.trace_ms", "ms", "lower", "requests_per_s", "explain_cpu"),
    ("attention.trace_share", "ratio", "lower", "requests_per_s", "explain_cpu"),
    ("trace.overhead_pct", "%", "lower", "latency_p50_ms", "serve_mixed"),
]

#: Span name -> the self-time metric it feeds.
SELF_TIME_METRICS: Dict[str, str] = {
    "core.plan": "core.plan_ms",
    "core.search": "core.search_ms",
    "core.analysis": "core.analysis_ms",
    "core.evaluate_many": "core.evaluate_ms",
    "core.explain": "core.self_ms",
    "exec.run": "exec.run_ms",
    "llm.cache": "llm.cache.self_ms",
    "llm.store.get": "llm.store.get_ms",
    "llm.store.put": "llm.store.put_ms",
    "attention.trace": "attention.trace_ms",
}

#: Counters merged by maximum rather than by sum.
MAX_COUNTERS = frozenset({"exec.max_active"})


def merge_counters(total: Dict[str, float], delta: Mapping[str, float]) -> None:
    """Fold one engine's counters into a running total."""
    for key, value in delta.items():
        if key in MAX_COUNTERS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def counter_delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """What a shared engine counted between two snapshots."""
    return {
        key: value if key in MAX_COUNTERS else value - before.get(key, 0)
        for key, value in after.items()
    }


def engine_counters(rage) -> Dict[str, float]:
    """The counters one engine's stats objects hold right now."""
    from repro.llm.cache import CachingLLM

    backend = rage.backend.stats
    counters: Dict[str, float] = {
        "exec.batches": backend.batches,
        "exec.prompts": backend.prompts,
        "exec.max_active": backend.max_active,
    }
    if isinstance(rage.llm, CachingLLM):
        cache = rage.llm.stats
        counters["cache.hits"] = cache.hits
        counters["cache.misses"] = cache.misses
        if rage.llm.flights is not None:
            counters["single_flight.coalesced"] = rage.llm.flights.stats.coalesced
    if rage.store is not None:
        counters["store.hits"] = rage.store.stats.hits
        counters["store.misses"] = rage.store.stats.misses
    return counters


def report_counters(payload: Mapping[str, Any]) -> Dict[str, float]:
    """Plan and lattice counters of one explain, from its ``/explain``
    payload (``report_payload`` of an in-process report)."""
    return {
        "plan.requested": payload["plan"]["requested"],
        "plan.dispatched": payload["plan"]["dispatched"],
        "lattice.implied": payload["implied"],
        "lattice.pruned": payload["pruned"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_ms(seconds: Sequence[float]) -> float:
    return _ratio(sum(seconds), len(seconds)) * 1000


def _outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans named ``name`` whose parent is not also ``name`` (nested
    wrappers of one call count once)."""
    names = {span[0]: span[3] for span in spans}
    return [s for s in spans if s[3] == name and names.get(s[1]) != name]


def _first_search_after_write(spans: Sequence[Span]) -> List[float]:
    """Durations of the first search to start after each write ended."""
    writes = sorted(s[5] for s in _outermost(spans, "retrieval.write"))
    searches = sorted((s[4], s[5] - s[4]) for s in _outermost(spans, "retrieval.search"))
    durations, cursor = [], 0
    for write_end in writes:
        while cursor < len(searches) and searches[cursor][0] < write_end:
            cursor += 1
        if cursor < len(searches):
            durations.append(searches[cursor][1])
    return durations


def layer_metrics(
    spans: Sequence[Span],
    counters: Mapping[str, float],
    requests: int,
    client_seconds: Iterable[float] = (),
    store_bytes_per_entry: float = 0.0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (``trace.overhead_pct`` excluded)."""
    per_request = 1.0 / max(requests, 1)
    own = self_times(spans)
    self_ms: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        metric = SELF_TIME_METRICS.get(span[3])
        if metric is not None:
            self_ms[metric] += own[span[0]] * 1000.0
        durations[span[3]].append(span[5] - span[4])

    model = [s for s in spans if s[3] == "llm.model"]
    model_calls = sum(s[6]["prompts"] for s in model)
    model_busy = sum(s[5] - s[4] for s in model)
    compute = sum(durations["llm.model.compute"])
    model_wait = model_busy - compute if compute else 0.0
    evaluate = [s[6] for s in spans if s[3] == "core.evaluate_many"]
    store_hits = [s[6]["bytes"] for s in spans if s[3] == "llm.store.get" and s[6]["hit"]]
    handlers = durations["app.ask"] + durations["app.explain"]
    searches = [s[5] - s[4] for s in _outermost(spans, "retrieval.search")]
    writes = [s[5] - s[4] for s in _outermost(spans, "retrieval.write")]
    after_write = _first_search_after_write(spans)
    clients = list(client_seconds)
    # Engine time per real call: explain wall minus the part of it some
    # model call covered (a union, so concurrent calls count once).
    explain_span = {s[0]: s for s in spans if s[3] == "core.explain"}
    parent_of = {s[0]: s[1] for s in spans}
    covered: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    explain_model_calls = 0
    for span in model:
        ancestor = span[1]
        while ancestor is not None and ancestor not in explain_span:
            ancestor = parent_of.get(ancestor)
        if ancestor is not None:
            covered[ancestor].append((span[4], span[5]))
            explain_model_calls += span[6]["prompts"]
    engine_s = sum(
        (s[5] - s[4]) - union_length(covered[sid], s[4], s[5])
        for sid, s in explain_span.items()
    )

    c = counters
    metrics = {
        "app.ask_handler_ms": _mean_ms(durations["app.ask"]),
        "app.explain_handler_ms": _mean_ms(durations["app.explain"]),
        "app.http_ms": _ratio(sum(clients) - sum(handlers), len(clients)) * 1000,
        "retrieval.search_ms": _mean_ms(searches),
        "retrieval.searches": len(searches) * per_request,
        "retrieval.search_after_write_ms": _mean_ms(after_write),
        "retrieval.write_ms": _mean_ms(writes),
        "core.us_per_eval": _ratio(engine_s, explain_model_calls) * 1e6,
        "core.plan.requested": c.get("plan.requested", 0) * per_request,
        "core.plan.dispatched": c.get("plan.dispatched", 0) * per_request,
        "core.lattice.implied": c.get("lattice.implied", 0) * per_request,
        "core.lattice.pruned": c.get("lattice.pruned", 0) * per_request,
        "core.lattice.pruned_ratio": _ratio(c.get("lattice.pruned", 0), c.get("plan.requested", 0)),
        "core.evaluate_many.calls": len(evaluate) * per_request,
        "core.evaluate_many.miss_ratio": _ratio(
            sum(e["misses"] for e in evaluate), sum(e["orderings"] for e in evaluate)
        ),
        "exec.batches": c.get("exec.batches", 0) * per_request,
        "exec.prompts_per_batch": _ratio(c.get("exec.prompts", 0), c.get("exec.batches", 0)),
        "exec.max_active": c.get("exec.max_active", 0),
        "llm.cache.hit_ratio": _ratio(
            c.get("cache.hits", 0), c.get("cache.hits", 0) + c.get("cache.misses", 0)
        ),
        "llm.cache.misses": c.get("cache.misses", 0) * per_request,
        "llm.single_flight.waiters_served": c.get("single_flight.coalesced", 0) * per_request,
        "llm.store.disk_hit_ratio": _ratio(
            c.get("store.hits", 0), c.get("store.hits", 0) + c.get("store.misses", 0)
        ),
        "llm.store.bytes_read_per_hit": _ratio(sum(store_hits), len(store_hits)),
        "llm.store.bytes_per_entry": store_bytes_per_entry,
        "llm.model.calls": model_calls * per_request,
        "llm.model.busy_ms": model_busy * 1000 * per_request,
        "llm.model.wait_ms": model_wait * 1000 * per_request,
        "llm.model.max_inflight": max_overlap([(s[4], s[5]) for s in model]),
        "attention.trace_share": _ratio(sum(durations["attention.trace"]), model_busy),
    }
    for metric in SELF_TIME_METRICS.values():
        metrics[metric] = self_ms[metric] * per_request
    return metrics
