"""Run one RAGE benchmark workload at one seed.

Usage, from the repository root::

    python3 benchmarks/ragebench/run.py --workload explain_cpu --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs the workload twice from the same seed,
untraced and then traced, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced mean request time).  Every
metric is printed with its unit; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the program under test (``src/`` and ``tests/fakes`` of this
checkout) cannot be imported.  Scratch files live under ``.ragebench/``
at the repository root; the traced run leaves its spans there as JSON
lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".ragebench"

#: (name, unit) of every end-to-end metric, printed for every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Every runnable workload.  ``store_replay`` (warm restarts replayed
#: from the disk store) runs on request but is not listed in
#: BENCHMARK.json: decoding its 40 KB entries swings its timings by
#: about 30% between runs on a shared host, above any allowed bound.
#: ``serve_mixed`` restarts warm on a disk store instead.
WORKLOAD_NAMES = ("explain_cpu", "serve_mixed", "store_replay", "retrieval_churn")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile asked of too few samples to have ten beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie beyond the returned rank.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_program():
    """Import the workloads, which import the program under test.

    Numerical libraries are pinned to one thread (unless the caller's
    environment says otherwise) so dense retrieval timings do not
    depend on how many idle cores a shared host happens to have.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (ROOT / "tests", ROOT / "src"):
        if not path.is_dir():
            raise ImportError(f"{path} is missing: run from a full checkout")
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from fakes import network_guard

    import workloads

    # As hermetic as the test suite: loopback only.
    network_guard.install()
    return workloads


def end_to_end(result) -> Dict[str, float]:
    """The :data:`END_TO_END` metrics of one untraced pass.

    A workload that repeats rounds of requests is timed on each distinct
    request's fastest repeat (``result.best``): the median of those, and
    headline requests per second of the round's work at those times.
    The others are timed on every request over the measured wall time.
    Set-up is timed on the fastest of its repeats, for the same reason
    (see ``workloads.fastest_repeats``).
    """
    if result.best:
        headline = [t for kind in result.headline for t in result.best[kind]]
        work_s = sum(t for times in result.best.values() for t in times)
        requests_per_s = len(headline) / work_s
        latency_p50 = statistics.median(headline)
    else:
        requests_per_s = len(result.requests) / result.active_s
        latency_p50 = percentile(result.requests, 50)
    return {
        "setup_s": min(result.setup_s),
        "requests_per_s": requests_per_s,
        "latency_p50_ms": latency_p50 * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }


def describe(result) -> List[str]:
    """Human-readable lines: per-kind latency percentiles and notes."""
    lines = []
    for kind, samples in result.latencies.items():
        for q in (50, 90, 95):
            try:
                value = f"{percentile(samples, q) * 1000:.3f} ms"
            except TooFewSamples:
                value = "n/a"
            lines.append(f"  {kind}_p{q}_ms {value} (n={len(samples)})")
    for name, (value, unit) in result.notes.items():
        lines.append(f"  {name} {value:.6g} {unit}")
    failed = len(result.failures)
    lines.append(f"  error_rate {failed / max(result.attempted, 1):.6g} ratio "
                 f"({failed} failed or wrong of {result.attempted})")
    return lines


def self_time_lines(spans, requests: int, request_wall: float) -> List[str]:
    """Self time per span name, per request and as a share of request wall."""
    from recorder import self_times

    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[3]] = totals.get(span[3], 0.0) + own[span[0]]
    lines = [
        "  self times (ms per request; share of request wall, which spans"
        " running concurrently can push past 100%):"
    ]
    for name, total in sorted(totals.items(), key=lambda item: -item[1]):
        lines.append(
            f"    {name:<22} {total * 1000 / max(requests, 1):>10.3f} ms"
            f" {100 * total / request_wall if request_wall else 0.0:>6.1f}%"
        )
    return lines


def run_workload(
    workloads, name: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> Tuple[Dict[str, float], List[object], List[str]]:
    """Run one workload; (metrics, results, human-readable lines)."""
    workdir = SCRATCH / f"{name}-{seed}-{os.getpid()}"
    runner = workloads.WORKLOADS[name]
    try:
        untraced = runner(workloads.Run(seed, seconds, size, workdir / "untraced"))
        if not trace:
            return end_to_end(untraced), [untraced], describe(untraced)
        from layers import layer_metrics
        from recorder import Instrumentation, SpanRecorder

        recorder = SpanRecorder()
        traced = runner(
            workloads.Run(seed, seconds, size, workdir / "traced", Instrumentation(recorder))
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = recorder.spans()
    requests = traced.requests
    metrics = layer_metrics(
        spans,
        traced.counters,
        len(requests),
        client_seconds=traced.client_seconds,
        store_bytes_per_entry=traced.store_bytes_per_entry,
    )
    base = statistics.fmean(untraced.requests)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.fmean(requests) - base) / base
    spans_path = SCRATCH / f"spans-{name}-{seed}.jsonl"
    recorder.write(str(spans_path))
    untraced_lines = [
        f"  untraced {metric} {value:.6g} {unit}"
        for (metric, unit), value in zip(END_TO_END, end_to_end(untraced).values())
    ]
    lines = (
        untraced_lines
        + describe(traced)
        + self_time_lines(spans, len(requests), sum(requests))
    )
    lines.append(
        f"  tracing overhead {metrics['trace.overhead_pct']:.2f}% "
        f"(mean request {statistics.fmean(requests) * 1000:.3f} ms traced, "
        f"{base * 1000:.3f} ms untraced); {len(spans)} spans in {spans_path}"
    )
    return metrics, [untraced, traced], lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    try:
        workloads = load_program()
    except ImportError as error:
        print(f"ragebench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    metrics, results, lines = run_workload(
        workloads, args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    from layers import PER_LAYER

    units = dict(row[:2] for row in (PER_LAYER if args.trace else END_TO_END))
    mode = "traced, per layer" if args.trace else "untraced, end to end"
    print(f"ragebench {args.workload} seed={args.seed} ({mode})")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    failures = [failure for result in results for failure in result.failures]
    for failure in failures:
        print(f"ragebench: FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(result.attempted for result in results),
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
