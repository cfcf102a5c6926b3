"""Self-tests for the RAGE benchmark (``benchmarks/ragebench``).

Fast: the smoke runs drive every workload on tiny worlds for a
fraction of a second, through the same ``run.main`` the command uses.
"""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
from layers import PER_LAYER
from recorder import Instrumentation, SpanRecorder, self_times, union_length

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def workloads():
    return run.load_program()


# -- the percentile helper ---------------------------------------------------


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (95, 200)])
def test_percentile_needs_ten_samples_beyond_it(q, enough):
    with pytest.raises(run.TooFewSamples):
        run.percentile(list(range(enough - 1)), q)
    assert run.percentile(list(range(enough)), q) == enough - 11


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 41)]
    assert run.percentile(samples, 50) == 20.0
    assert run.percentile(samples, 75) == 30.0


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(workloads, name):
    make = workloads.INPUTS[name]
    for size in ("smoke", "full"):
        assert make(7, size) == make(7, size)
        assert make(7, size) != make(8, size)


# -- metric names and BENCHMARK.json -----------------------------------------


def test_metric_names_are_well_formed():
    names = [row[0] for row in run.END_TO_END] + [row[0] for row in PER_LAYER]
    assert all(METRIC_NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
    assert all(row[3] in dict(run.END_TO_END) for row in PER_LAYER)
    assert all(row[4] in listed for row in PER_LAYER)


# -- the span recorder -------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, 1, "outer", 0.0, 10.0, {}),
        (2, 1, 1, "a", 1.0, 4.0, {}),
        (3, 1, 1, "b", 3.0, 6.0, {}),  # overlaps a (a pool thread)
        (4, 2, 1, "c", 2.0, 3.0, {}),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5


def test_spans_nest_across_pool_threads():
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder).install()
    try:
        leaf = recorder.wrap("leaf", lambda: threading.current_thread().name)

        def fan_out():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return [future.result() for future in [pool.submit(leaf), pool.submit(leaf)]]

        with recorder.request() as rid:
            threads = recorder.wrap("root", fan_out)()
    finally:
        instrumentation.uninstall()
    spans = {span[3]: span for span in recorder.spans()}
    root = spans["root"]
    leaves = [span for span in recorder.spans() if span[3] == "leaf"]
    assert all(span[1] == root[0] and span[2] == rid for span in leaves)
    assert all(name != threading.current_thread().name for name in threads)


def test_uninstall_restores_every_entry_point():
    from repro.core.engine import Rage
    from repro.llm.store import PromptStore

    before = (Rage.explain, PromptStore.get, ThreadPoolExecutor.submit)
    instrumentation = Instrumentation(SpanRecorder()).install()
    assert Rage.explain is not before[0]
    instrumentation.uninstall()
    assert (Rage.explain, PromptStore.get, ThreadPoolExecutor.submit) == before


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("trace", (0, 1), ids=("untraced", "traced"))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(capsys, name, trace):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.2",
         "--size", "smoke", "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        row[0]: row[1] for row in expected
    }
    for metric, unit in ((row[0], row[1]) for row in expected):
        assert any(line.split()[:1] == [metric] and line.endswith(unit) for line in out)
