"""Persistent prompt-store tests: round-trips, corruption, eviction,
concurrency, and the persisted lifetime counters."""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rage, RageConfig
from repro.app.server import encode_json, report_payload
from repro.attention.model import AttentionTrace
from repro.errors import ConfigError
from repro.llm import (
    GenerationResult,
    PromptBuilder,
    PromptStore,
    SimulatedLLM,
    TokenUsage,
    store_key,
)
from repro.llm.store import SCHEMA_VERSION, decode_result, encode_result


def _result(answer="Roger Federer", prompt="Question: q\n1. s\nAnswer:") -> GenerationResult:
    return GenerationResult(
        answer=answer,
        prompt=prompt,
        usage=TokenUsage(prompt_tokens=7, completion_tokens=2),
        diagnostics={"intent": "superlative", "votes": {"Roger Federer": 1.5}},
    )


# -- keys -----------------------------------------------------------------


def test_store_key_is_content_addressed():
    key = store_key("model-a", "prompt")
    assert key == store_key("model-a", "prompt")
    assert key != store_key("model-b", "prompt")
    assert key != store_key("model-a", "prompt!")
    assert len(key) == 64 and all(c in "0123456789abcdef" for c in key)


def test_store_key_params_are_order_insensitive():
    assert store_key("m", "p", {"a": 1, "b": 2}) == store_key("m", "p", {"b": 2, "a": 1})
    assert store_key("m", "p", {"a": 1}) != store_key("m", "p", {"a": 2})
    assert store_key("m", "p", {}) == store_key("m", "p", None)


# -- round trips ----------------------------------------------------------


def test_round_trip_preserves_result(tmp_path):
    store = PromptStore(tmp_path)
    original = _result()
    store.put("model", original.prompt, original)
    loaded = store.get("model", original.prompt)
    assert loaded is not None
    assert loaded.answer == original.answer
    assert loaded.prompt == original.prompt
    assert loaded.usage == original.usage
    assert loaded.diagnostics == original.diagnostics
    assert loaded.attention is None
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_round_trip_preserves_attention_trace(tmp_path):
    trace = AttentionTrace(num_layers=2, num_heads=2, source_totals=[0.0, 1.875, 0.1])
    result = _result()
    result.attention = trace
    store = PromptStore(tmp_path)
    store.put("model", result.prompt, result)
    loaded = store.get("model", result.prompt)
    assert loaded.attention is not None
    assert loaded.attention.num_layers == 2
    assert loaded.attention.num_heads == 2
    assert [t.hex() for t in loaded.attention.source_totals] == [
        t.hex() for t in trace.source_totals
    ]


def test_round_trip_simulated_generation_is_faithful(tmp_path):
    llm = SimulatedLLM()
    prompt = (
        "Answer the question using only the numbered sources.\n\n"
        "Sources:\n1. Roger Federer is widely considered the best player.\n\n"
        "Question: Who is the best tennis player?\n\nAnswer:"
    )
    real = llm.generate(prompt)
    store = PromptStore(tmp_path)
    store.put(llm.name, prompt, real)
    loaded = store.get(llm.name, prompt)
    assert loaded.answer == real.answer
    assert loaded.usage == real.usage
    assert [t.hex() for t in loaded.attention.source_totals] == [
        t.hex() for t in real.attention.source_totals
    ]


def test_entries_are_written_at_the_current_schema(tmp_path):
    store = PromptStore(tmp_path)
    llm = SimulatedLLM()
    prompt = PromptBuilder().build("Who won?", ["Alpha won.", "Beta won."])
    store.put(llm.name, prompt, llm.generate(prompt))
    payload = json.loads(store.path_for(llm.name, prompt).read_text("utf-8"))
    assert payload["version"] == SCHEMA_VERSION == 2
    assert set(payload["attention"]) == {"num_layers", "num_heads", "source_totals"}
    assert len(payload["attention"]["source_totals"]) == 2


def _write_v1(store, prompt, attention):
    """Hand-write an entry in the version-1 layout."""
    path = store.path_for("model", prompt)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "version": 1,
        "answer": "Roger Federer",
        "prompt": prompt,
        "usage": {"prompt_tokens": 7, "completion_tokens": 2},
        "diagnostics": {"intent": "superlative"},
        "attention": attention,
    }), "utf-8")


def test_v1_entry_without_attention_is_a_hit(tmp_path):
    """Version-1 entries from models with no attention (each one a paid
    remote call) survive the schema bump."""
    store = PromptStore(tmp_path)
    _write_v1(store, "p", None)
    loaded = store.get("model", "p")
    assert loaded is not None and loaded.attention is None
    assert loaded.answer == "Roger Federer"
    assert store.stats.hits == 1 and store.stats.corrupt == 0
    assert store.path_for("model", "p").exists()


def test_v1_entry_with_per_token_attention_decodes_to_totals(tmp_path):
    """Per-token values sum, per source and in token order, to exactly
    the totals version 1 readers computed."""
    tokens = [
        (0, "roger", [[0.1, 0.2], [0.3, 0.7]]),
        (0, "federer", [[1e-17, 0.25], [0.125, 1.0]]),
        (2, "best", [[0.3, 0.1], [0.2, 1e-16]]),
    ]
    store = PromptStore(tmp_path)
    _write_v1(store, "p", {
        "num_layers": 2,
        "num_heads": 2,
        "tokens": [
            {"token": token, "source_index": index, "values": values}
            for index, token, values in tokens
        ],
    })
    expected = [0.0, 0.0, 0.0]
    for index, _, values in tokens:
        expected[index] += sum(sum(layer) for layer in values)
    loaded = store.get("model", "p")
    assert loaded is not None
    assert store.stats.hits == 1 and store.stats.corrupt == 0
    assert loaded.attention.num_layers == 2 and loaded.attention.num_heads == 2
    assert [t.hex() for t in loaded.attention.source_totals] == [t.hex() for t in expected]


def test_attention_explain_over_warm_store_matches_cold(big_three, tmp_path):
    """ATTENTION relevance reads its totals from store hits alike."""
    config = RageConfig(
        k=big_three.k, cache_dir=str(tmp_path / "store"), relevance_method="attention"
    )

    def explain(llm):
        rage = Rage.from_corpus(big_three.corpus, llm, config=config)
        context = rage.retrieve(big_three.query)
        scores = {doc: value.hex() for doc, value in rage.relevance_scores(context).items()}
        return rage, scores, encode_json(report_payload(rage.explain(big_three.query)))

    cold, cold_scores, cold_body = explain(SimulatedLLM(knowledge=big_three.knowledge))
    assert cold.store.stats.writes > 0

    class Exploding(SimulatedLLM):
        def generate(self, prompt):  # pragma: no cover - must not be reached
            raise AssertionError("warm run must not touch the model")

        def generate_batch(self, prompts):  # pragma: no cover
            raise AssertionError("warm run must not touch the model")

    warm, warm_scores, warm_body = explain(Exploding(knowledge=big_three.knowledge))
    assert warm.store.stats.hits > 0 and warm.store.stats.corrupt == 0
    assert warm_scores == cold_scores
    assert warm_body == cold_body


@settings(max_examples=25, deadline=None)
@given(
    answer=st.text(min_size=0, max_size=80),
    prompt=st.text(min_size=1, max_size=200),
    model=st.text(min_size=1, max_size=30),
    prompt_tokens=st.integers(min_value=0, max_value=10**6),
    completion_tokens=st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(tmp_path_factory, answer, prompt, model,
                             prompt_tokens, completion_tokens):
    store = PromptStore(tmp_path_factory.mktemp("store"))
    original = GenerationResult(
        answer=answer,
        prompt=prompt,
        usage=TokenUsage(prompt_tokens, completion_tokens),
        diagnostics={"echo": answer},
    )
    store.put(model, prompt, original)
    loaded = store.get(model, prompt)
    assert loaded is not None
    assert loaded.answer == original.answer
    assert loaded.prompt == original.prompt
    assert loaded.usage == original.usage
    assert loaded.diagnostics == {"echo": answer}


def test_encode_decode_rejects_schema_mismatch():
    payload = encode_result(_result())
    payload["version"] = 99
    with pytest.raises(ValueError):
        decode_result(payload)


# -- misses and corruption ------------------------------------------------


def test_absent_entry_is_a_miss(tmp_path):
    store = PromptStore(tmp_path)
    assert store.get("model", "never written") is None
    assert store.stats.misses == 1
    assert store.stats.hit_rate == 0.0


def test_truncated_entry_falls_back_to_miss_and_heals(tmp_path):
    store = PromptStore(tmp_path)
    result = _result()
    store.put("model", result.prompt, result)
    path = store.path_for("model", result.prompt)
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert store.get("model", result.prompt) is None
    assert store.stats.corrupt == 1
    assert not path.exists()  # dropped so a rewrite heals the store
    store.put("model", result.prompt, result)
    assert store.get("model", result.prompt).answer == result.answer


@pytest.mark.parametrize(
    "garbage",
    [b"", b"not json at all", b"\xff\xfe\x00", b'{"version": 1}', b'[1, 2, 3]',
     b'{"version": 1, "answer": "a", "prompt": "p", "usage": {}}',
     b'{"version": 1, "answer": "a", "prompt": "p", "usage": {"prompt_tokens": 1,'
     b' "completion_tokens": 1}, "attention": {"num_layers": 1, "num_heads": 1,'
     b' "tokens": [{"token": "t", "source_index": -1, "values": [[0.5]]}]}}'],
)
def test_garbled_entries_never_raise(tmp_path, garbage):
    store = PromptStore(tmp_path)
    path = store.path_for("model", "p")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(garbage)
    assert store.get("model", "p") is None
    assert store.stats.corrupt == 1


# -- layout and inventory -------------------------------------------------


def test_sharded_layout_and_inventory(tmp_path):
    store = PromptStore(tmp_path)
    for index in range(20):
        result = _result(prompt=f"prompt {index}")
        store.put("model", result.prompt, result)
    assert store.entry_count == 20
    assert store.total_bytes > 0
    for path in store.entries():
        key = path.stem
        assert path.parent.name == key[:2]
        assert path.parent.parent == store.root
    assert not list(store.root.glob("**/.tmp-*"))  # atomic writes leave no temp files


def test_clear_removes_everything(tmp_path):
    store = PromptStore(tmp_path)
    for index in range(5):
        store.put("model", f"p{index}", _result(prompt=f"p{index}"))
    assert store.clear() == 5
    assert store.entry_count == 0
    assert store.get("model", "p0") is None


def test_put_is_idempotent(tmp_path):
    store = PromptStore(tmp_path)
    result = _result()
    store.put("model", result.prompt, result)
    store.put("model", result.prompt, result)
    assert store.entry_count == 1


# -- eviction -------------------------------------------------------------


def test_eviction_respects_size_cap(tmp_path):
    store = PromptStore(tmp_path, max_bytes=2000)
    for index in range(30):
        store.put("model", f"prompt {index}", _result(prompt=f"prompt {index}"))
    assert store.total_bytes <= 2000
    assert store.entry_count < 30
    assert store.stats.evictions > 0


def test_eviction_is_least_recently_used(tmp_path):
    store = PromptStore(tmp_path, max_bytes=10**9)  # no eviction while seeding
    for index in range(6):
        store.put("model", f"p{index}", _result(prompt=f"p{index}"))
        # Strictly increasing mtimes without sleeping.
        path = store.path_for("model", f"p{index}")
        os.utime(path, (index, index))
    # Touch p0 so it becomes the most recently used entry.
    newest = 100
    os.utime(store.path_for("model", "p0"), (newest, newest))
    entry_size = store.total_bytes // 6
    store.max_bytes = int(entry_size * 2.5)  # room for ~2 entries
    store.put("model", "p-new", _result(prompt="p-new"))
    os.utime(store.path_for("model", "p-new"), (newest + 1, newest + 1))
    store._evict_to_cap()
    survivors = {path.stem for path in store.entries()}
    assert store.path_for("model", "p0").stem in survivors  # recently used
    assert store.path_for("model", "p1").stem not in survivors  # oldest went first


def test_invalid_max_bytes_rejected(tmp_path):
    with pytest.raises(ConfigError):
        PromptStore(tmp_path, max_bytes=0)


# -- concurrency ----------------------------------------------------------


def test_concurrent_writers_and_readers_are_safe(tmp_path):
    store = PromptStore(tmp_path)
    prompts = [f"prompt {index}" for index in range(8)]
    errors = []
    barrier = threading.Barrier(8)

    def hammer(worker):
        try:
            barrier.wait(timeout=10)
            for _ in range(25):
                for prompt in prompts:
                    store.put("model", prompt, _result(prompt=prompt))
                    loaded = store.get("model", prompt)
                    # A concurrent clear()-free store never loses a
                    # written entry, and never serves a torn one.
                    assert loaded is not None and loaded.prompt == prompt
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert not errors
    assert store.entry_count == len(prompts)
    assert store.stats.corrupt == 0


# -- lifetime counters ----------------------------------------------------


def test_persist_stats_accumulates_across_sessions(tmp_path):
    first = PromptStore(tmp_path)
    first.put("model", "p", _result(prompt="p"))
    first.get("model", "p")
    first.get("model", "missing")
    meta = first.persist_stats()
    assert meta["hits"] == 1 and meta["misses"] == 1 and meta["writes"] == 1

    second = PromptStore(tmp_path)
    second.get("model", "p")
    meta = second.persist_stats()
    assert meta["hits"] == 2 and meta["misses"] == 1

    # Repeated persistence must not double-count.
    assert second.persist_stats()["hits"] == 2


def test_two_concurrent_writers_never_lose_updates(tmp_path):
    """Regression: two serving processes sharing one cache dir used to
    clobber each other's lifetime counters.

    The old layout read-modify-wrote one ``_meta.json``; with writer A
    persisting after writer B, B's delta vanished.  Each session now
    owns a private delta file merged on read, so interleaved persists
    in *any* order must sum exactly.
    """
    writer_a = PromptStore(tmp_path)
    writer_b = PromptStore(tmp_path)
    # The worst-case interleaving for read-modify-write: both read the
    # same baseline, then persist one after the other, repeatedly.
    for round_number in range(3):
        writer_a.put("model", f"a-{round_number}", _result(prompt=f"a-{round_number}"))
        writer_b.put("model", f"b-{round_number}", _result(prompt=f"b-{round_number}"))
        writer_a.get("model", f"a-{round_number}")
        writer_b.get("model", "never-written")
        writer_a.persist_stats()
        writer_b.persist_stats()
    merged = PromptStore(tmp_path).read_meta()
    assert merged["writes"] == 6  # 3 each — nothing clobbered
    assert merged["hits"] == 3  # all of A's
    assert merged["misses"] == 3  # all of B's


def test_meta_merges_legacy_single_file_aggregate(tmp_path):
    """Counters persisted by the old single-file layout still count."""
    (tmp_path / "_meta.json").write_text(
        json.dumps({"hits": 40, "misses": 2}), encoding="utf-8"
    )
    store = PromptStore(tmp_path)
    store.put("model", "p", _result(prompt="p"))
    store.get("model", "p")
    meta = store.persist_stats()
    assert meta["hits"] == 41 and meta["misses"] == 2 and meta["writes"] == 1


def test_clear_removes_session_meta_files(tmp_path):
    store = PromptStore(tmp_path)
    store.put("model", "p", _result(prompt="p"))
    store.persist_stats()
    assert store.read_meta()["writes"] == 1
    store.clear()
    assert store.read_meta() == {}
    assert store.entry_count == 0


def test_persist_after_clear_does_not_resurrect_counters(tmp_path):
    """Regression: clear() wipes the on-disk lifetime counters, so a
    later persist (e.g. server shutdown) must not write the pre-clear
    session totals back."""
    store = PromptStore(tmp_path)
    store.put("model", "p", _result(prompt="p"))
    store.get("model", "p")
    store.persist_stats()
    store.clear()
    assert store.persist_stats() == {}  # nothing to resurrect
    # Post-clear traffic starts a fresh count.
    store.put("model", "q", _result(prompt="q"))
    assert store.persist_stats()["writes"] == 1


def test_idle_session_persists_no_meta_file(tmp_path):
    store = PromptStore(tmp_path)
    assert store.persist_stats() == {}
    assert list(tmp_path.glob("_meta*")) == []


def test_old_session_meta_files_compact_into_aggregate(tmp_path):
    """Session files do not accumulate forever: once enough exist, the
    hour-old ones fold into _meta.json with totals preserved."""
    import json as json_mod
    import os as os_mod
    import time as time_mod

    # Simulate many finished CLI runs: one session file each, all old.
    stale = time_mod.time() - 7200
    for i in range(25):
        path = tmp_path / f"_meta-dead-{i:04d}.json"
        path.write_text(json_mod.dumps({"hits": 1, "writes": 2}), "utf-8")
        os_mod.utime(path, (stale, stale))
    store = PromptStore(tmp_path)
    store.put("model", "p", _result(prompt="p"))
    merged = store.persist_stats()  # triggers the compaction pass
    assert merged["hits"] == 25 and merged["writes"] == 51
    remaining = list(tmp_path.glob("_meta-*.json"))
    assert len(remaining) == 1  # only this session's live file
    aggregate = json_mod.loads((tmp_path / "_meta.json").read_text("utf-8"))
    assert aggregate == {"hits": 25, "writes": 50}
    # Totals survive the fold for every reader.
    assert PromptStore(tmp_path).read_meta() == merged


def test_owner_rebaselines_after_its_file_is_compacted(tmp_path):
    """An owner whose session file was folded away must persist only
    the not-yet-aggregated remainder — never its full cumulative
    counters again (that would double-count the folded part)."""
    store = PromptStore(tmp_path)
    store.put("model", "p", _result(prompt="p"))
    store.persist_stats()
    # Simulate a compactor folding this session's file into the base.
    session_file = next(tmp_path.glob("_meta-*.json"))
    (tmp_path / "_meta.json").write_text(session_file.read_text("utf-8"), "utf-8")
    session_file.unlink()
    # More traffic, then persist again: totals must not double.
    store.put("model", "q", _result(prompt="q"))
    merged = store.persist_stats()
    assert merged["writes"] == 2
    # And idempotence still holds under the new session file.
    assert store.persist_stats()["writes"] == 2


def test_read_meta_tolerates_garbage(tmp_path):
    store = PromptStore(tmp_path)
    (store.root / "_meta.json").write_text("{broken", encoding="utf-8")
    assert store.read_meta() == {}
    (store.root / "_meta.json").write_text(json.dumps([1, 2]), encoding="utf-8")
    assert store.read_meta() == {}


def test_put_is_best_effort_on_write_failure(tmp_path, monkeypatch):
    """A failing filesystem costs the entry, never the explanation."""
    store = PromptStore(tmp_path)

    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    result = _result()
    store.put("model", result.prompt, result)  # must not raise
    assert store.stats.write_errors == 1
    assert store.stats.writes == 0
    monkeypatch.undo()
    assert store.get("model", result.prompt) is None  # nothing committed
    assert not list(store.root.glob("**/.tmp-*"))  # temp file cleaned up


def test_root_expands_user(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    store = PromptStore("~/rage-store")
    assert store.root == tmp_path / "rage-store"
    assert store.root.is_dir()


def test_usage_counts_entries_and_bytes_in_one_walk(tmp_path):
    store = PromptStore(tmp_path)
    for index in range(3):
        store.put("model", f"p{index}", _result(prompt=f"p{index}"))
    entries, nbytes = store.usage()
    assert entries == 3
    assert nbytes == sum(p.stat().st_size for p in store.entries())
