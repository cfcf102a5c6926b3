"""E21 — Persistent retrieval index: build vs warm-open, incremental sync,
hybrid fusion quality.

PR 9 moves the retrieval substrate onto a SQLite-backed persistent
index (``retrieval/sqlindex.py``): postings, doc lengths and dense
vectors in one WAL database, loaded lazily on open.  Shapes asserted:

1. **Warm restart is a file open, not a rebuild** — reopening a
   persisted index serves byte-identical rankings to the build that
   wrote it, tokenizes *zero* documents, and at the top corpus tier is
   >= 10x faster than rebuilding from text (in practice it is orders
   of magnitude faster; the build/query latency table records the
   scaling across tiers).
2. **Incremental sync is change-driven** — re-syncing an unchanged
   corpus writes nothing (every document hashes as ``unchanged``), and
   a single-document edit re-tokenizes exactly one document.
3. **The write path is reported** — per tier, the median latency of a
   single-document update and of an add of a new document, each with
   the first hybrid search after it (the search that folds the write
   into the read view), next to a plain search and a first read: a
   search whose winners no earlier search returned, so its view keeps
   none of their documents yet.  An update keeps its document's row; an
   add inserts a row.  Recorded, not asserted.
4. **Fusion beats its parts honestly** — on the planted-relevant
   synthetic corpus, min-max and reciprocal-rank hybrid fusion match
   or beat BM25-only precision, and on the demo worlds both fusion
   strategies agree with BM25 on the top-ranked source for the
   canonical query (the persistent index is a storage change, not a
   relevance regression).

Corpus tiers default to 1k/10k/100k chunks; CI smoke trims them via
``BENCH_E21_TIERS`` (comma-separated sizes) to keep the job quick.
Set ``BENCH_E21_OUT`` to write the results table as JSON (uploaded as
a CI artifact).
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics

import pytest

from _harness import assert_speedup, print_rows, timed, write_results

from repro.datasets import load_use_case, random_corpus
from repro.retrieval import (
    SqliteSearcher,
    make_retrieval_scorer,
    open_index,
    precision_at_k,
)

QUERY = "needle haystack signal"

#: Corpus sizes ("chunks") exercised by the scaling table.  CI smoke
#: overrides this down; the full ladder runs by default.
TIERS = [
    int(tier)
    for tier in os.environ.get("BENCH_E21_TIERS", "1000,10000,100000").split(",")
    if tier.strip()
]

#: Queries timed per tier (averaged for the per-query latency column).
QUERY_ROUNDS = 20

#: Single-document updates, and adds, timed per tier on the write-path index.
WRITE_ROUNDS = 20

RESULTS: list = []


def _corpus(num_docs):
    corpus, relevant = random_corpus(
        num_docs, seed=0, num_relevant=20, doc_length=40
    )
    return list(corpus), relevant


@pytest.fixture(scope="module")
def tier_indexes(tmp_path_factory):
    """One persisted index per tier: {size: (dir, build_seconds, ranking)}."""
    root = tmp_path_factory.mktemp("e21")
    built = {}
    for size in TIERS:
        docs, _ = _corpus(size)
        index_dir = root / f"tier-{size}"

        def build():
            with open_index(index_dir) as index:
                index.add_many(docs)
                searcher = SqliteSearcher(index)
                return [
                    (source.doc_id, source.score)
                    for source in searcher.search(QUERY, k=20).sources
                ]

        ranking, seconds = timed(build)
        built[size] = (index_dir, seconds, ranking)
    return built


def test_e21_build_and_query_latency(tier_indexes):
    """The scaling table: build seconds and per-query latency by tier."""
    for size in TIERS:
        index_dir, build_seconds, _ = tier_indexes[size]
        with open_index(index_dir) as index:
            searcher = SqliteSearcher(index)
            searcher.search(QUERY, k=20)  # warm the page cache
            _, query_seconds = timed(
                lambda: [
                    searcher.search(QUERY, k=20) for _ in range(QUERY_ROUNDS)
                ]
            )
        RESULTS.append(
            {
                "label": f"build:{size}",
                "seconds": build_seconds,
                "query_ms": round(query_seconds / QUERY_ROUNDS * 1000, 3),
                "docs": size,
            }
        )
    print_rows("E21 index build + query latency", RESULTS[-len(TIERS):])


def test_e21_warm_open_beats_rebuild(tier_indexes):
    """Acceptance: warm open >= 10x faster than rebuild at the top tier,
    byte-identical ranking, zero re-tokenization."""
    top = max(TIERS)
    index_dir, build_seconds, cold_ranking = tier_indexes[top]

    def warm_open():
        with open_index(index_dir) as index:
            searcher = SqliteSearcher(index)
            ranking = [
                (source.doc_id, source.score)
                for source in searcher.search(QUERY, k=20).sources
            ]
            return ranking, index.counters["doc_tokenizations"]

    (warm_ranking, tokenizations), warm_seconds = timed(warm_open)
    RESULTS.append(
        {
            "label": f"warm-open:{top}",
            "seconds": warm_seconds,
            "speedup": round(build_seconds / max(warm_seconds, 1e-9), 1),
        }
    )
    print_rows("E21 warm open vs rebuild", RESULTS[-1:])
    assert warm_ranking == cold_ranking  # byte-identical ranking
    assert tokenizations == 0  # no document was re-analyzed
    assert_speedup(build_seconds, warm_seconds, 10)


def test_e21_incremental_sync_is_change_driven(tier_indexes):
    """Re-sync of an unchanged corpus is a no-op; one edit costs one doc."""
    size = min(TIERS)
    index_dir, build_seconds, _ = tier_indexes[size]
    docs, _ = _corpus(size)

    with open_index(index_dir) as index:
        _, noop_seconds = timed(index.sync, docs)
        assert index.counters["doc_tokenizations"] == 0
        assert index.counters["unchanged"] == size

        edited = dataclasses.replace(docs[0], text=docs[0].text + " edited")
        outcome = index.sync([edited] + docs[1:])
        assert outcome == {
            "added": 0, "updated": 1, "unchanged": size - 1, "removed": 0,
        }
        assert index.counters["doc_tokenizations"] == 1

    RESULTS.append(
        {
            "label": f"noop-sync:{size}",
            "seconds": noop_seconds,
            "vs_build": round(build_seconds / max(noop_seconds, 1e-9), 1),
        }
    )
    print_rows("E21 incremental sync", RESULTS[-1:])


def _first_read_query(round_):
    """A query of three corpus words no other round's query holds."""
    return " ".join(f"word{3 * round_ + offset:04d}" for offset in range(3))


def test_e21_write_path_latency(tmp_path):
    """Per tier: median latency of an update and of an add of a new
    document, each with the first hybrid search after it, against a
    plain search and a first read.  The plain search returns the
    winners it returned before; the first read times a query no earlier
    round used at k=20, after one search of it at k=1 has loaded its
    terms, so all but its top winner are documents no search returned.
    Each tier writes into a dense index of its own, so the other checks
    keep reading the index they built."""
    rng = random.Random(0)
    rows = []
    for size in TIERS:
        docs, _ = _corpus(size)
        with open_index(tmp_path / f"writes-{size}", dense=True) as index:
            index.add_many(docs)
            searcher = SqliteSearcher(index, scorer=make_retrieval_scorer(index, mode="hybrid"))
            searcher.search(QUERY, k=20)  # the cold load
            keys = ("update", "after_update", "add", "after_add", "plain", "first_read")
            timings = {key: [] for key in keys}
            for round_ in range(WRITE_ROUNDS):
                target = docs[rng.randrange(size)]
                edited = dataclasses.replace(target, text=f"{target.text} edit{round_}")
                timings["update"].append(timed(index.update, edited)[1])
                timings["after_update"].append(timed(searcher.search, QUERY, k=20)[1])
                added = dataclasses.replace(target, doc_id=f"{target.doc_id}-add{round_}")
                timings["add"].append(timed(index.add, added)[1])
                timings["after_add"].append(timed(searcher.search, QUERY, k=20)[1])
                timings["plain"].append(timed(searcher.search, QUERY, k=20)[1])
                fresh = _first_read_query(round_)
                searcher.search(fresh, k=1)  # loads its terms
                timings["first_read"].append(timed(searcher.search, fresh, k=20)[1])
            # Every write, update or add, folded in; no cold reload.
            assert index.counters["view_folds"] == 2 * WRITE_ROUNDS
        medians = {key: round(statistics.median(t) * 1000, 3) for key, t in timings.items()}
        rows.append(
            {
                "label": f"write-path:{size}",
                "update_ms": medians["update"],
                "search_after_update_ms": medians["after_update"],
                "add_ms": medians["add"],
                "search_after_add_ms": medians["after_add"],
                "search_ms": medians["plain"],
                "search_first_read_ms": medians["first_read"],
            }
        )
    RESULTS.extend(rows)
    print_rows("E21 write path (a write, then the search that folds it in)", rows)


def test_e21_hybrid_vs_bm25_quality(tmp_path):
    """Planted-relevant corpus: fusion matches or beats BM25 precision."""
    docs, relevant = _corpus(2000)
    with open_index(tmp_path / "quality", dense=True) as index:
        index.add_many(docs)
        rankers = {
            "bm25": make_retrieval_scorer(index, mode="bm25"),
            "dense": make_retrieval_scorer(index, mode="dense"),
            "hybrid-minmax": make_retrieval_scorer(
                index, mode="hybrid", fusion="minmax"
            ),
            "hybrid-rrf": make_retrieval_scorer(
                index, mode="hybrid", fusion="rrf"
            ),
        }
        precision = {}
        for name, scorer in rankers.items():
            searcher = SqliteSearcher(index, scorer=scorer)
            ranking = searcher.search(QUERY, k=len(relevant)).doc_ids()
            precision[name] = precision_at_k(
                ranking, relevant, k=len(relevant)
            )
            RESULTS.append({"label": f"quality:{name}", "p_at_r": precision[name]})
    print_rows("E21 hybrid vs BM25 quality (P@R)", RESULTS[-len(rankers):])
    assert precision["bm25"] == 1.0
    assert precision["hybrid-minmax"] >= precision["bm25"]
    assert precision["hybrid-rrf"] >= precision["bm25"]


def test_e21_demo_worlds_fusion_stays_in_the_bm25_pool(tmp_path):
    """On each demo world both fusion strategies fill the context from
    BM25's own top-k pool for the canonical query — fusion may reorder
    the relevant sources (the dense signal is allowed to disagree about
    *order*) but must not surface junk — then the artifact is written."""
    for name in ("big_three", "us_open", "player_of_the_year"):
        case = load_use_case(name)
        with open_index(tmp_path / name, dense=True) as index:
            index.sync(case.corpus)
            rankings = {}
            for mode, fusion in (
                ("bm25", None),
                ("hybrid", "minmax"),
                ("hybrid", "rrf"),
            ):
                scorer = make_retrieval_scorer(
                    index, mode=mode, fusion=fusion or "minmax"
                )
                searcher = SqliteSearcher(index, scorer=scorer)
                rankings[fusion or mode] = searcher.search(
                    case.query, k=case.k
                ).doc_ids()
        pool = set(rankings["bm25"])
        for strategy, ranking in rankings.items():
            assert set(ranking) <= pool, f"{name}/{strategy} left the pool"
        # Rank fusion follows the sparse signal when it is this dominant.
        assert rankings["rrf"][0] == rankings["bm25"][0]
        RESULTS.append(
            {"label": f"world:{name}", "top": rankings["bm25"][0]}
        )
    print_rows("E21 demo worlds (BM25 top source, fusion in-pool)", RESULTS[-3:])

    write_results(
        "BENCH_E21_OUT", "e21_retrieval", RESULTS, tiers=TIERS,
    )
