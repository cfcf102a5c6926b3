"""E11 — Retrieval substrate sanity: the from-scratch BM25 stands in for
Pyserini/Lucene.

Shapes: planted-relevant documents fill the top ranks exactly
(P@R = 1.0, MRR = 1.0 on the synthetic corpus); indexing and query
throughput scale linearly enough to support the demo's interactive use.
"""

import pytest

from repro.datasets import random_corpus
from repro.retrieval import BM25Scorer, InvertedIndex, Searcher, TfIdfScorer

QUERY = "needle haystack signal"


@pytest.fixture(scope="module")
def corpus_and_relevant():
    return random_corpus(2000, seed=0, num_relevant=20, doc_length=60)


@pytest.fixture(scope="module")
def index(corpus_and_relevant):
    corpus, _ = corpus_and_relevant
    return InvertedIndex.build(corpus)


def test_e11_index_build(benchmark, corpus_and_relevant):
    corpus, _ = corpus_and_relevant
    built = benchmark(lambda: InvertedIndex.build(corpus))
    assert len(built) == 2000


def test_e11_query_throughput(benchmark, index):
    searcher = Searcher(index)
    result = benchmark(lambda: searcher.search(QUERY, k=20))
    assert len(result) == 20


def test_e11_precision_at_r(index, corpus_and_relevant):
    _, relevant = corpus_and_relevant
    searcher = Searcher(index)
    result = searcher.search(QUERY, k=len(relevant))
    retrieved = set(result.doc_ids())
    precision = len(retrieved & set(relevant)) / len(relevant)
    print(f"\nE11 P@{len(relevant)} = {precision:.3f}")
    assert precision == 1.0


def test_e11_mrr(index, corpus_and_relevant):
    _, relevant = corpus_and_relevant
    searcher = Searcher(index)
    result = searcher.search(QUERY, k=50)
    relevant_set = set(relevant)
    rank = next(
        i for i, doc_id in enumerate(result.doc_ids(), start=1)
        if doc_id in relevant_set
    )
    assert 1.0 / rank == 1.0


def test_e11_bm25_beats_nothing_baseline(index, corpus_and_relevant):
    """TF-IDF also solves the planted task (both scorers are sane)."""
    _, relevant = corpus_and_relevant
    searcher = Searcher(index, scorer=TfIdfScorer())
    result = searcher.search(QUERY, k=len(relevant))
    precision = len(set(result.doc_ids()) & set(relevant)) / len(relevant)
    assert precision == 1.0


def test_e11_scoring_only_touches_postings(benchmark, index):
    """Scoring cost is driven by matching postings, not corpus size."""
    scorer = BM25Scorer()
    terms = index.tokenizer.tokenize(QUERY)
    scores = benchmark(lambda: scorer.score_query(index, terms))
    assert len(scores) == 20  # only the planted docs contain the terms


def test_e11_dense_and_hybrid(corpus_and_relevant, index):
    """Pyserini's 'sparse and dense representations': all three rankers
    solve the planted task; the table records their quality side by side."""
    from repro.retrieval import (
        DenseIndex,
        DenseScorer,
        HybridScorer,
        average_precision,
        ndcg_at_k,
        precision_at_k,
    )

    corpus, relevant = corpus_and_relevant
    dense_index = DenseIndex.build(list(corpus))
    rankers = {
        "bm25": Searcher(index),
        "dense": Searcher(index, scorer=DenseScorer(dense_index)),
        "hybrid": Searcher(
            index, scorer=HybridScorer(BM25Scorer(), DenseScorer(dense_index))
        ),
    }
    quality = {}
    print("\nE11 ranking quality by representation:")
    print(f"  {'ranker':<8} {'P@20':>6} {'AP':>6} {'nDCG@20':>8}")
    for name, searcher in rankers.items():
        ranking = searcher.search(QUERY, k=50).doc_ids()
        p = precision_at_k(ranking, relevant, 20)
        ap = average_precision(ranking, relevant)
        ndcg = ndcg_at_k(ranking, relevant, 20)
        quality[name] = p
        print(f"  {name:<8} {p:>6.3f} {ap:>6.3f} {ndcg:>8.3f}")
    # Exact term matching solves the planted task perfectly; hashed
    # dense embeddings are approximate (bucket collisions), and the
    # hybrid recovers sparse-level quality — the standard fusion shape.
    assert quality["bm25"] == 1.0
    assert quality["dense"] >= 0.7
    assert quality["hybrid"] == 1.0
    assert quality["hybrid"] >= quality["dense"]


def test_e11_dense_query_throughput(benchmark, corpus_and_relevant, index):
    from repro.retrieval import DenseIndex, DenseScorer

    corpus, _ = corpus_and_relevant
    searcher = Searcher(index, scorer=DenseScorer(DenseIndex.build(list(corpus))))
    result = benchmark(lambda: searcher.search(QUERY, k=20))
    assert len(result) == 20
