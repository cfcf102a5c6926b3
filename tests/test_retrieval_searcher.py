"""Top-k searcher tests."""

import pytest

from repro.errors import ConfigError, EmptyIndexError
from repro.retrieval import InvertedIndex, Searcher, SqliteSearcher, TfIdfScorer, open_index


def test_search_ranks_best_first(tiny_searcher):
    result = tiny_searcher.search("quick brown fox", k=4)
    assert result.doc_ids()[0] == "d4"  # three 'quick' + foxes, short doc
    assert len(result) >= 3


def test_search_k_limits_results(tiny_searcher):
    result = tiny_searcher.search("quick fox", k=2)
    assert len(result) == 2


def test_search_scores_descending(tiny_searcher):
    result = tiny_searcher.search("quick brown fox dog", k=4)
    scores = result.scores()
    assert scores == sorted(scores, reverse=True)


def test_search_ranks_are_one_based(tiny_searcher):
    result = tiny_searcher.search("fox", k=3)
    assert [s.rank for s in result.sources] == list(range(1, len(result) + 1))


def test_search_no_match(tiny_searcher):
    result = tiny_searcher.search("zebra xylophone", k=3)
    assert len(result) == 0
    assert result.documents() == []


def test_search_empty_index():
    with pytest.raises(EmptyIndexError):
        Searcher(InvertedIndex()).search("anything")


def test_search_all(tiny_searcher):
    result = tiny_searcher.search_all("quick fox dog cats")
    assert len(result) == 4


def test_retrieved_source_shortcuts(tiny_searcher):
    result = tiny_searcher.search("fox", k=1)
    source = result.sources[0]
    assert source.doc_id == source.document.doc_id
    assert result.doc_ids() == [source.doc_id]


def test_search_with_tfidf(tiny_index):
    searcher = Searcher(tiny_index, scorer=TfIdfScorer())
    result = searcher.search("quick", k=4)
    assert result.doc_ids()[0] == "d4"


def test_deterministic_tiebreak_order(tiny_searcher):
    """Equal-scoring docs are ordered by doc_id (the use-case datasets
    rely on this for their chronological contexts)."""
    result = tiny_searcher.search("harmony cats", k=4)
    # Only d3 matches; sanity that deterministic path executes.
    assert result.doc_ids() == ["d3"]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("query", ["quick fox", "zebra"])
def test_non_positive_k_is_refused_whether_or_not_anything_matches(
    tiny_corpus, tmp_path, backend, query
):
    if backend == "memory":
        searcher = Searcher(InvertedIndex.build(tiny_corpus))
    else:
        index = open_index(tmp_path / "ix")
        index.add_many(tiny_corpus)
        searcher = SqliteSearcher(index)
    try:
        for k in (0, -1):
            with pytest.raises(ConfigError, match="k must be positive"):
                searcher.search(query, k=k)
    finally:
        if backend == "sqlite":
            index.close()
