"""BM25 / TF-IDF scoring tests."""

import math

import pytest

from repro.errors import ConfigError
from repro.retrieval import BM25Scorer, Document, InvertedIndex, TfIdfScorer, top_k


@pytest.fixture(scope="module")
def index():
    docs = [
        Document(doc_id="a", text="apple banana apple"),
        Document(doc_id="b", text="banana cherry banana cherry banana"),
        Document(doc_id="c", text="cherry date elderberry fig grape"),
    ]
    return InvertedIndex.build(docs)


def test_bm25_param_validation():
    with pytest.raises(ConfigError):
        BM25Scorer(k1=-1)
    with pytest.raises(ConfigError):
        BM25Scorer(b=1.5)


def test_bm25_idf_nonnegative(index):
    scorer = BM25Scorer()
    for term in index.vocabulary():
        assert scorer.idf(index, term) >= 0.0
    assert scorer.idf(index, "absent") == 0.0


def test_bm25_idf_rarer_is_larger(index):
    scorer = BM25Scorer()
    # "appl" appears in 1 doc, "banana" in 2: rarer term has larger IDF.
    assert scorer.idf(index, "appl") > scorer.idf(index, "banana")


def test_bm25_scores_only_matching_docs(index):
    scores = BM25Scorer().score_query(index, ["appl"])
    assert set(scores) == {"a"}
    assert scores["a"] > 0


def test_bm25_more_matches_scores_higher(index):
    scores = BM25Scorer().score_query(index, ["banana", "cherri"])
    assert scores["b"] > scores["a"]
    assert scores["b"] > scores["c"]


def test_bm25_tf_saturation(index):
    """Increasing tf increases the score but with diminishing returns."""
    scorer = BM25Scorer(k1=1.2, b=0.0)
    idf = scorer.idf(index, "banana")

    def partial(tf):
        return idf * tf * (scorer.k1 + 1) / (tf + scorer.k1)

    assert partial(2) > partial(1)
    assert partial(2) - partial(1) < partial(1) - partial(0)


def test_bm25_empty_index():
    assert BM25Scorer().score_query(InvertedIndex(), ["term"]) == {}


def test_bm25_k1_zero_ignores_tf(index):
    """With k1=0 the per-term contribution is exactly IDF for any tf>0."""
    scorer = BM25Scorer(k1=0.0, b=0.0)
    scores = scorer.score_query(index, ["banana"])
    assert math.isclose(scores["a"], scorer.idf(index, "banana"))
    assert math.isclose(scores["b"], scorer.idf(index, "banana"))


def test_tfidf_scores(index):
    scores = TfIdfScorer().score_query(index, ["banana"])
    assert scores["b"] > scores["a"]  # higher tf wins despite longer doc
    assert "c" not in scores


def test_tfidf_absent_term(index):
    assert TfIdfScorer().score_query(index, ["absent"]) == {}


def test_top_k_ordering():
    scores = {"x": 1.0, "y": 3.0, "z": 2.0}
    assert top_k(scores, 2) == [("y", 3.0), ("z", 2.0)]


def test_top_k_tiebreak_by_id():
    scores = {"b": 1.0, "a": 1.0}
    assert top_k(scores, 2) == [("a", 1.0), ("b", 1.0)]


def test_top_k_invalid():
    with pytest.raises(ConfigError):
        top_k({"a": 1.0}, 0)


# ---------------------------------------------------------------------------
# Scorers read (doc_id, tf) pairs; the loop over full postings is the oracle


def _reference_bm25(index, terms, k1=0.9, b=0.4):
    scores = {}
    n = len(index)
    avgdl = index.stats.average_doc_length or 1.0
    for term in terms:
        df = index.document_frequency(term)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for posting in index.postings(term):
            tf = posting.term_frequency
            dl = index.doc_length(posting.doc_id)
            denom = tf + k1 * (1.0 - b + b * dl / avgdl)
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + idf * tf * (k1 + 1.0) / denom
    return scores


def _reference_tfidf(index, terms):
    scores = {}
    for term in terms:
        df = index.document_frequency(term)
        if df == 0:
            continue
        idf = math.log(1.0 + len(index) / df)
        for posting in index.postings(term):
            weight = (1.0 + math.log(posting.term_frequency)) * idf
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + weight
    for doc_id in list(scores):
        length = index.doc_length(doc_id)
        scores[doc_id] /= math.sqrt(length) if length > 0 else 1.0
    return scores


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_scorers_equal_the_postings_loop(tiny_corpus, tmp_path, backend):
    from repro.retrieval import open_index

    if backend == "memory":
        target = InvertedIndex.build(tiny_corpus)
    else:
        target = open_index(tmp_path / "ix")
        target.add_many(tiny_corpus)
    try:
        for query in ("quick fox", "lazy dogs and cats", "quick quick brown", "absent"):
            terms = target.tokenizer.tokenize(query)
            assert BM25Scorer().score_query(target, terms) == _reference_bm25(target, terms)
            assert TfIdfScorer().score_query(target, terms) == _reference_tfidf(target, terms)
    finally:
        if backend == "sqlite":
            target.close()
