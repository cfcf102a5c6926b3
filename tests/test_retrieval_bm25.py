"""BM25 / TF-IDF scoring tests, and the dict-loop oracle every array
ranking (sparse, dense, fused) must equal float for float."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.retrieval import (
    BM25Scorer,
    DenseIndex,
    DenseScorer,
    Document,
    HybridScorer,
    InvertedIndex,
    ReciprocalRankFusionScorer,
    Searcher,
    SqliteSearcher,
    TfIdfScorer,
    make_retrieval_scorer,
    open_index,
    top_k,
)


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
    # The other documents are misses of the mapping, as in a dict.
    assert "b" not in scores and scores.get("missing") is None
    with pytest.raises(KeyError):
        scores["b"]


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


def test_tfidf_takes_the_log_of_tf_with_math_log():
    """``np.log`` and ``math.log`` can differ in the last bit (they do for
    tf = 9170 with NumPy 2 on x86-64); the array path must use math.log."""
    index = InvertedIndex.build(
        [Document(doc_id="a", text="alpha " * 9170), Document(doc_id="b", text="bravo")]
    )
    scores = TfIdfScorer().score_query(index, ["alpha"])
    assert scores["a"].hex() == _reference_tfidf(index, ["alpha"])["a"].hex()


def _reference_dense(index, dense_index, terms):
    scores = dense_index.scores(" ".join(terms))
    return {d: s for d, s in scores.items() if s > 0.0 and d in index}


def _reference_normalize(scores):
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if math.isclose(low, high):
        return {doc_id: 1.0 for doc_id in scores}
    return {doc_id: (s - low) / (high - low) for doc_id, s in scores.items()}


def _reference_minmax(sparse, dense, alpha):
    sparse, dense = _reference_normalize(sparse), _reference_normalize(dense)
    return {
        doc_id: alpha * sparse.get(doc_id, 0.0) + (1.0 - alpha) * dense.get(doc_id, 0.0)
        for doc_id in set(sparse) | set(dense)
    }


def _reference_ranked(scores):
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def _reference_rrf(signals, weights, k0=60.0):
    fused = {}
    for weight, scores in zip(weights, signals):
        for rank, (doc_id, _) in enumerate(_reference_ranked(scores), start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + weight / (k0 + rank)
    return fused


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_scorers_equal_the_postings_loop(tiny_corpus, tmp_path, backend):
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


# ---------------------------------------------------------------------------
# Property: every array ranking equals the dict-loop oracle, float for float


class _DictScorer:
    """A custom scorer returning a plain ``{doc_id: score}`` dict."""

    def __init__(self, reference):
        self.reference = reference

    def score_query(self, index, query_terms):
        return self.reference(index, query_terms)


# "the" and "and" are stopwords: documents with no terms (no positive
# cosine) and queries that analyze to nothing.  A small vocabulary makes
# tied scores and repeated query terms common.
WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "the", "and"]
DOC_IDS = [f"d{i}" for i in range(8)]
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
corpora = st.dictionaries(st.sampled_from(DOC_IDS), texts, min_size=1, max_size=8)
checks = st.tuples(
    st.just("check"), st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
    st.integers(1, 10),  # from 1 to past the corpus size
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(DOC_IDS), texts),
        st.tuples(st.just("remove"), st.sampled_from(DOC_IDS)),
        checks,
    ),
    max_size=10,
)
alphas = st.sampled_from([0.0, 0.3, 0.5, 1.0])


def _ranking(searcher, query, k):
    sources = searcher.search(query, k=k).sources
    assert all(type(s.score) is float for s in sources)
    return [(s.doc_id, s.rank, s.score.hex()) for s in sources]


def _oracle(scores, k):
    ranked = _reference_ranked(scores)[:k]
    return [(doc_id, rank, score.hex()) for rank, (doc_id, score) in enumerate(ranked, start=1)]


def _assert_rankings_match(index, dense_index, searchers, query, k, alpha):
    """``searchers``: name -> Searcher; every one must equal its oracle."""
    terms = index.tokenizer.tokenize(query)
    bm25 = _reference_bm25(index, terms)
    tfidf = _reference_tfidf(index, terms)
    dense = _reference_dense(index, dense_index, terms)
    oracles = {
        "bm25": bm25,
        "tfidf": tfidf,
        "dense": dense,
        "minmax": _reference_minmax(bm25, dense, alpha),
        "rrf": _reference_rrf([bm25, dense], [alpha, 1.0 - alpha]),
        "custom": tfidf,
        "custom-minmax": _reference_minmax(tfidf, dense, alpha),
        "custom-rrf": _reference_rrf([tfidf, bm25], [1.0, 1.0]),
    }
    for name, searcher in searchers.items():
        assert _ranking(searcher, query, k) == _oracle(oracles[name], k), name


def _custom_searchers(cls, index, dense, alpha):
    custom = _DictScorer(_reference_tfidf)
    return {
        "tfidf": cls(index, scorer=TfIdfScorer()),
        "custom": cls(index, scorer=custom),
        "custom-minmax": cls(index, scorer=HybridScorer(custom, dense, alpha=alpha)),
        "custom-rrf": cls(index, scorer=ReciprocalRankFusionScorer([custom, BM25Scorer()])),
    }


@given(corpora, steps, alphas)
@settings(max_examples=60, deadline=None)
def test_in_memory_rankings_equal_the_dict_oracle(corpus, steps, alpha):
    """Adds, updates and removes interleave with searches, so a row space
    kept past a change would rank a stale document set."""
    index = InvertedIndex.build(Document(doc_id=d, text=t) for d, t in corpus.items())
    dense_index = DenseIndex.build([Document(doc_id=d, text=t) for d, t in corpus.items()])
    dense = DenseScorer(dense_index)
    searchers = {
        "bm25": Searcher(index),
        "dense": Searcher(index, scorer=dense),
        "minmax": Searcher(index, scorer=HybridScorer(BM25Scorer(), dense, alpha=alpha)),
        "rrf": Searcher(
            index,
            scorer=ReciprocalRankFusionScorer(
                [BM25Scorer(), dense], weights=[alpha, 1.0 - alpha]
            ),
        ),
        **_custom_searchers(Searcher, index, dense, alpha),
    }
    for step in steps + [("check", "alpha bravo alpha", 3), ("check", "echo delta", 10)]:
        if step[0] == "put":
            doc = Document(doc_id=step[1], text=step[2])
            (index.update_document if step[1] in index else index.add_document)(doc)
        elif step[0] == "remove" and step[1] in index and len(index) > 1:
            index.remove_document(step[1])
        elif step[0] == "check":
            _assert_rankings_match(index, dense_index, searchers, step[1], step[2], alpha)


@given(corpora, steps, alphas)
@settings(max_examples=40, deadline=None)
def test_persistent_rankings_equal_the_dict_oracle(corpus, steps, alpha):
    with tempfile.TemporaryDirectory() as tmp, open_index(Path(tmp) / "ix", dense=True) as ix:
        ix.add_many(Document(doc_id=d, text=t) for d, t in corpus.items())
        dense = DenseScorer(ix.dense_view())
        searchers = {
            mode if mode != "hybrid" else fusion: SqliteSearcher(
                ix, scorer=make_retrieval_scorer(ix, mode=mode, fusion=fusion, alpha=alpha)
            )
            for mode, fusion in [
                ("bm25", "minmax"), ("dense", "minmax"), ("hybrid", "minmax"), ("hybrid", "rrf"),
            ]
        }
        searchers.update(_custom_searchers(SqliteSearcher, ix, dense, alpha))
        for step in steps + [("check", "alpha bravo alpha", 3), ("check", "echo delta", 10)]:
            if step[0] == "put":
                ix.add(Document(doc_id=step[1], text=step[2]))
            elif step[0] == "remove" and step[1] in ix and len(ix) > 1:
                ix.remove(step[1])
            elif step[0] == "check":
                _assert_rankings_match(ix, ix.dense_view(), searchers, step[1], step[2], alpha)
