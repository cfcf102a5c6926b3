"""Property-based tests for the retrieval substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import BM25Scorer, Corpus, Document, InvertedIndex, Searcher
from tests.test_retrieval_bm25 import _analyzed

words = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=8)
doc_texts = st.lists(words, min_size=1, max_size=30).map(" ".join)


@st.composite
def corpora(draw):
    texts = draw(st.lists(doc_texts, min_size=1, max_size=8))
    return Corpus(
        Document(doc_id=f"d{i}", text=text) for i, text in enumerate(texts)
    )


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_index_consistency(corpus):
    index = InvertedIndex.build(corpus)
    analyzed = _analyzed(index.tokenizer, corpus)
    assert len(index) == len(corpus)
    stats = index.stats
    space = index.row_space()
    assert space.ids == sorted(analyzed)
    assert space.lengths.tolist() == [len(analyzed[doc_id]) for doc_id in space.ids]
    assert stats.total_terms == int(space.lengths.sum())
    vocabulary = sorted(set().union(*analyzed.values()))
    assert stats.vocabulary_size == len(vocabulary)
    # df of every term equals its postings length and is within bounds
    view = index.scoring_view(vocabulary)
    for term in vocabulary:
        df = view.frequency(term)
        assert 1 <= df <= len(corpus)
        assert df == len(view.postings[term][0]) == sum(term in t for t in analyzed.values())


@given(corpora())
@settings(max_examples=40, deadline=None)
def test_postings_tf_matches_positions(corpus):
    """Each posting's tf is the number of positions at which the
    document's analyzed text holds the term."""
    index = InvertedIndex.build(corpus)
    analyzed = _analyzed(index.tokenizer, corpus)
    vocabulary = sorted(set().union(*analyzed.values()))
    view = index.scoring_view(vocabulary)
    for term in vocabulary:
        rows, tf = view.postings[term]
        for row, frequency in zip(rows.tolist(), tf.tolist()):
            terms = analyzed[view.space.ids[row]]
            assert frequency == len([p for p, t in enumerate(terms) if t == term]) > 0


@given(corpora(), st.lists(words, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_bm25_scores_nonnegative(corpus, query_words):
    index = InvertedIndex.build(corpus)
    analyzed = _analyzed(index.tokenizer, corpus)
    scores = BM25Scorer().score_query(index, query_words)
    assert all(value >= 0 for value in scores.values())
    # only documents containing at least one query term are scored
    for doc_id in scores:
        assert any(w in analyzed[doc_id] for w in query_words)


@given(corpora(), st.lists(words, min_size=1, max_size=4), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_search_ranking_invariants(corpus, query_words, k):
    searcher = Searcher(InvertedIndex.build(corpus))
    result = searcher.search(" ".join(query_words), k=k)
    assert len(result) <= k
    scores = result.scores()
    assert scores == sorted(scores, reverse=True)
    assert len(set(result.doc_ids())) == len(result)


@given(corpora(), st.lists(words, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_search_deterministic(corpus, query_words):
    query = " ".join(query_words)
    searcher = Searcher(InvertedIndex.build(corpus))
    assert searcher.search(query, k=5).doc_ids() == searcher.search(query, k=5).doc_ids()


@given(corpora())
@settings(max_examples=20, deadline=None)
def test_adding_matching_term_does_not_hurt(corpus):
    """Appending the query term to a document never lowers its score."""
    query_word = "zzzneedle"
    index_before = InvertedIndex.build(corpus)
    boosted = Corpus(
        Document(doc_id=doc.doc_id, text=doc.text + " " + query_word)
        for doc in corpus
    )
    index_after = InvertedIndex.build(boosted)
    query_terms = index_before.tokenizer.tokenize(query_word)  # analyzed form
    before = BM25Scorer().score_query(index_before, query_terms)
    after = BM25Scorer().score_query(index_after, query_terms)
    assert not before
    assert set(after) == {doc.doc_id for doc in corpus}
