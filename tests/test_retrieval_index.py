"""Inverted index and corpus/document unit tests."""

import json

import numpy as np
import pytest

from repro.errors import UnknownDocumentError
from repro.retrieval import Corpus, Document, InvertedIndex
from repro.retrieval.index import RowSpace
from repro.textproc import Tokenizer


def test_document_validation():
    with pytest.raises(ValueError):
        Document(doc_id="", text="x")
    with pytest.raises(ValueError):
        Document(doc_id="d", text="")


def test_document_roundtrip():
    doc = Document(doc_id="d1", text="hello", title="t", metadata={"a": "1"})
    assert Document.from_dict(doc.to_dict()) == doc


def test_document_display_title():
    assert Document(doc_id="d", text="x", title="T").display_title() == "T"
    assert Document(doc_id="d", text="x").display_title() == "d"


def test_corpus_duplicate_rejected():
    corpus = Corpus([Document(doc_id="d", text="x")])
    with pytest.raises(ValueError):
        corpus.add(Document(doc_id="d", text="y"))


def test_corpus_lookup_and_iteration(tiny_corpus):
    assert len(tiny_corpus) == 4
    assert tiny_corpus.get("d2").doc_id == "d2"
    assert "d3" in tiny_corpus
    assert tiny_corpus.doc_ids() == ["d1", "d2", "d3", "d4"]
    with pytest.raises(UnknownDocumentError):
        tiny_corpus.get("missing")


def test_corpus_json_roundtrip(tiny_corpus):
    restored = Corpus.from_json(tiny_corpus.to_json())
    assert restored.doc_ids() == tiny_corpus.doc_ids()
    assert restored.get("d1").text == tiny_corpus.get("d1").text
    json.loads(tiny_corpus.to_json())  # valid JSON


def _postings(index, term):
    """``term``'s postings in ``index``'s scoring view, doc_id -> tf."""
    rows, tf = index.scoring_view([term]).postings[term]
    return dict(zip([index.row_space().ids[row] for row in rows.tolist()], tf.tolist()))


def test_index_document_frequency(tiny_index):
    view = tiny_index.scoring_view(["quick", "fox", "absent"])
    assert view.frequency("quick") == 3
    assert view.frequency("fox") == 3  # foxes stems to fox
    assert view.frequency("absent") == 0


def test_index_term_frequency(tiny_index):
    assert _postings(tiny_index, "quick") == {"d1": 1, "d2": 1, "d4": 3}
    assert "d3" not in _postings(tiny_index, "quick")


def test_index_doc_length(tiny_index):
    # "the quick brown fox jumps over the lazy dog" minus stopwords
    space = tiny_index.row_space()
    assert space.ids == ["d1", "d2", "d3", "d4"]
    assert space.lengths.dtype == np.int64
    assert space.lengths[space.row_of("d1")] == 6
    assert space.row_of("nope") is None


def test_index_title_indexed():
    index = InvertedIndex.build(
        [Document(doc_id="d", text="body words", title="tiger")]
    )
    assert index.scoring_view(["tiger"]).frequency("tiger") == 1


def test_index_stats(tiny_index, tiny_corpus):
    stats = tiny_index.stats
    analyzed = [tiny_index.tokenizer.tokenize(d.text + " " + d.title) for d in tiny_corpus]
    assert stats.num_documents == 4
    assert stats.total_terms == sum(map(len, analyzed)) > 0
    assert stats.average_doc_length == stats.total_terms / 4
    assert stats.vocabulary_size == len(set().union(*analyzed))


def test_empty_index_stats():
    index = InvertedIndex()
    assert index.stats.average_doc_length == 0.0
    assert len(index) == 0


def test_index_contains_and_documents(tiny_index, tiny_corpus):
    assert "d1" in tiny_index
    assert "zz" not in tiny_index
    ids = ["d3", "d1", "d4", "d2", "d1"]
    assert tiny_index.fetch_documents(ids) == [tiny_corpus.get(d) for d in ids]
    with pytest.raises(UnknownDocumentError):
        tiny_index.fetch_documents(["d1", "zz"])


def test_index_custom_tokenizer(tiny_corpus):
    index = InvertedIndex.build(tiny_corpus, tokenizer=Tokenizer(stem=False))
    view = index.scoring_view(["foxes", "fox"])
    assert view.frequency("foxes") == 1
    assert view.frequency("fox") == 2


def test_row_space_finds_rows_with_or_without_its_map():
    ids = ["a", "b", "bb", "c"]
    space = RowSpace(ids, np.zeros(len(ids), dtype=np.int64))
    probes = ids + ["", "ab", "bc", "d"]
    bisected = [space.row_of(doc_id) for doc_id in probes]
    assert space.rows_of_sorted(["a", "bb", "c"]).tolist() == [0, 2, 3]
    assert space.rows_of_sorted([]).dtype == np.intp
    for missing in (["ab"], ["b", "a"], ["c", "d"]):
        with pytest.raises(UnknownDocumentError):
            space.rows_of_sorted(missing)
    assert space._rows is None  # both bisect; they build no map
    assert space.rows == {"a": 0, "b": 1, "bb": 2, "c": 3}
    assert space.rows_of(["a", "bb", "c"]).tolist() == [0, 2, 3]
    assert [space.row_of(doc_id) for doc_id in probes] == bisected
    assert bisected == [0, 1, 2, 3, None, None, None, None]
