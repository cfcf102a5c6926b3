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


def test_index_document_frequency(tiny_index):
    assert tiny_index.document_frequency("quick") == 3
    assert tiny_index.document_frequency("fox") == 3  # foxes stems to fox
    assert tiny_index.document_frequency("absent") == 0


def test_index_term_frequency(tiny_index):
    assert tiny_index.term_frequency("quick", "d4") == 3
    assert tiny_index.term_frequency("quick", "d3") == 0


def test_index_positions(tiny_index):
    postings = tiny_index.postings("quick")
    by_doc = {p.doc_id: p for p in postings}
    assert by_doc["d4"].positions == (0, 1, 2)


def test_index_doc_length(tiny_index):
    # "the quick brown fox jumps over the lazy dog" minus stopwords
    assert tiny_index.doc_length("d1") == 6
    with pytest.raises(UnknownDocumentError):
        tiny_index.doc_length("nope")


def test_index_title_indexed():
    index = InvertedIndex.build(
        [Document(doc_id="d", text="body words", title="tiger")]
    )
    assert index.document_frequency("tiger") == 1


def test_index_stats(tiny_index):
    stats = tiny_index.stats
    assert stats.num_documents == 4
    assert stats.total_terms > 0
    assert stats.average_doc_length == stats.total_terms / 4
    assert stats.vocabulary_size == len(tiny_index.vocabulary())


def test_empty_index_stats():
    index = InvertedIndex()
    assert index.stats.average_doc_length == 0.0
    assert len(index) == 0


def test_index_contains_and_documents(tiny_index):
    assert "d1" in tiny_index
    assert "zz" not in tiny_index
    assert [d.doc_id for d in tiny_index.documents()] == ["d1", "d2", "d3", "d4"]


def test_index_custom_tokenizer(tiny_corpus):
    index = InvertedIndex.build(tiny_corpus, tokenizer=Tokenizer(stem=False))
    assert index.document_frequency("foxes") == 1
    assert index.document_frequency("fox") == 2


def test_remove_document_restores_pre_add_state(tiny_corpus):
    index = InvertedIndex.build(tiny_corpus)
    removed = index.remove_document("d4")
    assert removed.doc_id == "d4"
    rebuilt = InvertedIndex.build(d for d in tiny_corpus if d.doc_id != "d4")
    assert index.stats == rebuilt.stats
    assert index.vocabulary() == rebuilt.vocabulary()
    assert "d4" not in index
    # The title-only term disappeared with its sole document.
    assert index.document_frequency("everywher") == 0


def test_remove_document_unknown_raises(tiny_index):
    index = InvertedIndex.build(tiny_index.documents())
    with pytest.raises(UnknownDocumentError):
        index.remove_document("missing")


def test_remove_then_readd_roundtrips(tiny_corpus):
    index = InvertedIndex.build(tiny_corpus)
    baseline = index.stats
    doc = index.remove_document("d2")
    index.add_document(doc)
    assert index.stats == baseline
    assert index.document("d2") == doc


def test_update_document_replaces_content(tiny_corpus):
    index = InvertedIndex.build(tiny_corpus)
    from repro.retrieval import Document

    index.update_document(Document(doc_id="d3", text="zebra crossings"))
    assert index.document_frequency("zebra") == 1
    # No stale postings from the old content survive.
    assert all(p.doc_id != "d3" for p in index.postings("cat"))
    assert index.document("d3").text == "zebra crossings"


def test_update_document_unknown_raises(tiny_corpus):
    from repro.retrieval import Document

    index = InvertedIndex.build(tiny_corpus)
    with pytest.raises(UnknownDocumentError):
        index.update_document(Document(doc_id="missing", text="x"))


def test_corpus_remove(tiny_corpus):
    corpus = Corpus(list(tiny_corpus))
    doc = corpus.remove("d1")
    assert doc.doc_id == "d1"
    assert "d1" not in corpus
    with pytest.raises(UnknownDocumentError):
        corpus.remove("d1")


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
