"""Persistent SQLite index: incremental indexing, warm restarts,
concurrency, corruption, and hybrid scoring over it."""

import json
import sqlite3
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    EmptyIndexError,
    RetrievalError,
    UnknownDocumentError,
)
from repro.retrieval import (
    DB_NAME,
    BM25Scorer,
    Document,
    HashedEmbedder,
    InvertedIndex,
    Searcher,
    SqliteIndex,
    SqliteSearcher,
    TfIdfScorer,
    make_retrieval_scorer,
    open_index,
    top_k,
)
from repro.retrieval import sqlindex
from repro.retrieval.sqlindex import SCHEMA_VERSION, content_hash
from repro.textproc import Tokenizer
from tests.test_retrieval_bm25 import _analyzed


@pytest.fixture()
def docs(tiny_corpus):
    return list(tiny_corpus)


@pytest.fixture()
def index(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        yield ix


# ---------------------------------------------------------------------------
# Protocol parity with the in-memory index


def _length(ix, doc_id):
    """``doc_id``'s analyzed length in ``ix``'s row space."""
    space = ix.row_space()
    return int(space.lengths[space.row_of(doc_id)])


def _text(ix, doc_id):
    return ix.fetch_documents([doc_id])[0].text


def _frequency(ix, term):
    return ix.scoring_view([term]).frequency(term)


def test_read_protocol_matches_inverted_index(index, docs):
    mem = InvertedIndex.build(docs)
    assert len(index) == len(mem)
    for doc in docs:
        assert doc.doc_id in index and doc.doc_id in mem
    assert "missing" not in index and "missing" not in mem
    space, mem_space = index.row_space(), mem.row_space()
    assert space.ids == mem_space.ids
    assert space.lengths.dtype == mem_space.lengths.dtype
    assert np.array_equal(space.lengths, mem_space.lengths)
    ids = [doc.doc_id for doc in reversed(docs)]
    assert index.fetch_documents(ids) == mem.fetch_documents(ids) == docs[::-1]
    terms = sorted(set().union(*_analyzed(index.tokenizer, docs).values())) + ["absent"]
    view, mem_view = index.scoring_view(terms), mem.scoring_view(terms)
    assert view.total_terms == mem_view.total_terms
    for term in terms:
        assert _postings_of(view, term) == _postings_of(mem_view, term)
    assert index.stats == mem.stats


def test_bm25_rankings_match_inverted_index(index, docs):
    mem_result = Searcher(InvertedIndex.build(docs), scorer=BM25Scorer()).search(
        "quick fox", k=4
    )
    sql_result = SqliteSearcher(index, scorer=BM25Scorer()).search("quick fox", k=4)
    assert [
        (s.document.doc_id, s.rank, s.score) for s in sql_result.sources
    ] == [(s.document.doc_id, s.rank, s.score) for s in mem_result.sources]


def _postings_of(view, term):
    """A scoring view's arrays for ``term`` as sorted (doc_id, tf) pairs,
    skipping its postings at row ``len(view.space)``, which name no
    document; their count must be the one the view reports."""
    rows, tf = view.postings[term]
    assert (rows.dtype, tf.dtype) == (np.intp, np.int64)
    named = rows < len(view.space)
    assert len(rows) - np.count_nonzero(named) == view.retired.get(term, 0)
    assert np.count_nonzero(named) == view.frequency(term)
    return sorted(zip([view.space.ids[row] for row in rows[named].tolist()], tf[named].tolist()))


def test_scoring_view_holds_postings_without_positions(index, docs):
    mem = InvertedIndex.build(docs)
    analyzed = _analyzed(index.tokenizer, docs)
    terms = sorted(set().union(*analyzed.values())) + ["absent"]
    for target in (index, mem):
        view = target.scoring_view(terms)
        assert view.space.ids == sorted(doc.doc_id for doc in docs)
        assert (len(view.space), view.total_terms) == (
            len(docs), sum(map(len, analyzed.values()))
        )
        assert target.stats == mem.stats
        for term in terms:
            expected = sorted((d, t.count(term)) for d, t in analyzed.items() if term in t)
            assert _postings_of(view, term) == expected
    with index.snapshot() as conn:
        columns = [row[1] for row in conn.execute("PRAGMA table_info(postings)")]
    assert columns == ["term", "doc_id", "tf"]


def test_doc_ids_come_in_doc_id_order(tmp_path, docs):
    """``doc_ids`` lists the ids in doc_id order whatever order they
    were written in, with one statement that loads no read view."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs[::-1])
        ix.update(Document(docs[0].doc_id, "rewritten"))
        with _statements_on(ix._conn()) as statements:
            assert ix.doc_ids() == sorted(d.doc_id for d in docs)
        assert len(statements) == 1
        assert ix._view is None


def test_missing_document_raises(index):
    with pytest.raises(UnknownDocumentError):
        index.fetch_documents(["missing"])
    assert "missing" not in index
    assert index.row_space().row_of("missing") is None


# ---------------------------------------------------------------------------
# Incremental indexing: add / update / remove / sync


def test_add_reports_outcomes(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        assert ix.add(docs[0]) == "added"
        assert ix.add(docs[0]) == "unchanged"
        changed = Document(doc_id=docs[0].doc_id, text="entirely new text")
        assert ix.add(changed) == "updated"
        assert _text(ix, docs[0].doc_id) == "entirely new text"


def test_unchanged_readd_is_a_noop(index, docs):
    before = index.counters["doc_tokenizations"]
    assert index.add_many(docs) == {"added": 0, "updated": 0, "unchanged": 4}
    assert index.counters["doc_tokenizations"] == before
    assert index.counters["unchanged"] == 4


def test_update_replaces_postings_atomically(index):
    changed = Document(doc_id="d1", text="zebra stripes")
    assert index.update(changed) == "updated"
    # The old content's postings are fully withdrawn.
    view = index.scoring_view(["lazi", "zebra"])
    assert _postings_of(view, "lazi") == []
    assert _postings_of(view, "zebra") == [("d1", 1)]
    assert _length(index, "d1") == 2


def test_update_requires_existing_document(index):
    with pytest.raises(UnknownDocumentError):
        index.update(Document(doc_id="missing", text="x"))


def test_remove_withdraws_every_contribution(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        ix.remove("d4")
        rebuilt = InvertedIndex.build([d for d in docs if d.doc_id != "d4"])
        assert ix.stats == rebuilt.stats
        terms = sorted(set().union(*_analyzed(ix.tokenizer, docs).values()))
        view, expected = ix.scoring_view(terms), rebuilt.scoring_view(terms)
        for term in terms:
            assert _postings_of(view, term) == _postings_of(expected, term)
        # The title-only term went with its sole document.
        assert view.frequency("everywher") == 0
        assert "d4" not in ix
        with pytest.raises(UnknownDocumentError):
            ix.remove("d4")


def test_sync_mirrors_a_corpus(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        assert ix.sync(docs)["added"] == 4
        smaller = docs[:2] + [Document(doc_id="d3", text="rewritten")]
        outcome = ix.sync(smaller, remove_missing=True)
        assert outcome == {"added": 0, "updated": 1, "unchanged": 2, "removed": 1}
        assert sorted(ix.doc_ids()) == ["d1", "d2", "d3"]


def test_add_many_repeating_a_doc_id_acts_as_successive_adds(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        first = Document(doc_id="d", text="alpha")
        second = Document(doc_id="d", text="bravo")
        outcome = ix.add_many([first, first, second])
        assert outcome == {"added": 1, "updated": 1, "unchanged": 1}
        assert _text(ix, "d") == "bravo"
        assert (len(ix), ix.stats.vocabulary_size) == (1, 1)
        # A later copy is checked against the copy before it, not
        # against what was stored before the batch.
        outcome = ix.add_many([first, second])
        assert outcome == {"added": 0, "updated": 2, "unchanged": 0}
        assert _text(ix, "d") == "bravo"


def test_re_adding_an_unchanged_document_takes_no_write_lock(tmp_path, docs, monkeypatch):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)

        def locked(conn):
            raise AssertionError("a write transaction was opened")

        monkeypatch.setattr(sqlindex, "_transaction", locked)
        assert ix.add(docs[0]) == "unchanged"
        assert ix.update(docs[1]) == "unchanged"
        assert ix.add_many(docs) == {"added": 0, "updated": 0, "unchanged": len(docs)}


# ---------------------------------------------------------------------------
# Another handle writing between a write's check and its write lock


def _race_next_write(monkeypatch, root, write):
    """The next write transaction any handle opens first lets another
    handle on ``root`` run ``write``: what another process could do
    between a write's look at the stored document and its lock."""
    original = sqlindex._transaction
    raced = []

    @contextmanager
    def racing(conn):
        if not raced:
            raced.append(True)
            with open_index(root) as other:
                write(other)
        with original(conn):
            yield

    monkeypatch.setattr(sqlindex, "_transaction", racing)


def _assert_equals_fresh(ix, root):
    """``ix`` reads what a handle opened cold on its file reads."""
    with open_index(root) as fresh:
        assert (len(ix), ix.stats, ix.doc_ids()) == (len(fresh), fresh.stats, fresh.doc_ids())
        for mode, fusion in (("bm25", "minmax"), ("hybrid", "minmax"), ("hybrid", "rrf")):
            rankings = [
                [
                    (s.doc_id, s.score.hex())
                    for s in SqliteSearcher(
                        target, scorer=make_retrieval_scorer(target, mode=mode, fusion=fusion)
                    ).search("quick brown fox dog", k=10).sources
                ]
                for target in (ix, fresh)
            ]
            assert rankings[0] == rankings[1]


@pytest.fixture()
def raced(tmp_path, docs):
    """A dense handle with its view loaded, and its file's path."""
    root = tmp_path / "ix"
    with open_index(root, dense=True) as ix:
        ix.add_many(docs)
        _assert_equals_fresh(ix, root)
        yield ix, root


@pytest.mark.parametrize("text, outcome", [("quick fox", "unchanged"), ("lazy dog", "updated")])
def test_add_after_a_concurrent_add_rereads_the_document(raced, monkeypatch, text, outcome):
    ix, root = raced
    _race_next_write(monkeypatch, root, lambda other: other.add(Document("d5", "quick fox")))
    assert ix.add(Document("d5", text)) == outcome
    assert _text(ix, "d5") == text
    _assert_equals_fresh(ix, root)


@pytest.mark.parametrize("text, outcome", [("quick fox", "unchanged"), ("lazy dog", "updated")])
def test_add_many_after_a_concurrent_add_rereads_the_document(raced, monkeypatch, text, outcome):
    ix, root = raced
    _race_next_write(monkeypatch, root, lambda other: other.add(Document("d5", "quick fox")))
    counts = ix.add_many([Document("d5", text), Document("d6", "brown dogs")])
    assert counts == {"added": 1, "updated": 0, "unchanged": 0, outcome: 1}
    assert _text(ix, "d5") == text
    _assert_equals_fresh(ix, root)


def test_update_after_a_concurrent_remove_finds_no_document(raced, monkeypatch):
    ix, root = raced
    _race_next_write(monkeypatch, root, lambda other: other.remove("d2"))
    with pytest.raises(UnknownDocumentError):
        ix.update(Document("d2", "lazy dog"))
    _assert_equals_fresh(ix, root)


def test_remove_after_a_concurrent_remove_finds_no_document(raced, monkeypatch):
    ix, root = raced
    _race_next_write(monkeypatch, root, lambda other: other.remove("d2"))
    with pytest.raises(UnknownDocumentError):
        ix.remove("d2")
    assert "d2" not in ix
    _assert_equals_fresh(ix, root)


def test_content_hash_covers_title_and_metadata():
    base = Document(doc_id="d", text="x")
    assert content_hash(base) == content_hash(Document(doc_id="d", text="x"))
    assert content_hash(base) != content_hash(Document(doc_id="d", text="x", title="t"))
    assert content_hash(base) != content_hash(
        Document(doc_id="d", text="x", metadata={"y": "1"})
    )


# ---------------------------------------------------------------------------
# Warm restarts


def test_warm_reopen_serves_identical_bytes_with_zero_tokenization(tmp_path, docs):
    query, k = "quick brown fox", 4
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        cold = SqliteSearcher(ix, scorer=BM25Scorer()).search(query, k=k)
    with open_index(tmp_path / "ix") as warm_ix:
        assert warm_ix.sync(docs) == {
            "added": 0, "updated": 0, "unchanged": 4, "removed": 0,
        }
        warm = SqliteSearcher(warm_ix, scorer=BM25Scorer()).search(query, k=k)
        # Zero re-tokenization of unchanged documents on the warm path.
        assert warm_ix.counters["doc_tokenizations"] == 0
    assert [
        (s.document.doc_id, s.rank, s.score) for s in warm.sources
    ] == [(s.document.doc_id, s.rank, s.score) for s in cold.sources]


def test_warm_open_loads_only_the_query_terms(tmp_path, docs):
    query = "quick quick foxes and absent"
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
    with open_index(tmp_path / "ix") as ix:
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search(query, k=3)
        terms = set(ix.tokenizer.tokenize(query))
        assert terms == {"quick", "fox", "absent"}
        assert ix.counters["term_loads"] == len(terms)
        assert set(ix._pinned().terms) == terms
        assert ix.counters["doc_tokenizations"] == 0
        searcher.search(query, k=3)
        assert ix.counters["term_loads"] == len(terms)


def test_reopen_adopts_stored_tokenizer(tmp_path):
    tok = Tokenizer(stem=False, remove_stopwords=False)
    with open_index(tmp_path / "ix", tokenizer=tok) as ix:
        ix.add(Document(doc_id="d", text="The Running Foxes"))
    with open_index(tmp_path / "ix") as ix:
        assert ix.tokenizer.stem is False
        assert ix.tokenizer.remove_stopwords is False
        assert _frequency(ix, "running") == 1  # not stemmed


def test_reopen_with_conflicting_tokenizer_rejected(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        ix.add(Document(doc_id="d", text="hello world"))
    with pytest.raises(RetrievalError, match="analyzer"):
        open_index(tmp_path / "ix", tokenizer=Tokenizer(stem=False))


def test_schema_version_mismatch_rejected(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        ix.add(Document(doc_id="d", text="hello"))
        path = ix.path
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(RetrievalError, match="schema version"):
        open_index(tmp_path / "ix")


# ---------------------------------------------------------------------------
# Corruption and lifecycle


def test_non_sqlite_garbage_raises_retrieval_error(tmp_path):
    root = tmp_path / "ix"
    root.mkdir()
    (root / DB_NAME).write_bytes(b"this is definitely not a database" * 64)
    with pytest.raises(RetrievalError):
        open_index(root)


def test_truncated_database_raises_retrieval_error(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        path = ix.path
    # Keep the SQLite header (so connect succeeds) but shear off the
    # b-tree pages: reads must surface RetrievalError, never a raw
    # sqlite3 traceback.
    blob = path.read_bytes()
    path.write_bytes(blob[:120])
    with pytest.raises(RetrievalError):
        with open_index(tmp_path / "ix") as ix:
            ix.scoring_view(["quick"])


def test_every_read_of_a_damaged_file_raises_retrieval_error(tmp_path, docs):
    """Drop ``documents``, then ``postings``, from a second connection:
    each read that needs the missing table raises RetrievalError (what
    the CLI reports as ``error: ...``), never a raw sqlite3 error."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        path = ix.path
    document_reads = [
        lambda ix: ix.fetch_documents(["d1"]),
        lambda ix: ix.doc_ids(),
        lambda ix: len(ix),
        lambda ix: "d1" in ix,
        lambda ix: ix.row_space(),
        lambda ix: ix.stats,
        lambda ix: SqliteSearcher(ix).search("quick", k=2),
    ]
    postings_reads = [
        lambda ix: ix.scoring_view(["quick"]),
        lambda ix: ix.stats,
        lambda ix: SqliteSearcher(ix).search("quick", k=2),
    ]
    for table, reads in (("documents", document_reads), ("postings", postings_reads)):
        conn = sqlite3.connect(str(path))
        conn.execute(f"DROP TABLE {table}")
        conn.commit()
        conn.close()
        with open_index(tmp_path / "ix") as ix:
            for read in reads:
                with pytest.raises(RetrievalError):
                    read(ix)


def test_index_dir_collision_with_file(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("occupied")
    with pytest.raises(ConfigError):
        open_index(target)


def test_closed_index_rejects_use(tmp_path, docs):
    ix = open_index(tmp_path / "ix")
    ix.add(docs[0])
    ix.close()
    with pytest.raises(RetrievalError, match="closed"):
        ix.scoring_view(["quick"])


def test_empty_index_search_raises(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        with pytest.raises(EmptyIndexError):
            SqliteSearcher(ix, scorer=BM25Scorer()).search("anything")


# ---------------------------------------------------------------------------
# Concurrency: WAL readers vs the single writer


def test_concurrent_readers_during_writes(tmp_path, docs):
    """Readers load terms (some only just written) while the writer
    folds its commits into the view by searching after each one,
    switching threads often.  Every term a view holds must equal SQL
    counted in the same snapshot."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with open_index(tmp_path / "ix") as ix:
            ix.add_many(docs)
            searcher = SqliteSearcher(ix, scorer=BM25Scorer())
            errors = []
            stop = threading.Event()

            def reader(seed):
                try:
                    turn = seed
                    while not stop.is_set():
                        turn += 1
                        query = f"quick fox word{turn % 30} filler"
                        assert searcher.search(query, k=3).sources  # a consistent ranking
                        terms = ix.tokenizer.tokenize(query)
                        with ix.snapshot() as conn:
                            view = ix.scoring_view(terms)
                            for term in terms:
                                assert _postings_of(view, term) == conn.execute(
                                    "SELECT doc_id, tf FROM postings WHERE term = ? "
                                    "ORDER BY doc_id",
                                    (term,),
                                ).fetchall()
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=reader, args=(n * 7,)) for n in range(4)]
            for thread in threads:
                thread.start()
            try:
                for i in range(25):
                    text = f"quick filler body word{i} word{i + 1}"
                    ix.add(Document(doc_id=f"extra-{i}", text=text))
                    if i % 5 == 4:
                        ix.update(Document(doc_id="d2", text=f"fox filler word{i} " * 2))
                    searcher.search("quick fox filler", k=3)
                for i in range(25):
                    ix.remove(f"extra-{i}")
                    searcher.search("quick fox filler", k=3)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(ix) == len(docs)
            assert ix.counters["term_loads"] > 0 and ix.counters["view_folds"] > 0
    finally:
        sys.setswitchinterval(interval)


class _CommitsAfterFirstRead:
    """An index seen through a scorer: once the scorer's first read
    returns, ``commit`` runs (another handle writing) before its next."""

    def __init__(self, index, commit):
        self._index = index
        self._commit = commit

    def _after(self, result):
        commit, self._commit = self._commit, None
        if commit is not None:
            commit()
        return result

    def __getattr__(self, name):
        value = getattr(self._index, name)
        if not callable(value):
            return self._after(value)
        return lambda *args, **kwargs: self._after(value(*args, **kwargs))

    def __len__(self):
        return self._after(len(self._index))


@pytest.mark.parametrize("scorer", [BM25Scorer(), TfIdfScorer()], ids=["bm25", "tfidf"])
@pytest.mark.parametrize("text", ["alpha alpha", "bravo " * 30], ids=["matching", "long"])
def test_scoring_outside_a_snapshot_reads_one_generation(tmp_path, scorer, text):
    """Another handle commits between a scorer's reads.  A document with
    the query term once surfaced as UnknownDocumentError; one without it
    silently changed avgdl or the IDF's N.  Scores and IDFs must come
    from the generation of the scorer's first read."""
    docs = [
        Document(doc_id="a", text="alpha bravo"),
        Document(doc_id="b", text="alpha charlie delta"),
    ]
    late = [Document(doc_id="c", text=text), Document(doc_id="e", text=text)]
    with open_index(tmp_path / "ix") as ix, open_index(tmp_path / "ix") as other:
        ix.add_many(docs)
        racing = _CommitsAfterFirstRead(ix, lambda: other.add(late[0]))
        expected = scorer.score_query(InvertedIndex.build(docs), ["alpha"])
        assert scorer.score_query(racing, ["alpha"]) == expected
        racing = _CommitsAfterFirstRead(ix, lambda: other.add(late[1]))
        expected = scorer.idf(InvertedIndex.build(docs + late[:1]), "alpha")
        assert scorer.idf(racing, "alpha") == expected
        assert len(ix) == 4


def test_a_term_loads_inside_the_snapshot_of_its_view(tmp_path, docs):
    """A reader pinned before another handle's commit loads a term as
    its snapshot has it; the next snapshot's cold view reloads it."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        expected = BM25Scorer().score_query(InvertedIndex.build(docs), ["quick"])
        with ix.snapshot():
            assert len(ix) == 4  # the view is pinned
            with open_index(tmp_path / "ix") as other:
                other.add(Document(doc_id="d0", text="quick quick"))
            assert BM25Scorer().score_query(ix, ["quick"]) == expected
        assert ix.counters["term_loads"] == 1
        assert "d0" in BM25Scorer().score_query(ix, ["quick"])
        assert (ix.counters["view_loads"], ix.counters["term_loads"]) == (2, 2)


def test_snapshot_isolates_a_search_from_commits(tmp_path, docs):
    """Inside one snapshot, reads see one database version even after
    another connection (here: a second handle) commits."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        writer = open_index(tmp_path / "ix")
        try:
            with ix.snapshot():
                before = _frequency(ix, "quick")
                writer.add(Document(doc_id="d9", text="quick quick"))
                assert _frequency(ix, "quick") == before
                with pytest.raises(UnknownDocumentError):
                    ix.fetch_documents(["d9"])
            # A fresh snapshot observes the external commit.
            with ix.snapshot():
                assert _frequency(ix, "quick") == before + 1
                assert _text(ix, "d9") == "quick quick"
        finally:
            writer.close()


def test_cross_handle_cache_invalidation(tmp_path, docs):
    """A long-lived reader handle notices another handle's commits."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        assert len(ix) == 4
        other = open_index(tmp_path / "ix")
        try:
            other.add(Document(doc_id="d5", text="a fifth document"))
        finally:
            other.close()
        assert len(ix) == 5
        assert _length(ix, "d5") == 2  # "a" is a stopword: fifth, document


# ---------------------------------------------------------------------------
# The read view: one generation per view, own writes patch it forward


def _ranking(result):
    return [(s.document.doc_id, s.score) for s in result.sources]


def test_old_snapshot_never_serves_its_view_to_newer_reads(tmp_path, docs):
    """A reader pinned before a write reads that write's absence, and
    the view it builds never reaches the writer's next search."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        searcher.search("quick", k=5)
        pinned, written = threading.Event(), threading.Event()
        seen = []

        def reader():
            with ix.snapshot():
                ix.fetch_documents(["d1"])  # the read transaction is open
                pinned.set()
                written.wait(timeout=10)
                seen.append((len(ix), "d5" in ix, _length(ix, "d1")))

        thread = threading.Thread(target=reader)
        thread.start()
        assert pinned.wait(timeout=10)
        ix.add(Document(doc_id="d5", text="quick quick quick fox"))
        written.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        d1_length = _length(InvertedIndex.build(docs), "d1")
        assert seen == [(4, False, d1_length)]
        assert searcher.search("quick", k=5).doc_ids()[0] == "d5"
        assert len(ix) == 5


def test_membership_sees_another_handles_commit(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        assert "d4" in ix and "d5" not in ix  # the view is loaded
        with open_index(tmp_path / "ix") as other:
            other.add(Document(doc_id="d5", text="a fifth document"))
        assert "d5" in ix
        assert _length(ix, "d5") == 2
        revised = Document(doc_id="d5", text="a fifth document, revised")
        assert ix.update(revised) == "updated"


def test_nested_snapshot_joins_the_outer_one(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        expected = _ranking(searcher.search("quick fox", k=4))
        with open_index(tmp_path / "ix") as writer:
            with ix.snapshot():
                ix.fetch_documents(["d1"])  # the read transaction is open
                writer.add(Document(doc_id="d9", text="quick quick fox fox"))
                inner = _ranking(searcher.search("quick fox", k=4))
        assert inner == expected  # the outer snapshot's version
        assert "d9" in searcher.search("quick fox", k=5).doc_ids()


def test_own_writes_patch_the_view_instead_of_reloading(tmp_path, docs):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search("quick fox", k=3)
        for i in range(6):
            ix.add(Document(doc_id=f"x{i}", text=f"quick fox filler {i}"))
            searcher.search("quick fox", k=3)
            ix.update(Document(doc_id=f"x{i}", text=f"lazy dog filler {i}"))
            ix.add(Document(doc_id=f"x{i}", text=f"lazy dog filler {i}"))  # unchanged
            searcher.search("lazy dog", k=3)
            ix.remove(f"x{i}")
            searcher.search("quick", k=3)
        assert ix.counters["view_loads"] == 1
        assert ix.counters["view_folds"] == 18


def _loaded_postings(ix):
    """Every term the installed view holds, as sorted (doc_id, tf) pairs
    of its entries at live slots (an entry at a retired slot belongs to
    no document)."""
    view = ix._pinned()
    postings = {}
    for term, (slots, tf) in view.terms.items():
        rows = view.slot_rows[slots]
        live = rows < len(view.space)
        ids = [view.space.ids[row] for row in rows[live].tolist()]
        postings[term] = sorted(zip(ids, tf[live].tolist()))
    return postings


def test_loaded_terms_fold_forward_with_own_writes(tmp_path, docs):
    """Adds (one ahead of every row), removes and updates patch the
    loaded terms in place of reloading them."""
    query = "quick fox lazy dog"
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        searcher.search(query, k=5)
        loads = ix.counters["term_loads"]
        steps = [
            lambda: ix.add(Document(doc_id="d0", text="quick quick lazy")),
            lambda: ix.remove("d4"),
            lambda: ix.update(Document(doc_id="d2", text="fox fox fox and dogs")),
            lambda: ix.add(Document(doc_id="d5", text="lazy lazy fox")),
            lambda: ix.remove("d0"),
            lambda: ix.add(Document(doc_id="d00", text="dog quick")),
        ]
        for step in steps:
            step()
            result = searcher.search(query, k=5)
            with open_index(tmp_path / "ix") as fresh:
                cold = SqliteSearcher(fresh, scorer=BM25Scorer()).search(query, k=5)
                terms = fresh.tokenizer.tokenize(query)
                view = fresh.scoring_view(terms)
                expected = {term: _postings_of(view, term) for term in terms}
            assert _ranking(result) == _ranking(cold)
            assert _loaded_postings(ix) == expected
        assert ix.counters["term_loads"] == loads
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, len(steps))


#: Every retrieval mode and fusion a persistent index serves.
_MODES = [("bm25", "minmax"), ("dense", "minmax"), ("hybrid", "minmax"), ("hybrid", "rrf")]


def _rankings_in_every_mode(ix, query):
    """``query``'s ranking in each of :data:`_MODES`, scores by ``float.hex``."""
    rankings = []
    for mode, fusion in _MODES:
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode=mode, fusion=fusion))
        rankings.append([(s.doc_id, s.score.hex()) for s in searcher.search(query, k=10).sources])
    return rankings


def test_a_fold_past_the_retired_slot_bound_compacts_in_memory(tmp_path):
    """Each update retires its document's old slot and leaves its
    entries there, which the view counts per loaded term.  The fold
    that would leave more retired slots than the bound allows (one per
    32 live documents) compacts the loaded keys in memory instead: no
    retired slot or count is left, every slot is its document's row,
    and nothing loads again, neither the view nor a term.  Rankings in
    every mode equal a fresh index's by ``float.hex``, before and
    after."""
    words = ["alpha", "bravo", "charlie", "delta", "echo"]
    docs = [
        Document(f"d{i:02d}", " ".join(words[i % 5 :] + words[: i % 5 + i % 3]))
        for i in range(2 * sqlindex._LIVE_PER_RETIRED)
    ]
    query = "alpha bravo charlie"
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)

        def assert_ranks_as_fresh():
            with open_index(tmp_path / "ix") as fresh:
                assert _rankings_in_every_mode(ix, query) == _rankings_in_every_mode(fresh, query)

        assert_ranks_as_fresh()  # loads the view and the query's terms
        loads = ix.counters["term_loads"]
        for retired, doc in enumerate(docs[:2], start=1):  # as many as the bound allows
            ix.update(Document(doc.doc_id, f"alpha echo {' bravo' * retired}"))
            assert_ranks_as_fresh()
            view = ix._pinned()
            assert np.count_nonzero(view.slot_rows == len(view.space)) == retired
            for term, (slots, _) in view.terms.items():
                at_retired = np.count_nonzero(view.slot_rows[slots] == len(view.space))
                assert view.term_retired.get(term, 0) == at_retired
            assert sum(view.term_retired.values()) > 0
        ix.update(Document(docs[2].doc_id, "bravo delta charlie"))
        assert_ranks_as_fresh()
        view = ix._pinned()
        assert view.term_retired == {}
        assert np.array_equal(view.slot_rows, np.arange(len(view.space)))
        assert np.array_equal(view.row_slots, np.arange(len(view.space)))
        assert (ix.counters["view_loads"], ix.counters["term_loads"]) == (1, loads)
        assert ix.counters["view_folds"] == 3


def test_a_run_of_writes_folds_once(tmp_path):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(
            Document(doc_id=f"d{i:03d}", text=f"shared words number{i}")
            for i in range(80)
        )
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search("shared", k=3)
        for i in range(50):
            ix.remove(f"d{i:03d}")
        result = searcher.search("shared words", k=3)
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, 1)
        assert len(ix) == 30
        with open_index(tmp_path / "ix") as fresh:
            cold = SqliteSearcher(
                fresh, scorer=make_retrieval_scorer(fresh, mode="hybrid")
            ).search("shared words", k=3)
        assert _ranking(result) == _ranking(cold)
        # More unread writes than documents: the deltas are dropped and
        # the next read loads cold instead of folding them all.
        for i in range(31):
            ix.add(Document(doc_id=f"n{i:03d}", text=f"shared novel {i}"))
        searcher.search("shared words", k=3)
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (2, 1)
        assert len(ix) == 61


def test_a_search_after_a_write_builds_no_row_map(tmp_path, docs):
    """A fold finds the changed documents' rows by bisecting the sorted
    ids, so no view a write leaves behind builds its doc_id -> row map."""
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search("quick fox", k=3)
        views = []
        for write in (
            lambda: ix.add(Document("d0", "quick quick fox")),
            lambda: ix.update(Document("d2", "lazy fox")),
            lambda: ix.remove("d3"),
            lambda: ix.add(Document("d9", "brown dog")),
        ):
            write()
            searcher.search("quick fox", k=3)
            views.append(ix._view)
        # A term no search read before joins the last folded view.
        searcher.search("lazy dog", k=3)
        assert ix._view is views[-1] and "lazi" in views[-1].terms
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, 4)
        assert [view.space._rows for view in views] == [None] * 4


def test_stats_counts_the_vocabulary_once_per_generation(tmp_path, docs):
    """Writes, cold loads and folds count no vocabulary; ``stats``
    counts it in its own snapshot, once per generation."""
    added = Document("d5", "zebra quick")
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        counts = []
        ix._conn().set_trace_callback(
            lambda sql: counts.append(sql) if "DISTINCT term" in sql else None
        )
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search("quick fox", k=3)
        ix.add(added)
        searcher.search("quick fox", k=3)
        assert (ix.counters["view_loads"], ix.counters["view_folds"], counts) == (1, 1, [])
        assert ix.stats == InvertedIndex.build(docs + [added]).stats
        assert ix.stats == InvertedIndex.build(docs + [added]).stats
        assert len(counts) == 1
        ix.remove("d5")
        assert ix.stats == InvertedIndex.build(docs).stats
        assert len(counts) == 2


def test_stats_counts_the_vocabulary_without_the_handle_lock(tmp_path, docs):
    """While ``stats`` counts, another thread can take the handle's
    lock, so searches and writes on the handle need not wait."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        taken = []

        def take_lock():
            taken.append(ix._lock.acquire(blocking=False))
            if taken[-1]:
                ix._lock.release()

        def during_count(sql):
            if "DISTINCT term" in sql:
                other = threading.Thread(target=take_lock)
                other.start()
                other.join()

        ix._conn().set_trace_callback(during_count)
        assert ix.stats == InvertedIndex.build(docs).stats
        assert taken == [True]


def _padding(retirements):
    """Enough documents, in words no test queries, that ``retirements``
    retired slots stay within the compaction bound: the folds then
    retire slots, and reads skip them, instead of compacting."""
    count = retirements * sqlindex._LIVE_PER_RETIRED
    return [Document(f"pad{i:04d}", f"padding words {i}") for i in range(count)]


def test_every_snapshot_reads_the_view_of_its_own_generation(tmp_path, docs):
    """Stress: six readers against a writer that adds, updates and
    removes documents, switching threads often.  In-memory reads inside
    a snapshot (statistics, dense scores and two loaded terms' postings)
    must agree with SQL counted in that same snapshot; a view from any
    other generation, or an append below an older view's end, would
    not.  The writer retires entries of "quick", which reads must not
    count, and only adds to "filler", whose buffer its folds append to
    in place and outgrow.  Some of the writer's folds compact; the
    others leave retired slots."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    watched = ["quick", "filler"]
    docs = docs + _padding(4)
    try:
        with open_index(tmp_path / "ix", dense=True) as ix:
            ix.add_many(docs)
            errors = []
            stop = threading.Event()

            def reader():
                try:
                    while not stop.is_set():
                        with ix.snapshot() as conn:
                            count, total = conn.execute(
                                "SELECT COUNT(*), SUM(doc_length) FROM documents"
                            ).fetchone()
                            terms = conn.execute(
                                "SELECT COUNT(DISTINCT term) FROM postings"
                            ).fetchone()[0]
                            stats = ix.stats
                            assert (
                                stats.num_documents, stats.total_terms, stats.vocabulary_size
                            ) == (count, total, terms)
                            assert len(ix.dense_view().similarities(["quick"])[0]) == count
                            view = ix.scoring_view(watched)
                            for term in watched:
                                assert _postings_of(view, term) == conn.execute(
                                    "SELECT doc_id, tf FROM postings WHERE term = ? "
                                    "ORDER BY doc_id",
                                    (term,),
                                ).fetchall()
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            grown = []  # "filler"'s buffer, its fill and capacity, after every fold
            try:
                for i in range(30):
                    ix.add(Document(doc_id=f"x{i}", text=f"quick number {i}"))
                    ix.add(Document(doc_id=f"y{i}", text=f"filler number {i}"))
                    if i % 3 == 2:
                        ix.remove(f"x{i - 1}")
                    if i % 3 == 0 and i:
                        ix.update(Document(doc_id=f"x{i - 3}", text=f"quick revised {i} " * 2))
                    if i % 5 == 4:
                        ix.update(Document(doc_id="d2", text=f"quick survey revised {i}"))
                    ix.scoring_view(watched)  # fold now: the deltas never pile up
                    buffer = ix._buffers.get("filler")
                    if buffer is not None:
                        grown.append((buffer, buffer.filled, len(buffer.slots)))
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(ix) == len(docs) + 50
            steps = list(zip(grown, grown[1:]))
            # One fold appended in place, past the end of the arrays the
            # readers of the view before it read ...
            assert any(new[0] is old[0] and new[1] > old[1] for old, new in steps)
            # ... and the buffer, once full, gave way to a larger copy.
            assert any(old[1] == old[2] and new[2] > old[2] for old, new in steps)
    finally:
        sys.setswitchinterval(interval)


def test_pinned_reader_builds_its_own_view(tmp_path, docs):
    """A reader pinned behind the installed view loads one for itself
    and leaves the newer one installed."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        with ix.snapshot():
            with open_index(tmp_path / "ix") as other:
                other.add(Document(doc_id="d5", text="quick fox"))
            done = threading.Event()

            def newer_reader():
                assert len(ix) == 5  # loads and installs the newer view
                done.set()

            thread = threading.Thread(target=newer_reader)
            thread.start()
            thread.join(timeout=10)
            assert done.is_set()
            assert len(ix) == 4
        assert len(ix) == 5
        assert ix.counters["view_loads"] == 2


def test_folds_never_write_into_an_older_view(tmp_path, docs):
    """A reader pinned to generation g keeps bit-identical dense and BM25
    scores while the handle's own writes, from another thread, fold the
    view forward past g: the folds append into the very buffers the
    pinned view reads, past its end, and never write below it."""
    queries = [["quick", "fox"], ["lazi", "dog"], ["brown"]]

    def bm25(terms):
        scores = BM25Scorer().score_query(ix, terms)
        return {doc_id: score.hex() for doc_id, score in scores.items()}

    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs + _padding(3))  # the three folds below do not compact
        dense = ix.dense_view()
        with ix.snapshot():
            before = [dense.similarities(terms)[1].tobytes() for terms in queries]
            sparse_before = [bm25(terms) for terms in queries]
            held = ix._pinned()

            def write_and_read():
                # d1's slot is retired and z0 takes a fresh one and the
                # last row, so the first fold moves every row and appends
                # to every queried term; the next retires d2's old slot;
                # the last only drops a document.
                ix.remove("d1")
                ix.add(Document(doc_id="z0", text="quick brown fox lazy dogs"))
                dense.similarities(queries[0])
                ix.add(Document(doc_id="a1", text="lazy brown dogs"))
                ix.update(Document(doc_id="d2", text="fox dog brown"))
                dense.similarities(queries[1])
                ix.remove("d3")
                dense.similarities(queries[2])

            thread = threading.Thread(target=write_and_read)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert ix._view.generation == held.generation + 5
            after = [dense.similarities(terms)[1].tobytes() for terms in queries]
            sparse_after = [bm25(terms) for terms in queries]
            # The newest view's arrays for "quick" (z0 appended one entry)
            # extend the buffer the held view reads: the fold appended
            # where the held reader could see.
            held_slots, held_tf = held.terms["quick"]
            new_slots, new_tf = ix._view.terms["quick"]
            assert len(new_slots) == len(held_slots) + 1
            assert np.shares_memory(new_slots, held_slots) and np.shares_memory(new_tf, held_tf)
        assert after == before
        assert sparse_after == sparse_before
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, 3)


def test_a_second_fold_of_one_view_copies_instead_of_appending():
    """Folding a view whose buffer another fold already extended (one
    that failed after appending, say) must not write where the first
    fold's arrays read: the buffer is filled past the view's end, so
    the second fold copies.  Arrays in no buffer are copied into one,
    which the next fold of the view they are in extends in place."""
    slots, values = np.arange(6), np.arange(10, 16)
    entries, buffers = {"t": (slots, values)}, {}
    first = sqlindex._appended(entries, buffers, [(7, [("t", 1)])])
    second = sqlindex._appended(first, buffers, [(8, [("t", 2)])])
    again = sqlindex._appended(first, buffers, [(9, [("t", 3)])])
    assert [a.tolist()[5:] for a in first["t"]] == [[5, 7], [15, 1]]
    assert [a.tolist()[5:] for a in second["t"]] == [[5, 7, 8], [15, 1, 2]]
    assert [a.tolist()[5:] for a in again["t"]] == [[5, 7, 9], [15, 1, 3]]
    assert [a.tolist()[5:] for a in first["t"]] == [[5, 7], [15, 1]]  # untouched
    assert not np.shares_memory(first["t"][0], slots)  # copied into a buffer
    assert np.shares_memory(second["t"][0], first["t"][0])  # appended in place
    assert not np.shares_memory(again["t"][0], first["t"][0])  # copied
    assert buffers["t"].extends(again["t"][0])  # the newest copy is kept


#: The layout of schema versions 1 and 2 (version 2 added only the
#: ``generation`` meta key): version 3 dropped ``documents.seq`` and its
#: index, ``postings.positions`` and ``vectors.dimensions``.
_V2_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE documents (
    doc_id       TEXT PRIMARY KEY,
    title        TEXT NOT NULL,
    text         TEXT NOT NULL,
    metadata     TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    doc_length   INTEGER NOT NULL,
    seq          INTEGER NOT NULL
);
CREATE INDEX documents_by_seq ON documents (seq);
CREATE TABLE postings (
    term      TEXT NOT NULL,
    doc_id    TEXT NOT NULL,
    tf        INTEGER NOT NULL,
    positions TEXT NOT NULL,
    PRIMARY KEY (term, doc_id)
) WITHOUT ROWID;
CREATE INDEX postings_by_doc ON postings (doc_id);
CREATE TABLE vectors (
    doc_id     TEXT PRIMARY KEY,
    dimensions INTEGER NOT NULL,
    vector     BLOB NOT NULL
);
"""


def _write_old_index(root, docs, version):
    """A dense index over ``docs`` as a version-1 or version-2 build
    wrote it: every column and meta key of that layout, filled."""
    tokenizer = Tokenizer()
    embedder = HashedEmbedder(tokenizer=tokenizer)
    meta = {
        "schema_version": str(version),
        "tokenizer": json.dumps(sqlindex._tokenizer_config(tokenizer)),
        "store_positions": "1",
        "embedder_dimensions": str(embedder.dimensions),
    }
    if version == 2:
        meta["generation"] = "0"
    root.mkdir()
    conn = sqlite3.connect(str(root / DB_NAME))
    conn.executescript(_V2_SCHEMA)
    conn.executemany("INSERT INTO meta VALUES (?, ?)", meta.items())
    for seq, doc in enumerate(docs, start=1):
        terms = tokenizer.tokenize(doc.text + " " + doc.title)
        positions = {}
        for position, term in enumerate(terms):
            positions.setdefault(term, []).append(position)
        conn.execute(
            "INSERT INTO documents VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                doc.doc_id, doc.title, doc.text,
                json.dumps(dict(doc.metadata), sort_keys=True, ensure_ascii=False),
                content_hash(doc), len(terms), seq,
            ),
        )
        conn.executemany(
            "INSERT INTO postings VALUES (?, ?, ?, ?)",
            [(term, doc.doc_id, len(at), json.dumps(at)) for term, at in positions.items()],
        )
        vector = embedder.embed_terms(terms).tobytes()
        conn.execute(
            "INSERT INTO vectors VALUES (?, ?, ?)", (doc.doc_id, embedder.dimensions, vector)
        )
    conn.commit()
    conn.close()


def _layout(root):
    """(meta, each table's columns, the index names) of the file at ``root``."""
    conn = sqlite3.connect(str(root / DB_NAME))
    try:
        meta = dict(conn.execute("SELECT key, value FROM meta"))
        columns = {
            table: [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]
            for table in ("documents", "postings", "vectors")
        }
        indexes = {
            row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'")
        }
    finally:
        conn.close()
    return meta, columns, indexes


def _assert_upgrades_and_ranks_as_a_fresh_index(tmp_path, docs, version):
    """A dense file an older build wrote opens as version 3, holding
    none of the dropped columns, and ranks in every mode as a version-3
    index built over the same documents, by ``float.hex``, before and
    after writes."""
    old, new = tmp_path / "old", tmp_path / "new"
    _write_old_index(old, docs, version)
    query = "quick brown fox dog"
    with open_index(old) as ix, open_index(new, dense=True) as fresh:
        fresh.add_many(docs)
        assert _rankings_in_every_mode(ix, query) == _rankings_in_every_mode(fresh, query)
        for target in (ix, fresh):
            target.remove("d3")
            target.update(Document("d1", "quick quick dog"))
            target.add(Document("d5", "brown fox fox"))
        assert _rankings_in_every_mode(ix, query) == _rankings_in_every_mode(fresh, query)
        assert (ix.stats, ix.doc_ids()) == (fresh.stats, fresh.doc_ids())
    meta, columns, indexes = _layout(old)
    # A version-1 file had no stamp: it starts at 0, as version 2's did.
    assert (meta["schema_version"], meta["generation"]) == (str(SCHEMA_VERSION), "3")
    assert "store_positions" not in meta
    assert columns == {
        "documents": ["doc_id", "title", "text", "metadata", "content_hash", "doc_length"],
        "postings": ["term", "doc_id", "tf"],
        "vectors": ["doc_id", "vector"],
    }
    assert "documents_by_seq" not in indexes
    assert _layout(old)[1:] == _layout(new)[1:]
    with open_index(old) as reopened:  # a version-3 file opens as it is
        assert reopened.doc_ids() == ["d1", "d2", "d4", "d5"]


def test_v1_file_upgrades_on_open_and_ranks_as_before(tmp_path, docs):
    _assert_upgrades_and_ranks_as_a_fresh_index(tmp_path, docs, 1)


def test_v2_file_upgrades_on_open_and_ranks_as_before(tmp_path, docs):
    _assert_upgrades_and_ranks_as_a_fresh_index(tmp_path, docs, 2)


def test_a_failed_upgrade_raises_and_leaves_the_file_at_v2(tmp_path, docs):
    """An upgrade runs in one write transaction: when a statement fails
    (here the index it drops is already gone), opening raises
    RetrievalError and the file keeps its version-2 layout whole."""
    root = tmp_path / "ix"
    _write_old_index(root, docs, 2)
    conn = sqlite3.connect(str(root / DB_NAME))
    conn.execute("DROP INDEX documents_by_seq")
    conn.commit()
    conn.close()
    before = _layout(root)
    with pytest.raises(RetrievalError, match="upgrade"):
        open_index(root)
    assert _layout(root) == before
    assert before[0]["schema_version"] == "2" and "seq" in before[1]["documents"]


# ---------------------------------------------------------------------------
# Dense vectors and hybrid scoring over the persistent index


def test_dense_vectors_persist(tmp_path, docs):
    def scores(ix):
        ids, similarities = ix.dense_view().similarities(["quick", "brown", "fox"])
        return dict(zip(ids, similarities.tolist()))

    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        cold = scores(ix)
    with open_index(tmp_path / "ix") as warm:
        assert warm.embedder is not None  # reconstructed from stored meta
        assert scores(warm) == cold


@pytest.mark.parametrize("block", [1, 3, 512])
def test_a_cold_load_streams_vectors_in_blocks(tmp_path, docs, monkeypatch, block):
    """Whatever the block size, a cold load's per-dimension entries are
    each dimension's nonzero (slot, value) pairs over the stored
    vectors in doc_id order."""
    monkeypatch.setattr(sqlindex, "_LOAD_BLOCK", block)
    extra = [Document(f"e{i}", f"extra words {i} quick") for i in range(5)]
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs + extra)
        with ix.snapshot() as conn:
            stored = conn.execute("SELECT vector FROM vectors ORDER BY doc_id").fetchall()
        vectors = [np.frombuffer(blob, dtype=np.float64) for (blob,) in stored]
        view = ix._pinned()
    assert sorted(view.dimensions) == list(range(ix.embedder.dimensions))
    for dimension, (slots, values) in view.dimensions.items():
        assert (slots.dtype, values.dtype) == (np.intp, np.float64)
        expected = [(s, v[dimension].hex()) for s, v in enumerate(vectors) if v[dimension]]
        assert list(zip(slots.tolist(), [v.hex() for v in values.tolist()])) == expected


def test_a_cold_load_rejects_a_vector_of_the_wrong_width(tmp_path, docs):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        path = ix.path
    conn = sqlite3.connect(str(path))
    conn.execute("UPDATE vectors SET vector = zeroblob(8) WHERE doc_id = 'd2'")
    conn.commit()
    conn.close()
    with open_index(tmp_path / "ix") as ix:
        with pytest.raises(RetrievalError, match="'d2'"):
            len(ix)


def test_reopened_dense_index_embeds_with_its_stored_analyzer(tmp_path, docs):
    """Reopening with ``dense=True`` and no tokenizer adopts the stored
    analyzer for the embedder too: stored vectors equal re-embeddings,
    and rankings survive the reopen."""
    import numpy as np

    from repro.retrieval import HashedEmbedder

    tokenizer = Tokenizer(stem=False)
    query = "quick jumping foxes everywhere"

    def vectors(ix):
        with ix.snapshot() as conn:
            rows = conn.execute("SELECT doc_id, vector FROM vectors").fetchall()
        return {doc_id: np.frombuffer(blob, dtype=np.float64) for doc_id, blob in rows}

    def dense_ranking(ix):
        return _ranking(
            SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="dense")).search(query, k=4)
        )

    with open_index(tmp_path / "ix", tokenizer=tokenizer, dense=True) as ix:
        ix.add_many(docs)
        before = dense_ranking(ix)
    late = Document(doc_id="d5", text="jumping foxes")
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add(late)
        for doc in docs + [late]:
            expected = HashedEmbedder(tokenizer=tokenizer).embed(doc.text + " " + doc.title)
            assert np.array_equal(vectors(ix)[doc.doc_id], expected)
            assert np.array_equal(ix.embedder.embed(doc.text + " " + doc.title), expected)
        ix.remove("d5")
        assert dense_ranking(ix) == before
    with pytest.raises(RetrievalError, match="analyzer"):
        open_index(tmp_path / "ix", embedder=HashedEmbedder())
    with pytest.raises(RetrievalError, match="analyzer"):
        open_index(tmp_path / "new", tokenizer=tokenizer, embedder=HashedEmbedder())


def test_dense_view_requires_vectors(index):
    with pytest.raises(RetrievalError, match="dense"):
        index.dense_view()


def test_embedder_on_sparse_index_rejected(tmp_path, docs):
    from repro.retrieval import HashedEmbedder

    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
    with pytest.raises(RetrievalError, match="without dense vectors"):
        open_index(tmp_path / "ix", embedder=HashedEmbedder())


def test_embedder_dimension_mismatch_rejected(tmp_path, docs):
    from repro.retrieval import HashedEmbedder

    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
    with pytest.raises(RetrievalError, match="dimensional"):
        open_index(tmp_path / "ix", embedder=HashedEmbedder(dimensions=8))


@pytest.mark.parametrize("mode,fusion", [
    ("bm25", "minmax"),
    ("dense", "minmax"),
    ("hybrid", "minmax"),
    ("hybrid", "rrf"),
])
def test_retrieval_modes_rank_deterministically(tmp_path, docs, mode, fusion):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(
            ix, scorer=make_retrieval_scorer(ix, mode=mode, fusion=fusion)
        )
        first = searcher.search("quick fox", k=4)
        second = searcher.search("quick fox", k=4)
        assert [
            (s.document.doc_id, s.score) for s in first.sources
        ] == [(s.document.doc_id, s.score) for s in second.sources]
        assert first.sources  # every mode retrieves something here


def test_make_retrieval_scorer_validates_names(index):
    with pytest.raises(ConfigError):
        make_retrieval_scorer(index, mode="nope")
    with pytest.raises(ConfigError):
        make_retrieval_scorer(index, mode="hybrid", fusion="nope")


# ---------------------------------------------------------------------------
# Odds and ends


def test_size_bytes_grows_with_content(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        empty = ix.size_bytes()
        ix.add_many(docs)
        assert ix.size_bytes() > 0
        assert ix.size_bytes() >= empty


def test_search_counter_increments(index):
    searcher = SqliteSearcher(index, scorer=BM25Scorer())
    searcher.search("quick", k=2)
    searcher.search("fox", k=2)
    assert index.counters["searches"] == 2


# ---------------------------------------------------------------------------
# A search reads its winners' documents with one statement


#: What the statement reading a search's winners says.
_FETCH = "FROM documents WHERE doc_id IN"


@contextmanager
def _statements_on(conn):
    """The SQL ``conn`` runs inside the block, one string per statement."""
    statements = []
    conn.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        conn.set_trace_callback(None)


def test_a_search_costs_the_same_statements_whatever_k(tmp_path):
    """After a warm-up search of the same query has loaded its terms, a
    search runs as many statements at k=1 as at k=20, one of them the
    read of its winners."""
    docs = [Document(f"d{i:02d}", f"shared term filler {i}") for i in range(30)]
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode="hybrid"))
        searcher.search("shared term", k=20)
        counts, fetches = {}, {}
        for k in (1, 20):
            with _statements_on(ix._conn()) as statements:
                assert len(searcher.search("shared term", k=k)) == k
            counts[k] = len(statements)
            fetches[k] = sum(_FETCH in sql for sql in statements)
        assert counts[1] == counts[20]
        assert fetches == {1: 1, 20: 1}


@pytest.mark.parametrize("mode", ["bm25", "hybrid"])
def test_a_search_enters_one_snapshot(tmp_path, monkeypatch, mode):
    """Every read a search makes inside its snapshot (the view, the
    scored postings, the winners' documents) uses the pinned connection
    and view directly: a search enters ``snapshot`` once, before and
    after a write."""
    docs = [Document(f"d{i:02d}", f"shared term filler {i}") for i in range(30)]
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=make_retrieval_scorer(ix, mode=mode))
        entries = []
        snapshot = ix.snapshot

        def counted():
            entries.append(1)
            return snapshot()

        monkeypatch.setattr(ix, "snapshot", counted)
        for query in ("shared term", "filler 7"):
            assert searcher.search(query, k=5).sources
        ix.add(Document("d99", "shared filler"))
        assert searcher.search("shared filler", k=5).sources
        assert len(entries) == 3
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, 1)


def test_search_all_reads_every_winner_as_stored(tmp_path):
    """More documents than one fetch statement binds: ``search_all``
    returns each winner's id, rank and score exactly as ranking alone
    gives them, in rank order, with the document as it was added; a
    fetch of an id the index does not hold raises."""
    count = sqlindex._FETCH_CHUNK + 60
    docs = [
        Document(f"d{i:04d}", f"common word{i % 7} text {i}", f"t{i % 3}", {"i": str(i)})
        for i in range(count)
    ]
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        with _statements_on(ix._conn()) as statements:
            sources = searcher.search_all("common word3").sources
        assert sum(_FETCH in sql for sql in statements) == 2
        terms = ix.tokenizer.tokenize("common word3")
        ranked = top_k(BM25Scorer().score_query(ix, terms), count)
        by_id = {doc.doc_id: doc for doc in docs}
        assert [(s.doc_id, s.rank, s.score.hex(), s.document) for s in sources] == [
            (doc_id, rank, score.hex(), by_id[doc_id])
            for rank, (doc_id, score) in enumerate(ranked, start=1)
        ]
        assert len(sources) == count
        assert sorted((s.document for s in sources), key=lambda d: d.doc_id) == docs
        some = [docs[5].doc_id, docs[-1].doc_id, docs[5].doc_id, docs[0].doc_id]
        assert ix.fetch_documents(some) == [by_id[doc_id] for doc_id in some]
        assert ix.fetch_documents([]) == []
        for missing in (["missing"], [d.doc_id for d in docs] + ["missing"]):
            with pytest.raises(UnknownDocumentError):
                ix.fetch_documents(missing)
