"""Persistent SQLite index: incremental indexing, warm restarts,
concurrency, corruption, and hybrid scoring over it."""

import sqlite3
import sys
import threading

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
    InvertedIndex,
    Searcher,
    SqliteIndex,
    SqliteSearcher,
    TfIdfScorer,
    make_retrieval_scorer,
    open_index,
)
from repro.retrieval.sqlindex import SCHEMA_VERSION, content_hash
from repro.textproc import Tokenizer


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


def test_read_protocol_matches_inverted_index(index, docs):
    mem = InvertedIndex.build(docs)
    assert len(index) == len(mem)
    assert sorted(index.vocabulary()) == sorted(mem.vocabulary())
    for doc in docs:
        assert doc.doc_id in index
        assert index.doc_length(doc.doc_id) == mem.doc_length(doc.doc_id)
        assert index.document(doc.doc_id) == mem.document(doc.doc_id)
    for term in mem.vocabulary():
        assert index.document_frequency(term) == mem.document_frequency(term)
        assert sorted(index.postings(term), key=lambda p: p.doc_id) == sorted(
            mem.postings(term), key=lambda p: p.doc_id
        )
    assert index.stats == mem.stats
    assert index.term_frequency("quick", "d4") == mem.term_frequency("quick", "d4")
    assert index.term_frequency("quick", "d3") == 0


def test_bm25_rankings_match_inverted_index(index, docs):
    mem_result = Searcher(InvertedIndex.build(docs), scorer=BM25Scorer()).search(
        "quick fox", k=4
    )
    sql_result = SqliteSearcher(index, scorer=BM25Scorer()).search("quick fox", k=4)
    assert [
        (s.document.doc_id, s.rank, s.score) for s in sql_result.sources
    ] == [(s.document.doc_id, s.rank, s.score) for s in mem_result.sources]


def _postings_of(view, term):
    """A scoring view's arrays for ``term`` as sorted (doc_id, tf) pairs."""
    rows, tf = view.postings[term]
    assert (rows.dtype, tf.dtype) == (np.intp, np.int64)
    return sorted(zip([view.space.ids[row] for row in rows.tolist()], tf.tolist()))


def test_scoring_view_holds_postings_without_positions(index, docs):
    mem = InvertedIndex.build(docs)
    terms = mem.vocabulary() + ["absent"]
    for target in (index, mem):
        view = target.scoring_view(terms)
        assert view.space.ids == sorted(doc.doc_id for doc in docs)
        assert view.stats == mem.stats
        for term in terms:
            expected = [(p.doc_id, p.term_frequency) for p in index.postings(term)]
            assert _postings_of(view, term) == expected


def test_documents_in_first_indexed_order(index, docs):
    assert [d.doc_id for d in index.documents()] == [d.doc_id for d in docs]
    assert index.doc_ids() == [d.doc_id for d in docs]


def test_missing_document_raises(index):
    with pytest.raises(UnknownDocumentError):
        index.document("missing")
    with pytest.raises(UnknownDocumentError):
        index.doc_length("missing")


# ---------------------------------------------------------------------------
# Incremental indexing: add / update / remove / sync


def test_add_reports_outcomes(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        assert ix.add(docs[0]) == "added"
        assert ix.add(docs[0]) == "unchanged"
        changed = Document(doc_id=docs[0].doc_id, text="entirely new text")
        assert ix.add(changed) == "updated"
        assert ix.document(docs[0].doc_id).text == "entirely new text"


def test_unchanged_readd_is_a_noop(index, docs):
    before = index.counters["doc_tokenizations"]
    assert index.add_many(docs) == {"added": 0, "updated": 0, "unchanged": 4}
    assert index.counters["doc_tokenizations"] == before
    assert index.counters["unchanged"] == 4


def test_update_replaces_postings_atomically(index):
    changed = Document(doc_id="d1", text="zebra stripes")
    assert index.update(changed) == "updated"
    # The old content's postings are fully withdrawn.
    assert all(p.doc_id != "d1" for p in index.postings("lazi"))
    assert index.document_frequency("zebra") == 1
    assert index.doc_length("d1") == 2


def test_update_requires_existing_document(index):
    with pytest.raises(UnknownDocumentError):
        index.update(Document(doc_id="missing", text="x"))


def test_remove_withdraws_every_contribution(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        ix.remove("d4")
        rebuilt = InvertedIndex.build([d for d in docs if d.doc_id != "d4"])
        assert ix.stats == rebuilt.stats
        assert sorted(ix.vocabulary()) == sorted(rebuilt.vocabulary())
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
        assert ix.document("d").text == "bravo"
        assert (len(ix), ix.stats.vocabulary_size) == (1, 1)


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
        assert ix.document_frequency("running") == 1  # not stemmed


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
            ix.postings("quick")


def test_every_read_of_a_damaged_file_raises_retrieval_error(tmp_path, docs):
    """Drop ``documents``, then ``postings``, from a second connection:
    each read that needs the missing table raises RetrievalError (what
    the CLI reports as ``error: ...``), never a raw sqlite3 error."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        path = ix.path
    document_reads = [
        lambda ix: ix.document("d1"),
        lambda ix: ix.documents(),
        lambda ix: ix.doc_ids(),
        lambda ix: len(ix),
        lambda ix: "d1" in ix,
        lambda ix: ix.doc_length("d1"),
        lambda ix: ix.stats,
        lambda ix: SqliteSearcher(ix).search("quick", k=2),
    ]
    postings_reads = [
        lambda ix: ix.vocabulary(),
        lambda ix: ix.document_frequency("quick"),
        lambda ix: ix.term_frequency("quick", "d4"),
        lambda ix: ix.scoring_view(["quick"]),
        lambda ix: ix.postings("quick"),
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
        ix.postings("quick")


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
                before = ix.document_frequency("quick")
                writer.add(Document(doc_id="d9", text="quick quick"))
                assert ix.document_frequency("quick") == before
            # A fresh snapshot observes the external commit.
            with ix.snapshot():
                assert ix.document_frequency("quick") == before + 1
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
        assert ix.doc_length("d5") == 2  # "a" is a stopword: fifth, document


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
                ix.document_frequency("quick")  # the read transaction is open
                pinned.set()
                written.wait(timeout=10)
                seen.append((len(ix), "d5" in ix, ix.doc_length("d1")))

        thread = threading.Thread(target=reader)
        thread.start()
        assert pinned.wait(timeout=10)
        ix.add(Document(doc_id="d5", text="quick quick quick fox"))
        written.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        d1_length = InvertedIndex.build(docs).doc_length("d1")
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
        assert ix.doc_length("d5") == 2
        revised = Document(doc_id="d5", text="a fifth document, revised")
        assert ix.update(revised) == "updated"


def test_nested_snapshot_joins_the_outer_one(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        expected = _ranking(searcher.search("quick fox", k=4))
        with open_index(tmp_path / "ix") as writer:
            with ix.snapshot():
                ix.document_frequency("quick")
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
    """Every term the installed view holds, as sorted (doc_id, tf) pairs."""
    view = ix._pinned()
    return {
        term: sorted(
            zip([view.space.ids[row] for row in view.slot_rows[slots].tolist()], tf.tolist())
        )
        for term, (slots, tf) in view.terms.items()
    }


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
                expected = {
                    term: [(p.doc_id, p.term_frequency) for p in fresh.postings(term)]
                    for term in fresh.tokenizer.tokenize(query)
                }
            assert _ranking(result) == _ranking(cold)
            assert _loaded_postings(ix) == expected
        assert ix.counters["term_loads"] == loads
        assert (ix.counters["view_loads"], ix.counters["view_folds"]) == (1, len(steps))


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


def test_every_snapshot_reads_the_view_of_its_own_generation(tmp_path, docs):
    """Stress: six readers against a writer, switching threads often.
    In-memory reads inside a snapshot must agree with SQL counted in
    that same snapshot; a view from any other generation would not."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
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
                            stats = ix.stats
                            assert (stats.num_documents, stats.total_terms) == (count, total)
                            assert len(ix.dense_view().scores("quick")) == count
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            try:
                for i in range(30):
                    ix.add(Document(doc_id=f"x{i}", text=f"quick filler number {i}"))
                    if i % 3 == 2:
                        ix.remove(f"x{i - 1}")
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(ix) == len(docs) + 20
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


def test_v1_file_upgrades_on_open_and_ranks_as_before(tmp_path, docs):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        scorer = make_retrieval_scorer(ix, mode="hybrid", fusion="rrf")
        before = _ranking(SqliteSearcher(ix, scorer=scorer).search("quick fox", k=4))
        path = ix.path
    conn = sqlite3.connect(str(path))
    conn.execute("DELETE FROM meta WHERE key = 'generation'")
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    with open_index(tmp_path / "ix") as ix:
        scorer = make_retrieval_scorer(ix, mode="hybrid", fusion="rrf")
        after = _ranking(SqliteSearcher(ix, scorer=scorer).search("quick fox", k=4))
        ix.remove("d3")
    conn = sqlite3.connect(str(path))
    meta = dict(conn.execute("SELECT key, value FROM meta"))
    conn.close()
    assert after == before
    assert (meta["schema_version"], meta["generation"]) == (str(SCHEMA_VERSION), "1")


# ---------------------------------------------------------------------------
# Dense vectors and hybrid scoring over the persistent index


def test_dense_vectors_persist(tmp_path, docs):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        cold = ix.dense_view().scores("quick brown fox")
    with open_index(tmp_path / "ix") as warm:
        assert warm.embedder is not None  # reconstructed from stored meta
        assert warm.dense_view().scores("quick brown fox") == cold


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
