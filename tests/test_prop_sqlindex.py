"""Property: a long-lived SqliteIndex answers like a freshly opened one.

Hypothesis drives one handle through adds, updates, unchanged re-adds,
removes and bulk adds, searching between some of them, so its read view
is patched forward by runs of writes of every length, loaded terms
included.  A second handle writes now and then, so some folds meet a
gap and the next view loads cold, with no terms or documents.  After
every step a handle opened cold on the same file must agree with it
exactly: the same rankings in all four retrieval modes (scores
compared by ``float.hex``, each source with its title, text and
metadata, so a stale or mis-slotted kept document fails) and
statistics, and the same view: the same row space (ids, rows,
lengths), each document's per-dimension vector entries down to their
bytes, and every loaded term equal to its postings in the cold
handle's scoring view.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import Document, SqliteSearcher, make_retrieval_scorer, open_index
from repro.retrieval import sqlindex
from tests.test_retrieval_sqlindex import _loaded_postings, _postings_of

# "the" is a stopword: a document of only "the" has no terms at all.
WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "the"]
QUERIES = ["alpha bravo", "charlie delta echo foxtrot golf"]
MODES = [("bm25", "minmax"), ("dense", "minmax"), ("hybrid", "minmax"), ("hybrid", "rrf")]

doc_ids = st.sampled_from([f"d{i:02d}" for i in range(10)])
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
titles = st.sampled_from(["", "golf", "title"])
metadata = st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from(["1", "2"]), max_size=2)
documents = st.builds(Document, doc_ids, texts, titles, metadata)
puts = st.tuples(st.just("put"), documents)
removes = st.tuples(st.just("remove"), doc_ids)
ops = st.one_of(
    puts,
    puts,
    removes,
    removes,
    st.tuples(st.just("readd"), doc_ids),
    st.tuples(st.just("add_many"), st.lists(st.tuples(doc_ids, texts), max_size=4)),
    st.tuples(st.just("search"), st.sampled_from(QUERIES)),
    st.tuples(st.just("other"), documents),
)
#: Each step is a run of operations; the comparison runs after each.
steps = st.lists(st.lists(ops, min_size=1, max_size=6), min_size=1, max_size=8)


def _apply(ix, root, contents, op):
    """Run ``op`` on ``ix``; ``contents`` maps each doc_id to its document."""
    kind = op[0]
    if kind == "put":
        doc = op[1]
        (ix.update if doc.doc_id in contents else ix.add)(doc)
        contents[doc.doc_id] = doc
    elif kind == "readd" and op[1] in contents:
        assert ix.add(contents[op[1]]) == "unchanged"
    elif kind == "remove" and op[1] in contents:
        ix.remove(op[1])
        del contents[op[1]]
    elif kind == "add_many":
        added = [Document(doc_id=doc_id, text=text) for doc_id, text in op[1]]
        ix.add_many(added)
        contents.update((doc.doc_id, doc) for doc in added)
    elif kind == "search" and contents:
        _rankings(ix, modes=MODES[2:3], queries=[op[1]])
    elif kind == "other":
        with open_index(root) as other:
            outcome = other.add(op[1])
        contents[op[1].doc_id] = op[1]
        if outcome != "unchanged":  # a gap: this handle's terms and documents are dropped
            view = ix._pinned()
            assert (view.terms, view.documents) == ({}, {})


def _rankings(ix, modes=MODES, queries=QUERIES):
    rankings = []
    for mode, fusion in modes:
        scorer = make_retrieval_scorer(ix, mode=mode, fusion=fusion)
        searcher = SqliteSearcher(ix, scorer=scorer)
        for query in queries:
            result = searcher.search(query, k=20)
            rankings.append(
                [
                    (s.doc_id, s.score.hex(), s.document.title, s.document.text, s.document.metadata)
                    for s in result.sources
                ]
            )
    return rankings


def _dimension_entries(view):
    """Each document's (dimension, value) vector entries in ``view``, read
    at live slots only (an entry at a retired slot belongs to no
    document)."""
    retired = len(view.space)  # the row of every retired slot
    # A fold that would leave more than one retired slot per
    # _LIVE_PER_RETIRED live documents compacts instead.
    assert (len(view.slot_rows) - retired) * sqlindex._LIVE_PER_RETIRED <= retired
    entries = {}
    for dimension, (slots, values) in sorted(view.dimensions.items()):
        rows = view.slot_rows[slots]
        live = rows != retired
        for row, value in zip(rows[live].tolist(), values[live].tolist()):
            entries.setdefault(view.space.ids[row], []).append((dimension, value.hex()))
    return entries


def _assert_matches_fresh(ix, root):
    with open_index(root) as fresh:
        assert len(ix) == len(fresh)
        assert ix.stats == fresh.stats
        if len(fresh):
            assert _rankings(ix) == _rankings(fresh)
        loaded = _loaded_postings(ix)
        view = fresh.scoring_view(list(loaded))
        for term, postings in loaded.items():
            assert postings == _postings_of(view, term)
        live, cold = ix._pinned(), fresh._pinned()
    assert live.space.ids == cold.space.ids
    assert live.space.rows == cold.space.rows
    assert live.space.lengths.dtype == cold.space.lengths.dtype
    assert np.array_equal(live.space.lengths, cold.space.lengths)
    assert _dimension_entries(live) == _dimension_entries(cold)
    assert np.array_equal(live.slot_rows[live.row_slots], np.arange(len(live.space)))


@given(steps)
@settings(max_examples=80, deadline=None)
def test_long_lived_index_equals_a_fresh_one(runs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ix"
        contents = {}
        with open_index(root, dense=True) as ix:
            for run in runs:
                for op in run:
                    _apply(ix, root, contents, op)
                _assert_matches_fresh(ix, root)
            assert sorted(ix.doc_ids()) == sorted(contents)


#: Documents in words no query holds, two compaction bounds' worth:
#: with them, up to two retired slots stay, entries and all.
PADDING = [Document(f"pad{i:03d}", f"padding words {i}") for i in range(64)]


@given(steps)
@settings(max_examples=40, deadline=None)
def test_a_long_lived_index_with_retired_slots_equals_a_fresh_one(runs):
    """The same histories over an index padded with documents no step
    touches: with that many live documents an update or removal leaves
    its old slot retired, entries and all, until a later fold passes the
    bound and compacts, so every check above also runs against views
    holding retired slots."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ix"
        contents = {doc.doc_id: doc for doc in PADDING}
        with open_index(root, dense=True) as ix:
            ix.add_many(PADDING)
            for run in runs:
                for op in run:
                    _apply(ix, root, contents, op)
                _assert_matches_fresh(ix, root)
            assert sorted(ix.doc_ids()) == sorted(contents)
