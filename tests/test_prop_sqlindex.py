"""Property: a long-lived SqliteIndex answers like a freshly opened one.

Hypothesis drives one handle through adds, updates, unchanged re-adds,
removes and bulk adds, searching between some of them, so its read view
is patched forward by runs of writes of every length, loaded terms
included.  A second handle writes now and then, so some folds meet a
gap and the next view loads cold, with no terms.  After every step a
handle opened cold on the same file must agree with it exactly: the
same rankings in all four retrieval modes (scores compared by
``float.hex``), statistics and document lengths, and the same view:
the same row space (ids, rows, lengths), the same dense matrix, down to
its bytes and row order, and every loaded term equal to its postings.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import Document, SqliteSearcher, make_retrieval_scorer, open_index
from tests.test_retrieval_sqlindex import _loaded_postings

# "the" is a stopword: a document of only "the" has no terms at all.
WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "the"]
QUERIES = ["alpha bravo", "charlie delta echo foxtrot golf"]
MODES = [("bm25", "minmax"), ("dense", "minmax"), ("hybrid", "minmax"), ("hybrid", "rrf")]

doc_ids = st.sampled_from([f"d{i:02d}" for i in range(10)])
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
puts = st.tuples(st.just("put"), doc_ids, texts)
removes = st.tuples(st.just("remove"), doc_ids)
ops = st.one_of(
    puts,
    puts,
    removes,
    removes,
    st.tuples(st.just("readd"), doc_ids),
    st.tuples(st.just("add_many"), st.lists(st.tuples(doc_ids, texts), max_size=4)),
    st.tuples(st.just("search"), st.sampled_from(QUERIES)),
    st.tuples(st.just("other"), doc_ids, texts),
)
#: Each step is a run of operations; the comparison runs after each.
steps = st.lists(st.lists(ops, min_size=1, max_size=6), min_size=1, max_size=8)


def _apply(ix, root, contents, op):
    kind = op[0]
    if kind == "put":
        doc = Document(doc_id=op[1], text=op[2])
        (ix.update if op[1] in contents else ix.add)(doc)
        contents[op[1]] = op[2]
    elif kind == "readd" and op[1] in contents:
        assert ix.add(Document(doc_id=op[1], text=contents[op[1]])) == "unchanged"
    elif kind == "remove" and op[1] in contents:
        ix.remove(op[1])
        del contents[op[1]]
    elif kind == "add_many":
        ix.add_many(Document(doc_id=doc_id, text=text) for doc_id, text in op[1])
        contents.update(op[1])
    elif kind == "search" and contents:
        _rankings(ix, modes=MODES[2:3], queries=[op[1]])
    elif kind == "other":
        with open_index(root) as other:
            outcome = other.add(Document(doc_id=op[1], text=op[2]))
        contents[op[1]] = op[2]
        if outcome != "unchanged":  # a gap: this handle's terms are dropped
            assert ix._pinned().terms == {}


def _rankings(ix, modes=MODES, queries=QUERIES):
    rankings = []
    for mode, fusion in modes:
        scorer = make_retrieval_scorer(ix, mode=mode, fusion=fusion)
        searcher = SqliteSearcher(ix, scorer=scorer)
        for query in queries:
            result = searcher.search(query, k=20)
            rankings.append([(s.document.doc_id, s.score.hex()) for s in result.sources])
    return rankings


def _assert_matches_fresh(ix, root):
    with open_index(root) as fresh:
        assert len(ix) == len(fresh)
        assert ix.stats == fresh.stats
        for doc_id in fresh.doc_ids():
            assert ix.doc_length(doc_id) == fresh.doc_length(doc_id)
        if len(fresh):
            assert _rankings(ix) == _rankings(fresh)
        for term, postings in _loaded_postings(ix).items():
            assert postings == [(p.doc_id, p.term_frequency) for p in fresh.postings(term)]
        live, cold = ix._pinned(), fresh._pinned()
    assert live.space.ids == cold.space.ids
    assert live.space.rows == cold.space.rows
    assert live.space.lengths.dtype == cold.space.lengths.dtype
    assert np.array_equal(live.space.lengths, cold.space.lengths)
    assert live.dense_matrix.flags.c_contiguous
    assert np.array_equal(live.dense_matrix, cold.dense_matrix)
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
