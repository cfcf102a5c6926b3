"""Ranking functions over the inverted index.

:class:`BM25Scorer` implements Okapi BM25 with the Robertson/Lucene IDF
(the formulation Pyserini's default BM25 uses), and :class:`TfIdfScorer`
provides a classic lnc.ltc-style TF-IDF baseline used by the ablation
benchmarks.  Both satisfy the :class:`Scorer` protocol consumed by
:class:`repro.retrieval.searcher.Searcher`.

Both read one :class:`~repro.retrieval.index.ScoringView` per query:
rows, total length and each term's postings as ``(rows, tf)`` arrays,
all from one index state.  A query's postings are joined in query order
(repeated terms kept, terms of idf 0 skipped) and summed by row in one
accumulation (:meth:`RowScores.summed`), into a float64 array over the
view's :class:`~repro.retrieval.index.RowSpace`; a posting at the row
past the last document names none, and what it adds is dropped.
:func:`top_k` turns only the winners into Python objects.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Callable, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, UnscoredDocumentError
from .index import InvertedIndex, RowSpace, ScoringView


class Scorer(Protocol):
    """Scoring interface: per-document scores for a query.

    The built-in scorers return :class:`RowScores`, a ``{doc_id: score}``
    mapping backed by arrays over ``index.row_space()``.  Any other
    mapping works too: fusion and :func:`top_k` place it on a row space
    with :func:`on_rows` and rank it the same way.
    """

    def score_query(
        self, index: InvertedIndex, query_terms: Sequence[str]
    ) -> Mapping[str, float]:
        """Return ``{doc_id: score}`` for every document matching any term."""
        ...


class RowScores(Mapping):
    """Scores over a row space: ``array[row]`` is a document's score
    wherever ``matched[row]`` is set.  What the array holds on any other
    row is no score, and no reader looks at it.

    As a mapping it is ``{doc_id: score}`` of the matched documents, in
    row (doc_id) order.
    """

    __slots__ = ("space", "array", "matched")

    def __init__(
        self,
        space: RowSpace,
        array: Optional[np.ndarray] = None,
        matched: Optional[np.ndarray] = None,
    ) -> None:
        self.space = space
        self.array = np.zeros(len(space)) if array is None else array
        self.matched = np.zeros(len(space), dtype=bool) if matched is None else matched

    def __getitem__(self, doc_id: str) -> float:
        row = self.space.rows.get(doc_id)
        if row is None or not self.matched[row]:
            raise UnscoredDocumentError(doc_id)
        return float(self.array[row])

    def __iter__(self) -> Iterator[str]:
        ids = self.space.ids
        return (ids[row] for row in np.flatnonzero(self.matched).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.matched))

    @classmethod
    def summed(cls, space: RowSpace, rows: np.ndarray, weights: np.ndarray) -> "RowScores":
        """Each of ``rows`` scored the sum of its ``weights``, matched.

        One ``np.bincount`` adds the weights in input order, from 0.0: the
        same additions, in the same order, as adding them one by one into
        a zeroed array.  ``rows`` must be an integer array; the weights of
        row ``len(space)``, which names no document, are dropped.
        """
        n = len(space)
        matched = np.zeros(n + 1, dtype=bool)
        matched[rows] = True
        return cls(space, np.bincount(rows, weights, minlength=n)[:n], matched[:n])

    def ranked(self, k: Optional[int] = None) -> np.ndarray:
        """The matched rows, best score first, ties in row (doc_id) order:
        all of them, or the first ``k``.  For ``k``, only the rows
        scoring at least the k-th best are sorted."""
        rows = np.flatnonzero(self.matched)
        negated = -self.array[rows]
        if k is not None and k < len(rows):
            kth = np.partition(negated, k - 1)[k - 1]
            within = ~(negated > kth)  # a NaN k-th keeps every row
            rows, negated = rows[within], negated[within]
        return rows[np.argsort(negated, kind="stable")][:k]


def on_rows(scores: Mapping[str, float], space: Optional[RowSpace] = None) -> RowScores:
    """``scores`` placed on ``space`` (by default a space of its own keys).

    The one adapter between a scorer that returns a plain
    ``{doc_id: score}`` mapping and the array ranking: scores already on
    ``space`` pass through untouched.
    """
    if isinstance(scores, RowScores) and (space is None or scores.space is space):
        return scores
    if space is None:
        space = RowSpace(sorted(scores), np.zeros(len(scores), dtype=np.int64))
    values = np.fromiter(scores.values(), np.float64, len(scores))
    return RowScores.summed(space, space.rows_of(scores.keys()), values)


class BM25Scorer:
    """Okapi BM25.

    score(d, q) = sum over query terms t of
        IDF(t) * tf(t, d) * (k1 + 1) / (tf(t, d) + k1 * (1 - b + b * |d| / avgdl))

    with the non-negative Robertson IDF
        IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)).

    Parameters
    ----------
    k1:
        Term-frequency saturation (Pyserini default 0.9; classic 1.2).
    b:
        Length normalization strength in [0, 1] (Pyserini default 0.4).
    """

    def __init__(self, k1: float = 0.9, b: float = 0.4) -> None:
        if k1 < 0:
            raise ConfigError(f"BM25 k1 must be >= 0, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ConfigError(f"BM25 b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b

    def idf(self, index: InvertedIndex, term: str) -> float:
        """Robertson IDF of an analyzed term (0 for absent terms)."""
        view = index.scoring_view([term])
        return _robertson_idf(len(view.space), view.frequency(term))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        view = index.scoring_view(query_terms)
        space = view.space
        joined = _joined_postings(view, query_terms, _robertson_idf)
        if joined is None:
            return RowScores(space)
        rows, tf, idf = joined
        avgdl = view.total_terms / len(space) or 1.0
        # A row past the last document reads the last length: its weight
        # is dropped whatever it is.
        lengths = space.lengths.take(rows, mode="clip")
        denom = tf + self.k1 * (1.0 - self.b + self.b * lengths / avgdl)
        return RowScores.summed(space, rows, idf * tf * (self.k1 + 1.0) / denom)


class TfIdfScorer:
    """Log-TF x IDF with cosine-style document length normalization.

    Kept as a second retrieval model so benchmarks can ablate the choice
    of retrieval-based relevance scores in the counterfactual search.
    """

    def idf(self, index: InvertedIndex, term: str) -> float:
        view = index.scoring_view([term])
        return _log_idf(len(view.space), view.frequency(term))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        view = index.scoring_view(query_terms)
        space = view.space
        joined = _joined_postings(view, query_terms, _log_idf)
        if joined is None:
            return RowScores(space)
        rows, tf, idf = joined
        # math.log, not np.log: the two differ in the last bit for some
        # tf values.
        logs = np.fromiter(map(math.log, tf.tolist()), np.float64, len(tf))
        scores = RowScores.summed(space, rows, (1.0 + logs) * idf)
        matched = np.flatnonzero(scores.matched)
        lengths = space.lengths[matched]
        scores.array[matched] /= np.where(lengths > 0, np.sqrt(lengths), 1.0)
        return scores


def _joined_postings(
    view: ScoringView, query_terms: Sequence[str], idf_of: Callable[[int, int], float]
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The postings of ``query_terms`` joined in query order, a repeated
    term once per repeat and a term of idf 0.0 not at all: their rows,
    their tf and each one's term idf, or None when nothing is left.
    Summed by row in this order, they add into each document's score
    term by term, as a loop over the query terms would.  The idf counts
    only the postings that name a document."""
    n = len(view.space)
    kept = []
    for term in query_terms:
        rows, tf = view.postings[term]
        idf = idf_of(n, view.frequency(term))
        if idf != 0.0:
            kept.append((rows, tf, idf))
    if not kept:
        return None
    rows, tf, idf = zip(*kept)
    return np.concatenate(rows), np.concatenate(tf), np.repeat(idf, [len(r) for r in rows])


def _robertson_idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0


def _log_idf(n: int, df: int) -> float:
    return math.log(1.0 + n / df) if df else 0.0


def check_k(k: int) -> None:
    """Reject a result depth that is not positive."""
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")


def top_k(scores: Mapping[str, float], k: int) -> List[Tuple[str, float]]:
    """Return the k highest-scoring ``(doc_id, score)`` pairs.

    A partition finds the k-th best score and one stable argsort orders
    the rows at or above it; ties are broken by doc_id so rankings are
    fully deterministic.  Only the k winners become Python objects.
    """
    check_k(k)
    scores = on_rows(scores)
    rows = scores.ranked(k)
    ids = scores.space.ids
    return [(ids[row], score) for row, score in zip(rows.tolist(), scores.array[rows].tolist())]
