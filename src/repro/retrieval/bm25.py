"""Ranking functions over the inverted index.

:class:`BM25Scorer` implements Okapi BM25 with the Robertson/Lucene IDF
(the formulation Pyserini's default BM25 uses), and :class:`TfIdfScorer`
provides a classic lnc.ltc-style TF-IDF baseline used by the ablation
benchmarks.  Both satisfy the :class:`Scorer` protocol consumed by
:class:`repro.retrieval.searcher.Searcher`.

Both read one :class:`~repro.retrieval.index.ScoringView` per query:
rows, statistics and each term's postings as ``(rows, tf)`` arrays, all
from one index state.  Scores are computed into float64 arrays over its
:class:`~repro.retrieval.index.RowSpace` (:class:`RowScores`), and
:func:`top_k` turns only the winners into Python objects.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, UnscoredDocumentError
from .index import InvertedIndex, RowSpace


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
    """Scores over a row space: ``array[row]`` wherever ``matched[row]``,
    0.0 on every other row.

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

    def add(self, rows: np.ndarray, contributions: np.ndarray) -> None:
        """Add ``contributions`` to ``rows`` (each row named at most once)."""
        self.array[rows] += contributions
        self.matched[rows] = True

    def ranked(self) -> np.ndarray:
        """The matched rows, best score first, ties in row (doc_id) order."""
        rows = np.flatnonzero(self.matched)
        return rows[np.argsort(-self.array[rows], kind="stable")]


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
    placed = RowScores(space)
    if scores:
        placed.add(space.rows_of(scores.keys()), np.fromiter(scores.values(), np.float64))
    return placed


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
        return _robertson_idf(len(view.space), len(view.postings[term][0]))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        view = index.scoring_view(query_terms)
        space = view.space
        scores = RowScores(space)
        n = len(space)
        if n == 0:
            return scores
        avgdl = view.stats.average_doc_length or 1.0
        # Query order, one term at a time: the same additions, in the
        # same order, as summing each document's terms one by one.
        for term in query_terms:
            rows, tf = view.postings[term]
            idf = _robertson_idf(n, len(rows))
            if idf == 0.0:
                continue
            denom = tf + self.k1 * (1.0 - self.b + self.b * space.lengths[rows] / avgdl)
            scores.add(rows, idf * tf * (self.k1 + 1.0) / denom)
        return scores


class TfIdfScorer:
    """Log-TF x IDF with cosine-style document length normalization.

    Kept as a second retrieval model so benchmarks can ablate the choice
    of retrieval-based relevance scores in the counterfactual search.
    """

    def idf(self, index: InvertedIndex, term: str) -> float:
        view = index.scoring_view([term])
        return _log_idf(len(view.space), len(view.postings[term][0]))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        view = index.scoring_view(query_terms)
        space = view.space
        scores = RowScores(space)
        n = len(space)
        for term in query_terms:
            rows, tf = view.postings[term]
            idf = _log_idf(n, len(rows))
            if idf == 0.0:
                continue
            # math.log, not np.log: the two differ in the last bit for
            # some tf values.
            logs = np.fromiter(map(math.log, tf.tolist()), np.float64, len(tf))
            scores.add(rows, (1.0 + logs) * idf)
        lengths = space.lengths[scores.matched]
        scores.array[scores.matched] /= np.where(lengths > 0, np.sqrt(lengths), 1.0)
        return scores


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

    One stable argsort over the matched rows; ties are broken by doc_id
    so rankings are fully deterministic.  Only the k winners become
    Python objects.
    """
    check_k(k)
    scores = on_rows(scores)
    rows = scores.ranked()[:k]
    ids = scores.space.ids
    return [(ids[row], score) for row, score in zip(rows.tolist(), scores.array[rows].tolist())]
