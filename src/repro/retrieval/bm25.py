"""Ranking functions over the inverted index.

:class:`BM25Scorer` implements Okapi BM25 with the Robertson/Lucene IDF
(the formulation Pyserini's default BM25 uses), and :class:`TfIdfScorer`
provides a classic lnc.ltc-style TF-IDF baseline used by the ablation
benchmarks.  Both satisfy the :class:`Scorer` protocol consumed by
:class:`repro.retrieval.searcher.Searcher`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Protocol, Sequence

from ..errors import ConfigError
from .index import InvertedIndex


class Scorer(Protocol):
    """Scoring interface: accumulate per-document scores for a query."""

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> Dict[str, float]:
        """Return ``{doc_id: score}`` for every document matching any term."""
        ...


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
        return _robertson_idf(len(index), index.document_frequency(term))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        n = len(index)
        if n == 0:
            return scores
        avgdl = index.stats.average_doc_length or 1.0
        doc_length = index.doc_length
        for term in query_terms:
            postings = index.term_frequencies(term)
            idf = _robertson_idf(n, len(postings))
            if idf == 0.0:
                continue
            for doc_id, tf in postings:
                denom = tf + self.k1 * (1.0 - self.b + self.b * doc_length(doc_id) / avgdl)
                contribution = idf * tf * (self.k1 + 1.0) / denom
                scores[doc_id] = scores.get(doc_id, 0.0) + contribution
        return scores


class TfIdfScorer:
    """Log-TF x IDF with cosine-style document length normalization.

    Kept as a second retrieval model so benchmarks can ablate the choice
    of retrieval-based relevance scores in the counterfactual search.
    """

    def idf(self, index: InvertedIndex, term: str) -> float:
        return _log_idf(len(index), index.document_frequency(term))

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> Dict[str, float]:
        scores: Dict[str, float] = {}
        n = len(index)
        for term in query_terms:
            postings = index.term_frequencies(term)
            idf = _log_idf(n, len(postings))
            if idf == 0.0:
                continue
            for doc_id, tf in postings:
                weight = (1.0 + math.log(tf)) * idf
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        for doc_id in list(scores):
            length = index.doc_length(doc_id)
            scores[doc_id] /= math.sqrt(length) if length > 0 else 1.0
        return scores


def _robertson_idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0


def _log_idf(n: int, df: int) -> float:
    return math.log(1.0 + n / df) if df else 0.0


def top_k(scores: Dict[str, float], k: int) -> List[tuple]:
    """Return the k highest-scoring ``(doc_id, score)`` pairs.

    Ties are broken by doc_id so rankings are fully deterministic.
    """
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]
