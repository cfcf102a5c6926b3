"""Dense retrieval: embedding-based ranking and hybrid fusion.

The retrieval toolkit the paper builds on (Pyserini) is explicitly "a
Python toolkit for reproducible information retrieval research with
sparse AND dense representations".  This module provides the dense half
without external model weights:

* :class:`HashedEmbedder` — deterministic feature-hashed bag-of-terms
  embeddings (the "hashing trick"): each analyzed term is hashed to a
  dimension and a sign, giving fixed-width vectors whose cosine
  similarity approximates term overlap.  No training, no network, fully
  reproducible — the appropriate stand-in for a sentence encoder in
  this offline environment (see DESIGN.md §3).
* :class:`DenseIndex` — exact (brute-force) nearest-neighbour search
  over normalized document vectors.
* :class:`DenseScorer` — the :class:`~repro.retrieval.bm25.Scorer`
  protocol over a dense index, so :class:`Searcher` can rank with it.
* :class:`HybridScorer` — min-max-normalized linear fusion of a sparse
  and a dense scorer (Pyserini's standard hybrid).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, EmptyIndexError
from ..textproc import Tokenizer
from .bm25 import RowScores, Scorer, on_rows, top_k
from .document import Document
from .index import InvertedIndex


class HashedEmbedder:
    """Feature-hashed bag-of-terms embeddings.

    Each analyzed term deterministically maps to one of ``dimensions``
    buckets with a +/-1 sign (both derived from a blake2b digest);
    vectors are L2-normalized so dot product = cosine similarity.
    """

    def __init__(self, dimensions: int = 256, tokenizer: Optional[Tokenizer] = None) -> None:
        if dimensions <= 0:
            raise ConfigError(f"dimensions must be positive, got {dimensions}")
        self.dimensions = dimensions
        self.tokenizer = tokenizer or Tokenizer()

    def _slot(self, term: str) -> Tuple[int, float]:
        digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        index = value % self.dimensions
        sign = 1.0 if (value >> 63) & 1 else -1.0
        return index, sign

    def embed(self, text: str) -> np.ndarray:
        """Normalized embedding of ``text`` (zero vector for no terms)."""
        return self.embed_terms(self.tokenizer.tokenize(text))

    def embed_terms(self, terms: Sequence[str]) -> np.ndarray:
        """Normalized embedding of already analyzed ``terms``."""
        vector = np.zeros(self.dimensions, dtype=np.float64)
        for term in terms:
            index, sign = self._slot(term)
            vector[index] += sign
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Stacked embeddings, one row per text."""
        if not texts:
            return np.zeros((0, self.dimensions), dtype=np.float64)
        return np.vstack([self.embed(text) for text in texts])


class DenseIndex:
    """Exact nearest-neighbour search over document embeddings."""

    def __init__(self, embedder: Optional[HashedEmbedder] = None) -> None:
        self.embedder = embedder or HashedEmbedder()
        self._doc_ids: List[str] = []
        self._matrix = np.zeros((0, self.embedder.dimensions), dtype=np.float64)

    @classmethod
    def build(
        cls,
        documents: Sequence[Document],
        embedder: Optional[HashedEmbedder] = None,
    ) -> "DenseIndex":
        """Embed and index every document."""
        index = cls(embedder=embedder)
        texts = [doc.text + " " + doc.title for doc in documents]
        index._doc_ids = [doc.doc_id for doc in documents]
        index._matrix = index.embedder.embed_batch(texts)
        return index

    def __len__(self) -> int:
        return len(self._doc_ids)

    def search(self, query: str, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k ``(doc_id, cosine)`` pairs, best first, ties by doc id."""
        if len(self) == 0:
            raise EmptyIndexError("cannot search an empty dense index")
        return top_k(self.scores(query), k)

    def similarities(self, query: str) -> Tuple[List[str], np.ndarray]:
        """Cosine similarity of every indexed document, aligned with the
        returned doc ids (rows in corpus order)."""
        return self._doc_ids, self._matrix @ self.embedder.embed(query)

    def scores(self, query: str) -> Dict[str, float]:
        """Cosine similarity for every indexed document."""
        ids, similarities = self.similarities(query)
        return dict(zip(ids, similarities.tolist()))


class DenseScorer:
    """Adapt a :class:`DenseIndex` to the sparse :class:`Scorer` protocol.

    The inverted index supplies the document set and the analyzed query
    terms; scores come from the dense index.  Build both indexes over
    the same corpus.
    """

    def __init__(self, dense_index: DenseIndex) -> None:
        self.dense_index = dense_index

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        space = index.row_space()
        ids, similarities = self.dense_index.similarities(" ".join(query_terms))
        if ids is not space.ids:
            # Rows in another order (an in-memory DenseIndex): a document
            # missing from the sparse index drops out, one missing from
            # the dense index scores 0.0.
            pairs = zip(ids, similarities.tolist())
            similarities = on_rows({d: s for d, s in pairs if d in space.rows}, space).array
        # Only docs with positive affinity count as matched, mirroring
        # sparse behaviour where non-matching docs are unscored.
        matched = similarities > 0.0
        return RowScores(space, np.where(matched, similarities, 0.0), matched)


class ReciprocalRankFusionScorer:
    """Reciprocal-rank fusion over any number of scorers.

    RRF fuses *ranks* instead of scores — ``sum_i w_i / (k0 + rank_i)``
    — so it is immune to scale mismatch between fused signals (an
    unbounded BM25 score and a ``[-1, 1]`` cosine contribute equally by
    construction).  Ranks are assigned with doc_id tie-breaks, making
    the fusion fully deterministic.

    Parameters
    ----------
    scorers:
        The signals to fuse (each satisfying the :class:`Scorer`
        protocol); documents unscored by a signal simply contribute
        nothing for it.
    k0:
        Rank-smoothing constant (literature default 60): larger values
        flatten the difference between adjacent ranks.
    weights:
        Optional per-scorer weights, aligned with ``scorers``; default
        all 1.0.
    """

    def __init__(
        self,
        scorers: Sequence[Scorer],
        k0: float = 60.0,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not scorers:
            raise ConfigError("RRF needs at least one scorer")
        if k0 <= 0:
            raise ConfigError(f"k0 must be positive, got {k0}")
        if weights is not None and len(weights) != len(scorers):
            raise ConfigError(
                f"weights must align with scorers "
                f"({len(weights)} vs {len(scorers)})"
            )
        self.scorers = list(scorers)
        self.k0 = k0
        self.weights = list(weights) if weights is not None else [1.0] * len(scorers)

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        space = index.row_space()
        fused = RowScores(space)
        for weight, scorer in zip(self.weights, self.scorers):
            ranked = on_rows(scorer.score_query(index, query_terms), space).ranked()
            fused.add(ranked, weight / (self.k0 + np.arange(1, len(ranked) + 1)))
        return fused


class HybridScorer:
    """Min-max-normalized linear fusion: alpha*sparse + (1-alpha)*dense."""

    def __init__(self, sparse: Scorer, dense: Scorer, alpha: float = 0.5) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        self.sparse = sparse
        self.dense = dense
        self.alpha = alpha

    @staticmethod
    def _normalize(scores: RowScores) -> RowScores:
        matched = scores.matched
        if not matched.any():
            return scores
        present = scores.array[matched]
        low = float(present.min())
        high = float(present.max())
        if math.isclose(low, high):
            return RowScores(scores.space, matched.astype(np.float64), matched)
        values = np.where(matched, (scores.array - low) / (high - low), 0.0)
        return RowScores(scores.space, values, matched)

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        space = index.row_space()
        sparse = self._normalize(on_rows(self.sparse.score_query(index, query_terms), space))
        dense = self._normalize(on_rows(self.dense.score_query(index, query_terms), space))
        # An unmatched side contributes alpha * 0.0 (or (1 - alpha) * 0.0).
        values = self.alpha * sparse.array + (1.0 - self.alpha) * dense.array
        return RowScores(space, values, sparse.matched | dense.matched)
