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
* :class:`DenseIndex` — exact nearest-neighbour search over normalized
  document vectors, held as per-dimension postings: each hash dimension
  maps to the vectors nonzero there, so a query reads only its own
  nonzero dimensions, joined in ascending order and summed by row in one
  accumulation (:func:`dense_scores`, shared with the persistent index).
* :class:`DenseScorer` — the :class:`~repro.retrieval.bm25.Scorer`
  protocol over a dense index, so :class:`Searcher` can rank with it.
* :class:`HybridScorer` — min-max-normalized linear fusion of a sparse
  and a dense scorer (Pyserini's standard hybrid), computed over the
  rows each side matched and no others.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..textproc import Tokenizer
from .bm25 import RowScores, Scorer, on_rows
from .document import Document
from .index import InvertedIndex


@lru_cache(maxsize=8192)
def _hashed_slot(term: str, dimensions: int) -> Tuple[int, float]:
    """``term``'s bucket among ``dimensions`` and its +/-1 sign, from a
    blake2b digest of the term.  Memoized: a corpus repeats its terms."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    return value % dimensions, 1.0 if (value >> 63) & 1 else -1.0


class HashedEmbedder:
    """Feature-hashed bag-of-terms embeddings.

    Each analyzed term deterministically maps to one of ``dimensions``
    buckets with a +/-1 sign (both derived from a blake2b digest, and
    memoized per term); vectors are L2-normalized so dot product =
    cosine similarity.
    """

    def __init__(self, dimensions: int = 256, tokenizer: Optional[Tokenizer] = None) -> None:
        if dimensions <= 0:
            raise ConfigError(f"dimensions must be positive, got {dimensions}")
        self.dimensions = dimensions
        self.tokenizer = tokenizer or Tokenizer()

    def embed(self, text: str) -> np.ndarray:
        """Normalized embedding of ``text`` (zero vector for no terms)."""
        return self.embed_terms(self.tokenizer.tokenize(text))

    def embed_terms(self, terms: Sequence[str]) -> np.ndarray:
        """Normalized embedding of already analyzed ``terms``."""
        vector = np.zeros(self.dimensions, dtype=np.float64)
        for term in terms:
            index, sign = _hashed_slot(term, self.dimensions)
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


#: One hash dimension's entries: the slots (intp) of the vectors nonzero
#: there and their float64 values in it, aligned.
DimensionEntries = Tuple[np.ndarray, np.ndarray]


def by_dimension(blocks: Iterable[np.ndarray], dimensions: int) -> Dict[int, DimensionEntries]:
    """The per-dimension entries of vectors given as blocks of rows:
    the vector in slot ``s`` is row ``s`` counted across the blocks.
    Every dimension gets an entry, slots ascending, empty where no
    vector is nonzero.  Each block is read once and only its nonzeros
    are kept, in small pieces, so a caller can stream the vectors."""
    slot_pieces: List[List[np.ndarray]] = [[] for _ in range(dimensions)]
    value_pieces: List[List[np.ndarray]] = [[] for _ in range(dimensions)]
    offset = 0
    for block in blocks:
        # The block's nonzeros dimension by dimension, slots ascending.
        column, rows = np.divmod(np.flatnonzero((block != 0).T), len(block))
        values = block[rows, column]
        ends = np.bincount(column, minlength=dimensions).cumsum().tolist()
        start = 0
        for dimension, end in enumerate(ends):
            if end > start:
                slot_pieces[dimension].append(rows[start:end] + offset)
                value_pieces[dimension].append(values[start:end])
                start = end
        offset += len(block)
    return {
        dimension: (
            np.concatenate(slots) if slots else np.empty(0, dtype=np.intp),
            np.concatenate(values) if values else np.empty(0, dtype=np.float64),
        )
        for dimension, (slots, values) in enumerate(zip(slot_pieces, value_pieces))
    }


def dense_scores(
    query: np.ndarray,
    dimensions: Mapping[int, DimensionEntries],
    slot_rows: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """The dot product of ``query`` with every vector, by row: the vector
    in slot ``s`` scores into row ``slot_rows[s]``, and a slot whose row
    is ``num_rows`` (a vector no document holds any more) scores nowhere.

    Only the query's nonzero dimensions are read.  Their entries are
    joined in ascending dimension order and one ``np.bincount`` sums the
    products ``q[j] * v[j]`` by row, in that order, from 0.0: each score
    is the ascending-dimension sum over the dimensions where both are
    nonzero, whatever the row or slot of its vector, so an index that
    moves vectors ranks float for float alike.  The products of row
    ``num_rows`` land in the one bin past the rows, which is cut off.
    """
    nonzero = np.flatnonzero(query)
    if len(nonzero) == 0:
        return np.zeros(num_rows)
    slots, values = zip(*map(dimensions.__getitem__, nonzero.tolist()))
    products = np.repeat(query[nonzero], [len(s) for s in slots]) * np.concatenate(values)
    rows = slot_rows[np.concatenate(slots)]
    return np.bincount(rows, products, minlength=num_rows)[:num_rows]


class DenseIndex:
    """Exact nearest-neighbour search over document embeddings."""

    def __init__(self, embedder: Optional[HashedEmbedder] = None) -> None:
        self.embedder = embedder or HashedEmbedder()
        self._doc_ids: List[str] = []
        self._dimensions = by_dimension([], self.embedder.dimensions)

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
        index._dimensions = by_dimension(
            [index.embedder.embed_batch(texts)], index.embedder.dimensions
        )
        return index

    def __len__(self) -> int:
        return len(self._doc_ids)

    def similarities(self, query_terms: Sequence[str]) -> Tuple[List[str], np.ndarray]:
        """Cosine similarity of every indexed document to the analyzed
        ``query_terms``, aligned with the returned doc ids (rows in
        corpus order; a document's slot is its row)."""
        rows = np.arange(len(self._doc_ids))
        query = self.embedder.embed_terms(query_terms)
        return self._doc_ids, dense_scores(query, self._dimensions, rows, len(rows))


class DenseScorer:
    """Adapt a :class:`DenseIndex` to the sparse :class:`Scorer` protocol.

    The inverted index supplies the document set and the analyzed query
    terms; scores come from the dense index, which embeds those terms as
    they are (analyzing them again would stem some twice: "universities"
    -> "univers" -> "univ").  Build both indexes over the same corpus,
    with the same analyzer.
    """

    def __init__(self, dense_index: DenseIndex) -> None:
        self.dense_index = dense_index

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        space = index.row_space()
        ids, similarities = self.dense_index.similarities(query_terms)
        if ids is not space.ids:
            # Rows in another order (an in-memory DenseIndex): a document
            # missing from the sparse index drops out, one missing from
            # the dense index scores 0.0.
            pairs = zip(ids, similarities.tolist())
            similarities = on_rows({d: s for d, s in pairs if d in space.rows}, space).array
        # Only docs with positive affinity count as matched, mirroring
        # sparse behaviour where non-matching docs are unscored.
        return RowScores(space, similarities, similarities > 0.0)


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
        rows, weights = [], []
        for weight, scorer in zip(self.weights, self.scorers):
            ranked = on_rows(scorer.score_query(index, query_terms), space).ranked()
            rows.append(ranked)
            weights.append(weight / (self.k0 + np.arange(1, len(ranked) + 1)))
        # Signal by signal, in scorer order: each row names one rank per signal.
        return RowScores.summed(space, np.concatenate(rows), np.concatenate(weights))


class HybridScorer:
    """Min-max-normalized linear fusion: alpha*sparse + (1-alpha)*dense.

    Each side is normalized over the rows it matched, and a side that
    did not match a row adds nothing to it: the same floats as
    ``alpha * s + (1 - alpha) * d`` with 0.0 for the unmatched side.
    """

    def __init__(self, sparse: Scorer, dense: Scorer, alpha: float = 0.5) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        self.sparse = sparse
        self.dense = dense
        # + 0.0 turns -0.0 into 0.0: then no fused score is -0.0, as
        # alpha * s + (1 - alpha) * 0.0 never is.
        self.alpha = alpha + 0.0

    def score_query(self, index: InvertedIndex, query_terms: Sequence[str]) -> RowScores:
        space = index.row_space()
        sparse = on_rows(self.sparse.score_query(index, query_terms), space)
        dense = on_rows(self.dense.score_query(index, query_terms), space)
        values = np.zeros(len(space))
        rows = np.flatnonzero(sparse.matched)
        values[rows] = self.alpha * _min_max(sparse.array[rows])
        rows = np.flatnonzero(dense.matched)
        values[rows] += (1.0 - self.alpha) * _min_max(dense.array[rows])
        return RowScores(space, values, sparse.matched | dense.matched)


def _min_max(scores: np.ndarray) -> np.ndarray:
    """``scores`` mapped linearly onto [0, 1]; all 1.0 when their lowest
    and highest are close."""
    if len(scores) == 0:
        return scores
    low = float(scores.min())
    high = float(scores.max())
    if math.isclose(low, high):
        return np.ones(len(scores))
    return (scores - low) / (high - low)
