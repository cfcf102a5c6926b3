"""Retrieval substrate: documents, inverted index, BM25, top-k search.

This package stands in for the paper's Pyserini BM25 + Lucene index.
"""

from .bm25 import BM25Scorer, Scorer, TfIdfScorer, top_k
from .dense import (
    DenseIndex,
    DenseScorer,
    HashedEmbedder,
    HybridScorer,
    ReciprocalRankFusionScorer,
)
from .document import Corpus, Document
from .index import IndexStats, InvertedIndex
from .metrics import (
    average_precision,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)
from .searcher import RetrievalResult, RetrievedSource, Searcher
from .sqlindex import (
    DB_NAME,
    FUSION_STRATEGIES,
    RETRIEVAL_MODES,
    SqliteIndex,
    SqliteSearcher,
    make_retrieval_scorer,
    open_index,
)

__all__ = [
    "BM25Scorer",
    "Scorer",
    "TfIdfScorer",
    "top_k",
    "Corpus",
    "Document",
    "IndexStats",
    "InvertedIndex",
    "RetrievalResult",
    "RetrievedSource",
    "Searcher",
    "DenseIndex",
    "DenseScorer",
    "HashedEmbedder",
    "HybridScorer",
    "ReciprocalRankFusionScorer",
    "DB_NAME",
    "FUSION_STRATEGIES",
    "RETRIEVAL_MODES",
    "SqliteIndex",
    "SqliteSearcher",
    "make_retrieval_scorer",
    "open_index",
    "average_precision",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
    "reciprocal_rank",
]
