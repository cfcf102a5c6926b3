"""Top-k retrieval: queries in, ranked contexts (``Dq``) out.

:class:`Searcher` corresponds to the paper's retrieval model ``M``: given
a query ``q`` and relevance threshold ``k`` it scores and ranks the ``k``
most relevant sources from the index.  The resulting ordered list of
:class:`RetrievedSource` — the paper's ``Dq`` — carries the retrieval
scores that serve as one of the two relevance methods ``S``.

Scoring runs over arrays in the index's doc_id row order; only the
``k`` winners become :class:`RetrievedSource` objects, and ties still
break by doc_id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import EmptyIndexError
from .bm25 import BM25Scorer, Scorer, check_k, top_k
from .document import Document
from .index import InvertedIndex


@dataclass(frozen=True)
class RetrievedSource:
    """One ranked context source: the document, its rank and its score."""

    document: Document
    rank: int
    score: float

    @property
    def doc_id(self) -> str:
        """Shortcut to the underlying document id."""
        return self.document.doc_id


@dataclass(frozen=True)
class RetrievalResult:
    """The full answer to one retrieval request (the context ``Dq``)."""

    query: str
    sources: Sequence[RetrievedSource]

    def documents(self) -> List[Document]:
        """The ranked documents only."""
        return [source.document for source in self.sources]

    def doc_ids(self) -> List[str]:
        """The ranked document ids only."""
        return [source.doc_id for source in self.sources]

    def scores(self) -> List[float]:
        """The retrieval scores, aligned with :meth:`documents`."""
        return [source.score for source in self.sources]

    def __len__(self) -> int:
        return len(self.sources)


class Searcher:
    """Execute ranked retrieval against an :class:`InvertedIndex` (or
    any index with the same read protocol and a ``row_space()``)."""

    def __init__(self, index: InvertedIndex, scorer: Optional[Scorer] = None) -> None:
        self.index = index
        self.scorer = scorer or BM25Scorer()

    def search(self, query: str, k: int = 10) -> RetrievalResult:
        """Score and rank the ``k`` most relevant sources for ``query``.

        The scorer fills float64 arrays over the index's rows (or returns
        a plain ``{doc_id: score}`` mapping, placed on rows of its own);
        one stable argsort picks the ``k`` best, ties by doc_id.

        Raises
        ------
        ConfigError
            When ``k`` is not positive, whether or not anything matches.
        EmptyIndexError
            When the index holds no documents.
        """
        check_k(k)
        if len(self.index) == 0:
            raise EmptyIndexError("cannot search an empty index")
        query_terms = self.index.tokenizer.tokenize(query)
        ranked = top_k(self.scorer.score_query(self.index, query_terms), k)
        sources = [
            RetrievedSource(document=self.index.document(doc_id), rank=rank, score=score)
            for rank, (doc_id, score) in enumerate(ranked, start=1)
        ]
        return RetrievalResult(query=query, sources=sources)

    def search_all(self, query: str) -> RetrievalResult:
        """Rank every matching document (``k`` = corpus size)."""
        return self.search(query, k=max(1, len(self.index)))
