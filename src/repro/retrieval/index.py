"""The in-memory index and the read protocol every ranking uses.

BM25, TF-IDF, dense cosine and their fusions read an index only through
this protocol, which :class:`InvertedIndex` and
:class:`~repro.retrieval.sqlindex.SqliteIndex` both provide:

* ``tokenizer``: the analysis chain queries are analyzed with;
* ``len(index)`` and ``doc_id in index``;
* ``row_space()``: the indexed documents as rows (a :class:`RowSpace`:
  doc ids in sorted order and their analyzed lengths);
* ``scoring_view(terms)``: a :class:`ScoringView` of one index state,
  the rows, their total length and each term's postings as
  ``(rows, tf)`` arrays;
* ``fetch_documents(doc_ids)``: the stored documents, in that order;
* ``stats``: an :class:`IndexStats` (documents, total length,
  vocabulary size), which scoring never reads.

An index keeps, per analyzed term, the (doc_id, term frequency) pairs
of its postings, and per document its analyzed length.  Nothing reads
where in a document a term occurs, so no index keeps positions.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import UnknownDocumentError
from ..textproc import Tokenizer
from .document import Corpus, Document


@dataclass
class IndexStats:
    """Collection-level statistics, as an index reports them."""

    num_documents: int = 0
    total_terms: int = 0
    vocabulary_size: int = 0

    @property
    def average_doc_length(self) -> float:
        """Mean analyzed-token count per document (0.0 when empty)."""
        if self.num_documents == 0:
            return 0.0
        return self.total_terms / self.num_documents


class RowSpace:
    """The documents of one index state as array rows.

    ``ids`` holds the doc ids in sorted (Python string) order, ``rows``
    maps each id to its row, and ``lengths`` holds the analyzed lengths
    as an int64 array aligned with ``ids``.  Scorers compute into
    float64 arrays over these rows, so a stable sort of rows breaks
    score ties by doc_id.  ``rows`` is built on first use;
    :meth:`row_of` and :meth:`rows_of_sorted` bisect ``ids`` instead.
    Never mutated: an index whose documents change builds a new one.
    """

    __slots__ = ("ids", "lengths", "_rows")

    def __init__(self, ids: List[str], lengths: np.ndarray) -> None:
        self.ids = ids
        self.lengths = lengths
        self._rows: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def rows(self) -> Dict[str, int]:
        """doc_id -> row, built by the first call (concurrent first calls
        may each build an equal map)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = dict(zip(self.ids, range(len(self.ids))))
        return rows

    def row_of(self, doc_id: str) -> Optional[int]:
        """``doc_id``'s row, or None when it is not in the space: a
        bisection of ``ids``, which needs no ``rows`` map."""
        row = bisect.bisect_left(self.ids, doc_id)
        return row if row < len(self.ids) and self.ids[row] == doc_id else None

    def rows_of(self, doc_ids: Iterable[str]) -> np.ndarray:
        """The rows of ``doc_ids``, in their order."""
        try:
            return np.fromiter(map(self.rows.__getitem__, doc_ids), dtype=np.intp)
        except KeyError as error:
            raise UnknownDocumentError(f"no document with id {error.args[0]!r}") from None

    def rows_of_sorted(self, doc_ids: Iterable[str]) -> np.ndarray:
        """The rows of ``doc_ids``, which ascend: each is bisected from
        the row of the one before, so no ``rows`` map is built."""
        ids, found, row = self.ids, [], 0
        for doc_id in doc_ids:
            row = bisect.bisect_left(ids, doc_id, row)
            if row == len(ids) or ids[row] != doc_id:
                raise UnknownDocumentError(f"no document with id {doc_id!r}")
            found.append(row)
        return np.array(found, dtype=np.intp)


#: A term's postings as arrays: intp rows of a :class:`RowSpace` and the
#: int64 term frequencies, aligned (both empty for an absent term).
TermRows = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ScoringView:
    """What a ranking function reads of one index state.

    ``total_terms`` is the analyzed length of all its documents (the
    rows give their count), and ``postings`` holds the arrays of the
    analyzed terms it was built for.  A posting may also sit at row
    ``len(space)``, past the last document: an entry an index keeps for
    content it no longer holds, which names no document and must score
    nowhere.  ``retired`` counts each term's such entries, so a term's
    document frequency is :meth:`frequency`.  Rows, lengths and
    postings all come from the same state, so no write can land
    between them.
    """

    space: RowSpace
    total_terms: int
    postings: Dict[str, TermRows]
    #: Term -> how many of its postings sit at row ``len(space)``; a term
    #: not here has none.
    retired: Mapping[str, int] = field(default_factory=dict)

    def frequency(self, term: str) -> int:
        """How many documents ``term``'s postings name."""
        return len(self.postings[term][0]) - self.retired.get(term, 0)


class InvertedIndex:
    """The read protocol over a corpus held in memory, built once.

    :meth:`build` analyzes every document and keeps each term's
    (doc_id, tf) pairs; a term's arrays are made by the first search
    that reads it.  The documents never change: a changed corpus is
    indexed anew.

    Parameters
    ----------
    tokenizer:
        The analysis chain; defaults to the package-wide configuration
        (lowercase, stopwords removed, Porter-stemmed).
    """

    def __init__(self, tokenizer: Optional[Tokenizer] = None) -> None:
        """An empty index; :meth:`build` makes one over a corpus."""
        self.tokenizer = tokenizer or Tokenizer()
        self._corpus = Corpus()
        self._postings: Dict[str, List[Tuple[str, int]]] = {}
        self._space = RowSpace([], np.zeros(0, dtype=np.int64))
        self._total_terms = 0
        # Term -> its arrays over the rows, filled by the searches that
        # read it (concurrent first reads may each build equal arrays).
        self._arrays: Dict[str, TermRows] = {}

    @classmethod
    def build(
        cls,
        documents: Iterable[Document],
        tokenizer: Optional[Tokenizer] = None,
    ) -> "InvertedIndex":
        """Index every document in ``documents`` and return the index."""
        index = cls(tokenizer=tokenizer)
        lengths: Dict[str, int] = {}
        for doc in documents:
            index._corpus.add(doc)
            terms = index.tokenizer.tokenize(doc.text + " " + doc.title)
            lengths[doc.doc_id] = len(terms)
            for term, tf in Counter(terms).items():
                index._postings.setdefault(term, []).append((doc.doc_id, tf))
        ids = sorted(lengths)
        index._space = RowSpace(ids, np.fromiter(map(lengths.__getitem__, ids), np.int64, len(ids)))
        index._total_terms = sum(lengths.values())
        return index

    def row_space(self) -> RowSpace:
        """The indexed documents as rows."""
        return self._space

    def scoring_view(self, terms: Iterable[str]) -> ScoringView:
        """Rows, total length and the postings of ``terms`` as arrays."""
        space, built = self._space, self._arrays
        postings: Dict[str, TermRows] = {}
        for term in terms:
            arrays = built.get(term)
            if arrays is None:
                found = self._postings.get(term, ())
                arrays = built[term] = (
                    space.rows_of(doc_id for doc_id, _ in found),
                    np.fromiter((tf for _, tf in found), np.int64, len(found)),
                )
            postings[term] = arrays
        return ScoringView(space, self._total_terms, postings)

    def fetch_documents(self, doc_ids: Sequence[str]) -> List[Document]:
        """The stored documents of ``doc_ids``, in that order.

        Raises
        ------
        UnknownDocumentError
            When an id names no indexed document.
        """
        return [self._corpus.get(doc_id) for doc_id in doc_ids]

    @property
    def stats(self) -> IndexStats:
        """Collection statistics."""
        return IndexStats(len(self._space), self._total_terms, len(self._postings))

    def __len__(self) -> int:
        return len(self._space)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._corpus
