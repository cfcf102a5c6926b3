"""Positional inverted index — the Lucene-index substitute.

The index stores, per analyzed term, a postings list of
``(doc_id, term_frequency, positions)`` plus per-document lengths and
collection statistics.  BM25 and TF-IDF need the frequencies and
lengths.  No scorer reads the within-document positions; only the
indexes' ``postings`` lookups return them.

Ranking runs over a :class:`ScoringView`: the indexed documents as
array rows in doc_id order (a :class:`RowSpace`), their total analyzed
length and each query term's postings as arrays over those rows, all
from one index state.  Both index classes provide it.  Scoring reads no
vocabulary size; only an index's ``stats`` reports one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import UnknownDocumentError
from ..textproc import Tokenizer
from .document import Corpus, Document


@dataclass(frozen=True)
class Posting:
    """One document entry inside a term's postings list."""

    doc_id: str
    term_frequency: int
    positions: Tuple[int, ...] = ()


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
    """Term -> postings map built from a :class:`Corpus`.

    Parameters
    ----------
    tokenizer:
        The analysis chain; defaults to the package-wide configuration
        (lowercase, stopwords removed, Porter-stemmed).
    """

    def __init__(self, tokenizer: Optional[Tokenizer] = None) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self._postings: Dict[str, List[Posting]] = {}
        self._doc_lengths: Dict[str, int] = {}
        self._corpus = Corpus()
        # Built by the first search after a change; see _arrays().
        self._rows: Optional[Tuple[RowSpace, int, Dict[str, TermRows]]] = None

    # -- construction --------------------------------------------------

    def add_document(self, doc: Document) -> None:
        """Analyze and index one document."""
        self._corpus.add(doc)
        terms = self.tokenizer.tokenize(doc.text + " " + doc.title)
        self._doc_lengths[doc.doc_id] = len(terms)
        occurrences: Dict[str, List[int]] = {}
        for position, term in enumerate(terms):
            occurrences.setdefault(term, []).append(position)
        for term, positions in occurrences.items():
            posting = Posting(
                doc_id=doc.doc_id,
                term_frequency=len(positions),
                positions=tuple(positions),
            )
            self._postings.setdefault(term, []).append(posting)
        self._rows = None

    def remove_document(self, doc_id: str) -> Document:
        """Un-index a document, restoring pre-add statistics exactly.

        Every posting the document contributed is withdrawn (terms whose
        postings list empties disappear from the vocabulary, so
        ``document_frequency`` never double-counts a removed document),
        its length entry is dropped, and the stored document is returned.

        Raises
        ------
        UnknownDocumentError
            When ``doc_id`` was never indexed.
        """
        if doc_id not in self._doc_lengths:
            raise UnknownDocumentError(f"no document with id {doc_id!r}")
        document = self._corpus.get(doc_id)
        self._corpus.remove(doc_id)
        del self._doc_lengths[doc_id]
        emptied: List[str] = []
        for term, postings in self._postings.items():
            kept = [posting for posting in postings if posting.doc_id != doc_id]
            if len(kept) != len(postings):
                if kept:
                    self._postings[term] = kept
                else:
                    emptied.append(term)
        for term in emptied:
            del self._postings[term]
        self._rows = None
        return document

    def update_document(self, doc: Document) -> None:
        """Replace an indexed document with new content, atomically.

        Equivalent to ``remove_document(doc.doc_id)`` + ``add_document``:
        stale postings never linger, so an updated document is
        indistinguishable from one indexed fresh.
        """
        self.remove_document(doc.doc_id)
        self.add_document(doc)

    @classmethod
    def build(
        cls,
        documents: Iterable[Document],
        tokenizer: Optional[Tokenizer] = None,
    ) -> "InvertedIndex":
        """Index every document in ``documents`` and return the index."""
        index = cls(tokenizer=tokenizer)
        for doc in documents:
            index.add_document(doc)
        return index

    # -- lookups --------------------------------------------------------

    def postings(self, term: str) -> List[Posting]:
        """Postings list for an *analyzed* term (empty when absent)."""
        return self._postings.get(term, [])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing the analyzed term."""
        return len(self._postings.get(term, ()))

    def doc_length(self, doc_id: str) -> int:
        """Analyzed token count of a document."""
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"no document with id {doc_id!r}") from None

    def row_space(self) -> RowSpace:
        """The indexed documents as rows."""
        return self._arrays()[0]

    def scoring_view(self, terms: Iterable[str]) -> ScoringView:
        """Rows, total length and the postings of ``terms`` as arrays; a
        term's arrays are built once per row space."""
        space, total_terms, built = self._arrays()
        postings: Dict[str, TermRows] = {}
        for term in terms:
            arrays = built.get(term)
            if arrays is None:
                found = self._postings.get(term, ())
                arrays = built[term] = (
                    space.rows_of(p.doc_id for p in found),
                    np.fromiter((p.term_frequency for p in found), np.int64, len(found)),
                )
            postings[term] = arrays
        return ScoringView(space, total_terms, postings)

    def _arrays(self) -> Tuple[RowSpace, int, Dict[str, TermRows]]:
        """The row space, its total length and the term arrays built over
        it so far, made by the first call after a change.  Concurrent
        searchers may each build one; every build is published whole, by
        one assignment."""
        arrays = self._rows
        if arrays is None:
            ids = sorted(self._doc_lengths)
            lengths = np.fromiter(map(self._doc_lengths.__getitem__, ids), dtype=np.int64)
            arrays = self._rows = (RowSpace(ids, lengths), int(lengths.sum()), {})
        return arrays

    def document(self, doc_id: str) -> Document:
        """Return the stored document."""
        return self._corpus.get(doc_id)

    def fetch_documents(self, doc_ids: Sequence[str]) -> List[Document]:
        """The stored documents of ``doc_ids``, in that order.

        Raises
        ------
        UnknownDocumentError
            When an id names no indexed document.
        """
        return [self._corpus.get(doc_id) for doc_id in doc_ids]

    def documents(self) -> List[Document]:
        """All indexed documents in insertion order."""
        return list(self._corpus)

    def vocabulary(self) -> List[str]:
        """All analyzed terms, sorted for determinism."""
        return sorted(self._postings)

    @property
    def stats(self) -> IndexStats:
        """Fresh collection statistics snapshot."""
        return IndexStats(
            num_documents=len(self._doc_lengths),
            total_terms=sum(self._doc_lengths.values()),
            vocabulary_size=len(self._postings),
        )

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of analyzed ``term`` inside ``doc_id`` (0 if absent)."""
        for posting in self._postings.get(term, ()):
            if posting.doc_id == doc_id:
                return posting.term_frequency
        return 0
