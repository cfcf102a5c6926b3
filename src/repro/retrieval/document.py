"""Documents and corpora — the knowledge sources RAGE explains.

A :class:`Document` is one external knowledge source.  A :class:`Corpus`
is an ordered, id-addressable collection of documents from which the
retrieval model selects the context ``Dq``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..errors import DocumentError, UnknownDocumentError


@dataclass(frozen=True)
class Document:
    """A single knowledge source.

    Attributes
    ----------
    doc_id:
        Stable unique identifier (used in perturbations, rules, reports).
    text:
        The raw natural-language content given to the LLM.
    title:
        Optional short human-readable title for rendering.
    metadata:
        Free-form string metadata (e.g. publication year) — never read by
        the core algorithms, only surfaced in reports.
    """

    doc_id: str
    text: str
    title: str = ""
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise DocumentError("doc_id must be a non-empty string")
        if not self.text:
            raise DocumentError(f"document {self.doc_id!r} has empty text")

    def display_title(self) -> str:
        """Title if present, else the document id."""
        return self.title or self.doc_id

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation."""
        return {
            "doc_id": self.doc_id,
            "text": self.text,
            "title": self.title,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Document":
        """Inverse of :meth:`to_dict`."""
        return cls(
            doc_id=str(payload["doc_id"]),
            text=str(payload["text"]),
            title=str(payload.get("title", "")),
            metadata={str(k): str(v) for k, v in dict(payload.get("metadata", {})).items()},
        )


class Corpus:
    """An ordered collection of :class:`Document` with id lookup.

    Iteration order is insertion order, which makes corpus construction
    deterministic and reproducible across runs.
    """

    def __init__(self, documents: Optional[Iterable[Document]] = None) -> None:
        self._docs: Dict[str, Document] = {}
        for doc in documents or ():
            self.add(doc)

    def add(self, doc: Document) -> None:
        """Add a document; duplicate ids are rejected."""
        if doc.doc_id in self._docs:
            raise DocumentError(f"duplicate doc_id {doc.doc_id!r}")
        self._docs[doc.doc_id] = doc

    def get(self, doc_id: str) -> Document:
        """Return the document with ``doc_id`` or raise."""
        try:
            return self._docs[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"no document with id {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def doc_ids(self) -> List[str]:
        """All document ids in insertion order."""
        return list(self._docs.keys())

    def to_json(self) -> str:
        """Serialize the corpus to a JSON array string."""
        return json.dumps([doc.to_dict() for doc in self], indent=2)

    @classmethod
    def from_json(cls, payload: str) -> "Corpus":
        """Deserialize a corpus produced by :meth:`to_json`."""
        return cls(Document.from_dict(item) for item in json.loads(payload))
