"""Persistent incremental hybrid retrieval index, SQLite-backed.

The in-memory :class:`~repro.retrieval.index.InvertedIndex` rebuilds
from raw text on every process start.  :class:`SqliteIndex` is the
production-shaped replacement — the project's stand-in for a Lucene
index directory:

* **One WAL-mode database** holds documents, per-document lengths,
  each term's (doc_id, tf) postings and (optionally) dense embedding
  vectors, stamped with a schema version and the analyzer
  configuration, so a reopened index tokenizes queries identically and
  never re-analyzes a stored document.
* **Lazy open** — opening is O(1); the first search loads the *read
  view*: the documents as a :class:`~repro.retrieval.index.RowSpace`
  (doc ids in sorted order, their lengths), their total length and, for
  a dense index, the vectors as per-dimension postings: each hash
  dimension's (slots, values) of the vectors nonzero there, so a dense
  query reads only its own few dimensions.  The vectors stream in a
  block at a time; no dense matrix of them is built.  A term's postings
  join the view as arrays the first time a search reads the term
  (``counters["term_loads"]``), and a document joins it, under its
  slot, the first time a search returns it
  (``counters["document_loads"]``).  A warm restart therefore serves
  byte-identical results with *zero* re-tokenization of unchanged
  documents (``counters["doc_tokenizations"]`` proves it).  Scoring
  never reads the vocabulary size: :attr:`SqliteIndex.stats` counts it
  in its own snapshot, once per generation, and no write or load keeps
  it.
* **Incremental re-indexing** — :meth:`SqliteIndex.add` hashes document
  content; re-adding an unchanged document is a no-op, a changed one is
  atomically re-indexed (stale postings can never linger), and
  :meth:`remove` withdraws every contribution.  :meth:`sync` folds a
  whole corpus in with per-document change detection.
* **One view per generation** — every write transaction bumps a
  ``generation`` stamp in ``meta``; a read uses the view at the stamp
  its snapshot sees.  This handle's own writes record deltas (each
  written document's new length, vector and postings) that the next
  read folds into the view at the cost of the written document alone.
  Stored content always takes a fresh slot, and its entries are
  appended to the loaded terms and dimensions it touches, past the end
  of every older view's arrays (in place while the key's buffer has
  room).  The slot an update or removal drops is retired, not cleaned
  out: its entries stay, scoring drops what they add and a per-term
  count of them keeps document frequencies exact, so a fold writes into
  no key of a dropped document.  The changed documents' rows are found
  by bisecting the sorted ids, so a fold builds no doc_id -> row map.
  A fold that would leave more than one retired slot per 32 live
  documents compacts the loaded keys in memory instead.  A delta holds
  the written documents' contents and nothing about the rest of the
  index, such as a vocabulary change.  A gap in that chain (another
  connection wrote) or a bulk :meth:`add_many` means a cold load, with
  no terms or documents loaded.
* **Checked under the write lock** — a write reads the stored digest
  inside its write transaction, so a document another handle or
  process wrote or removed a moment before is updated, left unchanged
  or reported missing, never inserted twice.  A lock-free check first
  spots an unchanged document, so re-adding one takes no write lock.
* **Concurrent readers, single writer** — WAL mode lets any number of
  reader connections (one per thread, or other processes such as a
  second ``rage serve`` worker) query a consistent snapshot while one
  writer commits; :meth:`snapshot` pins one read transaction around a
  whole search so every posting list and document length it touches
  comes from the same database version.
* **Hybrid fusion done right** — :func:`make_retrieval_scorer` combines
  BM25 with dense cosine scores via min-max normalization
  (:class:`~repro.retrieval.dense.HybridScorer`) or reciprocal-rank
  fusion (:class:`~repro.retrieval.dense.ReciprocalRankFusionScorer`),
  never raw addition across incompatible scales; all rankings break
  ties by doc_id.

The class provides the read protocol of
:mod:`repro.retrieval.index`, so :class:`~repro.retrieval.bm25.BM25Scorer`
and friends run against it unchanged; :class:`SqliteSearcher` wraps
:class:`~repro.retrieval.searcher.Searcher` with the snapshot
transaction.  A search returns the winners its view keeps and reads
the others with one statement (:meth:`SqliteIndex.fetch_documents`),
so a warm search reads only the generation stamp from SQLite.  Its one
read outside that protocol, :meth:`SqliteIndex.doc_ids` (what
:meth:`sync` reads), is one SQL statement.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import sqlite3
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from ..errors import ConfigError, RetrievalError, UnknownDocumentError
from ..textproc import Tokenizer
from .bm25 import BM25Scorer, Scorer
from .dense import (
    DenseScorer,
    DimensionEntries,
    HashedEmbedder,
    HybridScorer,
    ReciprocalRankFusionScorer,
    by_dimension,
    dense_scores,
)
from .document import Document
from .index import IndexStats, RowSpace, ScoringView, TermRows
from .searcher import RetrievalResult, Searcher

#: Bumped whenever the on-disk layout changes; an index written by a
#: different version refuses to open instead of misreading rows.
#: Version 2 added the ``generation`` stamp every write bumps (a build
#: that did not bump it would leave other handles' views stale).
#: Version 3 dropped what no read uses: each document's insertion
#: ``seq`` and its index, each posting's within-document ``positions``
#: and each vector's ``dimensions``.  A version-1 or version-2 file is
#: upgraded in place on open (:data:`_UPGRADE`).
SCHEMA_VERSION = 3

#: Database filename inside an index directory.
DB_NAME = "index.db"

#: Retrieval modes a persistent index can serve.
RETRIEVAL_MODES = ("bm25", "dense", "hybrid")

#: Hybrid fusion strategies (both scale-safe; never raw addition).
FUSION_STRATEGIES = ("minmax", "rrf")

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE documents (
    doc_id       TEXT PRIMARY KEY,
    title        TEXT NOT NULL,
    text         TEXT NOT NULL,
    metadata     TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    doc_length   INTEGER NOT NULL
);
CREATE TABLE postings (
    term   TEXT NOT NULL,
    doc_id TEXT NOT NULL,
    tf     INTEGER NOT NULL,
    PRIMARY KEY (term, doc_id)
) WITHOUT ROWID;
CREATE INDEX postings_by_doc ON postings (doc_id);
CREATE TABLE vectors (
    doc_id TEXT PRIMARY KEY,
    vector BLOB NOT NULL
);
"""

#: The versions a file is upgraded from on open.
_UPGRADE_FROM = ("1", "2")

#: What turns a version-1 or version-2 file into this version, in one
#: write transaction.  Version 1 lacked only the generation stamp, and
#: both kept the three columns and the index version 3 dropped.  DROP
#: COLUMN needs SQLite 3.35 or later.
_UPGRADE = (
    "INSERT OR IGNORE INTO meta (key, value) VALUES ('generation', '0')",
    "DELETE FROM meta WHERE key = 'store_positions'",
    "DROP INDEX documents_by_seq",
    "ALTER TABLE documents DROP COLUMN seq",
    "ALTER TABLE postings DROP COLUMN positions",
    "ALTER TABLE vectors DROP COLUMN dimensions",
)

#: Vectors a cold load reads per block: the load holds one block of
#: this many rows, never the whole documents x dimensions matrix.
_LOAD_BLOCK = 512

#: Ids one statement of :meth:`SqliteIndex.fetch_documents` binds.
#: SQLite before 3.32 allows at most 999 bound parameters per statement.
_FETCH_CHUNK = 900


#: A key's entries sit in a buffer with room for this many times as
#: many (and one more): a fold appends in place until the buffer is
#: full, then copies it into a new one, so a key is copied once per
#: quarter it grows by.
_GROWTH = 1.25

#: A fold that would leave more than one retired slot per this many live
#: documents compacts the loaded keys instead.  Scoring reads the entries
#: at retired slots and drops what they add, so this keeps them to about
#: 3% of what it reads, while a compaction, one pass over every loaded
#: key, comes once per that many retirements.
_LIVE_PER_RETIRED = 32

#: A term's postings in a view: (slots, int64 tf) arrays.
_TermSlots = Tuple[np.ndarray, np.ndarray]

#: A key of a slot-keyed map: an analyzed term or a hash dimension.
_Key = TypeVar("_Key")

#: A slot-keyed map: key -> aligned (slots, values) arrays.
_SlotMap = Dict[_Key, Tuple[np.ndarray, np.ndarray]]


class _Buffer:
    """One key's entries, with room to append: a view reads a prefix of
    ``slots`` and ``values`` as its exact-length arrays, and ``filled``
    says how far any fold has written.  A fold appends past ``filled``
    only when the view it folds reads exactly that far, so no view ever
    sees an entry change below its own length."""

    __slots__ = ("slots", "values", "filled")

    def __init__(self, slots: np.ndarray, values: np.ndarray) -> None:
        """A copy of aligned ``slots`` and ``values`` with room for
        :data:`_GROWTH` times as many entries (and one more)."""
        self.filled = len(slots)
        capacity = int(_GROWTH * (self.filled + 1))
        self.slots = np.empty(capacity, dtype=np.intp)
        self.values = np.empty(capacity, dtype=values.dtype)
        self.slots[: self.filled] = slots
        self.values[: self.filled] = values

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """The filled prefix, as exact-length arrays."""
        return self.slots[: self.filled], self.values[: self.filled]

    def extends(self, slots: np.ndarray) -> bool:
        """Whether ``slots`` is this buffer's filled prefix, with room
        left after it: then an entry can be appended in place."""
        return slots.base is self.slots and self.filled == len(slots) < len(self.slots)

    def appended(self, slot: int, value: object) -> Tuple[np.ndarray, np.ndarray]:
        """The filled prefix with one more entry, written past its end."""
        filled = self.filled
        self.slots[filled] = slot
        self.values[filled] = value
        self.filled = filled = filled + 1
        return self.slots[:filled], self.values[:filled]


@dataclass(frozen=True)
class _View:
    """What reads take from memory, as of one database generation.  Only
    ``terms`` and ``documents`` grow, each key filled once and never
    replaced.  A key's arrays may be a prefix of a buffer that newer
    views extend, but a fold only appends past the end of every older
    view's arrays and never writes below it, so a reader pinned to the
    view may outlive its installation.  Entries at retired slots
    (``slot_rows`` equal to ``len(space)``) belong to no document:
    scoring drops what they add, and ``term_retired`` keeps them out of
    every document frequency."""

    generation: int
    #: The documents as rows, in doc_id order, with their lengths.
    space: RowSpace
    total_terms: int
    #: Dense indexes only: hash dimension -> the (slots, float64 values)
    #: of the vectors nonzero there; every dimension has an entry.
    dimensions: Optional[Dict[int, DimensionEntries]]
    #: Each row's slot.  A document keeps its slot until its content
    #: changes, so the writes that move rows leave loaded postings in place.
    row_slots: np.ndarray
    #: Each slot's row, ``len(space)`` when retired: the inverse of
    #: ``row_slots``.
    slot_rows: np.ndarray
    #: Analyzed term -> its postings, loaded at this generation or folded
    #: forward from an older view.
    terms: Dict[str, _TermSlots] = field(default_factory=dict)
    #: Loaded term -> how many of its entries sit at retired slots; a
    #: term not here has none.  Never changed once the view is built.
    term_retired: Dict[str, int] = field(default_factory=dict)
    #: Slot -> its stored document, for each one a read has returned.  A
    #: slot's stored content never changes, so every view folded from
    #: one load shares this map; a compaction renumbers it.
    documents: Dict[int, Document] = field(default_factory=dict)


class _Doc(NamedTuple):
    """What one write stored for a document."""

    length: int
    vector: Optional[bytes]  # None when the index is sparse
    postings: List[Tuple[str, int]]  # (term, tf)


#: What one single-document write transaction changed: doc_id -> what
#: it holds now, None when removed.
_Delta = Dict[str, Optional[_Doc]]


class _ThreadState(threading.local):
    """One thread's connection and the snapshot it has open, if any."""

    conn: Optional[sqlite3.Connection] = None
    generation: Optional[int] = None  # pinned by the open snapshot
    view: Optional[_View] = None  # the view at ``generation``, once read


def content_hash(doc: Document) -> str:
    """Stable content digest deciding whether a re-add must re-index."""
    payload = json.dumps(doc.to_dict(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def open_index(
    index_dir: str | Path,
    tokenizer: Optional[Tokenizer] = None,
    embedder: Optional[HashedEmbedder] = None,
    dense: bool = False,
) -> "SqliteIndex":
    """Open (creating if needed) the persistent index in ``index_dir``.

    The directory is created on demand; the database lives at
    ``index_dir/index.db``.  ``dense=True`` equips a *newly created*
    index with dense vectors using ``embedder`` (default
    :class:`~repro.retrieval.dense.HashedEmbedder` over the index's
    analyzer); an existing index keeps whatever vector configuration it
    was built with.
    """
    root = Path(index_dir).expanduser()
    if root.exists() and not root.is_dir():
        raise ConfigError(f"index_dir {root} exists and is not a directory")
    root.mkdir(parents=True, exist_ok=True)
    return SqliteIndex(
        root / DB_NAME,
        tokenizer=tokenizer,
        embedder=embedder,
        dense=dense,
    )


class SqliteIndex:
    """The SQLite-backed persistent incremental index (module docstring).

    Parameters
    ----------
    path:
        The database file.  A fresh file is initialized with the schema
        and the analyzer configuration; an existing one is validated
        (schema version, analyzer compatibility) and **not** rebuilt.
    tokenizer:
        Analysis chain for new indexes.  Opening an existing index with
        ``None`` adopts the stored configuration; passing a conflicting
        configuration raises — silently mixing analyzers would corrupt
        every ranking.
    embedder:
        Equip a *new* index with dense vectors.  ``None`` on an existing
        dense index reconstructs the embedder from the stored
        dimensions; passing one to a sparse-only index (or with the
        wrong dimensions, or an analyzer other than the index's) raises.
    dense:
        Equip a *new* index with the default embedder over its analyzer
        when ``embedder`` is None.
    """

    def __init__(
        self,
        path: str | Path,
        tokenizer: Optional[Tokenizer] = None,
        embedder: Optional[HashedEmbedder] = None,
        dense: bool = False,
    ) -> None:
        self.path = Path(path).expanduser()
        self._lock = threading.RLock()
        self._local = _ThreadState()
        self._connections: List[sqlite3.Connection] = []
        self._closed = False
        # The newest read view, and this handle's write deltas since,
        # keyed by the generation each write started from.
        self._view: Optional[_View] = None
        self._deltas: Dict[int, _Delta] = {}
        # The buffers the installed view's keys are prefixes of, terms
        # (str) and dimensions (int) alike: the next fold appends there.
        # A key no fold has appended to since the view was loaded or
        # compacted has none, unless it is a term loaded since.
        self._buffers: Dict[object, _Buffer] = {}
        # Slot -> the terms loaded in the installed view with an entry
        # there: what a fold that retires the slot counts as retired.
        self._slot_terms: Dict[int, List[str]] = {}
        # (generation, vocabulary size) as ``stats`` last counted it.
        self._vocabulary: Optional[Tuple[int, int]] = None
        self.counters: Dict[str, int] = {
            "added": 0,
            "updated": 0,
            "unchanged": 0,
            "removed": 0,
            "doc_tokenizations": 0,
            "searches": 0,
            "view_loads": 0,
            "view_folds": 0,
            "term_loads": 0,
            "document_loads": 0,
        }
        self.tokenizer = tokenizer
        self.embedder = embedder
        conn = self._conn()
        with self._lock:
            self._initialize(conn, dense)

    # -- connections and lifecycle ----------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (each thread reads independently)."""
        if self._closed:
            raise RetrievalError(f"index {self.path} is closed")
        conn = self._local.conn
        if conn is None:
            try:
                conn = sqlite3.connect(
                    str(self.path),
                    timeout=30.0,
                    isolation_level=None,  # manual transactions
                    check_same_thread=False,  # close() reaps every thread's
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error as error:
                raise RetrievalError(
                    f"cannot open index database {self.path}: {error}"
                ) from error
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every connection this index opened (all threads)."""
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "SqliteIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- schema ------------------------------------------------------------

    def _initialize(self, conn: sqlite3.Connection, dense: bool) -> None:
        with self._guard():
            existing = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
            ).fetchone()
            if existing is None:
                self._create_schema(conn, dense)
            else:
                self._validate_schema(conn)

    def _create_schema(self, conn: sqlite3.Connection, dense: bool) -> None:
        if self.tokenizer is None:
            self.tokenizer = Tokenizer()
        if self.embedder is None and dense:
            self.embedder = HashedEmbedder(tokenizer=self.tokenizer)
        if self.embedder is not None:
            self._check_embedder_analyzer(self.embedder)
        meta = {
            "schema_version": str(SCHEMA_VERSION),
            "tokenizer": json.dumps(_tokenizer_config(self.tokenizer)),
            "embedder_dimensions": (
                str(self.embedder.dimensions) if self.embedder is not None else ""
            ),
            "generation": "0",
        }
        with _transaction(conn):
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    conn.execute(statement)
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)", meta.items()
            )

    def _validate_schema(self, conn: sqlite3.Connection) -> None:
        meta = dict(conn.execute("SELECT key, value FROM meta"))
        if meta.get("schema_version") in _UPGRADE_FROM:
            meta = self._upgrade(conn)
        version = meta.get("schema_version")
        if version != str(SCHEMA_VERSION):
            raise RetrievalError(
                f"unsupported index schema version {version!r} at {self.path} "
                f"(expected {SCHEMA_VERSION})"
            )
        stored_tok = json.loads(meta["tokenizer"])
        if self.tokenizer is None:
            self.tokenizer = Tokenizer(**stored_tok)
        elif _tokenizer_config(self.tokenizer) != stored_tok:
            raise RetrievalError(
                f"index {self.path} was built with analyzer {stored_tok}; "
                "reopen with a matching tokenizer (or None to adopt it)"
            )
        stored_dims = meta.get("embedder_dimensions") or ""
        if not stored_dims:
            if self.embedder is not None:
                raise RetrievalError(
                    f"index {self.path} was built without dense vectors; "
                    "rebuild it with an embedder to enable dense retrieval"
                )
        else:
            dims = int(stored_dims)
            if self.embedder is None:
                self.embedder = HashedEmbedder(dims, tokenizer=self.tokenizer)
            elif self.embedder.dimensions != dims:
                raise RetrievalError(
                    f"index {self.path} stores {dims}-dimensional vectors; "
                    f"embedder has {self.embedder.dimensions}"
                )
            else:
                self._check_embedder_analyzer(self.embedder)

    def _upgrade(self, conn: sqlite3.Connection) -> Dict[str, str]:
        """Upgrade a version-1 or version-2 file in place and return its
        meta.  The version is read again under the write lock, so
        concurrent openers upgrade once; a failed upgrade rolls back
        whole and leaves the file as it was."""
        try:
            with _transaction(conn):
                (version,) = conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if version in _UPGRADE_FROM:
                    for statement in _UPGRADE:
                        conn.execute(statement)
                    conn.execute(
                        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                        (str(SCHEMA_VERSION),),
                    )
                return dict(conn.execute("SELECT key, value FROM meta"))
        except sqlite3.Error as error:
            raise RetrievalError(
                f"cannot upgrade index {self.path} to schema version "
                f"{SCHEMA_VERSION}: {error}"
            ) from error

    def _check_embedder_analyzer(self, embedder: HashedEmbedder) -> None:
        """Refuse an embedder that analyzes text unlike the index: its
        query vectors would hash other terms than the stored vectors."""
        wanted = _tokenizer_config(self.tokenizer)
        if _tokenizer_config(embedder.tokenizer) != wanted:
            raise RetrievalError(
                f"index {self.path} uses analyzer {wanted}; pass an embedder "
                "with a matching tokenizer (or None to build one)"
            )

    @contextmanager
    def _guard(self) -> Iterator[None]:
        """Surface a database error as RetrievalError, never raw sqlite3."""
        try:
            yield
        except sqlite3.DatabaseError as error:
            raise RetrievalError(
                f"corrupt index database {self.path}: {error}"
            ) from error

    # -- the read view ------------------------------------------------------

    @contextmanager
    def snapshot(self) -> Iterator[sqlite3.Connection]:
        """One read transaction: every read inside sees one DB version.

        Its first read, of the generation stamp, pins the snapshot; every
        in-memory read inside uses the view at that generation, and a
        nested call joins the open snapshot.  WAL readers are never
        blocked by the writer; a search wrapped in a snapshot can
        therefore run concurrently with an indexer commit and still
        return internally consistent rankings.
        """
        conn = self._conn()
        local = self._local
        if local.generation is not None:
            yield conn
            return
        with self._guard():
            conn.execute("BEGIN")
            try:
                local.generation = _read_generation(conn)
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        try:
            yield conn
        finally:
            local.generation = None
            local.view = None
            conn.execute("COMMIT")

    def _pinned(self) -> _View:
        """The view at this thread's snapshot generation; a read outside
        a snapshot opens one for itself."""
        local = self._local
        if local.view is None:
            if local.generation is None:
                with self.snapshot():
                    return self._pinned()
            local.view = self._view_at(self._conn(), local.generation)
        return local.view

    def _view_at(self, conn: sqlite3.Connection, generation: int) -> _View:
        """The view at ``generation`` (``conn``'s snapshot): the installed
        view with this handle's deltas folded in, else a cold load.  Only
        a newer view replaces the installed one, so a reader pinned to an
        old snapshot builds its view for itself alone."""
        with self._lock:
            installed = self._view
            if installed is not None and installed.generation == generation:
                return installed
            view = self._fold(installed, generation)
            if view is not None:
                self.counters["view_folds"] += 1
            else:
                if installed is not None and installed.generation < generation:
                    self._view = None  # it can never fold this far; free it first
                view = self._load(conn, generation)
                self.counters["view_loads"] += 1
                if self._view is None:  # installed below, with no term yet
                    self._buffers.clear()
                    self._slot_terms.clear()
            if self._view is None or self._view.generation < generation:
                self._view = view
                for start in [g for g in self._deltas if g < generation]:
                    del self._deltas[start]
            return view

    def _fold(self, view: Optional[_View], generation: int) -> Optional[_View]:
        """``view`` patched forward to ``generation``, or None when a
        write in between left no delta (another connection's, or a bulk
        :meth:`add_many`).  Each stored document takes a fresh slot past
        the view's last and its entries are appended to the loaded keys;
        what a changed document held in ``view`` keeps its entries, at a
        slot the fold retires.  A fold that would leave more retired
        slots than :data:`_LIVE_PER_RETIRED` allows compacts instead.
        Only the installed view is folded, and the result is installed."""
        if view is None or view.generation > generation:
            return None
        chain = [self._deltas.get(g) for g in range(view.generation, generation)]
        if any(delta is None for delta in chain):
            return None
        changed: _Delta = {}
        for delta in chain:
            changed.update(delta)
        stored = {doc_id: doc for doc_id, doc in changed.items() if doc is not None}
        slots = dict(zip(stored, itertools.count(len(view.slot_rows))))
        total_terms = view.total_terms + sum(doc.length for doc in stored.values())
        with self._lock:  # re-entrant: _view_at folds under it
            term_retired = view.term_retired
            for doc_id in changed:
                row = view.space.row_of(doc_id)
                if row is not None:  # its slot in ``view`` retires
                    total_terms -= int(view.space.lengths[row])
                    dropped = self._slot_terms.get(int(view.row_slots[row]), ())
                    if dropped and term_retired is view.term_retired:
                        term_retired = dict(term_retired)
                    for term in dropped:
                        term_retired[term] = term_retired.get(term, 0) + 1
            added = [(slots[doc_id], doc) for doc_id, doc in stored.items()]
            terms = _appended(view.terms, self._buffers, [(s, d.postings) for s, d in added])
            for slot, doc in added:
                self._slot_terms[slot] = [term for term, _ in doc.postings if term in terms]
            dimensions = view.dimensions
            if dimensions is not None:
                dimensions = _appended(
                    dimensions, self._buffers, [(s, _vector_entries(d.vector)) for s, d in added]
                )
            space, row_slots, slot_rows = _moved_rows(view, changed, slots)
            folded = _View(
                generation,
                space,
                total_terms,
                dimensions,
                row_slots,
                slot_rows,
                terms,
                term_retired,
                view.documents,
            )
            if (len(slot_rows) - len(space)) * _LIVE_PER_RETIRED > len(space):
                # Slots are renumbered to rows: the terms at each live slot
                # move with it, and no buffer holds the compacted arrays.
                slot_terms = self._slot_terms
                self._slot_terms = {
                    row: slot_terms[slot]
                    for row, slot in enumerate(row_slots.tolist())
                    if slot in slot_terms
                }
                self._buffers.clear()
                return _compacted(folded)
            return folded

    def _load(self, conn: sqlite3.Connection, generation: int) -> _View:
        """Build the view from ``conn``'s snapshot (pinned at ``generation``),
        with each document in the slot of its row.  The vectors stream
        into per-dimension entries :data:`_LOAD_BLOCK` rows at a time, so
        the load never holds a dense copy of them all.  The vocabulary is
        not counted here: only :attr:`stats` reads it.

        SQLite orders TEXT by its UTF-8 bytes, which is Python's string
        order, so ``ORDER BY doc_id`` yields the row space's order."""
        dimensions: Optional[Dict[int, DimensionEntries]] = None
        with self._guard():
            rows = conn.execute(
                "SELECT doc_id, doc_length FROM documents ORDER BY doc_id"
            ).fetchall()
            ids = [doc_id for doc_id, _ in rows]
            space = RowSpace(ids, np.fromiter((n for _, n in rows), np.int64, len(rows)))
            del rows
            if self.embedder is not None:
                count = conn.execute("SELECT COUNT(*) FROM vectors").fetchone()[0]
                if count != len(ids):
                    raise RetrievalError(
                        f"corrupt index database {self.path}: "
                        f"{count} vectors for {len(ids)} documents"
                    )
                vectors = conn.execute("SELECT doc_id, vector FROM vectors ORDER BY doc_id")
                dimensions = by_dimension(
                    self._vector_blocks(vectors, ids), self.embedder.dimensions
                )
        slots = np.arange(len(ids), dtype=np.intp)
        return _View(generation, space, int(space.lengths.sum()), dimensions, slots, slots)

    def _vector_blocks(self, vectors: sqlite3.Cursor, ids: List[str]) -> Iterator[np.ndarray]:
        """The (doc_id, blob) rows of ``vectors`` as float64 blocks of up
        to :data:`_LOAD_BLOCK` vectors, checked against the row ids."""
        width = self.embedder.dimensions * np.dtype(np.float64).itemsize
        row = 0
        while True:
            fetched = vectors.fetchmany(_LOAD_BLOCK)
            if not fetched:
                return
            for doc_id, blob in fetched:
                if doc_id != ids[row]:
                    raise RetrievalError(
                        f"corrupt index database {self.path}: "
                        f"vector rows stray from document rows at {doc_id!r}"
                    )
                if len(blob) != width:
                    raise RetrievalError(
                        f"corrupt index database {self.path}: "
                        f"the vector of {doc_id!r} has {len(blob)} bytes, not {width}"
                    )
                row += 1
            blobs = b"".join(blob for _, blob in fetched)
            yield np.frombuffer(blobs, dtype=np.float64).reshape(len(fetched), -1)

    def _term_slots(self, conn: sqlite3.Connection, view: _View, term: str) -> _TermSlots:
        """``term``'s postings in ``view``; the first read loads them
        through ``conn``, whose snapshot is pinned at ``view.generation``."""
        arrays = view.terms.get(term)
        if arrays is not None:
            return arrays
        with self._guard():
            postings = conn.execute(
                "SELECT doc_id, tf FROM postings WHERE term = ? ORDER BY doc_id",
                (term,),
            ).fetchall()
        rows = view.space.rows_of_sorted(doc_id for doc_id, _ in postings)
        tf = np.fromiter((tf for _, tf in postings), np.int64, len(postings))
        buffer = _Buffer(view.row_slots[rows], tf)
        with self._lock:  # a fold may be copying view.terms
            self.counters["term_loads"] += 1
            if term not in view.terms:  # else another reader loaded it first
                view.terms[term] = buffer.entries()
                if view is self._view:  # the next fold appends to it
                    self._buffers[term] = buffer
                    for slot in buffer.entries()[0].tolist():
                        self._slot_terms.setdefault(slot, []).append(term)
            return view.terms[term]

    def _record(self, before: int, delta: _Delta) -> None:
        """Keep one own write's delta for the next read to fold in."""
        with self._lock:
            if self._view is None:
                return  # nothing to patch: the next read loads cold
            if len(self._deltas) >= len(self._view.space):
                # One delta per document already: a load costs no more
                # than the fold would, and unread deltas must not pile up.
                self._view = None
                self._deltas.clear()
                return
            self._deltas[before] = delta

    # -- writes ------------------------------------------------------------

    def add(self, doc: Document) -> str:
        """Index, re-index, or skip one document by content hash.

        Returns ``"added"`` (new document), ``"updated"`` (content
        changed; old postings atomically replaced) or ``"unchanged"``
        (byte-identical content: a no-op — nothing is re-tokenized and
        nothing is written).
        """
        return self._put(doc, must_exist=False)

    def update(self, doc: Document) -> str:
        """Re-index an *existing* document (content-hash no-op aware)."""
        return self._put(doc, must_exist=True)

    def _put(self, doc: Document, must_exist: bool) -> str:
        with self._lock:
            conn = self._conn()
            digest = content_hash(doc)
            delta: _Delta = {}
            with self._guard():
                # Checked first without the write lock, as add_many does:
                # re-adding an unchanged document takes none.
                if _stored_digest(conn, doc.doc_id) == digest:
                    self.counters["unchanged"] += 1
                    return "unchanged"
                with _transaction(conn):
                    # Read again under the write lock: another handle or
                    # process may have written this document since.
                    stored = _stored_digest(conn, doc.doc_id)
                    if stored is None and must_exist:
                        raise UnknownDocumentError(f"no document with id {doc.doc_id!r}")
                    if stored == digest:
                        self.counters["unchanged"] += 1
                        return "unchanged"
                    before = _bump_generation(conn)
                    if stored is not None:
                        self._delete_rows(conn, doc.doc_id)
                    self._insert_document(conn, doc, digest, delta)
            outcome = "updated" if stored is not None else "added"
            self.counters[outcome] += 1
            self._record(before, delta)
            return outcome

    def add_many(self, documents: Iterable[Document]) -> Dict[str, int]:
        """Bulk :meth:`add` in one transaction; returns outcome counts.

        Unchanged documents are detected *before* the write transaction
        opens, so a fully warm corpus sync takes zero write locks; the
        rest are checked again inside it.  A bulk write records no
        delta: the next read loads its view cold.
        """
        outcome = {"added": 0, "updated": 0, "unchanged": 0}
        with self._lock:
            conn = self._conn()
            with self._guard():
                pending: List[Tuple[Document, str]] = []
                # Ids already pending: a later copy of one is checked only
                # inside the transaction, after the earlier copy is written.
                sent: Set[str] = set()
                for doc in documents:
                    digest = content_hash(doc)
                    if doc.doc_id not in sent and _stored_digest(conn, doc.doc_id) == digest:
                        outcome["unchanged"] += 1
                    else:
                        pending.append((doc, digest))
                        sent.add(doc.doc_id)
                if pending:
                    with _transaction(conn):
                        _bump_generation(conn)
                        for doc, digest in pending:
                            # Read again under the write lock and after this
                            # batch's earlier writes: a repeated doc_id acts
                            # as a later add(), and another handle may have
                            # written the document since the check above.
                            stored = _stored_digest(conn, doc.doc_id)
                            if stored == digest:
                                key = "unchanged"
                            else:
                                if stored is not None:
                                    self._delete_rows(conn, doc.doc_id)
                                self._insert_document(conn, doc, digest)
                                key = "updated" if stored is not None else "added"
                            outcome[key] += 1
            for key, count in outcome.items():
                self.counters[key] += count
        return outcome

    def remove(self, doc_id: str) -> None:
        """Withdraw a document and every posting it contributed."""
        with self._lock:
            conn = self._conn()
            with self._guard(), _transaction(conn):
                if _stored_digest(conn, doc_id) is None:  # read under the write lock
                    raise UnknownDocumentError(f"no document with id {doc_id!r}")
                before = _bump_generation(conn)
                self._delete_rows(conn, doc_id)
            self.counters["removed"] += 1
            self._record(before, {doc_id: None})

    def sync(self, documents: Iterable[Document], remove_missing: bool = False) -> Dict[str, int]:
        """Fold a corpus in incrementally; optionally drop absent docs.

        Returns ``{"added": a, "updated": u, "unchanged": n, "removed": r}``.
        A warm restart over an unchanged corpus reports everything
        ``unchanged`` and performs zero tokenizations.
        """
        documents = list(documents)
        outcome = self.add_many(documents)
        outcome["removed"] = 0
        if remove_missing:
            wanted = {doc.doc_id for doc in documents}
            with self._lock:
                for doc_id in self.doc_ids():
                    if doc_id not in wanted:
                        self.remove(doc_id)
                        outcome["removed"] += 1
        return outcome

    def doc_ids(self) -> List[str]:
        """All indexed document ids, in doc_id order, read by one SQL
        statement: no read view is loaded."""
        conn = self._conn()
        with self._guard():
            rows = conn.execute("SELECT doc_id FROM documents ORDER BY doc_id").fetchall()
        return [row[0] for row in rows]

    def _delete_rows(self, conn: sqlite3.Connection, doc_id: str) -> None:
        conn.execute("DELETE FROM postings WHERE doc_id = ?", (doc_id,))
        conn.execute("DELETE FROM vectors WHERE doc_id = ?", (doc_id,))
        conn.execute("DELETE FROM documents WHERE doc_id = ?", (doc_id,))

    def _insert_document(
        self,
        conn: sqlite3.Connection,
        doc: Document,
        digest: str,
        delta: Optional[_Delta] = None,
    ) -> None:
        terms = self.tokenizer.tokenize(doc.text + " " + doc.title)
        with self._lock:  # re-entrant: every caller already writes under it
            self.counters["doc_tokenizations"] += 1
        postings = list(Counter(terms).items())
        conn.execute(
            "INSERT INTO documents "
            "(doc_id, title, text, metadata, content_hash, doc_length) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                doc.doc_id,
                doc.title,
                doc.text,
                json.dumps(dict(doc.metadata), sort_keys=True, ensure_ascii=False),
                digest,
                len(terms),
            ),
        )
        conn.executemany(
            "INSERT INTO postings (term, doc_id, tf) VALUES (?, ?, ?)",
            ((term, doc.doc_id, tf) for term, tf in postings),
        )
        blob: Optional[bytes] = None
        if self.embedder is not None:
            blob = self.embedder.embed_terms(terms).tobytes()
            conn.execute("INSERT INTO vectors (doc_id, vector) VALUES (?, ?)", (doc.doc_id, blob))
        if delta is not None:
            delta[doc.doc_id] = _Doc(len(terms), blob, postings)

    # -- the read protocol (see repro.retrieval.index) ----------------------

    def scoring_view(self, terms: Iterable[str]) -> ScoringView:
        """Rows, statistics and the postings of ``terms`` as arrays, all
        at one generation: the open snapshot's, or the current one.  An
        entry at a retired slot sits at row ``len(space)``, and the
        view's counts of them keep it out of each term's frequency."""
        if self._local.generation is None:
            with self.snapshot():
                return self.scoring_view(terms)
        conn = self._conn()
        view = self._pinned()
        postings: Dict[str, TermRows] = {}
        for term in terms:
            if term not in postings:
                slots, tf = self._term_slots(conn, view, term)
                postings[term] = (view.slot_rows[slots], tf)
        return ScoringView(view.space, view.total_terms, postings, view.term_retired)

    def row_space(self) -> RowSpace:
        """The documents as rows, at the current (or pinned) generation."""
        return self._pinned().space

    def fetch_documents(self, doc_ids: Sequence[str]) -> List[Document]:
        """The stored documents of ``doc_ids``, in that order, at the open
        snapshot's generation (or the current one).

        The pinned view gives each id's slot and returns the documents
        it keeps under theirs.  Only the others are read, in the
        snapshot, by one statement per :data:`_FETCH_CHUNK` ids, and
        kept under their slots (``counters["document_loads"]``).  Stored
        content always takes a fresh slot, so a kept document is what
        the snapshot would read.

        Raises
        ------
        UnknownDocumentError
            When an id names no stored document.
        """
        if self._local.generation is None:
            with self.snapshot():
                return self.fetch_documents(doc_ids)
        view = self._pinned()
        kept = view.documents
        slots = []
        for doc_id in doc_ids:
            row = view.space.row_of(doc_id)
            if row is None:
                raise UnknownDocumentError(f"no document with id {doc_id!r}")
            slots.append(view.row_slots.item(row))
        unread = {doc_id: slot for doc_id, slot in zip(doc_ids, slots) if slot not in kept}
        if unread:
            self._keep_documents(view, unread)
        return [kept[slot] for slot in slots]

    def _keep_documents(self, view: _View, unread: Dict[str, int]) -> None:
        """Read the documents of ``unread`` (doc_id -> slot) in this
        thread's snapshot, pinned at ``view``'s generation, and keep each
        in ``view`` under its slot."""
        conn = self._conn()
        doc_ids = list(unread)
        found: Dict[str, Document] = {}
        with self._guard():
            for start in range(0, len(doc_ids), _FETCH_CHUNK):
                chunk = doc_ids[start : start + _FETCH_CHUNK]
                rows = conn.execute(
                    "SELECT doc_id, title, text, metadata FROM documents "
                    f"WHERE doc_id IN ({', '.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
                found.update((row[0], _row_to_document(row)) for row in rows)
        try:
            read = {slot: found[doc_id] for doc_id, slot in unread.items()}
        except KeyError as error:
            raise UnknownDocumentError(f"no document with id {error.args[0]!r}") from None
        with self._lock:  # a compaction may be copying view.documents
            self.counters["document_loads"] += len(read)
            view.documents.update(read)

    @property
    def stats(self) -> IndexStats:
        """Collection statistics at the current (or pinned) generation.

        The vocabulary is counted in that generation's snapshot, once per
        generation (concurrent first calls may each count): no write or
        load keeps it up to date, since scoring never reads it.  The
        count holds no lock, so searches and writes go on meanwhile."""
        with self.snapshot() as conn:
            view = self._pinned()
            counted = self._vocabulary
            if counted is None or counted[0] != view.generation:
                with self._guard():
                    # Not COUNT(DISTINCT term): SQLite plans that as a scan
                    # of postings_by_doc into a temporary B-tree, ~4x
                    # slower than this scan in (term, doc_id) order.
                    size = conn.execute(
                        "SELECT COUNT(*) FROM (SELECT DISTINCT term FROM postings)"
                    ).fetchone()[0]
                counted = (view.generation, size)
                with self._lock:  # only a newer count replaces the kept one
                    if self._vocabulary is None or self._vocabulary[0] < view.generation:
                        self._vocabulary = counted
        return IndexStats(len(view.space), view.total_terms, counted[1])

    def __len__(self) -> int:
        return len(self._pinned().space)

    def __contains__(self, doc_id: str) -> bool:
        return self._pinned().space.row_of(doc_id) is not None

    def size_bytes(self) -> int:
        """On-disk footprint (database plus WAL side files)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    # -- dense access ------------------------------------------------------

    def dense_view(self) -> "_DenseView":
        """Dense-scores adapter over the stored vectors.

        Raises when the index was built without an embedder — dense and
        hybrid retrieval need vectors that only indexing can produce.
        """
        if self.embedder is None:
            raise RetrievalError(
                f"index {self.path} has no dense vectors; rebuild it with "
                "an embedder to use dense or hybrid retrieval"
            )
        return _DenseView(self)



class _DenseView:
    """The :class:`~repro.retrieval.dense.DenseIndex` read protocol
    (``similarities``) over a :class:`SqliteIndex`'s vectors, read
    through the per-dimension postings of its view."""

    def __init__(self, index: SqliteIndex) -> None:
        self.index = index
        self.embedder = index.embedder

    def similarities(self, query_terms: Sequence[str]) -> Tuple[List[str], np.ndarray]:
        """Cosine similarity of every stored vector to the analyzed
        ``query_terms``, rows in the row space's order (the returned ids
        are ``row_space().ids``)."""
        view = self.index._pinned()
        query = self.embedder.embed_terms(query_terms)
        scores = dense_scores(query, view.dimensions, view.slot_rows, len(view.space))
        return view.space.ids, scores


def make_retrieval_scorer(
    index: SqliteIndex,
    mode: str = "bm25",
    fusion: str = "minmax",
    alpha: float = 0.5,
) -> Scorer:
    """Build the scorer a retrieval mode names, over a persistent index.

    ``bm25`` is the sparse baseline; ``dense`` ranks purely by vector
    cosine; ``hybrid`` fuses both — via min-max normalization
    (``fusion="minmax"``, weight ``alpha`` on the sparse side) or
    reciprocal-rank fusion (``fusion="rrf"``), both immune to the
    unbounded-BM25 vs bounded-cosine scale mismatch.
    """
    if mode not in RETRIEVAL_MODES:
        raise ConfigError(
            f"retrieval mode must be one of {RETRIEVAL_MODES}, got {mode!r}"
        )
    if fusion not in FUSION_STRATEGIES:
        raise ConfigError(
            f"fusion must be one of {FUSION_STRATEGIES}, got {fusion!r}"
        )
    if mode == "bm25":
        return BM25Scorer()
    dense = DenseScorer(index.dense_view())
    if mode == "dense":
        return dense
    if fusion == "rrf":
        return ReciprocalRankFusionScorer(
            [BM25Scorer(), dense], weights=[alpha, 1.0 - alpha]
        )
    return HybridScorer(BM25Scorer(), dense, alpha=alpha)


class SqliteSearcher(Searcher):
    """:class:`~repro.retrieval.searcher.Searcher` over a persistent
    index: every search runs inside one snapshot transaction, so a
    concurrent indexer commit can never split a ranking across two
    database versions."""

    def __init__(self, index: SqliteIndex, scorer: Optional[Scorer] = None) -> None:
        super().__init__(index, scorer=scorer)

    def search(self, query: str, k: int = 10) -> RetrievalResult:
        index: SqliteIndex = self.index
        with index.snapshot():
            with index._lock:
                index.counters["searches"] += 1
            return super().search(query, k)


def _tokenizer_config(tokenizer: Tokenizer) -> Dict[str, bool]:
    return {
        "lowercase": tokenizer.lowercase,
        "remove_stopwords": tokenizer.remove_stopwords,
        "stem": tokenizer.stem,
        "fold_accents": tokenizer.fold_accents,
    }


def _row_to_document(row: Sequence[object]) -> Document:
    doc_id, title, text, metadata = row
    return Document(
        doc_id=doc_id,
        text=text,
        title=title,
        metadata=json.loads(metadata),
    )


@contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """One write transaction, rolled back if anything in it raises."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise


def _stored_digest(conn: sqlite3.Connection, doc_id: str) -> Optional[str]:
    row = conn.execute(
        "SELECT content_hash FROM documents WHERE doc_id = ?", (doc_id,)
    ).fetchone()
    return row[0] if row is not None else None


def _read_generation(conn: sqlite3.Connection) -> int:
    row = conn.execute("SELECT value FROM meta WHERE key = 'generation'").fetchone()
    return int(row[0])


def _bump_generation(conn: sqlite3.Connection) -> int:
    """Advance the stamp inside an open write transaction; returns the
    generation the write starts from."""
    before = _read_generation(conn)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'generation'", (str(before + 1),)
    )
    return before


def _vector_entries(vector: bytes) -> Iterator[Tuple[int, float]]:
    """(dimension, value) for each nonzero dimension of a stored vector."""
    values = np.frombuffer(vector, dtype=np.float64)
    dimensions = np.flatnonzero(values)
    return zip(dimensions.tolist(), values[dimensions].tolist())


def _appended(
    entries: _SlotMap, buffers: Dict[object, _Buffer], added: Iterable[Tuple[int, Iterable]]
) -> _SlotMap:
    """A copy of a slot-keyed map with each document's (key, value)
    entries appended at its slot, for the keys the map holds; ``added``
    holds (slot, entries) per document.  A key's new arrays are a longer
    prefix of its buffer in ``buffers``: written in place when that
    buffer :meth:`~_Buffer.extends` the key's arrays, else into a copy
    with room to grow, which replaces it there.  Only the keys a
    document touches get new arrays and nothing below an old array's end
    is written, so a reader of ``entries`` keeps reading what it read."""
    entries = dict(entries)
    for slot, pairs in added:
        for key, value in pairs:
            arrays = entries.get(key)
            if arrays is None:
                continue  # a term no search has loaded
            buffer = buffers.get(key)
            if buffer is None or not buffer.extends(arrays[0]):
                buffer = buffers[key] = _Buffer(*arrays)
            entries[key] = buffer.appended(slot, value)
    return entries


def _moved_rows(
    view: _View, changed: _Delta, slots: Dict[str, int]
) -> Tuple[RowSpace, np.ndarray, np.ndarray]:
    """Apply ``changed`` (None drops a document) to ``view``'s row space
    and row slots; ``slots`` names each stored document's fresh slot.
    Returns the space, the row slots and their inverse, in which a slot
    no row holds is retired: its row is the number of rows.  The rows are what a cold load builds,
    in doc_id order: a document new to the view takes a row, a removed
    one gives its row up, and one stored anew keeps its row under its
    fresh slot.  Each array is copied once; the ids only when a row
    comes or goes."""
    space = view.space
    ids = space.ids
    # (row, whether it holds the document, doc_id), rows ascending.
    edits: List[Tuple[int, bool, str]] = []
    start = 0
    for doc_id in sorted(changed):
        at = bisect.bisect_left(ids, doc_id, start)
        present = at < len(ids) and ids[at] == doc_id
        if present or doc_id in slots:
            edits.append((at, present, doc_id))
        start = at + present

    def spliced(old: np.ndarray, new: Callable[[str], int]) -> np.ndarray:
        pieces, start = [], 0
        for at, present, doc_id in edits:
            pieces.append(old[start:at])
            if doc_id in slots:
                pieces.append([new(doc_id)])
            start = at + present
        pieces.append(old[start:])
        return np.concatenate(pieces, dtype=old.dtype)

    lengths = spliced(space.lengths, lambda doc_id: changed[doc_id].length)
    row_slots = spliced(view.row_slots, slots.__getitem__)
    new_ids = ids
    if any(present != (doc_id in slots) for _, present, doc_id in edits):
        new_ids = ids.copy()
        for at, present, doc_id in reversed(edits):
            new_ids[at : at + present] = [doc_id] if doc_id in slots else []
    slot_rows = np.full(len(view.slot_rows) + len(slots), len(row_slots), dtype=np.intp)
    slot_rows[row_slots] = np.arange(len(row_slots))
    return RowSpace(new_ids, lengths), row_slots, slot_rows


def _compacted(view: _View) -> _View:
    """``view`` with each document's slot renumbered to its row, as a
    cold load numbers them, and each loaded key's entries at retired
    slots dropped: a compaction in memory, which loads nothing.  The
    kept documents of live slots move to their rows, in a map of the
    compacted view's own."""
    retired = len(view.space)

    def live(entries: _SlotMap) -> _SlotMap:
        compacted = {}
        for key, (slots, values) in entries.items():
            rows = view.slot_rows[slots]
            kept = rows != retired
            compacted[key] = (rows[kept], values[kept])
        return compacted

    documents = {
        row: view.documents[slot]
        for row, slot in enumerate(view.row_slots.tolist())
        if slot in view.documents
    }
    rows = np.arange(retired, dtype=np.intp)
    dimensions = None if view.dimensions is None else live(view.dimensions)
    return _View(
        view.generation,
        view.space,
        view.total_terms,
        dimensions,
        rows,
        rows,
        live(view.terms),
        documents=documents,
    )
