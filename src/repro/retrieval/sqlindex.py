"""Persistent incremental hybrid retrieval index, SQLite-backed.

The in-memory :class:`~repro.retrieval.index.InvertedIndex` rebuilds
from raw text on every process start.  :class:`SqliteIndex` is the
production-shaped replacement — the project's stand-in for a Lucene
index directory:

* **One WAL-mode database** holds documents, postings, per-document
  lengths and (optionally) dense embedding vectors, stamped with a
  schema version and the analyzer configuration, so a reopened index
  tokenizes queries identically and never re-analyzes a stored document.
* **Lazy open** — opening is O(1); the first search loads the *read
  view*: the documents as a :class:`~repro.retrieval.index.RowSpace`
  (doc ids in sorted order, their rows, their lengths), collection
  statistics and, for a dense index, the vector matrix with rows in the
  same order.  A term's postings join the view as arrays the first time
  a search reads the term (``counters["term_loads"]``).  A warm restart
  therefore serves byte-identical results with *zero* re-tokenization
  of unchanged documents (``counters["doc_tokenizations"]`` proves it).
* **Incremental re-indexing** — :meth:`SqliteIndex.add` hashes document
  content; re-adding an unchanged document is a no-op, a changed one is
  atomically re-indexed (stale postings can never linger), and
  :meth:`remove` withdraws every contribution.  :meth:`sync` folds a
  whole corpus in with per-document change detection.
* **One view per generation** — every write transaction bumps a
  ``generation`` stamp in ``meta``; a read uses the view at the stamp
  its snapshot sees.  This handle's own writes record deltas (lengths,
  vectors, postings) that the next read folds into the view, loaded
  terms included; a gap in that chain (another connection wrote) or a
  bulk :meth:`add_many` means a cold load, with no terms loaded.
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

The class exposes the same read protocol the scorers consume
(``scoring_view`` / ``row_space`` / ``stats`` / ``len`` / ``in`` /
``tokenizer``), so :class:`~repro.retrieval.bm25.BM25Scorer` and friends
run against it unchanged; :class:`SqliteSearcher` wraps
:class:`~repro.retrieval.searcher.Searcher` with the snapshot
transaction.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, RetrievalError, UnknownDocumentError
from ..textproc import Tokenizer
from .bm25 import BM25Scorer, Scorer
from .dense import DenseScorer, HashedEmbedder, HybridScorer, ReciprocalRankFusionScorer
from .document import Document
from .index import IndexStats, Posting, RowSpace, ScoringView, TermRows
from .searcher import RetrievalResult, Searcher

#: Bumped whenever the on-disk layout changes; an index written by a
#: different version refuses to open instead of misreading rows.
#: Version 2 added the ``generation`` stamp every write bumps (a build
#: that did not bump it would leave other handles' views stale); a
#: version-1 file is upgraded in place on open.
SCHEMA_VERSION = 2

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
    doc_length   INTEGER NOT NULL,
    seq          INTEGER NOT NULL
);
CREATE INDEX documents_by_seq ON documents (seq);
CREATE TABLE postings (
    term      TEXT NOT NULL,
    doc_id    TEXT NOT NULL,
    tf        INTEGER NOT NULL,
    positions TEXT NOT NULL,
    PRIMARY KEY (term, doc_id)
) WITHOUT ROWID;
CREATE INDEX postings_by_doc ON postings (doc_id);
CREATE TABLE vectors (
    doc_id     TEXT PRIMARY KEY,
    dimensions INTEGER NOT NULL,
    vector     BLOB NOT NULL
);
"""

#: How many of a document's terms no other document contains: run
#: before deleting a document (terms that vanish) and after inserting
#: one (terms that appear), inside the write transaction.
_SOLE_TERMS = """
SELECT COUNT(*) FROM postings AS p WHERE p.doc_id = ? AND NOT EXISTS (
    SELECT 1 FROM postings AS q WHERE q.term = p.term AND q.doc_id <> p.doc_id
)
"""


#: A term's postings in a view: (slots, int64 tf) arrays.
_TermSlots = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _View:
    """What reads take from memory, as of one database generation.  Only
    ``terms`` grows, each term filled once and never replaced: a reader
    pinned to the view may outlive its installation."""

    generation: int
    #: The documents as rows, in doc_id order, with their lengths.
    space: RowSpace
    total_terms: int
    vocabulary_size: int
    #: Dense indexes only: every vector in one contiguous float64 block,
    #: one row per row of ``space``.
    dense_matrix: Optional[np.ndarray]
    #: Each row's slot.  A document keeps its slot for as long as it
    #: lives, so the writes that move rows leave loaded postings in place.
    row_slots: np.ndarray
    #: Each slot's row, -1 when free: the inverse of ``row_slots``.
    slot_rows: np.ndarray
    #: Analyzed term -> its postings, loaded at this generation or folded
    #: forward from an older view.
    terms: Dict[str, _TermSlots] = field(default_factory=dict)

    @property
    def stats(self) -> IndexStats:
        return IndexStats(len(self.space), self.total_terms, self.vocabulary_size)


class _Doc(NamedTuple):
    """What one write stored for a document."""

    length: int
    vector: Optional[bytes]  # None when the index is sparse
    postings: List[Tuple[str, int]]  # (term, tf)


@dataclass
class _Delta:
    """What one single-document write transaction changed."""

    #: doc_id -> what it holds now; None: removed.
    docs: Dict[str, Optional[_Doc]] = field(default_factory=dict)
    #: doc_id -> the (term, tf) postings it held before this write, for
    #: each document the write removed or replaced.
    dropped: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    vocabulary: int = 0  # terms that appeared minus terms that vanished


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
    store_positions: bool = True,
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
        store_positions=store_positions,
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
    store_positions:
        Keep within-document token positions (new indexes only).
    dense:
        Equip a *new* index with the default embedder over its analyzer
        when ``embedder`` is None.
    """

    def __init__(
        self,
        path: str | Path,
        tokenizer: Optional[Tokenizer] = None,
        embedder: Optional[HashedEmbedder] = None,
        store_positions: bool = True,
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
        }
        self.tokenizer = tokenizer
        self.embedder = embedder
        self.store_positions = store_positions
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
            "store_positions": "1" if self.store_positions else "0",
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
        if meta.get("schema_version") == "1":
            # Version 1 lacks only the generation stamp.  Re-checked
            # under the write lock, so concurrent openers upgrade once.
            with _transaction(conn):
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES ('generation', '0')"
                )
                conn.execute(
                    "UPDATE meta SET value = ? "
                    "WHERE key = 'schema_version' AND value = '1'",
                    (str(SCHEMA_VERSION),),
                )
                meta = dict(conn.execute("SELECT key, value FROM meta"))
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
        self.store_positions = meta.get("store_positions") == "1"
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
        view = self._local.view
        if view is None:
            with self.snapshot() as conn:
                view = self._local.view = self._view_at(conn, self._local.generation)
        return view

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
            if self._view is None or self._view.generation < generation:
                self._view = view
                for start in [g for g in self._deltas if g < generation]:
                    del self._deltas[start]
            return view

    def _fold(self, view: Optional[_View], generation: int) -> Optional[_View]:
        """``view`` patched forward to ``generation``, or None when a
        write in between left no delta (another connection's, or a bulk
        :meth:`add_many`)."""
        if view is None or view.generation > generation:
            return None
        chain = [self._deltas.get(g) for g in range(view.generation, generation)]
        if any(delta is None for delta in chain):
            return None
        changed: Dict[str, Optional[_Doc]] = {}
        # The postings each changed document holds in ``view``: what the
        # first write to touch it dropped.
        dropped: Dict[str, List[Tuple[str, int]]] = {}
        vocabulary_size = view.vocabulary_size
        for delta in chain:
            for doc_id, postings in delta.dropped.items():
                if doc_id in view.space.rows:
                    dropped.setdefault(doc_id, postings)
            changed.update(delta.docs)
            vocabulary_size += delta.vocabulary
        total_terms = view.total_terms
        for doc_id, doc in changed.items():
            row = view.space.rows.get(doc_id)
            if row is not None:
                total_terms -= int(view.space.lengths[row])
            if doc is not None:
                total_terms += doc.length
        slots = _assign_slots(view, changed)
        # The terms before the rows, so the matrix is allocated last (see
        # _patch_rows): about one matrix less of peak RSS under churn.
        terms = _patch_terms(view, dropped, changed, slots)
        space, row_slots, slot_rows, matrix = _patch_rows(view, changed, slots)
        return _View(
            generation, space, total_terms, vocabulary_size, matrix, row_slots, slot_rows, terms
        )

    def _load(self, conn: sqlite3.Connection, generation: int) -> _View:
        """Build the view from ``conn``'s snapshot (pinned at ``generation``),
        filling the matrix row by row from the cursor: one copy of the
        vectors in memory, not a list of blobs plus a stacked copy.

        SQLite orders TEXT by its UTF-8 bytes, which is Python's string
        order, so ``ORDER BY doc_id`` yields the row space's order."""
        matrix: Optional[np.ndarray] = None
        with self._guard():
            rows = conn.execute(
                "SELECT doc_id, doc_length FROM documents ORDER BY doc_id"
            ).fetchall()
            ids = [doc_id for doc_id, _ in rows]
            space = RowSpace(ids, np.fromiter((n for _, n in rows), np.int64, len(rows)))
            del rows
            vocabulary_size = conn.execute(
                "SELECT COUNT(DISTINCT term) FROM postings"
            ).fetchone()[0]
            if self.embedder is not None:
                count = conn.execute("SELECT COUNT(*) FROM vectors").fetchone()[0]
                if count != len(ids):
                    raise RetrievalError(
                        f"corrupt index database {self.path}: "
                        f"{count} vectors for {len(ids)} documents"
                    )
                matrix = np.empty((count, self.embedder.dimensions), dtype=np.float64)
                vectors = conn.execute("SELECT doc_id, vector FROM vectors ORDER BY doc_id")
                for row, (doc_id, blob) in enumerate(vectors):
                    if doc_id != ids[row]:
                        raise RetrievalError(
                            f"corrupt index database {self.path}: "
                            f"vector rows stray from document rows at {doc_id!r}"
                        )
                    matrix[row] = np.frombuffer(blob, dtype=np.float64)
        slots = np.arange(len(ids), dtype=np.intp)
        return _View(
            generation, space, int(space.lengths.sum()), vocabulary_size, matrix, slots, slots
        )

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
        rows = view.space.rows_of([doc_id for doc_id, _ in postings])
        tf = np.fromiter((tf for _, tf in postings), np.int64, len(postings))
        with self._lock:  # a fold may be copying view.terms
            self.counters["term_loads"] += 1
            return view.terms.setdefault(term, (view.row_slots[rows], tf))

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
            delta = _Delta()
            with self._guard():
                stored = _stored_digest(conn, doc.doc_id)
                if stored is None and must_exist:
                    raise UnknownDocumentError(f"no document with id {doc.doc_id!r}")
                if stored == digest:
                    self.counters["unchanged"] += 1
                    return "unchanged"
                with _transaction(conn):
                    before = _bump_generation(conn)
                    if stored is not None:
                        self._delete_rows(conn, doc.doc_id, delta)
                    self._insert_document(conn, doc, digest, delta)
            outcome = "updated" if stored is not None else "added"
            self.counters[outcome] += 1
            self._record(before, delta)
            return outcome

    def add_many(self, documents: Iterable[Document]) -> Dict[str, int]:
        """Bulk :meth:`add` in one transaction; returns outcome counts.

        Unchanged documents are detected *before* the write transaction
        opens, so a fully warm corpus sync takes zero write locks.  A
        bulk write records no delta: the next read loads its view cold.
        """
        outcome = {"added": 0, "updated": 0, "unchanged": 0}
        with self._lock:
            conn = self._conn()
            with self._guard():
                pending: List[Tuple[Document, str, bool]] = []
                # What this batch writes: a repeated doc_id acts as a later add().
                batch: Dict[str, str] = {}
                for doc in documents:
                    digest = content_hash(doc)
                    stored = batch.get(doc.doc_id) or _stored_digest(conn, doc.doc_id)
                    if stored == digest:
                        outcome["unchanged"] += 1
                        self.counters["unchanged"] += 1
                        continue
                    pending.append((doc, digest, stored is not None))
                    batch[doc.doc_id] = digest
                if not pending:
                    return outcome
                with _transaction(conn):
                    _bump_generation(conn)
                    for doc, digest, existed in pending:
                        if existed:
                            self._delete_rows(conn, doc.doc_id)
                        self._insert_document(conn, doc, digest)
                        key = "updated" if existed else "added"
                        outcome[key] += 1
                        self.counters[key] += 1
        return outcome

    def remove(self, doc_id: str) -> None:
        """Withdraw a document and every posting it contributed."""
        with self._lock:
            conn = self._conn()
            delta = _Delta()
            with self._guard():
                if _stored_digest(conn, doc_id) is None:
                    raise UnknownDocumentError(f"no document with id {doc_id!r}")
                with _transaction(conn):
                    before = _bump_generation(conn)
                    self._delete_rows(conn, doc_id, delta)
            self.counters["removed"] += 1
            self._record(before, delta)

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

    def _delete_rows(
        self, conn: sqlite3.Connection, doc_id: str, delta: Optional[_Delta] = None
    ) -> None:
        if delta is not None:
            delta.vocabulary -= conn.execute(_SOLE_TERMS, (doc_id,)).fetchone()[0]
            delta.dropped[doc_id] = conn.execute(
                "SELECT term, tf FROM postings WHERE doc_id = ?", (doc_id,)
            ).fetchall()
            delta.docs[doc_id] = None
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
        occurrences: Dict[str, List[int]] = {}
        for position, term in enumerate(terms):
            occurrences.setdefault(term, []).append(position)
        seq = conn.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM documents"
        ).fetchone()[0]
        conn.execute(
            "INSERT INTO documents "
            "(doc_id, title, text, metadata, content_hash, doc_length, seq) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                doc.doc_id,
                doc.title,
                doc.text,
                json.dumps(dict(doc.metadata), sort_keys=True, ensure_ascii=False),
                digest,
                len(terms),
                seq,
            ),
        )
        conn.executemany(
            "INSERT INTO postings (term, doc_id, tf, positions) VALUES (?, ?, ?, ?)",
            (
                (
                    term,
                    doc.doc_id,
                    len(positions),
                    json.dumps(positions) if self.store_positions else "[]",
                )
                for term, positions in occurrences.items()
            ),
        )
        blob: Optional[bytes] = None
        if self.embedder is not None:
            blob = self.embedder.embed_terms(terms).tobytes()
            conn.execute(
                "INSERT INTO vectors (doc_id, dimensions, vector) VALUES (?, ?, ?)",
                (doc.doc_id, self.embedder.dimensions, blob),
            )
        if delta is not None:
            delta.vocabulary += conn.execute(_SOLE_TERMS, (doc.doc_id,)).fetchone()[0]
            postings = [(term, len(positions)) for term, positions in occurrences.items()]
            delta.docs[doc.doc_id] = _Doc(len(terms), blob, postings)

    # -- the scorer-facing read protocol -----------------------------------

    def scoring_view(self, terms: Iterable[str]) -> ScoringView:
        """Rows, statistics and the postings of ``terms`` as arrays, all
        at one generation: the open snapshot's, or the current one."""
        with self.snapshot() as conn:
            view = self._pinned()
            postings: Dict[str, TermRows] = {}
            for term in terms:
                if term not in postings:
                    slots, tf = self._term_slots(conn, view, term)
                    postings[term] = (view.slot_rows[slots], tf)
        return ScoringView(view.space, view.stats, postings)

    def postings(self, term: str) -> List[Posting]:
        """Postings for an analyzed term, ordered by doc_id (empty when
        absent)."""
        conn = self._conn()
        with self._guard():
            rows = conn.execute(
                "SELECT doc_id, tf, positions FROM postings "
                "WHERE term = ? ORDER BY doc_id",
                (term,),
            ).fetchall()
        return [
            Posting(
                doc_id=doc_id,
                term_frequency=tf,
                positions=tuple(json.loads(positions)),
            )
            for doc_id, tf, positions in rows
        ]

    def document_frequency(self, term: str) -> int:
        """Number of documents containing the analyzed term."""
        conn = self._conn()
        with self._guard():
            return conn.execute(
                "SELECT COUNT(*) FROM postings WHERE term = ?", (term,)
            ).fetchone()[0]

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of ``term`` inside ``doc_id`` (0 if absent)."""
        conn = self._conn()
        with self._guard():
            row = conn.execute(
                "SELECT tf FROM postings WHERE term = ? AND doc_id = ?",
                (term, doc_id),
            ).fetchone()
        return row[0] if row is not None else 0

    def row_space(self) -> RowSpace:
        """The documents as rows, at the current (or pinned) generation."""
        return self._pinned().space

    def doc_length(self, doc_id: str) -> int:
        """Analyzed token count of a document."""
        space = self._pinned().space
        row = space.rows.get(doc_id)
        if row is None:
            raise UnknownDocumentError(f"no document with id {doc_id!r}")
        return int(space.lengths[row])

    def document(self, doc_id: str) -> Document:
        """Return the stored document."""
        conn = self._conn()
        with self._guard():
            row = conn.execute(
                "SELECT doc_id, title, text, metadata FROM documents WHERE doc_id = ?",
                (doc_id,),
            ).fetchone()
        if row is None:
            raise UnknownDocumentError(f"no document with id {doc_id!r}")
        return _row_to_document(row)

    def documents(self) -> List[Document]:
        """All indexed documents in first-indexed order."""
        conn = self._conn()
        with self._guard():
            rows = conn.execute(
                "SELECT doc_id, title, text, metadata FROM documents ORDER BY seq"
            ).fetchall()
        return [_row_to_document(row) for row in rows]

    def doc_ids(self) -> List[str]:
        """All indexed document ids in first-indexed order."""
        conn = self._conn()
        with self._guard():
            rows = conn.execute("SELECT doc_id FROM documents ORDER BY seq").fetchall()
        return [row[0] for row in rows]

    def vocabulary(self) -> List[str]:
        """All analyzed terms, sorted."""
        conn = self._conn()
        with self._guard():
            rows = conn.execute(
                "SELECT DISTINCT term FROM postings ORDER BY term"
            ).fetchall()
        return [row[0] for row in rows]

    @property
    def stats(self) -> IndexStats:
        """Collection statistics at the current (or pinned) generation."""
        return self._pinned().stats

    def __len__(self) -> int:
        return len(self._pinned().space)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._pinned().space.rows

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
    (``similarities``, ``scores``) over a :class:`SqliteIndex`'s vector
    table."""

    def __init__(self, index: SqliteIndex) -> None:
        self.index = index
        self.embedder = index.embedder

    def similarities(self, query: str) -> Tuple[List[str], np.ndarray]:
        """Cosine similarity of every stored vector, rows in the row
        space's order (the returned ids are ``row_space().ids``)."""
        view = self.index._pinned()
        return view.space.ids, view.dense_matrix @ self.embedder.embed(query)

    def scores(self, query: str) -> Dict[str, float]:
        """Cosine similarity for every stored vector."""
        ids, similarities = self.similarities(query)
        return dict(zip(ids, similarities.tolist()))


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


def _assign_slots(view: _View, changes: Dict[str, Optional[_Doc]]) -> Dict[str, int]:
    """Each changed document's slot: its slot in ``view`` if it had one
    (freed when ``changes`` removes it), else a free slot, else a new
    one."""
    rows = view.space.rows
    slots = {doc_id: int(view.row_slots[rows[doc_id]]) for doc_id in changes if doc_id in rows}
    free = np.flatnonzero(view.slot_rows < 0).tolist()
    free += [slot for doc_id, slot in slots.items() if changes[doc_id] is None]
    fresh = itertools.count(len(view.slot_rows))
    for doc_id, doc in changes.items():
        if doc is not None and doc_id not in slots:
            slots[doc_id] = free.pop() if free else next(fresh)
    return slots


def _patch_terms(
    view: _View,
    dropped: Dict[str, List[Tuple[str, int]]],
    changes: Dict[str, Optional[_Doc]],
    slots: Dict[str, int],
) -> Dict[str, _TermSlots]:
    """``view``'s loaded terms with ``dropped`` postings taken out and
    the postings ``changes`` stores put in.  Only the terms a change
    touches get new arrays; rows moving costs nothing here."""
    terms = dict(view.terms)
    if not terms:
        return terms
    gone: Dict[str, List[int]] = {}
    for doc_id, postings in dropped.items():
        for term, _ in postings:
            if term in terms:
                gone.setdefault(term, []).append(slots[doc_id])
    added: Dict[str, List[Tuple[int, int]]] = {}
    for doc_id, doc in changes.items():
        if doc is not None:
            for term, tf in doc.postings:
                if term in terms:
                    added.setdefault(term, []).append((slots[doc_id], tf))
    for term in gone.keys() | added.keys():
        term_slots, tf = terms[term]
        if term in gone:
            keep = np.ones(len(term_slots), dtype=bool)
            for slot in gone[term]:
                keep &= term_slots != slot
            term_slots, tf = term_slots[keep], tf[keep]
        if term in added:
            new_slots, new_tf = zip(*added[term])
            term_slots = np.concatenate([term_slots, np.array(new_slots, dtype=np.intp)])
            tf = np.concatenate([tf, np.array(new_tf, dtype=np.int64)])
        terms[term] = (term_slots, tf)
    return terms


def _patch_rows(
    view: _View, changes: Dict[str, Optional[_Doc]], slots: Dict[str, int]
) -> Tuple[RowSpace, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Apply ``changes`` (None drops a document) to ``view``'s row space,
    row slots and matrix (if dense), in one sorted merge; ``slots``
    names each stored document's slot.  Returns the space, the row
    slots, their inverse and the matrix.

    The result is what a cold load builds: the same rows in doc_id
    order, the matrix in one fresh contiguous block.  Row placement
    changes how BLAS rounds ``matrix @ q``, so nothing looser would rank
    identically.
    """
    space, matrix, row_slots = view.space, view.dense_matrix, view.row_slots
    ids = space.ids
    new_ids: List[str] = []
    lengths: List[np.ndarray] = []
    slot_blocks: List[np.ndarray] = []
    blocks: List[np.ndarray] = []
    start = 0
    for doc_id in sorted(changes):
        at = bisect.bisect_left(ids, doc_id, start)
        new_ids.extend(ids[start:at])
        lengths.append(space.lengths[start:at])
        slot_blocks.append(row_slots[start:at])
        if matrix is not None:
            blocks.append(matrix[start:at])
        doc = changes[doc_id]
        if doc is not None:
            new_ids.append(doc_id)
            lengths.append(np.array([doc.length], dtype=np.int64))
            slot_blocks.append(np.array([slots[doc_id]], dtype=np.intp))
            if matrix is not None:
                blocks.append(np.frombuffer(doc.vector, dtype=np.float64)[np.newaxis])
        start = at + 1 if at < len(ids) and ids[at] == doc_id else at
    new_ids.extend(ids[start:])
    lengths.append(space.lengths[start:])
    slot_blocks.append(row_slots[start:])
    # Everything else before the matrix, as in a cold load: built after
    # it, the row map pinned heap that freed matrices then could not
    # reuse (about one matrix more of peak RSS over a long run of writes).
    patched_space = RowSpace(new_ids, np.concatenate(lengths))
    patched_slots = np.concatenate(slot_blocks)
    slot_rows = np.full(
        max(len(view.slot_rows), max(slots.values(), default=-1) + 1), -1, dtype=np.intp
    )
    slot_rows[patched_slots] = np.arange(len(patched_slots))
    patched = None
    if matrix is not None:
        blocks.append(matrix[start:])
        patched = np.empty((len(new_ids), matrix.shape[1]), dtype=np.float64)
        np.concatenate(blocks, out=patched)
    return patched_space, patched_slots, slot_rows, patched
