"""Content-addressed persistent store for LLM generations.

:class:`~repro.llm.cache.CachingLLM` memoizes in memory only, so every
process re-pays every LLM call: repeated reports, benchmark reruns and
multi-process serving all start cold.  :class:`PromptStore` is the disk
tier underneath it — a content-addressed map from

    SHA-256(model name + prompt + generation params)

to a serialized :class:`~repro.llm.base.GenerationResult`, designed so
several processes can share one directory safely:

* **Sharded layout** — entries live at ``<root>/<key[:2]>/<key>.json``
  (256 shards), keeping directories small at millions of entries.
* **Atomic writes** — each entry is written to a temporary file in its
  shard and ``os.replace``-d into place, so readers never observe a
  half-written entry and the last concurrent writer simply wins (both
  wrote identical content: the key is the content address).
* **Corruption tolerance** — a truncated, garbled or schema-mismatched
  entry reads as a *miss* (and is deleted best-effort), never an
  exception; a cache must degrade, not fail the explanation.
* **LRU size cap** — with ``max_bytes`` set, reads refresh an entry's
  mtime and writes evict least-recently-used entries until the store
  fits.

The store never talks to a model; :class:`CachingLLM` composes it as a
write-through second tier, and the ``rage cache`` CLI administers it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

from ..attention.model import AttentionTrace
from ..errors import ConfigError, StoreDecodeError
from .base import GenerationResult, TokenUsage

#: Serialization schema version written by :func:`encode_result`; bump
#: on incompatible layout changes.  Entries of a version
#: :func:`decode_result` does not know read as misses instead of
#: mis-parsing.  Version 1 stored per-token attention; version 2 stores
#: one total per source, and version 1 entries still decode.
SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, SCHEMA_VERSION)

_META_NAME = "_meta.json"
_META_LOCK_NAME = "_meta.lock"

#: Counter fields persisted per session (mirror of :class:`StoreStats`).
_META_FIELDS = ("hits", "misses", "writes", "write_errors", "evictions", "corrupt")

#: Compaction policy for per-session meta files: once more than
#: ``_COMPACT_THRESHOLD`` session files exist, those untouched for
#: ``_COMPACT_AGE`` seconds are folded into the aggregate ``_meta.json``
#: (under an exclusive lock; locks older than ``_COMPACT_LOCK_STALE``
#: are considered abandoned).
_COMPACT_THRESHOLD = 16
_COMPACT_AGE = 3600.0
_COMPACT_LOCK_STALE = 600.0


def store_key(
    model_name: str,
    prompt: str,
    params: Optional[Mapping[str, object]] = None,
) -> str:
    """Content address: SHA-256 over model name, prompt and params.

    ``params`` captures generation settings that change the answer for
    the same prompt (temperature, max tokens, ...); backends whose
    ``name`` already encodes their configuration — the simulated model
    does — can leave it empty.  Keys are canonical: params are sorted,
    so dict ordering never splits the cache.
    """
    payload = json.dumps(
        {
            "model": model_name,
            "prompt": prompt,
            "params": dict(sorted((params or {}).items(), key=lambda kv: kv[0])),
        },
        sort_keys=True,
        ensure_ascii=False,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_attention(trace: Optional[AttentionTrace]) -> Optional[Dict[str, object]]:
    if trace is None:
        return None
    return {
        "num_layers": trace.num_layers,
        "num_heads": trace.num_heads,
        "source_totals": list(trace.source_totals),
    }


def _decode_attention(payload: Optional[Dict], version: int) -> Optional[AttentionTrace]:
    if payload is None:
        return None
    trace = AttentionTrace(
        num_layers=int(payload["num_layers"]),
        num_heads=int(payload["num_heads"]),
    )
    if version == SCHEMA_VERSION:
        trace.source_totals = [float(total) for total in payload["source_totals"]]
        return trace
    # Version 1 stored every token's per-layer, per-head values.  Summed
    # in the order that version's reader summed them, a warm v1 store
    # yields the totals it always did.  The list ends at the last source
    # that had a token; readers take missing sources as 0.0.
    totals = trace.source_totals
    for entry in payload["tokens"]:
        index = int(entry["source_index"])
        if index < 0:
            raise StoreDecodeError(f"negative source index {index}")
        totals.extend([0.0] * (index + 1 - len(totals)))
        totals[index] += sum(sum(float(v) for v in layer) for layer in entry["values"])
    return trace


def encode_result(result: GenerationResult) -> Dict[str, object]:
    """JSON-safe payload for one generation (see :func:`decode_result`)."""
    # Diagnostics are model-specific and informational; round-trip them
    # through JSON with a string fallback so exotic values degrade to
    # their repr instead of poisoning the entry.
    diagnostics = json.loads(
        json.dumps(result.diagnostics, ensure_ascii=False, default=str)
    )
    return {
        "version": SCHEMA_VERSION,
        "answer": result.answer,
        "prompt": result.prompt,
        "usage": asdict(result.usage),
        "diagnostics": diagnostics,
        "attention": _encode_attention(result.attention),
    }


def decode_result(payload: Dict) -> GenerationResult:
    """Inverse of :func:`encode_result`; raises on any schema mismatch
    (the store turns that into a miss)."""
    version = payload.get("version")
    if version not in _READABLE_VERSIONS:
        raise StoreDecodeError(f"unsupported store schema: {version!r}")
    usage = payload["usage"]
    return GenerationResult(
        answer=str(payload["answer"]),
        prompt=str(payload["prompt"]),
        attention=_decode_attention(payload.get("attention"), version),
        usage=TokenUsage(
            prompt_tokens=int(usage["prompt_tokens"]),
            completion_tokens=int(usage["completion_tokens"]),
        ),
        diagnostics=dict(payload.get("diagnostics") or {}),
    )


@dataclass
class StoreStats:
    """Session counters for one :class:`PromptStore` instance.

    ``hits``/``misses`` count :meth:`PromptStore.get` outcomes;
    ``corrupt`` the subset of misses caused by unreadable entries;
    ``writes`` successful :meth:`PromptStore.put` calls and
    ``write_errors`` the best-effort puts the filesystem refused;
    ``evictions`` entries removed by the LRU size cap.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_errors: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PromptStore:
    """Content-addressed on-disk generation store (see module docstring).

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).
    max_bytes:
        LRU size cap over entry bytes; ``None`` = unbounded.
    """

    def __init__(self, root: str | os.PathLike, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(
                f"max_bytes must be >= 1 (or None for unbounded), got {max_bytes}"
            )
        self.root = Path(root).expanduser()
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        # Lifetime counters are persisted per *session*: each instance
        # owns one _meta-<pid>-<uid>.json it alone rewrites, so two
        # serving processes sharing the directory can never
        # read-modify-write the same file (the classic lost-update
        # clobber); read_meta() merges every session file, and old
        # session files are compacted into the aggregate (see
        # persist_stats).  _baseline holds counters already represented
        # elsewhere (compacted away from under us) and is subtracted
        # from every persisted payload; _last_persisted snapshots what
        # the current session file contains.
        self._session_id = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._baseline = StoreStats()
        self._last_persisted = StoreStats()
        # Counter updates happen under _stats_lock: the serving layer
        # drives one store from many request threads, and
        # unsynchronized `+=` would lose increments.  The byte estimate
        # and the (rare, whole-directory) eviction walk serialize on
        # their own lock so an evicting writer never stalls other
        # threads' counter bumps.
        self._stats_lock = threading.Lock()
        self._evict_lock = threading.Lock()
        # Running byte estimate for the LRU cap: initialized by the
        # first full walk, bumped per put, trued up on every eviction
        # pass.  Overwrites of existing keys over-count, which at worst
        # triggers an eviction scan early — never a wrong eviction.
        self._approx_bytes: Optional[int] = None

    # -- keyed access ------------------------------------------------------

    def path_for(
        self,
        model_name: str,
        prompt: str,
        params: Optional[Mapping[str, object]] = None,
    ) -> Path:
        """Where the entry for this (model, prompt, params) lives."""
        key = store_key(model_name, prompt, params)
        return self.root / key[:2] / f"{key}.json"

    def get(
        self,
        model_name: str,
        prompt: str,
        params: Optional[Mapping[str, object]] = None,
    ) -> Optional[GenerationResult]:
        """The stored generation, or ``None`` on miss/corruption."""
        path = self.path_for(model_name, prompt, params)
        try:
            raw = path.read_bytes()
        except OSError:
            with self._stats_lock:
                self.stats.misses += 1
            return None
        try:
            result = decode_result(json.loads(raw.decode("utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError, UnicodeDecodeError):
            # Truncated/garbled entry: a miss, not an error.  Drop it so
            # the rewrite below heals the store.
            with self._stats_lock:
                self.stats.misses += 1
                self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        with self._stats_lock:
            self.stats.hits += 1
        if self.max_bytes is not None:
            try:
                os.utime(path)  # refresh recency for LRU eviction
            except OSError:
                pass
        return result

    def put(
        self,
        model_name: str,
        prompt: str,
        result: GenerationResult,
        params: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Write one generation atomically (idempotent: same key, same
        content — concurrent writers race harmlessly).

        Best-effort, like every other store operation: a full disk or a
        read-only directory costs the entry (counted in
        ``stats.write_errors``), never the explanation that produced
        it.
        """
        path = self.path_for(model_name, prompt, params)
        payload = json.dumps(
            encode_result(result), ensure_ascii=False, sort_keys=True
        ).encode("utf-8")
        tmp_name: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=path.parent
            )
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            with self._stats_lock:
                self.stats.write_errors += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return
        with self._stats_lock:
            self.stats.writes += 1
        if self.max_bytes is not None:
            # One writer at a time updates the estimate and (rarely)
            # walks for eviction; racing writers would both undercount
            # the estimate and double-evict.
            with self._evict_lock:
                if self._approx_bytes is None:
                    over = True  # initialize via the eviction walk
                else:
                    self._approx_bytes += len(payload)
                    over = self._approx_bytes > self.max_bytes
                if over:
                    self._evict_to_cap()

    # -- inventory ---------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """Every committed entry file (tmp files and meta excluded)."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                if not path.name.startswith("."):
                    yield path

    def usage(self) -> tuple:
        """``(entry_count, total_bytes)`` in a single walk."""
        count = 0
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total

    @property
    def entry_count(self) -> int:
        """Number of committed entries on disk."""
        return self.usage()[0]

    @property
    def total_bytes(self) -> int:
        """Total size of committed entries on disk."""
        return self.usage()[1]

    def clear(self) -> int:
        """Delete every entry (and the persisted meta); returns the
        number of entries removed.

        Also resets this instance's session counters: a later
        :meth:`persist_stats` must not resurrect lifetime totals the
        clear just erased from disk.
        """
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for meta_path in self._meta_paths():
            try:
                meta_path.unlink()
            except OSError:
                pass
        with self._stats_lock:
            self.stats = StoreStats()
            self._baseline = StoreStats()
            self._last_persisted = StoreStats()
        # Taken separately, never nested inside _stats_lock: put()
        # acquires these in the opposite order (evict, then stats).
        with self._evict_lock:
            self._approx_bytes = 0
        return removed

    # -- LRU size cap ------------------------------------------------------

    def _evict_to_cap(self) -> None:
        """One full walk (only run when the running estimate crosses
        the cap), evicting least-recently-used entries; the walk also
        trues the estimate up, so overwrite over-counting self-heals."""
        assert self.max_bytes is not None
        sized: List[tuple] = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        sized.sort()  # oldest mtime first = least recently used
        for _, size, path in sized:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            with self._stats_lock:
                self.stats.evictions += 1
        self._approx_bytes = total

    # -- cross-process stats -----------------------------------------------

    def _meta_paths(self) -> List[Path]:
        """Every persisted counter file: legacy aggregate + session files."""
        paths = [self.root / _META_NAME]
        try:
            paths.extend(sorted(self.root.glob("_meta-*.json")))
        except OSError:
            pass
        return paths

    def persist_stats(self) -> Dict[str, int]:
        """Persist this session's counters; returns merged lifetime totals.

        Each store instance atomically rewrites only its *own*
        ``_meta-<pid>-<uid>.json`` — idempotent, so repeated calls
        never double-count, and free of cross-process lost updates: two
        serving processes sharing one cache directory each own a
        different file, and :meth:`read_meta` sums them all plus the
        aggregate ``_meta.json``.  Persistence stays best-effort: a
        refusing filesystem costs this session's contribution, never
        the caller.

        Session files are bounded two ways: idle sessions write nothing
        at all, and once enough files accumulate (every CLI run with a
        ``--cache-dir`` leaves one) the ones untouched for an hour are
        *compacted* into the aggregate under an exclusive lock.  An
        owner whose file was compacted away re-baselines — its next
        persist records only the still-unaggregated remainder under a
        fresh session id — so compaction never double-counts a live
        session.
        """
        path = self.root / f"_meta-{self._session_id}.json"
        if any(
            getattr(self._last_persisted, field_name)
            for field_name in _META_FIELDS
        ) and not path.exists():
            # Our previous session file is gone (compacted into the
            # aggregate, or an external clear): what it held is already
            # represented — or deliberately erased — elsewhere.  Record
            # only the remainder, under a name no compactor is racing.
            self._baseline = StoreStats(
                **{
                    field_name: getattr(self._last_persisted, field_name)
                    for field_name in _META_FIELDS
                }
            )
            self._session_id = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
            path = self.root / f"_meta-{self._session_id}.json"
        payload = {
            field_name: getattr(self.stats, field_name)
            - getattr(self._baseline, field_name)
            for field_name in _META_FIELDS
        }
        if not any(payload.values()):
            return self.read_meta()  # nothing to record: mint no file
        try:
            descriptor, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=self.root
            )
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except OSError:
            pass
        else:
            self._last_persisted = StoreStats(
                **{
                    field_name: getattr(self.stats, field_name)
                    for field_name in _META_FIELDS
                }
            )
            self._compact_meta(keep=path)
        return self.read_meta()

    def _compact_meta(self, keep: Path) -> None:
        """Fold old session files into the aggregate ``_meta.json``.

        Best-effort and rare: runs only when more than
        ``_COMPACT_THRESHOLD`` session files exist, touches only files
        idle for ``_COMPACT_AGE`` seconds (a session that old persists
        again only in pathological schedules — and then re-baselines,
        see :meth:`persist_stats`), and serializes compactors through
        an ``O_EXCL`` lock file so two of them never fold the same
        counters twice.
        """
        try:
            candidates = [
                p for p in self.root.glob("_meta-*.json") if p != keep
            ]
            if len(candidates) <= _COMPACT_THRESHOLD:
                return
            now = time.time()
            eligible = []
            for p in candidates:
                try:
                    if now - p.stat().st_mtime >= _COMPACT_AGE:
                        eligible.append(p)
                except OSError:
                    continue
            if not eligible:
                return
            lock_path = self.root / _META_LOCK_NAME
            try:
                descriptor = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                # Another compactor holds it — unless it crashed long
                # ago, in which case break the lock for the next pass.
                # Rename-then-verify: only one breaker wins the rename,
                # and a lock that turns out fresh is put straight back,
                # so two breakers can never free the path twice and let
                # concurrent compactors fold the same files.
                try:
                    if now - lock_path.stat().st_mtime >= _COMPACT_LOCK_STALE:
                        claimed = (
                            self.root / f".tmp-lock-{uuid.uuid4().hex[:8]}"
                        )
                        os.replace(lock_path, claimed)
                        if time.time() - claimed.stat().st_mtime >= (
                            _COMPACT_LOCK_STALE
                        ):
                            os.unlink(claimed)
                        else:  # raced a live holder's brand-new lock
                            os.replace(claimed, lock_path)
                except OSError:
                    pass
                return
            except OSError:
                return
            os.close(descriptor)
            try:
                merged = self._read_counter_file(self.root / _META_NAME) or {}
                folded: List[Path] = []
                for p in eligible:
                    counters = self._read_counter_file(p)
                    if counters is None:
                        continue
                    for key, value in counters.items():
                        merged[key] = merged.get(key, 0) + value
                    folded.append(p)
                descriptor, tmp_name = tempfile.mkstemp(
                    prefix=".tmp-", suffix=".json", dir=self.root
                )
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    json.dump(merged or {}, handle, sort_keys=True)
                os.replace(tmp_name, self.root / _META_NAME)
                for p in folded:  # only what the new aggregate contains
                    try:
                        p.unlink()
                    except OSError:
                        pass
            finally:
                try:
                    lock_path.unlink()
                except OSError:
                    pass
        except OSError:
            pass

    @staticmethod
    def _read_counter_file(path: Path) -> Optional[Dict[str, int]]:
        """Integer counters from one meta file; ``None`` if unreadable
        (an unreadable file must not be deleted as 'folded')."""
        try:
            payload = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return {
            key: int(value)
            for key, value in payload.items()
            if isinstance(value, (int, float))
        }

    def read_meta(self) -> Dict[str, int]:
        """Lifetime counters summed across every persisted session
        (and the compacted aggregate); ``{}`` when none."""
        merged: Dict[str, int] = {}
        for path in self._meta_paths():
            counters = self._read_counter_file(path)
            if counters is None:
                continue
            for key, value in counters.items():
                merged[key] = merged.get(key, 0) + value
        return merged
