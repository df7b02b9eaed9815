"""Shared file storage: the paper's "external storage" substrate.

Models get split into metadata (documents) and files (code, serialized
parameters, compressed datasets).  The :class:`FileStore` persists files
under generated identifiers in a shared directory, exactly like the
evaluation's shared external storage that all machines can access.

Every byte lives in one content-addressed
:class:`~repro.filestore.segments.ChunkStore`.  Model parameters are saved
as a *manifest* of per-layer chunks keyed by the Merkle leaf hashes
computed at save time: bit-identical layers across models (BA chain
snapshots, PUA bases, replicated deployments) are stored once, ref-counted
by their manifests and deleted when the last manifest goes away.  A file
(a manifest, architecture code, a dataset archive) is a record of the same
store under its generated *file id*, holding one reference of its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import threading
import uuid
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .. import obs
from ..errors import LayersNeededError, StoreCorruptionError, TransientStoreError
from .journal import IntentLog, SaveJournal, incomplete_saves
from .segments import (
    DEFAULT_TMP_GRACE_S,
    ChunkNotFoundError,
    ChunkStore,
    _buffer_nbytes,
)

__all__ = [
    "FileStore",
    "ChunkStore",
    "ChunkCache",
    "FileNotFoundInStoreError",
    "ChunkNotFoundError",
    "chunk_intact",
    "is_file_id",
    "layer_chunk_digests",
    "manifest_chunk_digests",
]

#: File-id suffix that marks a file as a chunked-state manifest.
MANIFEST_SUFFIX = ".manifest"

#: Format tag inside every whole-layer (v1) manifest payload: the one
#: format a save writes.
MANIFEST_FORMAT = "mmlib-chunked-state-v1"

#: Format tag of the content-defined (v2) manifests older releases wrote:
#: each layer carries a *list* of chunk digests (sha256 of the chunk
#: bytes) plus its tensor hash, instead of one whole-layer chunk.  Read,
#: never written.
MANIFEST_FORMAT_V2 = "mmlib-chunked-state-v2"

#: Every manifest format the read paths accept.
MANIFEST_FORMATS = (MANIFEST_FORMAT, MANIFEST_FORMAT_V2)

#: Directory (under the store root) holding the content-addressed chunks.
CHUNK_DIR_NAME = "chunks"

#: Directory (under the store root) holding the save intent logs.
JOURNAL_DIR_NAME = "journal"

#: Default byte budget for an in-process hot-chunk LRU (see :class:`ChunkCache`).
DEFAULT_CHUNK_CACHE_BYTES = 256 * 1024 * 1024


class FileNotFoundInStoreError(KeyError):
    """Raised when recovering a file id that was never saved (or deleted)."""


def layer_chunk_digests(meta: Mapping) -> list[str]:
    """Chunk digests for one manifest layer entry, v1 or v2.

    v1 entries hold one whole-layer chunk under ``"chunk"``; v2 entries,
    which only older releases wrote, hold an ordered run of chunks under
    ``"chunks"``.
    Every reader of manifest layers (recovery, deletion, sizing, fsck,
    cluster repair) goes through this helper, which is what
    keeps old manifests readable next to new ones.
    """
    chunks = meta.get("chunks")
    if chunks is not None:
        return list(chunks)
    return [meta["chunk"]]


def manifest_chunk_digests(manifest: Mapping) -> list[str]:
    """Every chunk digest a manifest references, with multiplicity.

    Multiplicity matters: refcounts are incremented once per reference,
    so releases must mirror the same counting.
    """
    digests: list[str] = []
    for _name, meta in manifest["layers"]:
        digests.extend(layer_chunk_digests(meta))
    return digests


def is_file_id(key: str) -> bool:
    """True iff a record key is a file id, not a chunk digest.

    File ids are ``<16-hex sha256 prefix>-<uuid12><suffix>``; chunk
    digests are bare hex.
    """
    return key[16:17] == "-"


def chunk_intact(digest: str, data, layer: Mapping | None = None) -> bool:
    """True iff one record payload hashes back to its key.

    ``layer`` is the manifest entry a chunk belongs to.  A whole-layer
    (v1) chunk id — an entry with a ``"chunk"`` key — is the layer's
    *tensor* hash (dtype + shape + bytes), so it is checked with
    ``tensor_hash`` over the entry's dtype and shape; a file id
    (:func:`is_file_id`) starts with the sha256 prefix of its payload; any
    other chunk id (a content-defined v2 piece, or a chunk whose entry is
    unknown) is the sha256 of the payload.  Recovery, fsck and cluster
    repair all verify a record through this one function.
    """
    if is_file_id(digest):
        prefix = digest.split("-", 1)[0]
        return hashlib.sha256(data).hexdigest()[: len(prefix)] == prefix
    if layer is None or "chunk" not in layer:
        return hashlib.sha256(data).hexdigest() == digest
    # lazy import: repro.core imports this module at package init
    from ..core.hashing import tensor_hash

    try:
        array = np.frombuffer(data, dtype=np.dtype(layer["dtype"])).reshape(
            layer["shape"])
    except ValueError:  # payload size disagrees with the manifest
        return False
    return tensor_hash(array) == digest


def _layer_digest(meta: Mapping) -> str | None:
    """The tensor hash a rebuilt layer must have: a v1 entry's chunk id, a
    v2 entry's recorded ``hash``."""
    return meta.get("hash") if "chunks" in meta else meta["chunk"]


def _layer_array(meta: Mapping, parts: list) -> np.ndarray | None:
    """One layer over its fetched chunk payloads, in manifest order.

    ``None`` when their size disagrees with the entry's dtype and shape.
    The array is the caller's alone: it is over the fetched ``bytearray``
    itself — a chunk store read, which nobody else holds once the first
    reference to a digest has claimed it (later ones get a copy) — and
    over a ``bytearray`` copy of anything else (cached ``bytes``, a decoded
    frame, a fault injector's).  A v2 run of pieces is joined into one new
    buffer.
    """
    data = parts[0] if len(parts) == 1 else bytearray().join(parts)
    if not isinstance(data, bytearray):
        data = bytearray(data)
    try:
        return np.frombuffer(data, dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
    except ValueError:
        return None


class ChunkCache:
    """Thread-safe LRU over chunk payloads, bounded by total bytes.

    A :class:`FileStore` consults it on every chunk read, so recovers that
    run side by side (two gateway workers serving one hot model, or
    successive recovers of models that share a base) cross the link for
    a chunk once.  Chunks are immutable — content-addressed by digest —
    so cached payloads never go stale; eviction is purely a memory-budget
    decision.
    """

    def __init__(self, max_bytes: int = DEFAULT_CHUNK_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = obs.registry()
        self._obs_hits = registry.counter(
            "mmlib_chunk_cache_hits_total", "Chunk cache hits")
        self._obs_misses = registry.counter(
            "mmlib_chunk_cache_misses_total", "Chunk cache misses")
        self._obs_evictions = registry.counter(
            "mmlib_chunk_cache_evictions_total", "Chunk cache LRU evictions")
        self._obs_bytes = registry.gauge(
            "mmlib_chunk_cache_bytes", "Bytes currently cached")
        self._obs_events = obs.events()

    def get(self, digest: str) -> bytes | None:
        with self._lock:
            data = self._entries.get(digest)
            if data is None:
                self.misses += 1
                self._obs_misses.inc()
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            self._obs_hits.inc()
            return data

    def put(self, digest: str, data) -> None:
        data = bytes(data)
        if len(data) > self.max_bytes:
            return  # would evict everything else for one cold chunk
        evicted_count = 0
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                return
            self._entries[digest] = data
            self.current_bytes += len(data)
            while self.current_bytes > self.max_bytes:
                evicted_digest, evicted = self._entries.popitem(last=False)
                self.current_bytes -= len(evicted)
                self.evictions += 1
                evicted_count += 1
                self._obs_events.emit(
                    "cache_evict", digest=evicted_digest, nbytes=len(evicted))
            self._obs_bytes.set(self.current_bytes)
        if evicted_count:
            self._obs_evictions.inc(evicted_count)

    def discard(self, digest: str) -> None:
        """Drop one entry (a payload that failed digest verification)."""
        with self._lock:
            data = self._entries.pop(digest, None)
            if data is not None:
                self.current_bytes -= len(data)
                self._obs_bytes.set(self.current_bytes)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._obs_bytes.set(0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class _SingleFlight:
    """Collapse concurrent fetches of one key into a single leader fetch.

    Two recovers running in parallel (gateway workers serving one hot
    model) routinely ask for the same chunk at the same moment; without
    coalescing, both would cross the (possibly simulated) link and the
    transfer would be charged twice.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}

    def begin(self, key: str) -> threading.Event | None:
        """Returns ``None`` when the caller is the leader (must call
        :meth:`done`), else the leader's event to wait on."""
        with self._lock:
            event = self._inflight.get(key)
            if event is not None:
                return event
            self._inflight[key] = threading.Event()
            return None

    def done(self, key: str) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()


class FileStore:
    """File store over one segment chunk store, addressed by generated file ids.

    A file is a record of :attr:`chunks` keyed by its file id,
    ``<16-hex sha256 prefix>-<uuid12><suffix>``, holding one reference of
    its own; the prefix gives cheap corruption detection on recovery
    without a separate checksum channel.  Nothing is stored as a file
    under ``root``: a regular file found there on open was left by an
    older release, and is imported as a record under its name
    (DESIGN.md §6 "One store for every byte").

    State dicts are saved through :meth:`save_state_chunks`: each layer
    becomes one content-addressed chunk (keyed by its precomputed tensor
    hash), stored raw in the segment store, described by a small JSON (v1)
    manifest record.  Identical layers across saves are stored once.
    That is the only write format; what older releases wrote — v2
    manifests of content-defined pieces, zlib/lz4 framed records, whole
    ``.params`` blobs — stays readable (DESIGN.md §11).

    Robustness plumbing (all optional, all off by default):

    * ``faults`` — a :class:`~repro.faults.FaultInjector` consulted at
      every operation boundary (chaos testing);
    * ``retry`` — a :class:`~repro.retry.RetryPolicy` applied around each
      primitive operation, so transient failures are absorbed here and
      callers only ever see a typed error once the budget is spent;
    * write-ahead save intents (:meth:`begin_journal`), one record log per
      open store, that make multi-step saves all-or-nothing across
      crashes (:mod:`repro.filestore.journal`; :meth:`close` releases it);
    * ``verify_reads`` — every :meth:`recover_state_chunks` checks each
      layer against its content digest and re-fetches on mismatch,
      raising :class:`StoreCorruptionError` once the retry budget is
      spent; defaults to on exactly when ``faults``/``retry`` are
      configured (a chaos or production-robust deployment).  The check
      itself is not what the flag buys: ``recover_model(verify=True)``
      asks for it on every recover, and it is the one hash pass a
      verified recover makes (DESIGN.md §14 "Verify once").

    Parallel transfer plane (all off by default, so the serial cost
    profile of existing deployments is unchanged):

    * ``workers`` — default write concurrency: with ``workers > 1``
      :meth:`save_state_chunks` writes chunks over a bounded
      ``ThreadPoolExecutor`` (a recover reads in one batched pass over the
      segments and hashes on the shared hashing pool, whatever it says);
    * ``chunk_cache`` — an in-process hot-chunk LRU (a :class:`ChunkCache`
      or a byte budget), consulted before every chunk read.  Concurrent
      fetches of one digest are coalesced into a single transfer while the
      cache is attached.

    Buffer ownership on the read path: the chunk store reads each
    record into a buffer of its own, and :meth:`recover_state_chunks`
    returns arrays over those buffers without copying them; whatever else
    a fetch yields (cached ``bytes``, a decoded legacy frame, a buffer a
    second layer also references) is copied once.  The test is the
    buffer's own ``writeable`` flag, so no returned array ever aliases the
    cache, another layer or another call (DESIGN.md "Byte path").
    """

    def __init__(
        self,
        root: str | Path,
        faults=None,
        retry=None,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
        verify_reads: bool | None = None,
        workers: int = 0,
        chunk_cache: "ChunkCache | int | None" = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.retry = retry
        self.tmp_grace_s = float(tmp_grace_s)
        self.verify_reads = (
            bool(faults is not None or retry is not None)
            if verify_reads is None
            else bool(verify_reads)
        )
        self.workers = int(workers)
        if isinstance(chunk_cache, int):
            chunk_cache = ChunkCache(max_bytes=chunk_cache) if chunk_cache > 0 else None
        self.chunk_cache = chunk_cache
        self._singleflight = _SingleFlight()
        self._chunks: ChunkStore | None = None
        self._chunks_lock = threading.Lock()
        self._journal_local = threading.local()
        self._new_intents()
        self._obs_tracer = obs.tracer()
        self._obs_coalesced = obs.registry().counter(
            "mmlib_chunk_cache_coalesced_total",
            "Chunk fetches coalesced by single-flight")
        # an older release kept each file as its own file in the root
        if any(path.is_file() for path in self.root.iterdir()):
            self.chunks.import_files(self.root, refcount=1)

    @property
    def chunks(self) -> ChunkStore:
        """The store's content-addressed chunk substore (lazily created).

        Created under a lock: parallel savers reach it first together, and
        a second instance would hold records the first never indexes.
        """
        if self._chunks is None:
            with self._chunks_lock:
                if self._chunks is None:
                    self._chunks = ChunkStore(
                        self.root / CHUNK_DIR_NAME, tmp_grace_s=self.tmp_grace_s)
        return self._chunks

    # -- fault/retry plumbing ---------------------------------------------------

    def _fault(self, op: str, nbytes: int = 0) -> None:
        if self.faults is not None:
            self.faults.fail_point(op, nbytes=nbytes)

    def _call(self, op: str, attempt, retry_on: tuple = (TransientStoreError,)):
        """Run one primitive operation under the store's retry policy."""
        if self.retry is None:
            return attempt()
        return self.retry.call(attempt, op=op, retry_on=retry_on)

    # -- parallel plane helpers --------------------------------------------------

    def _effective_workers(self, workers: int | None, n_items: int) -> int:
        """Concurrency for one batch: explicit override, else the store default."""
        limit = self.workers if workers is None else int(workers)
        if limit <= 1 or n_items <= 1:
            return 1
        return min(limit, n_items)

    def _cache_get(self, digest: str) -> bytes | None:
        if self.chunk_cache is None:
            return None
        return self.chunk_cache.get(digest)

    def _cache_landed(self, digest: str) -> bytes | None:
        """What a flight that ended between the caller's cache miss and its
        ``begin()`` left behind — reading again would cross the link twice."""
        return self._cache_get(digest) if digest in self.chunk_cache else None

    def _cache_put(self, digest: str, data: bytes) -> None:
        if self.chunk_cache is not None:
            self.chunk_cache.put(digest, data)

    def _cache_discard(self, digest: str) -> None:
        if self.chunk_cache is not None:
            self.chunk_cache.discard(digest)

    # -- write-ahead intent journal ---------------------------------------------

    @property
    def journal_dir(self) -> Path:
        return self.root / JOURNAL_DIR_NAME

    def begin_journal(self) -> SaveJournal:
        """Open a new save's journal and make it this thread's active one.

        Store operations on this thread record their intents into the
        active journal until :meth:`commit_journal` / :meth:`abort_journal`
        closes it.  The journal is per-thread, so concurrent savers
        sharing one store never interleave intents; they share the store's
        one intent log.
        """
        journal = self._intents.begin()
        self._journal_local.active = journal
        return journal

    def _new_intents(self) -> None:
        """A fresh intent log for this instance, released with it: at
        :meth:`close`, when the store is collected, or at exit."""
        self._intents = IntentLog.create(self.journal_dir)
        weakref.finalize(self, self._intents.close)

    def _active_journal(self) -> SaveJournal | None:
        return getattr(self._journal_local, "active", None)

    def journal_active(self) -> bool:
        """True while this thread has an open save journal.

        Nested save transactions (a service delegating to another over the
        same store) use this to join the outer journal instead of opening
        a second one.
        """
        return self._active_journal() is not None

    def journal_record(self, op: str, **fields) -> None:
        """Record one intent into the active journal (no-op without one)."""
        journal = self._active_journal()
        if journal is not None:
            journal.record(op, **fields)

    def commit_journal(self) -> None:
        """Mark the active journal committed."""
        journal = self._active_journal()
        self._journal_local.active = None
        if journal is not None:
            journal.commit()

    def abandon_journal(self) -> None:
        """Detach the active journal, leaving its save open in the log.

        Crash simulation uses this: the "dead" process stops journaling
        while the incomplete save stays behind for fsck to find.
        """
        self._journal_local.active = None

    def abort_journal(self) -> dict:
        """Roll back the active journal's recorded steps (failed save)."""
        journal = self._active_journal()
        self._journal_local.active = None
        if journal is None:
            return {"blobs_removed": 0, "chunks_removed": 0, "refs_released": 0, "docs": []}
        return self.rollback_journal(journal)

    def incomplete_journals(self) -> list[SaveJournal]:
        """Journals of saves that never finished (crashed mid-save), this
        thread's own in-flight save excepted."""
        if not self.journal_dir.exists():
            return []
        active = self._active_journal()
        return incomplete_saves(
            self.journal_dir, self._intents, active.save_id if active else None)

    def rollback_journal(self, journal: SaveJournal) -> dict:
        """Undo a journal's recorded steps, newest first; returns stats.

        A ``refs`` record is undone by releasing exactly the references it
        took — a file's own one among them, which deletes the file — never
        through :meth:`delete`, which would also release a manifest's
        chunks a second time.  A ``blob`` record was written by an older
        release, whose files are imported as records on open: it releases
        and drops that record.  Document intents cannot be undone here (the
        file store holds no document-store handle); they are returned under
        ``"docs"`` for the caller (the save transaction or fsck) to delete.
        """
        stats = {"blobs_removed": 0, "chunks_removed": 0, "refs_released": 0, "docs": []}
        for entry in reversed(journal.entries):
            op = entry.get("op")
            if op == "doc":
                stats["docs"].append((entry["collection"], entry["doc_id"]))
            elif op == "blob":
                file_id = entry["file_id"]
                if self.chunks.has(file_id):
                    with contextlib.suppress(StoreCorruptionError):
                        self.chunks.release_refs([file_id])
                    self.chunks.drop(file_id)
                    stats["blobs_removed"] += 1
            elif op == "refs":
                try:
                    removed = self.chunks.release_refs(entry["digests"])
                except StoreCorruptionError:
                    continue  # unreadable counts: fsck's reconcile recounts them
                stats["blobs_removed"] += sum(1 for d in removed if is_file_id(d))
                stats["refs_released"] += sum(
                    1 for d in entry["digests"] if not is_file_id(d))
            elif op == "chunk":
                digest = entry["digest"]
                try:
                    unreferenced = self.chunks.refcount(digest) == 0
                except StoreCorruptionError:
                    continue  # ... and sweeps the chunk if nothing references it
                if unreferenced and self.chunks.has(digest):
                    self.chunks.drop(digest)
                    stats["chunks_removed"] += 1
        journal.discard()
        return stats

    # -- save ------------------------------------------------------------------

    @staticmethod
    def _new_file_id(data: bytes, suffix: str = "") -> str:
        """Generate a file id: content-digest prefix + uniquifier + suffix."""
        digest = hashlib.sha256(data).hexdigest()[:16]
        return f"{digest}-{uuid.uuid4().hex[:12]}{suffix}"

    def save_bytes(self, data: bytes, suffix: str = "") -> str:
        """Persist a byte payload; returns the generated file id.

        The payload becomes a record under the file id, which embeds a
        content digest prefix, so reads can detect corruption without a
        separate checksum channel; the record takes its one reference at
        once.  It is not flushed here: the next save's group fsync covers
        it (a model's code is written before its parameters).
        """
        file_id = self._new_file_id(data, suffix)
        self._put_chunk_data(file_id, data)
        self.chunks.add_refs([file_id])
        self.journal_record("refs", digests=[file_id])
        return file_id

    def save_file(self, source: str | Path) -> str:
        """Copy an existing file into the store; returns the file id."""
        source = Path(source)
        data = source.read_bytes()
        return self.save_bytes(data, suffix=source.suffix)

    # -- chunked state save/recover ---------------------------------------------

    def _put_chunk_data(self, digest: str, buffer) -> bool:
        """Write one record (fault/retry wrapped) without journaling.

        The save journal is thread-local, so parallel savers write through
        this primitive and the calling thread records the intents.  A file
        record's fault point is ``file.write``, a chunk's ``chunk.write``.
        """
        op = "file.write" if is_file_id(digest) else "chunk.write"

        def attempt() -> bool:
            self._fault(op, nbytes=_buffer_nbytes(buffer))
            if self.faults is not None and self.faults.torn_write(op):
                self.chunks.write_torn(digest, buffer)
                raise TransientStoreError(
                    f"injected torn write for {digest[:24]}… (half a record left)"
                )
            return self.chunks.put(digest, buffer)

        return self._call(op, attempt)

    def put_chunk(self, digest: str, buffer) -> bool:
        """Store one content-addressed chunk; True iff bytes were written.

        Idempotent under retries (content addressing): a repeated attempt
        after a torn write converges on the same chunk file.
        """
        wrote = self._put_chunk_data(digest, buffer)
        if wrote:
            self.journal_record("chunk", digest=digest)
        return wrote

    def _read_chunk(self, digest: str, data=None) -> bytes:
        """One record through the fault plane: its fault point, its read,
        its in-transit corruption, its own retry.

        ``data`` is the payload :meth:`_fetch_many` already read for this
        chunk; the first attempt takes it instead of reading the chunk
        store, a retry reads the store.  A file record (fault points
        ``file.read``) is checked against its id's digest prefix instead of
        its record CRC — one check per byte, the stronger one — and a
        mismatch is retried; a chunk is checked by its reader.
        """
        pending = [data] if data is not None else []
        is_file = is_file_id(digest)
        op = "file.read" if is_file else "chunk.read"

        def attempt() -> bytes:
            self._fault(op)
            payload = (pending.pop() if pending
                       else self.chunks.get_many([digest], crc=not is_file)[digest])
            if self.faults is not None:
                payload = self.faults.corrupt(op, payload)
            if is_file and not chunk_intact(digest, payload):
                raise StoreCorruptionError(
                    f"stored file {digest!r} is corrupt: digest prefix mismatch")
            return payload

        retry_on = (TransientStoreError, StoreCorruptionError) if is_file else (
            TransientStoreError,)
        return self._call(op, attempt, retry_on=retry_on)

    def _charged_read(self, digest: str) -> bytes:
        """One chunk fetch crossing the link (transfer-accounting hook)."""
        return self._read_chunk(digest)

    def _charged_read_many(self, digests: list[str], crc: bool) -> dict[str, bytes]:
        """One batched fetch crossing the link (transfer-accounting hook)."""
        return self._fetch_many(digests, crc)

    def _fetch_many(self, digests: list[str], crc: bool) -> dict[str, bytes]:
        """Read a batch of chunks in one pass over the segments.

        :meth:`ChunkStore.get_many` reads every record, skipping its CRC
        when ``crc`` is false; each chunk then goes through
        :meth:`_read_chunk` in plan order with the payload already read, so
        the fault plane sees each chunk exactly as a one-by-one read would.
        A batch the chunk store refuses (a missing or damaged record) is
        left to those per-chunk reads, so the error surfaces where it
        always did.
        """
        try:
            batch = self.chunks.get_many(digests, crc=crc)
        except (ChunkNotFoundError, StoreCorruptionError):
            batch = {}
        return {digest: self._read_chunk(digest, batch.get(digest)) for digest in digests}

    def get_chunk(self, digest: str) -> bytes:
        """Fetch one chunk's payload by digest (hot-chunk cache first)."""
        cached = self._cache_get(digest)
        if cached is not None:
            return cached
        if self.chunk_cache is None:
            return self._charged_read(digest)
        leader_event = self._singleflight.begin(digest)
        if leader_event is None:
            try:
                data = self._cache_landed(digest)
                if data is None:
                    data = self._charged_read(digest)
                    self._cache_put(digest, data)
                return data
            finally:
                self._singleflight.done(digest)
        leader_event.wait()
        self._obs_coalesced.inc()
        cached = self._cache_get(digest)
        if cached is not None:
            return cached
        return self._charged_read(digest)  # leader failed or entry evicted

    def get_chunks(self, digests: Iterable[str], crc: bool = True) -> dict[str, bytes]:
        """Fetch many chunks as one batch; returns digest -> payload.

        Duplicates are fetched once, cached chunks are served from the
        hot-chunk LRU without touching the store, the misses are read in
        one pass over the segments (:meth:`_fetch_many`), and concurrent
        callers asking for the same digest share one transfer.
        ``crc=False`` skips the record CRC of the misses; only a caller
        that checks every payload against its content digest may pass it
        (:meth:`recover_state_chunks`).
        """
        unique = list(dict.fromkeys(digests))
        with self._obs_tracer.span("store.get_chunks", n=len(unique)) as sp:
            results: dict[str, bytes] = {}
            misses: list[str] = []
            for digest in unique:
                cached = self._cache_get(digest)
                if cached is not None:
                    results[digest] = cached
                else:
                    misses.append(digest)
            sp.set(misses=len(misses))
            if not misses:
                return results
            if self.chunk_cache is None:
                results.update(self._charged_read_many(misses, crc))
                return results
            leaders: list[str] = []
            waits: list[tuple[str, threading.Event]] = []
            for digest in misses:
                event = self._singleflight.begin(digest)
                if event is None:
                    leaders.append(digest)
                else:
                    waits.append((digest, event))
            if waits:
                self._obs_coalesced.inc(len(waits))
                sp.set(coalesced=len(waits))
            try:
                to_read = []
                for digest in leaders:
                    landed = self._cache_landed(digest)
                    if landed is None:
                        to_read.append(digest)
                    else:
                        results[digest] = landed
                if to_read:
                    fetched = self._charged_read_many(to_read, crc)
                    for digest, data in fetched.items():
                        self._cache_put(digest, data)
                    results.update(fetched)
            finally:
                for digest in leaders:
                    self._singleflight.done(digest)
            for digest, event in waits:
                event.wait()
                cached = self._cache_get(digest)
                results[digest] = cached if cached is not None else self._charged_read(digest)
            return results

    def has_chunk(self, digest: str) -> bool:
        return self.chunks.has(digest)

    def save_state_chunks(
        self,
        state: Mapping[str, np.ndarray],
        layer_hashes: Mapping[str, str],
        suffix: str = ".params" + MANIFEST_SUFFIX,
        workers: int | None = None,
        held: Mapping[str, Mapping] | None = None,
    ) -> str:
        """Save a flat state dict as per-layer chunks plus a manifest.

        ``layer_hashes`` maps each layer name to its already-computed
        tensor hash (the Merkle leaves) — the chunk ids.  Nothing is
        re-hashed here, and already-contiguous arrays are written from a
        ``memoryview`` without copying.  With ``workers`` (default: the
        store's ``workers`` setting) distinct chunks are written
        concurrently; the crash-consistency journal is still recorded on
        the calling thread, since journals are thread-local.  The manifest
        record is put after the chunks and before the one group fsync that
        covers them all, and takes its own reference in the same
        refcount append as the layers.  Returns the manifest's file id,
        which carries the ``.manifest`` suffix so recovery, deletion, and
        sizing recognize it.

        ``held`` maps more layer names to manifest entries (``chunk``,
        ``dtype``, ``shape``) whose chunks are already stored: they are
        listed and referenced, not written.  Each must still be present
        once the save holds its reference — a chunk collected before that
        raises :class:`~repro.errors.LayersNeededError` naming its layers,
        and the save transaction rolls the save back.
        """
        if not suffix.endswith(MANIFEST_SUFFIX):
            raise ValueError(f"manifest suffix must end with {MANIFEST_SUFFIX!r}")
        with self._obs_tracer.span("store.save_chunks", layers=len(state)):
            entries = []
            digests = []
            buffers = {}
            for name, array in state.items():
                digest = layer_hashes[name]
                buffers.setdefault(digest, self._layer_buffer(array))
                entries.append(
                    [name, {"chunk": digest, "dtype": array.dtype.str, "shape": list(array.shape)}]
                )
                digests.append(digest)
            for name, meta in (held or {}).items():
                entries.append([name, dict(meta)])
                digests.append(meta["chunk"])
            manifest = json.dumps(
                {"format": MANIFEST_FORMAT, "layers": entries}, sort_keys=True
            ).encode()
            file_id = self._new_file_id(manifest, suffix)
            unique = list(buffers)
            n = self._effective_workers(workers, len(unique))
            wrote: list[bool] = []
            try:
                if n <= 1:
                    for digest in unique:
                        wrote.append(self._put_chunk_data(digest, buffers[digest]))
                else:
                    with ThreadPoolExecutor(max_workers=n) as pool:
                        for written in pool.map(
                            lambda d: self._put_chunk_data(d, buffers[d]), unique
                        ):
                            wrote.append(written)
                unique.append(file_id)
                wrote.append(self._put_chunk_data(file_id, manifest))
            finally:
                # one journal append for the batch, on the calling thread
                # (journals are thread-local) and also when a put failed, so a
                # rollback drops what was written before it; chunks put but not
                # journaled at a real crash are refcount-0 orphans fsck sweeps
                journal = self._active_journal()
                if journal is not None:
                    journal.record_many(
                        [{"op": "chunk", "digest": d} for d, w in zip(unique, wrote) if w]
                    )
            # group fsync: one durability barrier for the whole batch, the
            # manifest included, before the refs acknowledge the save
            self.chunks.flush()
            digests.append(file_id)
            self.chunks.add_refs(digests)
            self.journal_record("refs", digests=digests)
            if held:
                # a gc that ran before the refs above may have taken a held
                # chunk; none can once they are counted
                gone = [n for n, meta in held.items() if not self.chunks.has(meta["chunk"])]
                if gone:
                    raise LayersNeededError(gone)
            return file_id

    @staticmethod
    def _layer_buffer(array: np.ndarray):
        payload = array if array.flags.c_contiguous else np.ascontiguousarray(array)
        if payload.ndim and payload.nbytes:
            return memoryview(payload).cast("B")
        # 0-d and empty arrays cannot be cast; both are tiny
        return payload.tobytes()

    def recover_state_chunks(
        self,
        file_ids: str | Sequence[str],
        verify: bool | None = None,
        verified: dict | None = None,
        skip: frozenset = frozenset(),
    ) -> "OrderedDict[str, np.ndarray | None]":
        """Rebuild the state dict a manifest describes (bitwise identical).

        ``file_ids`` is one manifest id, or the manifests of a delta chain
        from its recovery base to its tip: the layer list is the base's,
        each layer read from the last manifest that holds it, so a chunk a
        later level overrides is never fetched.  Every chunk of the plan
        is fetched in one :meth:`get_chunks` batch; layer order in the
        returned dict always matches the manifest.

        Each rebuilt layer is checked once against its content digest —
        the chunk id of a whole-layer (v1) entry, the recorded tensor
        ``hash`` of a content-defined (v2) one — on the shared hashing
        pool.  The check runs with ``verify`` (default: the store's
        ``verify_reads`` flag) and whenever the caller passes a
        ``verified`` dict, which receives ``name -> digest`` for every
        layer that passed.  A layer that fails is re-fetched up to the
        retry policy's attempt limit, a poisoned cache entry dropped first.
        A mismatch that persists raises :class:`StoreCorruptionError` under
        ``verify``; otherwise the layer is returned as read and left out of
        ``verified``.  A caller that passes ``verified`` without ``verify``
        must therefore refuse every layer missing from it (the service's
        Merkle root does).  A checked fetch skips the record CRC unless a
        chunk cache will hand the payloads to other readers (DESIGN.md §14
        "Verify once").

        A layer whose content digest is in ``skip`` — bytes the caller
        already holds — is not fetched: it maps to ``None`` in the returned
        state and to that digest in ``verified``, for the caller's Merkle
        root to vouch for (DESIGN.md §15.2).

        No returned array shares memory with another, with the chunk
        cache, or with a later call's: each is the buffer its chunk was
        read into or a copy (see :func:`_layer_array`).
        """
        strict = self.verify_reads if verify is None else bool(verify)
        check = strict or verified is not None
        if isinstance(file_ids, str):
            file_ids = [file_ids]
        with self._obs_tracer.span(
            "store.recover_chunks", file_id=file_ids[-1], manifests=len(file_ids)
        ) as sp:
            merged: dict[str, dict] = {}
            for file_id in file_ids:
                merged.update(self.read_manifest(file_id)["layers"])
            held = {}
            if skip:
                held = {
                    name: digest for name, meta in merged.items()
                    if (digest := _layer_digest(meta)) in skip
                }
            plan = [
                (name, meta, layer_chunk_digests(meta))
                for name, meta in merged.items() if name not in held
            ]
            sp.set(layers=len(plan), held=len(held))
            digests = [digest for _, _, chunk_ids in plan for digest in chunk_ids]
            # the payloads are digest-checked below, so their record CRC
            # may be skipped — unless the cache hands them to others
            payloads = self.get_chunks(
                digests, crc=not check or self.chunk_cache is not None)
            # one fetched buffer may back several layers (identical tensors
            # share a digest): its first reference gets the buffer, every
            # later one a copy of it
            claimed: set[str] = set()
            state: "OrderedDict[str, np.ndarray | None]" = OrderedDict.fromkeys(merged)
            for name, meta, chunk_ids in plan:
                parts = []
                for digest in chunk_ids:
                    data = payloads[digest]
                    if digest in claimed:
                        data = bytearray(data)
                    claimed.add(digest)
                    parts.append(data)
                state[name] = _layer_array(meta, parts)
            if check:
                self._check_layers(plan, state, payloads, strict, verified)
            if verified is not None:
                verified.update(held)
            for name, meta, chunk_ids in plan:
                if state[name] is None:
                    for digest in chunk_ids:
                        self._cache_discard(digest)
                    raise StoreCorruptionError(
                        f"layer {name!r} is corrupt: its chunk payload does not "
                        f"fit the manifest entry (chunks {[d[:12] for d in chunk_ids]})"
                    )
            return state

    def _check_layers(self, plan, state, payloads, strict, verified) -> None:
        """Hash each distinct layer once, in byte-balanced runs on the shared
        pool; heal the layers that fail, record the ones that pass.

        Layers with the same digest and the same chunks were rebuilt from
        the same fetched payloads — one of them holds the buffer, the rest
        copies of it — so the first one's hash checks them all.
        """
        # lazy import: repro.core imports this module at package init
        from ..core.hashing import state_dict_hashes

        keys = [(_layer_digest(meta), *chunk_ids) for _, meta, chunk_ids in plan]
        first: dict[tuple, str] = {}
        for (name, _, _), key in zip(plan, keys):
            if state[name] is not None:
                first.setdefault(key, name)
        hashes = state_dict_hashes({name: state[name] for name in first.values()})
        for (name, meta, chunk_ids), key in zip(plan, keys):
            digest = key[0]
            intact = digest is not None and hashes.get(first.get(key)) == digest
            if not intact:
                state[name], intact = self._heal_layer(
                    name, meta, chunk_ids, state[name], payloads, strict)
            if intact and verified is not None:
                verified[name] = digest

    def _heal_layer(self, name, meta, chunk_ids, array, payloads, strict):
        """Re-fetch what made one layer fail its check.

        Returns the layer and whether it now matches its digest.  A v1
        layer's one chunk is re-read; of a v2 run only the pieces whose own
        sha256 fails are — none, when the pieces are intact and the layer
        still disagrees with its recorded hash.  Each failed attempt drops
        the cached copy (a poisoned entry would return the same bytes).
        """
        from ..core.hashing import tensor_hash

        whole = meta if "chunk" in meta else None
        parts = {digest: payloads[digest] for digest in chunk_ids}
        bad = [d for d in parts if not chunk_intact(d, parts[d], whole)]
        if not bad:
            return array, False
        attempts = max(1, self.retry.max_attempts) if self.retry is not None else 1
        for _ in range(attempts - 1):  # the batch was the first attempt
            for digest in bad:
                self._cache_discard(digest)
                parts[digest] = self.get_chunk(digest)
            bad = [d for d in bad if not chunk_intact(d, parts[d], whole)]
            if not bad:
                array = _layer_array(meta, [parts[d] for d in chunk_ids])
                return array, array is not None and tensor_hash(array) == _layer_digest(meta)
        for digest in bad:
            self._cache_discard(digest)
        if strict:
            raise StoreCorruptionError(
                f"chunk {bad[0]!r} of layer {name!r} is corrupt: content digest "
                f"mismatch persisted across {attempts} fetch attempt(s)"
            )
        return array, False

    def read_manifest(self, file_id: str) -> dict:
        """Load and validate a manifest file."""
        try:
            payload = json.loads(self.recover_bytes(file_id).decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"file {file_id!r} is corrupt: not a parsable manifest ({exc})"
            ) from exc
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt not in MANIFEST_FORMATS:
            raise StoreCorruptionError(
                f"file {file_id!r} is not a chunked-state manifest "
                f"(format {fmt!r}; accepted: {MANIFEST_FORMATS})"
            )
        return payload

    @staticmethod
    def is_manifest_id(file_id: str) -> bool:
        return file_id.endswith(MANIFEST_SUFFIX)

    # -- recover -----------------------------------------------------------------

    def recover_bytes(self, file_id: str) -> bytes:
        """Load a payload by file id, verifying the embedded digest.

        A digest mismatch raises the typed :class:`StoreCorruptionError`
        (an ``OSError`` subclass, so legacy ``IOError`` handlers still
        apply); with a retry policy the read is re-attempted first, which
        heals in-transit corruption from a chaos injector or flaky link.
        """
        try:
            return bytes(self._charged_read(file_id))
        except ChunkNotFoundError:
            raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}") from None

    def recover_to(self, file_id: str, destination: str | Path) -> Path:
        """Copy a stored file out of the store to ``destination``."""
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_bytes(self.recover_bytes(file_id))
        return destination

    # -- management ---------------------------------------------------------------

    def ping(self) -> bool:
        """Cheap liveness probe through the fault plane.

        Touches no payload data — the only cost is the injected-fault
        check — so failure detectors can poll members at a high rate.
        Returns ``True`` when the store is reachable; a down or flaky
        member raises its typed transient error instead.
        """
        self._fault("store.ping")
        return True

    def exists(self, file_id: str) -> bool:
        return self.chunks.has(file_id)

    def delete(self, file_id: str) -> bool:
        """Remove a stored file; returns whether it existed."""
        return bool(self.delete_many([file_id]))

    def delete_many(self, file_ids: Iterable[str]) -> list[str]:
        """Remove stored files in one refcount release; returns those that
        existed.

        Each file gives up its own reference, which deletes it; a manifest
        also releases its chunk references, and chunks no other manifest
        still points at are deleted with it.
        """
        present = [file_id for file_id in dict.fromkeys(file_ids) if self.exists(file_id)]
        digests = list(present)
        for file_id in present:
            if self.is_manifest_id(file_id):
                try:
                    digests.extend(manifest_chunk_digests(self.read_manifest(file_id)))
                except (IOError, ValueError, KeyError):
                    pass  # corrupt manifest: drop the file, keep chunks
        self.chunks.release_refs(digests)
        return present

    def size(self, file_id: str) -> int:
        """Logical size in bytes of one stored file.

        For a manifest this is the manifest record plus the raw bytes of
        every referenced layer — the bytes a recovery materializes —
        independent of how much of it is deduplicated on disk (see
        :meth:`total_bytes` for the physical view).  Layer sizes come from
        the manifest's dtype/shape metadata, whatever the records hold.
        The file's own part is its record's size, less the frame header of
        one escape-framed because it begins with ``MMCZ``.
        """
        size = self.chunks.size_of(file_id)
        if size is None:
            raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}")
        if self.is_manifest_id(file_id):
            manifest = self.read_manifest(file_id)
            for _name, meta in manifest["layers"]:
                size += int(np.dtype(meta["dtype"]).itemsize) * int(
                    np.prod(meta["shape"], dtype=np.int64)
                )
        return size

    def total_bytes(self) -> int:
        """Total *physical* bytes stored: every live record's payload, a
        deduplicated chunk counted once."""
        return self.chunks.total_bytes()

    def file_ids(self) -> list[str]:
        """Ids of stored files (records keyed by a file id, see :func:`is_file_id`)."""
        return [key for key in self.chunks.chunk_ids() if is_file_id(key)]

    def gc_chunks(self) -> dict[str, int]:
        """Sweep unreferenced chunks (see :meth:`ChunkStore.gc`)."""
        if (self.root / CHUNK_DIR_NAME).exists():
            return self.chunks.gc()
        return {"chunks_removed": 0, "bytes_freed": 0}

    def close(self) -> None:
        """Release the intent log, deleting it when no save in it is open."""
        self._intents.close()

    def clear(self) -> None:
        self._intents.close()
        shutil.rmtree(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._chunks = None
        self._journal_local = threading.local()
        self._new_intents()
        if self.chunk_cache is not None:
            self.chunk_cache.clear()
