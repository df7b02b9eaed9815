"""The content-addressed chunk store: records in append-only segments.

Chunks are appended as records to large append-only *segment* files and
located through an in-memory index (``digest -> (segment, offset,
length, crc)``), LSM-style:

* **Group fsync** — appends are acknowledged immediately and made
  durable by one batched :meth:`ChunkStore.flush` per save, so a
  thousand-chunk save costs one fsync instead of a thousand.  Every
  :data:`WRITEBACK_BYTES` of a batch's appends the writer asks the kernel
  to start writing them back
  (``sync_file_range(SYNC_FILE_RANGE_WRITE)``, which waits for nothing), so
  the device works while the save still hashes and appends and the fsync
  waits only for the tail.  The fsync stays the only barrier: a hinted
  record is unsynced until it, and the hint makes no crash state that
  the kernel's own writeback could not (the record crc catches a torn
  tail either way).
* **The segments are the only record of the index** — an open rebuilds
  it from each sealed segment's footer (a catalog of its records and
  tombstones) and a CRC-checked scan of each unsealed one, so an appended
  record needs no other bookkeeping to be found again.  A drop appends a
  *tombstone*: a record keyed ``"." + digest`` whose payload names the
  ``[segment, offset]`` of the record it kills, so it never shadows a later
  put of the same digest, whatever order the segments are read in; one
  :meth:`~ChunkStore.flush` makes a batch of them durable.  A sealed
  segment never changes: taking in what other processes did is one listing
  of ``segments/`` and one ``stat`` per unsealed segment (DESIGN.md §17
  "Bookkeeping").  A writer holds an ``flock`` on its unsealed segment;
  once no one holds it, its writer is gone, and an open or a sweep seals
  it, so what a crash left is scanned once.
* **Liveness is reachability** — the store counts no references.  A
  record lives while its caller's mark says so: :meth:`ChunkStore.reap`
  sweeps every record outside the mark it is given, under the store's
  :class:`StoreLock` held exclusive, while a save holds it shared from its
  first write to its commit (DESIGN.md §7, §17).
* **Compaction** — segments whose live ratio drops below a threshold
  are rewritten into a fresh sealed segment, committed by its atomic
  rename and written down by no journal: a crash before the rename
  leaves a ``.tmp`` the grace sweep reaps; a crash after it leaves each
  moved record twice, both copies identical (records are
  content-addressed), and whichever one the index does not point at is
  dead, its segment unlinked by the next sweep.  A tombstone moves along
  while the segment it names exists, and no segment is unlinked while a
  tombstone in it names a segment that stays.

On-disk format (all integers little-endian):

* segment header: ``MMSEG1\\n\\0`` magic, u32 version, u64 sequence,
  zero-padded to 32 bytes;
* record: ``MMRC`` magic, u16 digest length, u16 flags (0), u32 payload
  crc32, u64 payload length, then the digest bytes and the payload — the
  framing every log shares (:mod:`repro.filestore.recordlog`, whose
  records have an empty key);
* footer (sealed segments only): ``MMFT`` magic, u32 catalog length,
  the JSON catalog (``records``: ``[digest, offset, length, crc]``;
  ``tombstones``: ``[digest, segment, offset]``; ``total``: the payload
  bytes of every record appended), then a fixed tail of u64 records-end offset, u32
  catalog crc32, and ``MMSE`` end magic — parseable backwards from EOF.

A torn append is detected by the record crc at scan time and never
advances the logical end, so a retry overwrites the tear in place.  A
scan bounds every read by the bytes left in the file, so a damaged length
field is a bad record, not an allocation; a bad record with a whole
record after it is skipped and reported, so one flipped bit costs one
record, not the rest of its segment.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import struct
import threading
import time
import uuid
import weakref
import zlib
from pathlib import Path
from typing import Iterable, Mapping

from .. import obs
from ..errors import StoreCorruptionError
from .recordlog import (
    RECORD_HEADER, RECORD_MAGIC, fsync_dir, next_whole_record, read_record, record_header,
    write_all)

try:
    import fcntl
except ImportError:  # non-posix platform: the store's lock excludes nothing
    fcntl = None

__all__ = ["ChunkStore", "ChunkNotFoundError", "DEFAULT_SEGMENT_BYTES"]

#: Tmp files younger than this are assumed in-flight and never reaped —
#: a concurrent saver may still be writing them.
DEFAULT_TMP_GRACE_S = 600.0

#: Segments roll (seal + start a new one) once records cross this size.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Compaction rewrites sealed segments whose live ratio falls below this.
COMPACT_THRESHOLD = 0.5

#: Unsynced append bytes after which a writer starts their writeback.
WRITEBACK_BYTES = 1 << 20

SEGMENT_SUFFIX = ".seg"
SEGMENT_MAGIC = b"MMSEG1\n\x00"
SEGMENT_VERSION = 1
#: Fixed-size segment header: magic + version + sequence, zero-padded.
HEADER = struct.Struct("<8sIQ12x")
FOOTER_MAGIC = b"MMFT"
FOOTER_END_MAGIC = b"MMSE"
#: Footer head: magic, catalog length.
FOOTER_HEAD = struct.Struct("<4sI")
#: Footer tail: records-end offset, catalog crc32, end magic.
FOOTER_TAIL = struct.Struct("<QI4s")


def _iov_max() -> int:
    try:
        limit = os.sysconf("SC_IOV_MAX")
    except (AttributeError, ValueError, OSError):
        limit = -1
    return limit if limit >= 2 else 1024


#: Buffers one scatter read may fill (a batched read splits its runs here).
IOV_MAX = _iov_max()

#: Payload bytes one scatter read may fill: a batched read holds the store's
#: lock for one such read at a time.
MAX_RUN_BYTES = 4 << 20


_SYNC_FILE_RANGE_WRITE = 2
_UNRESOLVED = object()
#: libc's ``sync_file_range``, resolved on first use; ``None`` where the
#: platform has none (the writeback hint is then skipped).
_sync_file_range = _UNRESOLVED


def _start_writeback(fd: int, offset: int, nbytes: int) -> None:
    """Ask the kernel to start writing ``nbytes`` at ``offset`` back,
    without waiting: a hint, so a failure is ignored and durability is
    still only :func:`os.fsync`'s."""
    global _sync_file_range
    if _sync_file_range is _UNRESOLVED:
        import ctypes  # the main program's symbols: no library search

        try:
            function = ctypes.CDLL(None).sync_file_range
        except (AttributeError, OSError, TypeError):
            function = None
        else:
            function.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_uint)
            function.restype = ctypes.c_int
        _sync_file_range = function
    if _sync_file_range is not None:
        _sync_file_range(fd, offset, nbytes, _SYNC_FILE_RANGE_WRITE)


class ChunkNotFoundError(KeyError):
    """Raised when fetching a chunk digest the store does not hold."""


def _buffer_nbytes(buffer) -> int:
    if isinstance(buffer, memoryview):
        return buffer.nbytes
    return len(buffer)


def _parse_seq(name: str) -> int:
    parts = name.split("-")
    try:
        return int(parts[1]) if parts[0] == "seg" else 0
    except (IndexError, ValueError):
        return 0


def _new_meta() -> dict:
    # total/live: payload bytes of every record appended / still indexed;
    # graves: [digest, segment, offset] of each tombstone it holds;
    # damaged: keys (or ``segment@offset``) of bad records a scan skipped
    return {"scanned": 0, "total": 0, "live": 0, "sealed": False, "bad": False,
            "graves": [], "damaged": []}


class StoreLock:
    """A store's lock: held shared by saves, exclusive by a sweep.

    Each thread's outermost hold opens ``path`` and takes an ``flock`` on
    it, shared or exclusive.  An ``flock`` belongs to its open file, so two threads of
    one process exclude each other as two processes do.  A thread that
    holds it already enters again at once (a nested save joins the outer
    one, a sweep runs inside fsck's hold); a shared hold cannot become
    exclusive.  ``on_acquire(exclusive)`` runs after each outermost
    acquisition, to take in what other holders changed meanwhile.  The
    ``flock`` prefers no side: a sweep waits until no save holds it.
    """

    def __init__(self, path: Path, on_acquire=None):
        self.path = Path(path)
        self._on_acquire = on_acquire
        self._local = threading.local()  # this thread's (depth, exclusive)

    @contextlib.contextmanager
    def hold(self, exclusive: bool = False):
        depth, held_exclusive = getattr(self._local, "held", (0, False))
        if depth:
            if exclusive and not held_exclusive:
                raise RuntimeError("a shared store hold cannot become exclusive")
            self._local.held = (depth + 1, held_exclusive)
            try:
                yield
            finally:
                self._local.held = (depth, held_exclusive)
            return
        with open(self.path, "a+") as lock_file:  # closing drops the flock
            if fcntl is not None:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            self._local.held = (1, exclusive)
            try:
                if self._on_acquire is not None:
                    self._on_acquire(exclusive)
                yield
            finally:
                self._local.held = (0, False)


class ChunkStore:
    """Content-addressed chunk storage in append-only segments.

    Each distinct digest is stored once, as one CRC-framed record (see the
    module docstring for the format, the durability model and the
    tombstones a drop appends).  The store counts no references: which
    records live is its caller's mark (a :class:`FileStore` marks every
    file record and the chunks its stored manifests name), :meth:`reap`
    sweeps what is outside it and reaps tmp files, and :meth:`compact`
    rewrites segments that deletes left mostly dead (:meth:`gc` does both).

    :attr:`lock` is the store's :class:`StoreLock` on ``.lock``: a save
    holds it shared from its first write to its commit, a sweep holds it
    exclusive, so no sweep falls between a save's dedup probe and the
    manifest that names what it found.  Each thread that takes it first
    catches up with what other processes did meanwhile (:meth:`catch_up`):
    a save never deduplicates against a record another process's sweep
    deleted, and a sweep marks and sweeps what a fresh open would find, so
    several processes can share one store directory (DESIGN.md §17
    "Bookkeeping").
    """

    def __init__(
        self,
        root: str | Path,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # through a weak reference: a store dropped unclosed lets go of its
        # active segment at once, as a killed process does
        store = weakref.ref(self)
        self.lock = StoreLock(self.root / ".lock",
                              on_acquire=lambda exclusive: store().catch_up(exclusive))
        # every file this store creates: a segment, a compaction output
        self._obs_files_created = obs.registry().counter(
            "mmlib_chunk_files_created_total",
            "Files the chunk store created: segments and compaction outputs")
        self.tmp_grace_s = float(tmp_grace_s)
        self.segment_bytes = int(segment_bytes)
        #: Optional chaos hook with the ``FaultInjector.fail_point``
        #: signature, consulted by long-running maintenance (compaction).
        self.fault_hook = None
        # dedup accounting (in-process, like the network store's transfer
        # accounting), kept under ``_mutex``: logical bytes offered by
        # callers, bytes skipped because the digest was already stored, and
        # record payload bytes physically written
        self.logical_bytes = 0
        self.dedup_bytes = 0
        self.stored_bytes = 0
        self.segments_dir = self.root / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._mutex = threading.RLock()
        self._index: dict[str, tuple[str, int, int, int]] = {}
        # further copies of an indexed key (another process's, or both sides
        # of a compaction a crash cut short); one takes over when it dies
        self._copies: dict[str, list[tuple[str, int, int, int]]] = {}
        self._killed: dict[str, set[int]] = {}  # segment -> offsets tombstones name
        self._segmeta: dict[str, dict] = {}
        self._active_name: str | None = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False  # unsynced appends in the active segment
        self._synced_end = 0  # where the active segment's unsynced appends start
        self._hinted_end = 0  # where its last writeback hint ended
        self._read_files: dict[str, object] = {}
        self._seq = 0
        registry = obs.registry()
        self._obs_fsyncs = registry.counter(
            "mmlib_chunk_fsyncs_total", "fsync calls issued for chunk durability")
        self._obs_logical = registry.counter(
            "mmlib_chunks_logical_bytes_total",
            "Chunk bytes offered to ChunkStore.put")
        self._obs_dedup = registry.counter(
            "mmlib_chunks_dedup_bytes_total",
            "Chunk bytes skipped because the chunk already existed")
        self._obs_stored = registry.counter(
            "mmlib_chunks_stored_bytes_total",
            "Record payload bytes physically written")
        self._obs_appends = registry.counter(
            "mmlib_segment_appends_total", "Chunk records appended to segments")
        self._obs_batches = registry.counter(
            "mmlib_segment_fsync_batches_total", "Group fsync batches flushed")
        self._obs_rolls = registry.counter(
            "mmlib_segment_rolls_total", "Segment files sealed and rolled")
        self._obs_moves = registry.counter(
            "mmlib_segment_compaction_moves_total",
            "Live records rewritten by compaction")
        self._obs_seg_count = registry.gauge(
            "mmlib_segment_count", "Segment files on disk")
        self._obs_live_ratio = registry.gauge(
            "mmlib_segment_live_ratio",
            "Live payload bytes / total payload bytes across segments")
        self._obs_dead = registry.gauge(
            "mmlib_segment_dead_bytes",
            "Dead (compactable) payload bytes across segments")
        with self._mutex:
            self._refresh_locked()
            self._seal_orphans_locked()
            self._update_gauges_locked()

    # -- dedup accounting ------------------------------------------------------

    def _account_put_locked(self, nbytes: int, written: bool) -> None:
        """Record one put of ``nbytes``, under ``_mutex``: written, or
        deduplicated against a stored record."""
        self.logical_bytes += nbytes
        self._obs_logical.inc(nbytes)
        if written:
            self.stored_bytes += nbytes
            self._obs_stored.inc(nbytes)
        else:
            self.dedup_bytes += nbytes
            self._obs_dedup.inc(nbytes)

    def dedup_stats(self) -> dict:
        """Dedup accounting since this store was opened."""
        with self._mutex:
            logical = self.logical_bytes
            dedup = self.dedup_bytes
            stored = self.stored_bytes
        written = logical - dedup
        return {
            "logical_bytes": logical,
            "dedup_bytes": dedup,
            "stored_bytes": stored,
            "dedup_ratio": round(logical / written, 4) if written else None,
        }

    def _tmp_expired(self, path: Path) -> bool:
        """In-flight tmp files get a grace age before they count as orphans."""
        try:
            return path.stat().st_mtime <= time.time() - self.tmp_grace_s
        except FileNotFoundError:
            return False

    # -- locking / other processes' deletes ----------------------------------

    def _hook(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    def catch_up(self, exclusive: bool = False) -> None:
        """Take in what other processes did since this one last looked.

        Runs each time a thread takes :attr:`lock`, shared or exclusive
        alike: one listing of ``segments/`` and one ``stat`` of each unsealed
        segment, whose new records and tombstones are scanned in.  A save
        that starts after another process's sweep therefore never
        deduplicates against what it swept, and a sweep marks from, and
        sweeps, what a fresh open would find.
        """
        with self._mutex:
            self._refresh_locked()

    # -- open / index maintenance -------------------------------------------

    def _set_entry_locked(self, digest: str, entry: tuple[str, int, int, int]) -> None:
        self._drop_entry_locked(digest)
        self._index[digest] = entry
        self._segmeta[entry[0]]["live"] += entry[2]

    def _drop_entry_locked(self, digest: str) -> None:
        entry = self._index.pop(digest, None)
        if entry is not None and entry[0] in self._segmeta:
            self._segmeta[entry[0]]["live"] -= entry[2]

    def _found_locked(self, digest: str, entry: tuple[str, int, int, int]) -> int:
        """Index a record found on disk unless a tombstone names it (1 if
        indexed); a further copy of an indexed key waits in ``_copies``."""
        if entry[1] in self._killed.get(entry[0], ()):
            return 0
        if digest in self._index:
            self._copies.setdefault(digest, []).append(entry)
            return 0
        self._set_entry_locked(digest, entry)
        return 1

    def _kill_locked(self, digest: str, segment: str, offset: int) -> None:
        """The record of ``digest`` at ``offset`` of ``segment`` is dead."""
        self._killed.setdefault(segment, set()).add(offset)
        self._lose_locked(digest, lambda entry: entry[:2] == (segment, offset))

    def _lose_locked(self, digest: str, lost) -> None:
        """Forget the copies of ``digest`` that ``lost(entry)`` says are
        gone; a further copy takes the indexed one's place."""
        copies = [entry for entry in self._copies.pop(digest, ()) if not lost(entry)]
        entry = self._index.get(digest)
        if entry is not None and lost(entry):
            self._drop_entry_locked(digest)
            if copies:
                self._set_entry_locked(digest, copies.pop(0))
        if copies:
            self._copies[digest] = copies

    def _held_locked(self):
        """``(digest, entry)`` of every record found: indexed, or a copy."""
        return itertools.chain(self._index.items(), (
            (digest, copy) for digest, copies in self._copies.items() for copy in copies))

    def _forget_locked(self, names) -> None:
        """Forget segments gone from disk: their records and copies, and the
        offsets tombstones named in them."""
        names = set(names)
        for name in names:
            self._segmeta.pop(name, None)
            self._killed.pop(name, None)
            self._close_read_file(name)
        for digest in {digest for digest, entry in self._held_locked() if entry[0] in names}:
            self._lose_locked(digest, lambda entry: entry[0] in names)

    def _refresh_locked(self) -> int:
        """Take in what changed on disk: what was appended to unsealed
        segments, new segments, and segments gone (compacted or swept away,
        their records with them).  Returns the index entries added."""
        on_disk = {name for name in os.listdir(self.segments_dir)
                   if name.endswith(SEGMENT_SUFFIX)}
        if on_disk != self._segmeta.keys():
            gone = self._segmeta.keys() - on_disk - {self._active_name}
            if gone:
                self._forget_locked(gone)
            for name in sorted(on_disk - self._segmeta.keys()):
                self._seq = max(self._seq, _parse_seq(name))
                self._segmeta[name] = _new_meta()
        # a sealed segment never changes, and our own writer's index is complete
        return sum(self._absorb_segment_locked(name, meta)
                   for name, meta in self._segmeta.items()
                   if not (meta["sealed"] or meta["bad"]) and name != self._active_name)

    def _absorb_segment_locked(self, name: str, meta: dict) -> int:
        path = os.path.join(self.segments_dir, name)
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            return 0
        if size <= meta["scanned"] or size < HEADER.size:
            return 0  # nothing new, or its header still being written
        added = 0
        try:
            with open(path, "rb") as fileobj:
                if meta["scanned"] < HEADER.size:
                    magic, version, _seq = HEADER.unpack(fileobj.read(HEADER.size))
                    if magic != SEGMENT_MAGIC or version != SEGMENT_VERSION:
                        meta["bad"] = True
                        return 0
                    meta["scanned"] = HEADER.size
                catalog = self._read_footer(fileobj, size)
                if catalog is None:
                    return self._scan_records_locked(fileobj, name, meta)
                # sealed: the catalog lists what the scan has not reached
                for digest, off, length, crc in catalog["records"]:
                    if off - RECORD_HEADER.size - len(str(digest).encode()) >= meta["scanned"]:
                        meta["total"] += length
                        added += self._found_locked(digest, (name, off, length, crc))
                meta.update(graves=catalog.get("tombstones", []), scanned=size, sealed=True,
                            total=catalog.get("total", meta["total"]))
                for grave in meta["graves"]:
                    self._kill_locked(*grave)
        except OSError:
            meta["bad"] = True
        return added

    def _scan_records_locked(self, fileobj, name: str, meta: dict) -> int:
        """Sequentially absorb crc-valid records; stop at the first tear.

        A bad record with a whole record after it is damage, not a tear:
        the scan resumes at the next whole record, and the bad one is
        reported by :meth:`audit` as a CRC failure while its segment lasts.
        """
        size = os.fstat(fileobj.fileno()).st_size

        def read(count: int) -> bytes:
            # never past the size fstat saw: a length field past the file's
            # end (a flipped high bit) reads short instead of allocating what
            # it claims, and what another process appends meanwhile waits
            # for the next scan
            return fileobj.read(max(0, min(count, size - fileobj.tell())))

        added = 0
        offset = meta["scanned"]
        fileobj.seek(offset)
        while True:
            record = read_record(read)
            if record is None:
                fileobj.seek(offset)
                rest = read(size - offset)
                resume = next_whole_record(rest, 0)
                if resume is None:
                    break  # footer or a torn append: the valid prefix ends here
                key_length = (RECORD_HEADER.unpack_from(rest)[1]
                              if rest.startswith(RECORD_MAGIC) else 0)
                key = rest[RECORD_HEADER.size:RECORD_HEADER.size + key_length]
                meta["damaged"].append(key.decode("utf-8", "replace") or f"{name}@{offset}")
                offset += resume
                fileobj.seek(offset)
                continue
            key_raw, data, crc = record
            key = key_raw.decode("utf-8", "replace")
            payload_off = offset + RECORD_HEADER.size + len(key_raw)
            if key.startswith("."):  # a tombstone
                meta["graves"].append([key[1:], *json.loads(data)])
                self._kill_locked(*meta["graves"][-1])
            else:
                meta["total"] += len(data)
                added += self._found_locked(key, (name, payload_off, len(data), crc))
            offset = payload_off + len(data)
        meta["scanned"] = offset
        return added

    @staticmethod
    def _read_footer(fileobj, size: int) -> dict | None:
        """The catalog of a segment ``size`` bytes long that ends in an
        intact footer, else ``None``."""
        try:
            fileobj.seek(size - FOOTER_TAIL.size)
            records_end, crc, end_magic = FOOTER_TAIL.unpack(fileobj.read(FOOTER_TAIL.size))
            if end_magic != FOOTER_END_MAGIC or records_end > size:
                return None
            fileobj.seek(records_end)
            magic, length = FOOTER_HEAD.unpack(fileobj.read(FOOTER_HEAD.size))
            if magic != FOOTER_MAGIC or size != (
                    records_end + FOOTER_HEAD.size + length + FOOTER_TAIL.size):
                return None
            blob = fileobj.read(length)  # bounded by the file: never a huge allocation
            catalog = json.loads(blob) if zlib.crc32(blob) == crc else None
        except (OSError, ValueError, struct.error):
            return None
        return catalog if isinstance(catalog, dict) and "records" in catalog else None

    def _orphan(self, name: str):
        """Segment ``name`` open for writing under its writer's ``flock``,
        taken because its writer is gone (without ``flock``: once it outlived
        the tmp grace age); ``None`` while a writer holds it."""
        path = self.segments_dir / name
        try:
            fileobj = open(path, "r+b", buffering=0)
        except FileNotFoundError:
            return None
        try:
            if fcntl is not None:
                fcntl.flock(fileobj.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            elif not self._tmp_expired(path):
                raise BlockingIOError(name)
        except OSError:
            fileobj.close()
            return None
        return fileobj

    def _seal_orphans_locked(self, repair: bool = False) -> list[str]:
        """Seal each unsealed segment whose writer is gone, so no later open
        scans it again.  Returns those with garbage past their last whole
        record: only ``repair`` cuts it off and seals them.  A segment with
        a damaged record is cut but stays unsealed, for :meth:`audit` to
        report while it lasts."""
        torn = []
        for name, meta in sorted(self._segmeta.items()):
            if meta["sealed"] or meta["bad"] or name == self._active_name:
                continue
            fileobj = self._orphan(name)
            if fileobj is None:
                continue
            with fileobj:
                self._absorb_segment_locked(name, meta)  # its last appends, or a seal
                if meta["sealed"] or meta["bad"] or meta["scanned"] < HEADER.size:
                    continue
                if os.fstat(fileobj.fileno()).st_size > meta["scanned"]:
                    torn.append(name)
                    if not repair:
                        continue
                if meta["damaged"]:
                    fileobj.truncate(meta["scanned"])
                else:
                    self._seal_locked(name, fileobj, meta["scanned"])
        return torn

    def _close_read_file(self, name: str) -> None:
        fileobj = self._read_files.pop(name, None)
        if fileobj is not None:
            try:
                fileobj.close()
            except OSError:
                pass

    # -- append path ---------------------------------------------------------

    def _next_segment_name(self) -> str:
        self._seq += 1
        return f"seg-{self._seq:010d}-{uuid.uuid4().hex[:8]}{SEGMENT_SUFFIX}"

    def _ensure_active_locked(self) -> None:
        if self._active_file is not None:
            return
        name = self._next_segment_name()
        path = self.segments_dir / name
        fileobj = open(path, "wb", buffering=0)  # every append lands in the OS
        if fcntl is not None:  # held until it is sealed: no one seals or unlinks it
            fcntl.flock(fileobj.fileno(), fcntl.LOCK_EX)
        self._obs_files_created.inc()
        fileobj.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))
        fsync_dir(self.segments_dir)  # its name outlives a crash as its records do
        self._active_name = name
        self._active_file = fileobj
        self._active_end = HEADER.size
        self._segmeta[name] = dict(_new_meta(), scanned=HEADER.size)

    @staticmethod
    def _check_digest(digest: str) -> None:
        if not digest or "/" in digest or digest.startswith("."):
            raise ValueError(f"invalid chunk digest: {digest!r}")

    def put(self, digest: str, buffer) -> bool:
        """Store ``buffer`` under ``digest`` if absent; True iff written.

        ``buffer`` may be any bytes-like object (``memoryview``s are
        written without an intermediate copy).  Content-addressing makes
        the write idempotent: an existing chunk is never rewritten.  The
        record is acknowledged once it is in the OS; :meth:`flush` makes
        it durable.
        """
        self._check_digest(digest)
        with self._mutex:
            if digest in self._index:
                self._account_put_locked(_buffer_nbytes(buffer), written=False)
                return False
            view = memoryview(buffer)
            if view.ndim != 1 or view.format != "B":
                view = (view.cast("B") if view.contiguous
                        else memoryview(bytes(view)))
            entry = self._append_locked(digest, view)
            self._set_entry_locked(digest, entry)
            self._segmeta[entry[0]]["total"] += view.nbytes
            self._account_put_locked(view.nbytes, written=True)
            self._obs_appends.inc()
            if self._active_end >= self.segment_bytes:
                self._roll_locked()
        return True

    def _append_locked(self, key: str, view: memoryview) -> tuple[str, int, int, int]:
        """Append one record to the active segment, unsynced until
        :meth:`flush`; returns its ``(segment, payload offset, length, crc)``."""
        self._ensure_active_locked()
        if not self._dirty:
            self._synced_end = self._hinted_end = self._active_end
        key_raw = key.encode("utf-8")
        crc = zlib.crc32(view)
        head = record_header(key_raw, crc, view.nbytes)
        fileobj = self._active_file
        fileobj.seek(self._active_end)  # overwrite any earlier torn tail
        write_all(fileobj, head)
        write_all(fileobj, key_raw)
        write_all(fileobj, view)
        payload_off = self._active_end + len(head) + len(key_raw)
        self._active_end = payload_off + view.nbytes
        self._segmeta[self._active_name]["scanned"] = self._active_end
        if self._active_end - self._hinted_end >= WRITEBACK_BYTES:
            _start_writeback(fileobj.fileno(), self._hinted_end,
                             self._active_end - self._hinted_end)
            self._hinted_end = self._active_end
        self._dirty = True
        return self._active_name, payload_off, view.nbytes, crc

    def write_torn(self, digest: str, buffer) -> Path:
        """Simulate a torn append: half a record lands past the logical end.

        The end pointer does not advance, so a retry overwrites the tear
        in place — and after a crash the scan's crc check rejects it.
        """
        self._check_digest(digest)
        data = bytes(buffer)
        with self._mutex:
            self._ensure_active_locked()
            digest_raw = digest.encode("utf-8")
            head = record_header(digest_raw, zlib.crc32(data), len(data))
            record = head + digest_raw + data
            fileobj = self._active_file
            fileobj.seek(self._active_end)
            write_all(fileobj, record[: max(1, len(record) // 2)])
            return self.segments_dir / self._active_name

    def flush(self) -> int:
        """One group fsync for every append since the last flush.

        A save flushes once before publishing its manifest, so no save is
        acknowledged before its bytes are on disk, and a drop before it
        returns, so no dropped record comes back.  The synced records are
        their own index entries: a save writes what it appended.
        """
        with self._mutex:
            synced = self._sync_locked()
            self._update_gauges_locked()
            return synced

    def _sync_locked(self) -> int:
        if not (self._dirty and self._active_file is not None):
            return 0
        os.fsync(self._active_file.fileno())
        self._dirty = False
        self._obs_fsyncs.inc()
        self._obs_batches.inc()
        return 1

    def synced(self, digest: str) -> bool:
        """True unless the record under ``digest`` waits for :meth:`flush`.

        A cluster's save barrier asks this of a replica whose put found
        the record already there: a copy that a read repair, heal or
        concurrent save appended and nobody has flushed yet still needs
        the barrier.
        """
        with self._mutex:
            entry = self._index.get(digest)
            return not (
                self._dirty
                and entry is not None
                and entry[0] == self._active_name
                and entry[1] >= self._synced_end
            )

    def _roll_locked(self) -> None:
        self._seal_locked(self._active_name, self._active_file, self._active_end)
        if self._dirty:
            self._obs_batches.inc()
        self._active_file.close()
        self._active_name = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False
        self._obs_rolls.inc()

    def _seal_locked(self, name: str, fileobj, end: int) -> None:
        """Cut segment ``name`` (open as ``fileobj``) off at ``end``, past
        its last whole record, and append its footer, fsynced."""
        meta = self._segmeta[name]
        fileobj.truncate(end)  # drop torn garbage past the end
        records = sorted([d, *e[1:]] for d, e in self._held_locked() if e[0] == name)
        footer = self._pack_footer(end, records, meta)
        fileobj.seek(end)
        write_all(fileobj, footer)
        os.fsync(fileobj.fileno())
        self._obs_fsyncs.inc()
        meta["sealed"] = True
        meta["scanned"] = end + len(footer)

    @staticmethod
    def _pack_footer(end: int, records: list, meta: dict) -> bytes:
        blob = json.dumps({"end": end, "records": records, "tombstones": meta["graves"],
                           "total": meta["total"]}, sort_keys=True).encode()
        return (FOOTER_HEAD.pack(FOOTER_MAGIC, len(blob)) + blob
                + FOOTER_TAIL.pack(end, zlib.crc32(blob), FOOTER_END_MAGIC))

    # -- read path -----------------------------------------------------------

    def has(self, digest: str) -> bool:
        self._check_digest(digest)
        with self._mutex:
            return digest in self._index

    def missing(self, digests: Iterable[str]) -> list[str]:
        """The ``digests`` this store holds no record of, under one lock."""
        with self._mutex:
            return [digest for digest in dict.fromkeys(digests) if digest not in self._index]

    def get(self, digest: str):
        """One chunk's bytes, CRC-checked, in a buffer the caller owns.

        The record is read into a fresh ``bytearray`` and returned as that
        buffer (writable, so a recover can adopt it instead of copying).
        """
        return self.get_many([digest])[digest]

    def get_many(self, digests: Iterable[str], crc: bool = True,
                 crcs: dict | None = None) -> dict:
        """:meth:`get` for a batch: digest -> bytes, in one pass.

        Every index entry is looked up under one hold of the lock; the
        records are then read in (segment, offset) order, each run of
        records that lie back to back in one segment with a single scatter
        ``os.preadv`` (split at ``IOV_MAX`` buffers and ``MAX_RUN_BYTES``).
        The lock is held for one run at a time, so a large batch does not
        stall a concurrent ``put``/``flush``/``gc`` for its whole read.
        Every payload lands in its own ``bytearray``, as with :meth:`get`;
        the record header between two payloads lands in a scratch buffer.
        A digest the index lacks, or a record that cannot be read (its
        segment was compacted away since the lookup), costs one refresh for
        the whole batch, then :class:`ChunkNotFoundError`.

        ``crc=False`` skips the record CRC.  Only a caller that checks the
        content digest of every returned payload itself, before anything
        else sees it, may pass it (:meth:`FileStore.recover_state_chunks`):
        the digest check is the stronger of the two, and one check per
        byte is enough.  With ``crc``, a ``crcs`` dict receives digest ->
        the record CRC each payload matched, once the whole batch has.
        """
        digests = list(dict.fromkeys(digests))
        for digest in digests:
            self._check_digest(digest)
        with self._mutex:
            entries = {digest: self._index.get(digest) for digest in digests}
        payloads = self._read_entries(entries)
        unread = [digest for digest in digests if digest not in payloads]
        if unread:
            # another process appended, or compaction moved a segment
            with self._mutex:
                self._refresh_locked()
                retry = {digest: self._index.get(digest) for digest in unread}
            entries.update(retry)
            payloads.update(self._read_entries(retry))
        for digest in digests:
            data = payloads.get(digest)
            if data is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            if crc and zlib.crc32(data) != entries[digest][3]:
                raise StoreCorruptionError(
                    f"chunk {digest!r} is corrupt: segment record failed its "
                    f"CRC check")
        if crc and crcs is not None:
            crcs.update((digest, entries[digest][3]) for digest in digests)
        return payloads

    def _read_entries(self, entries: Mapping) -> dict[str, bytearray]:
        """Read every located record, one scatter read per back-to-back run,
        each under its own hold of the lock.

        A record continues the run when its payload starts exactly one
        record header (plus its digest) past the previous payload's end.
        Records of a run that cannot be read are left out of the result.
        """
        located = sorted(
            (entry[0], entry[1], digest)
            for digest, entry in entries.items() if entry is not None)
        payloads: dict[str, bytearray] = {}
        max_run = (IOV_MAX + 1) // 2  # k payloads + (k - 1) headers
        run: list[tuple[str, tuple, int]] = []  # (digest, entry, gap before it)
        run_bytes = 0
        for name, off, digest in located:
            entry = entries[digest]
            gap = 0
            if run:
                last = run[-1][1]
                gap = off - last[1] - last[2]
                if (
                    name != last[0]
                    or gap != RECORD_HEADER.size + len(digest.encode("utf-8"))
                    or len(run) == max_run
                    or run_bytes + entry[2] > MAX_RUN_BYTES
                ):
                    with self._mutex:
                        payloads.update(self._read_run_locked(run))
                    run, gap, run_bytes = [], 0, 0
            run.append((digest, entry, gap))
            run_bytes += entry[2]
        if run:
            with self._mutex:
                payloads.update(self._read_run_locked(run))
        return payloads

    def _read_run_locked(self, run: list[tuple[str, tuple, int]]) -> dict[str, bytearray]:
        fileobj = self._read_file_locked(run[0][1][0])
        if fileobj is None:
            return {}
        scratch = memoryview(bytearray(max(gap for _, _, gap in run)))
        buffers: list = []
        payloads: dict[str, bytearray] = {}
        for digest, entry, gap in run:
            if gap:
                buffers.append(scratch[:gap])
            payloads[digest] = bytearray(entry[2])
            buffers.append(payloads[digest])
        first, last = run[0][1], run[-1][1]
        expected = last[1] + last[2] - first[1]
        try:
            if expected and os.preadv(fileobj.fileno(), buffers, first[1]) != expected:
                return {}
        except OSError:
            return {}
        return payloads

    def _read_file_locked(self, name: str):
        fileobj = self._read_files.get(name)
        if fileobj is None:
            try:
                fileobj = open(self.segments_dir / name, "rb")
            except FileNotFoundError:
                return None
            self._read_files[name] = fileobj
        return fileobj

    def _read_intact_locked(self, entry) -> bytearray | None:
        """One record's payload, or ``None`` when it cannot be read or fails
        its CRC — a record nothing may rewrite (compaction, the importer)
        or vouch for (the audit)."""
        data = self._read_run_locked([("", entry, 0)]).get("")
        return data if data is not None and zlib.crc32(data) == entry[3] else None

    def size_of(self, digest: str) -> int | None:
        """Size of one chunk's bytes, or ``None`` when it is not stored."""
        self._check_digest(digest)
        with self._mutex:
            entry = self._index.get(digest)
        return None if entry is None else entry[2]

    def drop(self, digest: str) -> bool:
        """Delete one record whatever marks it; True iff it was stored
        (repair and heal primitive: :meth:`drop_many` of one key)."""
        return bool(self.drop_many([digest]))

    def drop_many(self, digests: Iterable[str]) -> list[str]:
        """Delete the records under ``digests``; returns those that were
        stored.  Each copy of one gets a tombstone in the active segment,
        and one :meth:`flush` makes the batch durable, under :attr:`lock`
        held shared."""
        with self.lock.hold(), self._mutex:
            dropped = self._drop_locked(digests)
            self._sync_locked()
            self._update_gauges_locked()
        return dropped

    def _drop_locked(self, digests: Iterable[str]) -> list[str]:
        dropped = [digest for digest in dict.fromkeys(digests) if digest in self._index]
        for digest in dropped:
            for entry in [self._index[digest], *self._copies.get(digest, ())]:
                self._bury_locked(digest, entry)
        return dropped

    def _bury_locked(self, digest: str, entry: tuple) -> None:
        """Append a tombstone naming the record of ``digest`` at ``entry``,
        and kill that record."""
        name = self._append_locked("." + digest, memoryview(json.dumps(entry[:2]).encode()))[0]
        self._segmeta[name]["graves"].append([digest, entry[0], entry[1]])
        self._kill_locked(digest, entry[0], entry[1])
        if self._active_end >= self.segment_bytes:
            self._roll_locked()

    def sweep(self, live, repair: bool = True) -> list[str]:
        """The stored keys outside ``live``, deleted with ``repair``."""
        with self._mutex:
            doomed = sorted(digest for digest in self._index if digest not in live)
        return self.drop_many(doomed) if repair else doomed

    def gc(self, live=None) -> dict:
        """:meth:`reap` every record outside ``live``, then :meth:`compact`
        once the exclusive hold is released."""
        swept = self.reap(live)
        compacted = self.compact()
        return dict(swept, segments_compacted=compacted["segments_compacted"],
                    segments_skipped=compacted["segments_skipped"])

    def reap(self, live=None) -> dict:
        """Sweep every record outside ``live`` and reap *expired* tmp files,
        under :attr:`lock` held exclusive; returns ``chunks_removed`` and
        ``bytes_freed``.

        ``live`` is the caller's mark (``None``: keep every record); the
        caller takes the lock exclusive before it marks, so no save falls
        between the mark and this sweep.  Tmp files younger than
        ``tmp_grace_s`` are left alone: a concurrent in-flight writer may
        still own them.  Partial segments left by a crash mid-roll or
        mid-compaction get the same grace-age sweep.
        """
        with self.lock.hold(exclusive=True), self._mutex:
            doomed = [] if live is None else self.sweep(live, repair=False)
            freed = sum(self._index[digest][2] for digest in doomed)
            removed = len(self._drop_locked(doomed))
            self._sync_locked()  # the tombstones, before any segment goes
            self._seal_orphans_locked()
            for path in [*self.segments_dir.glob("*.tmp"), *self.root.glob("*.tmp")]:
                if not self._tmp_expired(path):
                    continue
                try:
                    freed += path.stat().st_size
                except FileNotFoundError:
                    continue
                path.unlink(missing_ok=True)
                removed += 1
            self._drop_dead_segments_locked()
            self._update_gauges_locked()
        return {"chunks_removed": removed, "bytes_freed": freed}

    def _drop_dead_segments_locked(self) -> None:
        """Unlink segments no index entry references.

        A segment stays while a tombstone in it names a segment that stays,
        and the segments tombstones name go before those tombstones: a
        reopen never finds a killed record without what kills it.  An
        unsealed segment falls only once its writer is gone (see
        :meth:`_orphan`) and it has outlived the tmp grace age, which covers
        a writer between creating its segment and locking it: an idle
        writer's segment, tombstones only, is still where its next put goes.
        """
        held = {entry[0] for entry in self._index.values()}

        def orphaned(name: str) -> bool:
            if not self._tmp_expired(self.segments_dir / name):
                return False
            fileobj = self._orphan(name)
            if fileobj is not None:
                fileobj.close()
            return fileobj is not None

        dead = {name for name, meta in self._segmeta.items()
                if name != self._active_name and name not in held
                and (meta["sealed"] or orphaned(name))}

        def names(name: str, among: set) -> bool:
            return any(grave[1] in among and grave[1] != name
                       for grave in self._segmeta[name]["graves"])

        staying = set(self._segmeta) - dead
        while keep := {name for name in dead if names(name, staying)}:
            dead -= keep
            staying |= keep
        while dead:
            gone = {name for name in dead if not names(name, dead)} or dead  # or a cycle
            for name in sorted(gone):
                (self.segments_dir / name).unlink(missing_ok=True)
            self._forget_locked(gone)  # and closes their read handles
            dead -= gone

    # -- compaction -----------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite low-live-ratio sealed segments into one fresh segment.

        The destination's atomic rename is the commit point; a crash
        before or after it needs no resume (see the module docstring).  A
        segment holding a record that fails its CRC is left out, whole,
        for fsck to report and read repair to heal.  Returns move/reclaim
        statistics, the segments left out under ``segments_skipped``.
        Runs under :attr:`lock` held shared: saves go on, a sweep waits.
        """
        stats = {"segments_compacted": 0, "records_moved": 0, "bytes_reclaimed": 0}
        with self.lock.hold(), self._mutex:
            self._drop_dead_segments_locked()
            victims = set(self._compaction_victims_locked())
            skipped = {entry[0] for entry in self._index.values()
                       if entry[0] in victims and self._read_intact_locked(entry) is None}
            stats["segments_skipped"] = len(skipped)
            if victims <= skipped:
                self._update_gauges_locked()
                return stats
            return dict(stats, **self._compact_locked(sorted(victims - skipped)))

    def _compaction_victims_locked(self) -> list[str]:
        # a fully dead segment is not one: _drop_dead_segments_locked unlinks it
        return [name for name, meta in sorted(self._segmeta.items())
                if meta["sealed"] and not meta["bad"] and name != self._active_name
                and 0 < meta["live"] < COMPACT_THRESHOLD * meta["total"]]

    def _compact_locked(self, victims: list[str]) -> dict:
        self._hook("chunk.compact")
        dest = self._next_segment_name()
        victim_set = set(victims)
        moves = [
            (digest, entry)
            for digest, entry in sorted(self._index.items())
            if entry[0] in victim_set
        ]
        dead = sum(self._segmeta[v]["total"] for v in victims) - sum(
            entry[2] for _d, entry in moves)
        # a tombstone naming a victim moves too: the victims go in any order
        meta = dict(_new_meta(), sealed=True, graves=[
            grave for name in victims for grave in self._segmeta[name]["graves"]
            if grave[1] in self._segmeta])
        tmp_path = self.segments_dir / (dest + ".tmp")
        new_entries: dict[str, tuple[str, int, int, int]] = {}
        offset = hinted = HEADER.size
        # a crash or corruption before the commit point leaves a partial
        # tmp for the grace sweep: the victims are untouched
        with open(tmp_path, "wb") as out:
            self._obs_files_created.inc()
            out.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))

            def emit(key: str, data, crc: int) -> int:
                key_raw = key.encode("utf-8")
                out.write(record_header(key_raw, crc, len(data)))
                out.write(key_raw)
                out.write(data)
                return offset + RECORD_HEADER.size + len(key_raw)

            for digest, entry in moves:
                payload = self._read_intact_locked(entry)
                if payload is None:
                    raise StoreCorruptionError(
                        f"chunk {digest!r} is corrupt: compaction read "
                        f"failed its CRC check")
                payload_off = emit(digest, payload, entry[3])
                new_entries[digest] = (dest, payload_off, entry[2], entry[3])
                offset = payload_off + entry[2]
                meta["total"] += entry[2]
                if offset - hinted >= WRITEBACK_BYTES:
                    out.flush()  # the hinted range must be in the file
                    _start_writeback(out.fileno(), hinted, offset - hinted)
                    hinted = offset
                self._obs_moves.inc()
                self._hook("chunk.compact")
            for digest, segment, off in meta["graves"]:
                data = json.dumps([segment, off]).encode()
                offset = emit("." + digest, data, zlib.crc32(data)) + len(data)
            records = sorted(
                [d, e[1], e[2], e[3]] for d, e in new_entries.items())
            out.write(self._pack_footer(offset, records, meta))
            out.flush()
            os.fsync(out.fileno())
            self._obs_fsyncs.inc()
        self._hook("chunk.compact")
        tmp_path.replace(self.segments_dir / dest)  # commit point
        fsync_dir(self.segments_dir)
        self._hook("chunk.compact")
        self._segmeta[dest] = dict(meta, scanned=(self.segments_dir / dest).stat().st_size)
        for digest, entry in new_entries.items():
            self._set_entry_locked(digest, entry)
        # past the commit point a reopen finds each moved record twice until
        # its victim is unlinked: either copy is the record
        for name in victims:
            (self.segments_dir / name).unlink(missing_ok=True)
            self._hook("chunk.compact")
        self._forget_locked(victims)
        self._drop_dead_segments_locked()  # what only named the victims
        self._update_gauges_locked()
        return {
            "segments_compacted": len(victims),
            "records_moved": len(moves),
            "bytes_reclaimed": max(0, dead),
        }

    # -- audit / stats ---------------------------------------------------------

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Segment-layer fsck step: footers, tears, index bounds, crcs.

        Absorbs any unindexed records, truncates torn tails, drops index
        entries that point outside their segment, and reaps expired
        partial segments.
        With ``verify`` every live record's payload is crc-checked.
        """
        outcome = {
            "layout": "segments",
            "segments_checked": 0,
            "torn_segments": [],
            "tmp_segments_removed": 0,
            "entries_added": 0,
            "entries_dropped": [],
            "crc_failures": [],
        }
        with self._mutex:
            outcome["entries_added"] = self._refresh_locked()
            torn = set(self._seal_orphans_locked(repair))
            sizes: dict[str, int] = {}  # of each segment not bad
            for name, meta in sorted(self._segmeta.items()):
                outcome["segments_checked"] += 1
                path = self.segments_dir / name
                if meta["bad"]:
                    outcome["torn_segments"].append(name)
                    if repair and name != self._active_name:
                        path.unlink(missing_ok=True)
                        self._forget_locked([name])
                    continue
                try:
                    size = sizes[name] = path.stat().st_size
                except FileNotFoundError:
                    continue
                if name == self._active_name:
                    logical = self._active_end
                    if size > logical:
                        outcome["torn_segments"].append(name)
                        if repair:
                            self._active_file.truncate(logical)
                elif name in torn:  # trailing garbage a dead writer left
                    outcome["torn_segments"].append(name)
            for digest, entry in sorted(self._index.items()):
                name, off, length, _crc = entry
                if off + length > sizes.get(name, -1):
                    outcome["entries_dropped"].append(digest)
                    if repair:
                        self._bury_locked(digest, entry)
                    continue
                if verify and self._read_intact_locked(entry) is None:
                    outcome["crc_failures"].append(digest)
            for _name, meta in sorted(self._segmeta.items()):
                # a key written again since reads back whole from its new record
                outcome["crc_failures"] += [
                    key for key in meta["damaged"] if key not in self._index]
            for path in self.segments_dir.glob("*.tmp"):
                if self._tmp_expired(path):
                    outcome["tmp_segments_removed"] += 1
                    if repair:
                        path.unlink(missing_ok=True)
            if repair:
                self._sync_locked()
                self._update_gauges_locked()
        return outcome

    def segment_stats(self) -> dict:
        """Gauge-style snapshot: counts, live ratio, compaction debt.

        From the per-segment running totals: O(segments), not O(chunks).
        """
        with self._mutex:
            live = sum(meta["live"] for meta in self._segmeta.values())
            total = sum(max(meta["total"], meta["live"]) for meta in self._segmeta.values())
            debt = sum(meta["total"] - meta["live"] for name, meta in self._segmeta.items()
                       if name != self._active_name
                       and meta["live"] < COMPACT_THRESHOLD * meta["total"])
            return {
                "layout": "segments",
                "segment_count": len(self._segmeta),
                "sealed_segments": sum(
                    1 for m in self._segmeta.values() if m["sealed"]),
                "chunks": len(self._index),
                "live_bytes": live,
                "dead_bytes": max(0, total - live),
                "live_ratio": (live / total) if total else 1.0,
                "compaction_debt_bytes": debt,
            }

    def _update_gauges_locked(self) -> None:
        stats = self.segment_stats()
        self._obs_seg_count.set(stats["segment_count"])
        self._obs_live_ratio.set(stats["live_ratio"])
        self._obs_dead.set(stats["dead_bytes"])

    def chunk_ids(self) -> list[str]:
        with self._mutex:
            return sorted(self._index)

    def total_bytes(self) -> int:
        """At-rest bytes held by live chunk payloads (deduplicated storage)."""
        with self._mutex:
            return sum(entry[2] for entry in self._index.values())

    def __len__(self) -> int:
        with self._mutex:
            return len(self._index)

    def close(self) -> None:
        """Seal the active segment (its footer, one fsync), so a reopen
        reads a footer instead of scanning it, and release file handles.
        A segment its writer left unsealed (a crash, or no close) is
        scanned by the next open, which seals it once no one holds it."""
        with self._mutex:
            if self._active_file is not None:
                self._roll_locked()
            for name in list(self._read_files):
                self._close_read_file(name)
