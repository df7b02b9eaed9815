"""The content-addressed chunk store: records in append-only segments.

Chunks are appended as records to large append-only *segment* files and
located through an in-memory index (``digest -> (segment, offset,
length, crc)``), LSM-style:

* **Group fsync** — appends are acknowledged immediately and made
  durable by one batched :meth:`ChunkStore.flush` per save, so a
  thousand-chunk save costs one fsync instead of a thousand.
* **Sealed segments carry a footer** — a catalog of their records — so
  reopening a store bulk-loads the index from footers instead of
  rescanning payloads.
* **A segment is the log of its own appends** — on open, the bytes past
  each segment's checkpointed scan offset are rescanned, CRC-checked, so
  an appended record needs no other bookkeeping to be found again.  The
  index checkpoint (``index.json``, rewritten whole) is written only
  where it says what the segments cannot: when a segment is sealed, when
  a record is deleted (a deliberately deleted record must never be
  resurrected by a rescan), after a compaction, after an open that had
  to rescan, and at :meth:`ChunkStore.close`.  A save writes none; a
  reopen after ``kill -9`` rescans at most the one unsealed tail
  (DESIGN.md §17 "Bookkeeping").
* **Compaction** — segments whose live ratio drops below a threshold
  are rewritten into a fresh sealed segment.  The rewrite is journaled
  (``compaction.json``) and resumable: the atomic rename of the
  destination segment is the commit point, a crash before it rolls
  back, a crash after it rolls forward.

On-disk format (all integers little-endian):

* segment header: ``MMSEG1\\n\\0`` magic, u32 version, u64 sequence,
  zero-padded to 32 bytes;
* record: ``MMRC`` magic, u16 digest length, u16 flags, u32 payload
  crc32, u64 payload length, then the digest bytes and the payload;
* footer (sealed segments only): ``MMFT`` magic, u32 catalog length,
  the JSON catalog, then a fixed tail of u64 records-end offset, u32
  catalog crc32, and ``MMSE`` end magic — parseable backwards from EOF.

A torn append is detected by the record crc at scan time and never
advances the logical end, so a retry overwrites the tear in place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import time
import uuid
import zlib
from pathlib import Path
from typing import Iterable, Mapping

from .. import obs
from ..errors import StoreCorruptionError
from . import codecs as chunk_codecs

try:
    import fcntl
except ImportError:  # non-posix platform: single-process locking only
    fcntl = None

__all__ = ["ChunkStore", "ChunkNotFoundError", "DEFAULT_SEGMENT_BYTES"]

#: Tmp files younger than this are assumed in-flight and never reaped —
#: a concurrent saver may still be writing them.
DEFAULT_TMP_GRACE_S = 600.0

#: Segments roll (seal + start a new one) once records cross this size.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Compaction rewrites sealed segments whose live ratio falls below this.
COMPACT_THRESHOLD = 0.5

SEGMENT_SUFFIX = ".seg"
SEGMENT_MAGIC = b"MMSEG1\n\x00"
SEGMENT_VERSION = 1
#: Fixed-size segment header: magic + version + sequence, zero-padded.
HEADER = struct.Struct("<8sIQ12x")
RECORD_MAGIC = b"MMRC"
#: Record header: magic, digest length, flags, payload crc32, payload length.
RECORD_HEADER = struct.Struct("<4sHHIQ")
FOOTER_MAGIC = b"MMFT"
FOOTER_END_MAGIC = b"MMSE"
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


class ChunkNotFoundError(KeyError):
    """Raised when fetching a chunk digest the store does not hold."""


def _buffer_nbytes(buffer) -> int:
    if isinstance(buffer, memoryview):
        return buffer.nbytes
    return len(buffer)


def _encode_refs(counts: Mapping[str, int]) -> bytes:
    """One refcount log record (no line terminator)."""
    return json.dumps(counts, sort_keys=True, separators=(",", ":")).encode()


def _decode_refs(line: bytes) -> dict[str, int] | None:
    """The record on one refcount log line (none on a blank one); ``None``
    when the line is not a record."""
    if not line.strip():
        return {}
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if isinstance(record, dict) and all(type(c) is int for c in record.values()):
        return record
    return None


def _ref_bytes(digest: str, count: int) -> int:
    """Bytes one entry takes in a folded record: quotes, colon, comma."""
    return len(digest) + len(str(count)) + 4


def _parse_seq(name: str) -> int | None:
    parts = name.split("-")
    if len(parts) >= 2 and parts[0] == "seg":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


def _new_meta() -> dict:
    # total/live: payload bytes of every record appended / still indexed
    return {"scanned": 0, "total": 0, "live": 0, "sealed": False, "bad": False}


class ChunkStore:
    """Content-addressed, ref-counted chunk storage in append-only segments.

    Each distinct digest is stored once, as one CRC-framed record (see the
    module docstring for the format, the durability model and when the
    index is checkpointed).  Reference counts track how many manifests
    point at each chunk (a file record keyed by its file id holds one, its
    own); :meth:`release_refs` deletes records whose count drops to zero,
    and :meth:`gc` sweeps orphans (e.g. chunks written by a save that
    crashed before its manifest) and compacts segments.

    The counts live in ``refcounts.json``, an append-only log: one JSON
    object per line mapping digest to its *absolute* count (0: gone),
    later lines win.  Taking references appends one line, so a save costs
    what it touches, not what the store holds; the file is folded back
    into one record when a release rewrites it or once its dead bytes
    exceed the live ones.  Every access holds an ``flock`` and first
    replays what was appended since its last one, so several processes
    can share one store directory (DESIGN.md §17 "Bookkeeping").

    A chunk root written by the older file-per-chunk layout is imported
    once, on open (:meth:`_import_legacy_chunks`); :meth:`import_files`
    does the same for the files an older file store kept in its root.
    """

    def __init__(
        self,
        root: str | Path,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._refs_path = self.root / "refcounts.json"
        self._lock_path = self.root / ".lock"
        # the refcount table as of the first ``_refs_end`` bytes of the log;
        # ``_refs_file`` stays open on the file those bytes were read from
        self._refs_mutex = threading.Lock()
        self._refs: dict[str, int] = {}
        self._refs_file = None
        self._refs_end = 0
        self._refs_live = 0  # bytes the table takes as one folded record
        self.tmp_grace_s = float(tmp_grace_s)
        self.segment_bytes = int(segment_bytes)
        #: Optional chaos hook with the ``FaultInjector.fail_point``
        #: signature, consulted by long-running maintenance (compaction)
        #: and between the steps of a refcount write.
        self.fault_hook = None
        # dedup accounting (in-process, like the network store's transfer
        # accounting): logical bytes offered by callers, bytes skipped
        # because the digest was already stored, and record payload bytes
        # physically written
        self._acct_lock = threading.Lock()
        self.logical_bytes = 0
        self.dedup_bytes = 0
        self.stored_bytes = 0
        self.segments_dir = self.root / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._checkpoint_path = self.root / "index.json"
        self._compaction_path = self.root / "compaction.json"
        self._mutex = threading.RLock()
        self._index: dict[str, tuple[str, int, int, int]] = {}
        self._segmeta: dict[str, dict] = {}
        self._active_name: str | None = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False  # unsynced appends in the active segment
        self._synced_end = 0  # where the active segment's unsynced appends start
        # index differs from index.json; written out by whatever deletes,
        # seals or closes — never by a save (its appends are rescannable)
        self._index_dirty = False
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
            "Record payload bytes physically written (raw, escape-framed when "
            "they start with the frame magic)")
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
            self._load_checkpoint()
            self._resume_compaction_locked()
            self._refresh_locked()
            if self._index_dirty:
                # an unclean shutdown's tail was rescanned: once, not per open
                self._write_checkpoint_locked()
            self._update_gauges_locked()
        self._import_legacy_chunks()

    # -- record framing / dedup accounting -----------------------------------

    @staticmethod
    def _encode(view: memoryview):
        """At-rest payload for one chunk: the raw bytes, zero-copy — unless
        they start with the frame magic, which is escape-framed so
        :meth:`_decode` stays unambiguous (see
        :mod:`repro.filestore.codecs`)."""
        if bytes(view[:4]) != chunk_codecs.FRAME_MAGIC:
            return view
        return chunk_codecs.escape(view)

    @staticmethod
    def _decode(payload):
        """Chunk bytes for one at-rest payload: the payload itself when it
        is unframed, else its decoded frame (an escape frame, or a zlib /
        lz4 frame an older release wrote)."""
        return chunk_codecs.decode(payload)

    def _account_put(self, raw_nbytes: int, stored_nbytes: int | None = None) -> None:
        """Record one put: deduped when ``stored_nbytes`` is ``None``."""
        with self._acct_lock:
            self.logical_bytes += raw_nbytes
            if stored_nbytes is None:
                self.dedup_bytes += raw_nbytes
            else:
                self.stored_bytes += stored_nbytes
        self._obs_logical.inc(raw_nbytes)
        if stored_nbytes is None:
            self._obs_dedup.inc(raw_nbytes)
        else:
            self._obs_stored.inc(stored_nbytes)

    def dedup_stats(self) -> dict:
        """Dedup accounting since this store was opened."""
        with self._acct_lock:
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

    # -- locking / refcount persistence ------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        with self._refs_mutex:
            if fcntl is None:
                yield
                return
            with open(self._lock_path, "a+") as lock_file:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    def _hook(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    def _sync_refs(self) -> dict[str, int]:
        """The refcount table as the log has it now (lock held).

        Replays what this or another process appended since the last
        call, or the whole file when it was replaced in between.  The
        handle kept open on the file last read pins its inode, so a file
        at that path with that inode number *is* that file, only longer.
        """
        try:
            on_disk = os.stat(self._refs_path)
        except FileNotFoundError:
            on_disk = None
        if self._refs_file is not None:
            held = os.fstat(self._refs_file.fileno())
            if (
                on_disk is None
                or (on_disk.st_dev, on_disk.st_ino) != (held.st_dev, held.st_ino)
                or on_disk.st_size < self._refs_end
            ):
                self._reset_refs()  # folded by another process, or gone
        if on_disk is None:
            return self._refs
        if self._refs_file is None:
            self._refs_file = open(self._refs_path, "rb", buffering=0)
        if on_disk.st_size > self._refs_end:
            self._replay_refs(os.pread(
                self._refs_file.fileno(), on_disk.st_size - self._refs_end,
                self._refs_end))
        return self._refs

    def _replay_refs(self, data: bytes) -> None:
        """Apply the log lines in ``data``, read at ``_refs_end``.

        Only the final line can be a torn append (a write that never
        returned): it is dropped and the file cut back to the line
        boundary.  A bad line with anything after it is damage to acked
        counts; reading it as "nothing is referenced" would let the next
        :meth:`gc` sweep live chunks, so it raises and fsck rebuilds the
        table from the manifests (:meth:`reconcile`).
        """
        *lines, last = data.split(b"\n")
        offset = self._refs_end
        for line in lines:
            record = _decode_refs(line)
            if record is None:
                self._reset_refs()
                raise StoreCorruptionError(
                    f"chunk refcounts: unreadable record at byte {offset} of "
                    f"{self._refs_path} with records after it")
            self._apply_refs(record)
            offset += len(line) + 1
        record = _decode_refs(last)
        if record is None:
            os.truncate(self._refs_path, offset)
        else:
            self._apply_refs(record)
            offset += len(last)
        self._refs_end = offset

    def _apply_refs(self, counts: Mapping[str, int]) -> None:
        for digest, count in counts.items():
            old = self._refs.pop(digest, 0)
            if old:
                self._refs_live -= _ref_bytes(digest, old)
            if count > 0:
                self._refs[digest] = count
                self._refs_live += _ref_bytes(digest, count)

    def _reset_refs(self) -> None:
        """Forget the table: the next :meth:`_sync_refs` rereads the file."""
        if self._refs_file is not None:
            self._refs_file.close()
        self._refs_file = None
        self._refs = {}
        self._refs_end = self._refs_live = 0

    def _commit_refs(self, changes: Mapping[str, int], fold: bool = False) -> None:
        """Persist new absolute counts (0: gone), then apply them.

        One appended line — O(batch) — or, with ``fold``, the whole table
        rewritten as one record.  An append folds too once the dead bytes
        exceed the live ones, so the file stays within ~2x its folded
        size at an amortized cost per appended byte that does not depend
        on the store.  Lock held, table synced.
        """
        fold = fold or not self._refs_end  # an empty log starts folded
        try:
            if not fold:
                data = b"\n" + _encode_refs(changes)
                with open(self._refs_path, "ab") as handle:
                    handle.write(data)
                self._refs_end += len(data)
                self._hook("chunk.refs")
            self._apply_refs(changes)
            if fold or self._refs_end > 2 * self._refs_live:
                self._fold_refs()
        except BaseException:
            self._reset_refs()  # memory and file may disagree: reread
            raise

    def _fold_refs(self) -> None:
        """Rewrite the log as the table's one record (tmp + rename)."""
        data = _encode_refs(self._refs)
        tmp = self._refs_path.with_name(f"refcounts-{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_bytes(data)
        self._hook("chunk.refs")
        folded = open(tmp, "rb", buffering=0)
        tmp.replace(self._refs_path)
        if self._refs_file is not None:
            self._refs_file.close()
        self._refs_file = folded
        self._refs_end = self._refs_live = len(data)

    # -- open / index maintenance -------------------------------------------

    def _set_entry_locked(self, digest: str, entry: tuple[str, int, int, int]) -> None:
        self._drop_entry_locked(digest)
        self._index[digest] = entry
        self._segmeta[entry[0]]["live"] += entry[2]

    def _drop_entry_locked(self, digest: str):
        entry = self._index.pop(digest, None)
        if entry is not None and entry[0] in self._segmeta:
            self._segmeta[entry[0]]["live"] -= entry[2]
        return entry

    def _load_checkpoint(self) -> None:
        try:
            data = json.loads(self._checkpoint_path.read_text())
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("version") != 1:
            return
        for name, meta in data.get("segments", {}).items():
            self._segmeta[name] = dict(
                _new_meta(),
                scanned=int(meta.get("scanned", 0)),
                total=int(meta.get("total", 0)),
                sealed=bool(meta.get("sealed", False)),
            )
        for digest, entry in data.get("entries", {}).items():
            # an entry of a segment the checkpoint does not list is found
            # again by that segment's scan
            if isinstance(entry, list) and len(entry) == 4 and entry[0] in self._segmeta:
                self._set_entry_locked(digest, (
                    str(entry[0]), int(entry[1]), int(entry[2]), int(entry[3])))

    def _write_checkpoint_locked(self) -> None:
        segments = {}
        for name, meta in self._segmeta.items():
            scanned = self._active_end if name == self._active_name else meta["scanned"]
            segments[name] = {
                "scanned": scanned, "total": meta["total"], "sealed": meta["sealed"]}
        payload = {
            "version": 1,
            "entries": {d: list(entry) for d, entry in self._index.items()},
            "segments": segments,
        }
        self._write_json_atomic(self._checkpoint_path, payload)
        self._index_dirty = False

    def _write_json_atomic(self, path: Path, payload: dict) -> None:
        tmp = path.with_name(f"{path.name}-{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)

    def _flush_index(self) -> None:
        """Checkpoint the index after a delete (deleted records must not be
        resurrected by a rescan)."""
        with self._mutex:
            if self._index_dirty:
                self._write_checkpoint_locked()
                self._update_gauges_locked()

    def _refresh_locked(self) -> int:
        """Absorb on-disk changes beyond each segment's scan offset.

        Returns the number of index entries added.  Deliberately deleted
        records are *not* resurrected: the checkpoint advances ``scanned``
        past them, so only genuinely new bytes are examined.  Segments
        whose files vanished (compacted away) are dropped along with any
        index entries still pointing at them.
        """
        on_disk: dict[str, Path] = {}
        for path in self.segments_dir.glob(f"*{SEGMENT_SUFFIX}"):
            on_disk[path.name] = path
            seq = _parse_seq(path.name)
            if seq is not None and seq > self._seq:
                self._seq = seq
        for name in list(self._segmeta):
            if name not in on_disk and name != self._active_name:
                del self._segmeta[name]
                self._close_read_file(name)
                self._index_dirty = True
        for digest, entry in list(self._index.items()):
            if entry[0] not in self._segmeta:
                self._drop_entry_locked(digest)
                self._index_dirty = True
        added = 0
        for name in sorted(on_disk):
            if name == self._active_name:
                continue  # our own writer: the in-memory index is authoritative
            meta = self._segmeta.setdefault(name, _new_meta())
            added += self._absorb_segment_locked(on_disk[name], meta)
        return added

    def _absorb_segment_locked(self, path: Path, meta: dict) -> int:
        name = path.name
        if meta["bad"]:
            return 0
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return 0
        if meta["scanned"] >= size:
            return 0
        if size < HEADER.size:
            return 0  # header still being written: nothing to absorb yet
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
                if catalog is not None:
                    # sealed: bulk-load the catalog, skipping already-scanned
                    # (possibly deleted) record ranges
                    for digest, off, length, crc in catalog.get("records", []):
                        start = off - RECORD_HEADER.size - len(str(digest).encode())
                        if start < meta["scanned"]:
                            continue
                        meta["total"] += int(length)
                        if digest not in self._index:
                            self._set_entry_locked(
                                digest, (name, int(off), int(length), int(crc)))
                            added += 1
                            self._index_dirty = True
                    meta["scanned"] = size
                    meta["sealed"] = True
                    return added
                added += self._scan_records_locked(fileobj, name, meta)
        except OSError:
            meta["bad"] = True
        return added

    def _scan_records_locked(self, fileobj, name: str, meta: dict) -> int:
        """Sequentially absorb crc-valid records; stop at the first tear."""
        added = 0
        offset = meta["scanned"]
        fileobj.seek(offset)
        while True:
            head = fileobj.read(RECORD_HEADER.size)
            if len(head) < RECORD_HEADER.size:
                break
            magic, dlen, _flags, crc, plen = RECORD_HEADER.unpack(head)
            if magic != RECORD_MAGIC:
                break  # footer or torn garbage: the valid prefix ends here
            digest_raw = fileobj.read(dlen)
            if len(digest_raw) < dlen:
                break
            payload = fileobj.read(plen)
            if len(payload) < plen or zlib.crc32(payload) != crc:
                break  # torn append: the record never completed
            digest = digest_raw.decode("utf-8", "replace")
            payload_off = offset + RECORD_HEADER.size + dlen
            meta["total"] += plen
            if digest not in self._index:
                self._set_entry_locked(digest, (name, payload_off, plen, crc))
                added += 1
                self._index_dirty = True
            offset = payload_off + plen
        meta["scanned"] = offset
        return added

    def _read_footer(self, fileobj, size: int) -> dict | None:
        if size < HEADER.size + 8 + FOOTER_TAIL.size:
            return None
        fileobj.seek(size - FOOTER_TAIL.size)
        tail = fileobj.read(FOOTER_TAIL.size)
        if len(tail) < FOOTER_TAIL.size:
            return None
        records_end, crc, end_magic = FOOTER_TAIL.unpack(tail)
        if end_magic != FOOTER_END_MAGIC:
            return None
        if records_end < HEADER.size or records_end + 8 > size:
            return None
        fileobj.seek(records_end)
        head = fileobj.read(8)
        if len(head) < 8 or head[:4] != FOOTER_MAGIC:
            return None
        (length,) = struct.unpack("<I", head[4:])
        blob = fileobj.read(length)
        if len(blob) < length or zlib.crc32(blob) != crc:
            return None
        try:
            catalog = json.loads(blob.decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(catalog, dict) or "records" not in catalog:
            return None
        return catalog

    def _close_read_file(self, name: str) -> None:
        fileobj = self._read_files.pop(name, None)
        if fileobj is not None:
            try:
                fileobj.close()
            except OSError:
                pass

    def _import_legacy_chunks(self) -> None:
        """Fold a file-per-chunk chunk root into this store, once, on open.

        Older stores kept each chunk in its own file, ``objects/<digest>``
        (the raw bytes or a codec frame).  Every such file is decoded and
        imported (:meth:`import_files`); ``refcounts.json`` was shared by
        both layouts, so counts carry over untouched.  A young ``*.tmp``
        keeps the directory for the next open.
        """
        legacy = self.root / "objects"
        if legacy.is_dir():
            self.import_files(legacy, framed=True)
            with contextlib.suppress(OSError):
                legacy.rmdir()

    def import_files(self, directory: Path, framed: bool = False,
                     refcount: int | None = None) -> None:
        """Fold every regular file of ``directory`` into the store.

        Each file becomes a record keyed by its name: under the store's
        ``flock`` every file is :meth:`put` (decoded first when ``framed``:
        an older chunk object may hold a codec frame), then one group
        :meth:`flush` and an index checkpoint make the records durable and
        findable, then — with ``refcount`` — each record's count is *set*
        to it, and only then are the files unlinked.  Expired ``*.tmp``
        tears are reaped and young ones left alone; dotfiles are not
        records.  Every step is idempotent (a put of a held key is a
        no-op, a count is set, not added), so a crash anywhere resumes on
        the next open, and a second opener waiting on the lock finds the
        files gone.  Fault hook: ``chunk.import`` after each put, after the
        flush, after the counts and after each unlink.
        """
        with self._locked():
            with self._mutex:
                self._refresh_locked()  # what a process we waited for imported
            imported = []
            for path in sorted(directory.iterdir()) if directory.is_dir() else ():
                if path.name.startswith(".") or not path.is_file():
                    continue
                if path.name.endswith(".tmp"):
                    if self._tmp_expired(path):
                        path.unlink(missing_ok=True)
                    continue
                data = path.read_bytes()
                self.put(path.name, self._decode(data) if framed else data)
                imported.append(path)
                self._hook("chunk.import")
            if not imported:
                return
            self.flush()
            with self._mutex:
                self._write_checkpoint_locked()
            self._hook("chunk.import")
            if refcount is not None:
                self._sync_refs()
                self._commit_refs({path.name: refcount for path in imported})
                self._hook("chunk.import")
            for path in imported:
                path.unlink(missing_ok=True)
                self._hook("chunk.import")

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
        fileobj.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))
        self._active_name = name
        self._active_file = fileobj
        self._active_end = HEADER.size
        meta = _new_meta()
        meta["scanned"] = HEADER.size
        self._segmeta[name] = meta

    @staticmethod
    def _write_all(fileobj, data) -> None:
        view = memoryview(data)
        while view.nbytes:
            written = fileobj.write(view)
            if written is None or written >= view.nbytes:
                return
            view = view[written:]

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
                self._account_put(_buffer_nbytes(buffer))
                return False
            self._ensure_active_locked()
            if not self._dirty:
                self._synced_end = self._active_end
            digest_raw = digest.encode("utf-8")
            view = memoryview(buffer)
            if view.ndim != 1 or view.format != "B":
                view = (view.cast("B") if view.contiguous
                        else memoryview(bytes(view)))
            raw_nbytes = view.nbytes
            # records hold the *at-rest* payload: CRCs, index lengths, and
            # compaction all see it as stored; get() decodes after the CRC
            encoded = self._encode(view)
            eview = encoded if isinstance(encoded, memoryview) else memoryview(encoded)
            crc = zlib.crc32(eview)
            head = RECORD_HEADER.pack(
                RECORD_MAGIC, len(digest_raw), 0, crc, eview.nbytes)
            fileobj = self._active_file
            fileobj.seek(self._active_end)  # overwrite any earlier torn tail
            self._write_all(fileobj, head)
            self._write_all(fileobj, digest_raw)
            self._write_all(fileobj, eview)
            payload_off = self._active_end + len(head) + len(digest_raw)
            self._set_entry_locked(
                digest, (self._active_name, payload_off, eview.nbytes, crc))
            meta = self._segmeta[self._active_name]
            meta["total"] += eview.nbytes
            self._active_end = payload_off + eview.nbytes
            meta["scanned"] = self._active_end
            self._account_put(raw_nbytes, stored_nbytes=eview.nbytes)
            self._dirty = True
            self._index_dirty = True
            self._obs_appends.inc()
            if self._active_end >= self.segment_bytes:
                self._roll_locked()
        return True

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
            head = RECORD_HEADER.pack(
                RECORD_MAGIC, len(digest_raw), 0, zlib.crc32(data), len(data))
            record = head + digest_raw + data
            fileobj = self._active_file
            fileobj.seek(self._active_end)
            self._write_all(fileobj, record[: max(1, len(record) // 2)])
            return self.segments_dir / self._active_name

    def flush(self) -> int:
        """One group fsync for every append since the last flush.

        A save flushes once before publishing its manifest, so no save is
        acknowledged before its bytes are on disk.  No checkpoint: the
        synced records are their own index entries (a reopen rescans
        them), so a save writes what it appended.
        """
        with self._mutex:
            synced = 0
            if self._dirty and self._active_file is not None:
                os.fsync(self._active_file.fileno())
                self._dirty = False
                synced = 1
                self._obs_fsyncs.inc()
                self._obs_batches.inc()
            self._update_gauges_locked()
            return synced

    def synced(self, digest: str) -> bool:
        """True unless the record under ``digest`` waits for :meth:`flush`.

        A cluster's save barrier asks this of a replica whose put found
        the record already there: a copy that a read repair, hint or
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
        name = self._active_name
        fileobj = self._active_file
        meta = self._segmeta[name]
        fileobj.truncate(self._active_end)  # drop torn garbage past the end
        records = sorted(
            [d, e[1], e[2], e[3]]
            for d, e in self._index.items()
            if e[0] == name
        )
        footer = self._pack_footer({"end": self._active_end, "records": records})
        fileobj.seek(self._active_end)
        self._write_all(fileobj, footer)
        os.fsync(fileobj.fileno())
        self._obs_fsyncs.inc()
        if self._dirty:
            self._obs_batches.inc()
        fileobj.close()
        meta["sealed"] = True
        meta["scanned"] = self._active_end + len(footer)
        self._active_name = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False
        self._obs_rolls.inc()
        self._write_checkpoint_locked()

    @staticmethod
    def _pack_footer(catalog: dict) -> bytes:
        blob = json.dumps(catalog, sort_keys=True).encode()
        return (
            FOOTER_MAGIC
            + struct.pack("<I", len(blob))
            + blob
            + FOOTER_TAIL.pack(catalog["end"], zlib.crc32(blob), FOOTER_END_MAGIC)
        )

    # -- read path -----------------------------------------------------------

    def has(self, digest: str) -> bool:
        self._check_digest(digest)
        with self._mutex:
            return digest in self._index

    def get(self, digest: str):
        """One chunk's bytes, CRC-checked, in a buffer the caller owns.

        The record is read into a fresh ``bytearray``; an unframed payload
        is returned as that buffer (writable, so a recover can adopt it
        instead of copying), a framed one as the decoded ``bytes``.
        """
        return self.get_many([digest])[digest]

    def get_many(self, digests: Iterable[str], crc: bool = True) -> dict:
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
        byte is enough.
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
            payloads[digest] = self._decode(data)
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

    def _read_entry_locked(self, entry) -> bytearray | None:
        return self._read_run_locked([("", entry, 0)]).get("")

    def size_of(self, digest: str) -> int | None:
        """At-rest size of one chunk, or ``None`` when it is not stored."""
        self._check_digest(digest)
        with self._mutex:
            entry = self._index.get(digest)
        return None if entry is None else entry[2]

    def locate(self, digest: str) -> tuple[Path, int, int]:
        """Physical location of one chunk: ``(segment path, offset, length)``.

        Lets tooling (fsck damage drills, debuggers) find the stored bytes.
        """
        with self._mutex:
            entry = self._index.get(digest)
            if entry is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            return self.segments_dir / entry[0], entry[1], entry[2]

    def _delete_payload(self, digest: str) -> int:
        """Drop one chunk's index entry; returns the payload bytes freed."""
        with self._mutex:
            entry = self._drop_entry_locked(digest)
            if entry is None:
                return 0
            self._index_dirty = True
            return entry[2]

    def drop(self, digest: str) -> bool:
        """Delete one chunk regardless of refcounts; True iff it was stored.

        Low-level repair/rollback primitive — normal deletion goes through
        :meth:`release_refs`.
        """
        existed = self.has(digest)
        if existed:
            self._delete_payload(digest)
            self._flush_index()
        return existed

    # -- reference counting --------------------------------------------------

    def add_refs(self, digests: Iterable[str]) -> None:
        """Increment refcounts for ``digests`` (one appended log line)."""
        digests = list(digests)
        if not digests:
            return
        with self._locked():
            refs = self._sync_refs()
            changes: dict[str, int] = {}
            for digest in digests:
                changes[digest] = changes.get(digest, refs.get(digest, 0)) + 1
            self._commit_refs(changes)

    def release_refs(self, digests: Iterable[str]) -> list[str]:
        """Decrement refcounts; delete and return chunks that hit zero."""
        digests = list(digests)
        if not digests:
            return []
        with self._locked():
            refs = self._sync_refs()
            changes: dict[str, int] = {}
            for digest in digests:
                changes[digest] = max(
                    0, changes.get(digest, refs.get(digest, 0)) - 1)
            removed = [digest for digest, count in changes.items() if not count]
            # a delete pays an O(store) index checkpoint anyway: fold, so
            # freed chunks also shrink the log
            self._commit_refs(changes, fold=True)
            for digest in removed:
                self._delete_payload(digest)
            if removed:
                self._flush_index()
        return removed

    def refcount(self, digest: str) -> int:
        with self._locked():
            return self._sync_refs().get(digest, 0)

    def export_refs(self) -> dict[str, int]:
        """Snapshot of every stored refcount (rebalance/repair plumbing)."""
        with self._locked():
            return dict(self._sync_refs())

    def import_refs(self, counts: Mapping[str, int]) -> None:
        """Set refcounts for the given digests (overwriting existing ones).

        Used when chunk ownership moves between stores: the receiving
        store inherits the relinquishing store's counts verbatim instead
        of replaying one :meth:`add_refs` per historical manifest.
        """
        counts = {d: int(c) for d, c in counts.items() if c > 0}
        if not counts:
            return
        with self._locked():
            self._sync_refs()
            self._commit_refs(counts)

    def forget_refs(self, digests: Iterable[str]) -> None:
        """Drop refcount entries without touching chunk payloads.

        The relinquishing side of a chunk migration: the bytes were
        already handed to the new owner, so decrement-and-delete
        (:meth:`release_refs`) would be wrong.
        """
        digests = set(digests)
        if not digests:
            return
        with self._locked():
            refs = self._sync_refs()
            gone = {digest: 0 for digest in digests if digest in refs}
            if gone:
                self._commit_refs(gone)

    def gc(self) -> dict[str, int]:
        """Delete unreferenced chunks and *expired* tmp files, then compact.

        Tmp files younger than ``tmp_grace_s`` are left alone: a
        concurrent in-flight writer may still own them.  Partial segments
        left by a crash mid-roll or mid-compaction get the same grace-age
        sweep as the bookkeeping tmps.
        """
        removed = 0
        freed = 0
        with self._locked():
            live = set(self._sync_refs())
            with self._mutex:
                for digest in [d for d in self._index if d not in live]:
                    freed += self._delete_payload(digest)
                    removed += 1
                tmps = [*self.segments_dir.glob("*.tmp"), *self.root.glob("*.tmp")]
                for path in tmps:
                    if not self._tmp_expired(path):
                        continue
                    try:
                        freed += path.stat().st_size
                    except FileNotFoundError:
                        continue
                    path.unlink(missing_ok=True)
                    removed += 1
                self._drop_dead_segments_locked()
                self._write_checkpoint_locked()
                self._update_gauges_locked()
        compacted = self.compact()["segments_compacted"]
        return {
            "chunks_removed": removed,
            "bytes_freed": freed,
            "segments_compacted": compacted,
        }

    def _drop_dead_segments_locked(self) -> None:
        """Unlink segments no index entry references.

        Unsealed segments only fall once they outlive the tmp grace age:
        a concurrent writer refreshes its segment's mtime with every
        append, so a young unsealed segment may be someone's live tail.
        """
        live_segments = {entry[0] for entry in self._index.values()}
        for name, meta in list(self._segmeta.items()):
            if name == self._active_name or name in live_segments:
                continue
            path = self.segments_dir / name
            if not meta["sealed"] and not self._tmp_expired(path):
                continue
            self._close_read_file(name)
            path.unlink(missing_ok=True)
            del self._segmeta[name]
            self._index_dirty = True

    def reconcile(self, expected_refs: Mapping[str, int], repair: bool = True) -> dict:
        """Cross-check stored refcounts against ``expected_refs`` (fsck).

        ``expected_refs`` is the ground truth recomputed from the live
        manifests.  Reports (and with ``repair`` fixes) leaked or missing
        refcounts and deletes orphan chunks nothing references.
        """
        expected = {d: int(c) for d, c in expected_refs.items() if c > 0}
        with self._locked():
            readable = True
            try:
                refs = self._sync_refs()
            except StoreCorruptionError:
                refs, readable = {}, False  # no count survives: recount all
            ref_fixes = {
                digest: (refs.get(digest, 0), expected.get(digest, 0))
                for digest in set(refs) | set(expected)
                if refs.get(digest, 0) != expected.get(digest, 0)
            }
            with self._mutex:
                orphans = sorted(d for d in self._index if d not in expected)
                orphan_bytes = sum(self._index[d][2] for d in orphans)
            if repair:
                if ref_fixes or not readable:
                    self._commit_refs(
                        {d: wanted for d, (_, wanted) in ref_fixes.items()},
                        fold=True)
                for digest in orphans:
                    self._delete_payload(digest)
                if orphans:
                    self._flush_index()
        return {
            "ref_fixes": ref_fixes,
            "orphan_chunks_removed": orphans,
            "orphan_bytes": orphan_bytes,
        }

    # -- compaction -----------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite low-live-ratio sealed segments into one fresh segment.

        Journaled and resumable: ``compaction.json`` names the victims
        and the destination; the destination's atomic rename is the
        commit point.  Returns move/reclaim statistics.
        """
        stats = {"segments_compacted": 0, "records_moved": 0, "bytes_reclaimed": 0}
        with self._mutex:
            if self._compaction_path.exists():
                self._resume_compaction_locked()
            self._drop_dead_segments_locked()
            victims = self._compaction_victims_locked()
            if not victims:
                if self._index_dirty:
                    self._write_checkpoint_locked()
                self._update_gauges_locked()
                return stats
            return self._compact_locked(victims)

    def _compaction_victims_locked(self) -> list[str]:
        victims = []
        for name, meta in sorted(self._segmeta.items()):
            if name == self._active_name or meta["bad"] or not meta["sealed"]:
                continue
            seg_live = meta["live"]
            seg_total = max(meta["total"], seg_live)
            if seg_total == 0 or seg_live == 0:
                continue  # fully dead: _drop_dead_segments handles it
            if seg_live / seg_total < COMPACT_THRESHOLD:
                victims.append(name)
        return victims

    def _compact_locked(self, victims: list[str]) -> dict:
        self._hook("chunk.compact")
        dest = self._next_segment_name()
        self._write_json_atomic(
            self._compaction_path, {"victims": victims, "dest": dest})
        self._hook("chunk.compact")
        victim_set = set(victims)
        moves = [
            (digest, entry)
            for digest, entry in sorted(self._index.items())
            if entry[0] in victim_set
        ]
        dead = sum(self._segmeta[v]["total"] for v in victims) - sum(
            entry[2] for _d, entry in moves)
        tmp_path = self.segments_dir / (dest + ".tmp")
        new_entries: dict[str, tuple[str, int, int, int]] = {}
        offset = HEADER.size
        total_live = 0
        # a crash or corruption before the commit point leaves the journal
        # and a partial tmp: resume (or the grace sweep) rolls back
        with open(tmp_path, "wb") as out:
            out.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))
            for digest, entry in moves:
                payload = self._read_entry_locked(entry)
                if payload is None or zlib.crc32(payload) != entry[3]:
                    raise StoreCorruptionError(
                        f"chunk {digest!r} is corrupt: compaction read "
                        f"failed its CRC check")
                digest_raw = digest.encode("utf-8")
                out.write(RECORD_HEADER.pack(
                    RECORD_MAGIC, len(digest_raw), 0, entry[3], entry[2]))
                out.write(digest_raw)
                out.write(payload)
                payload_off = offset + RECORD_HEADER.size + len(digest_raw)
                new_entries[digest] = (dest, payload_off, entry[2], entry[3])
                offset = payload_off + entry[2]
                total_live += entry[2]
                self._obs_moves.inc()
                self._hook("chunk.compact")
            records = sorted(
                [d, e[1], e[2], e[3]] for d, e in new_entries.items())
            out.write(self._pack_footer({"end": offset, "records": records}))
            out.flush()
            os.fsync(out.fileno())
            self._obs_fsyncs.inc()
        self._hook("chunk.compact")
        tmp_path.replace(self.segments_dir / dest)  # commit point
        self._hook("chunk.compact")
        size = (self.segments_dir / dest).stat().st_size
        self._segmeta[dest] = dict(
            _new_meta(), scanned=size, total=total_live, sealed=True)
        for digest, entry in new_entries.items():
            self._set_entry_locked(digest, entry)
        self._index_dirty = True
        self._write_checkpoint_locked()
        self._hook("chunk.compact")
        for name in victims:
            self._close_read_file(name)
            (self.segments_dir / name).unlink(missing_ok=True)
            self._segmeta.pop(name, None)
        self._compaction_path.unlink(missing_ok=True)
        self._write_checkpoint_locked()
        self._update_gauges_locked()
        return {
            "segments_compacted": len(victims),
            "records_moved": len(moves),
            "bytes_reclaimed": max(0, dead),
        }

    def _resume_compaction_locked(self) -> str | None:
        """Finish or undo an interrupted compaction; returns the action."""
        try:
            journal = json.loads(self._compaction_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        dest = journal.get("dest")
        victims = set(journal.get("victims", []))
        if not dest:
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        dest_path = self.segments_dir / dest
        tmp_path = self.segments_dir / (dest + ".tmp")
        if not dest_path.exists():
            # the rename never committed: forget the attempt entirely
            tmp_path.unlink(missing_ok=True)
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        # committed: repoint victim entries at the destination and finish
        catalog = None
        try:
            size = dest_path.stat().st_size
            with open(dest_path, "rb") as fileobj:
                catalog = self._read_footer(fileobj, size)
        except OSError:
            catalog = None
        if catalog is not None:
            meta = self._segmeta.setdefault(dest, _new_meta())
            meta.update(scanned=size, sealed=True, bad=False)
            total = 0
            for digest, off, length, crc in catalog.get("records", []):
                total += int(length)
                current = self._index.get(digest)
                if current is None or current[0] in victims:
                    self._set_entry_locked(
                        digest, (dest, int(off), int(length), int(crc)))
            meta["total"] = total
            seq = _parse_seq(dest)
            if seq is not None and seq > self._seq:
                self._seq = seq
        for digest, entry in list(self._index.items()):
            if entry[0] in victims:
                self._drop_entry_locked(digest)  # not in the catalog: was dead data
        for name in victims:
            self._close_read_file(name)
            (self.segments_dir / name).unlink(missing_ok=True)
            self._segmeta.pop(name, None)
        self._index_dirty = True
        self._write_checkpoint_locked()
        self._compaction_path.unlink(missing_ok=True)
        return "rolled_forward"

    # -- audit / stats ---------------------------------------------------------

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Segment-layer fsck step: footers, tears, index bounds, crcs.

        Resumes an interrupted compaction (with ``repair``), absorbs any
        unindexed records, truncates torn tails, drops index entries that
        point outside their segment, and reaps expired partial segments.
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
            "compaction": None,
        }
        with self._mutex:
            if self._compaction_path.exists():
                if repair:
                    outcome["compaction"] = self._resume_compaction_locked()
                else:
                    outcome["compaction"] = "pending"
            outcome["entries_added"] = self._refresh_locked()
            for name, meta in sorted(self._segmeta.items()):
                outcome["segments_checked"] += 1
                path = self.segments_dir / name
                if meta["bad"]:
                    outcome["torn_segments"].append(name)
                    if repair and name != self._active_name:
                        self._close_read_file(name)
                        path.unlink(missing_ok=True)
                        del self._segmeta[name]
                        self._index_dirty = True
                    continue
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    continue
                if name == self._active_name:
                    logical = self._active_end
                    if size > logical:
                        outcome["torn_segments"].append(name)
                        if repair:
                            self._active_file.truncate(logical)
                elif not meta["sealed"] and size > meta["scanned"]:
                    # trailing garbage from a dead writer; a *live* writer
                    # keeps its mtime fresh, so respect the grace age
                    if self._tmp_expired(path):
                        outcome["torn_segments"].append(name)
                        if repair:
                            os.truncate(path, meta["scanned"])
            for digest, entry in sorted(self._index.items()):
                name, off, length, _crc = entry
                meta = self._segmeta.get(name)
                out_of_bounds = meta is None or meta["bad"]
                if not out_of_bounds:
                    try:
                        size = (self.segments_dir / name).stat().st_size
                    except FileNotFoundError:
                        size = -1
                    out_of_bounds = off + length > size
                if out_of_bounds:
                    outcome["entries_dropped"].append(digest)
                    if repair:
                        self._drop_entry_locked(digest)
                        self._index_dirty = True
                    continue
                if verify:
                    data = self._read_entry_locked(entry)
                    if data is None or zlib.crc32(data) != entry[3]:
                        outcome["crc_failures"].append(digest)
            for path in self.segments_dir.glob("*.tmp"):
                if self._tmp_expired(path):
                    outcome["tmp_segments_removed"] += 1
                    if repair:
                        path.unlink(missing_ok=True)
            if repair:
                if self._index_dirty:
                    self._write_checkpoint_locked()
                self._update_gauges_locked()
        return outcome

    def segment_stats(self) -> dict:
        """Gauge-style snapshot: counts, live ratio, compaction debt.

        From the per-segment running totals: O(segments), not O(chunks).
        """
        with self._mutex:
            live = 0
            total = 0
            debt = 0
            for name, meta in self._segmeta.items():
                seg_live = meta["live"]
                seg_total = max(meta["total"], seg_live)
                live += seg_live
                total += seg_total
                if name == self._active_name or seg_total == 0:
                    continue
                if seg_live / seg_total < COMPACT_THRESHOLD:
                    debt += seg_total - seg_live
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
                "pending_compaction": self._compaction_path.exists(),
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
        """Seal nothing: release file handles, checkpoint the index."""
        with self._refs_mutex:
            self._reset_refs()
        with self._mutex:
            if self._active_file is not None:
                if self._dirty:
                    os.fsync(self._active_file.fileno())
                    self._obs_fsyncs.inc()
                    self._dirty = False
                self._active_file.close()
                self._active_file = None
                self._active_name = None
                self._active_end = 0
            for name in list(self._read_files):
                self._close_read_file(name)
            if self._index_dirty:
                self._write_checkpoint_locked()
