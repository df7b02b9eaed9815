"""Append-only segment backend for the content-addressed chunk store.

The file-per-chunk :class:`~repro.filestore.store.ChunkStore` pays one
``open`` + ``write`` + ``rename`` (and, with durability, one ``fsync``)
per chunk.  This backend instead appends chunk records to large
append-only *segment* files and locates them through an in-memory index
(``digest -> (segment, offset, length, crc)``), LSM-style:

* **Group fsync** — appends are acknowledged immediately and made
  durable by one batched :meth:`SegmentChunkStore.flush` per save (the
  store's ``"group"`` durability), so a thousand-chunk save costs one
  fsync instead of a thousand.
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
  to rescan, and at :meth:`SegmentChunkStore.close`.  A save writes none;
  a reopen after ``kill -9`` rescans at most the one unsealed tail
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

import json
import os
import struct
import threading
import uuid
import zlib
from pathlib import Path

from .. import obs
from ..errors import StoreCorruptionError
from .store import (
    DEFAULT_TMP_GRACE_S,
    ChunkNotFoundError,
    ChunkStore,
    _buffer_nbytes,
)

__all__ = ["SegmentChunkStore", "SegmentCompactor", "DEFAULT_SEGMENT_BYTES"]

#: Segments roll (seal + start a new one) once records cross this size.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Compaction rewrites sealed segments whose live ratio falls below this.
DEFAULT_COMPACT_THRESHOLD = 0.5

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


class SegmentChunkStore(ChunkStore):
    """Chunk store that appends records to large append-only segments.

    Drop-in replacement for the file-per-chunk :class:`ChunkStore`: the
    refcount plane (the flock-serialized ``refcounts.json`` log), GC
    contract, and the whole public surface are inherited; only the
    physical payload primitives differ.  See the module docstring for
    the format, the durability model and when the index is checkpointed.
    """

    def __init__(
        self,
        root,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
        durability: str = "group",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
        codec: str | None = None,
    ):
        self.segment_bytes = int(segment_bytes)
        self.compact_threshold = float(compact_threshold)
        super().__init__(
            root, tmp_grace_s=tmp_grace_s, durability=durability, codec=codec
        )

    # -- open / index maintenance -------------------------------------------

    def _init_physical(self) -> None:
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
        # index differs from index.json; written out by whatever deletes,
        # seals or closes — never by a save (its appends are rescannable)
        self._index_dirty = False
        self._read_files: dict[str, object] = {}
        self._seq = 0
        registry = obs.registry()
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

    def put(self, digest: str, buffer) -> bool:
        self._check_digest(digest)
        with self._mutex:
            if digest in self._index:
                self._account_put(_buffer_nbytes(buffer))
                return False
            self._ensure_active_locked()
            digest_raw = digest.encode("utf-8")
            view = memoryview(buffer)
            if view.ndim != 1 or view.format != "B":
                view = (view.cast("B") if view.contiguous
                        else memoryview(bytes(view)))
            raw_nbytes = view.nbytes
            # records hold the *at-rest* payload: CRCs, index lengths, and
            # compaction all see framed bytes; get() decodes after the CRC
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
            if self.durability == "chunk":
                os.fsync(fileobj.fileno())
                self._obs_fsyncs.inc()
                self._dirty = False
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

        No checkpoint: the synced records are their own index entries (a
        reopen rescans them), so a save writes what it appended.
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
        if self.durability != "none":
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
        instead of copying), a codec-framed one as the decoded ``bytes``.
        """
        self._check_digest(digest)
        refreshed = False
        while True:
            with self._mutex:
                entry = self._index.get(digest)
                if entry is None and not refreshed:
                    self._refresh_locked()  # another process may have appended
                    refreshed = True
                    entry = self._index.get(digest)
                if entry is None:
                    raise ChunkNotFoundError(
                        f"no stored chunk with digest {digest!r}")
                data = self._read_entry_locked(entry)
                if data is None and not refreshed:
                    self._refresh_locked()  # the segment moved (compaction)
                    refreshed = True
                    continue
            if data is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            if zlib.crc32(data) != entry[3]:
                raise StoreCorruptionError(
                    f"chunk {digest!r} is corrupt: segment record failed its "
                    f"CRC check")
            return self._decode(data)

    def _read_entry_locked(self, entry) -> bytearray | None:
        name, off, length, _crc = entry
        fileobj = self._read_files.get(name)
        if fileobj is None:
            try:
                fileobj = open(self.segments_dir / name, "rb")
            except FileNotFoundError:
                return None
            self._read_files[name] = fileobj
        data = bytearray(length)
        try:
            if length and os.preadv(fileobj.fileno(), [data], off) != length:
                return None
        except OSError:
            return None
        return data

    def size_of(self, digest: str) -> int | None:
        self._check_digest(digest)
        with self._mutex:
            entry = self._index.get(digest)
        return None if entry is None else entry[2]

    def locate(self, digest: str) -> tuple[Path, int, int]:
        with self._mutex:
            entry = self._index.get(digest)
            if entry is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            return self.segments_dir / entry[0], entry[1], entry[2]

    # -- physical primitives behind the inherited refcount/GC plane ----------

    def _delete_payload(self, digest: str) -> int:
        with self._mutex:
            entry = self._drop_entry_locked(digest)
            if entry is None:
                return 0
            self._index_dirty = True
            return entry[2]

    def _flush_index(self) -> None:
        with self._mutex:
            if self._index_dirty:
                self._write_checkpoint_locked()
                self._update_gauges_locked()

    def _payload_entries(self) -> dict[str, int]:
        with self._mutex:
            return {digest: entry[2] for digest, entry in self._index.items()}

    def _sweep_unreferenced(self, live: set) -> tuple[int, int]:
        removed = 0
        freed = 0
        with self._mutex:
            for digest in [d for d in self._index if d not in live]:
                freed += self._delete_payload(digest)
                removed += 1
            # orphaned partial segments left by a crash mid-roll or
            # mid-compaction get the same grace-age sweep as chunk tmps
            for path in self.segments_dir.glob("*.tmp"):
                if not self._tmp_expired(path):
                    continue
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    continue
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
            self._drop_dead_segments_locked()
            self._write_checkpoint_locked()
            self._update_gauges_locked()
        return removed, freed

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

    def gc(self) -> dict[str, int]:
        stats = super().gc()
        stats["segments_compacted"] = self.compact()["segments_compacted"]
        return stats

    # -- compaction -----------------------------------------------------------

    def compact(self, threshold: float | None = None) -> dict:
        """Rewrite low-live-ratio sealed segments into one fresh segment.

        Journaled and resumable: ``compaction.json`` names the victims
        and the destination; the destination's atomic rename is the
        commit point.  Returns move/reclaim statistics.
        """
        threshold = self.compact_threshold if threshold is None else float(threshold)
        stats = {"segments_compacted": 0, "records_moved": 0, "bytes_reclaimed": 0}
        with self._mutex:
            if self._compaction_path.exists():
                self._resume_compaction_locked()
            self._drop_dead_segments_locked()
            victims = self._compaction_victims_locked(threshold)
            if not victims:
                if self._index_dirty:
                    self._write_checkpoint_locked()
                self._update_gauges_locked()
                return stats
            return self._compact_locked(victims)

    def _compaction_victims_locked(self, threshold: float) -> list[str]:
        victims = []
        for name, meta in sorted(self._segmeta.items()):
            if name == self._active_name or meta["bad"] or not meta["sealed"]:
                continue
            seg_live = meta["live"]
            seg_total = max(meta["total"], seg_live)
            if seg_total == 0 or seg_live == 0:
                continue  # fully dead: _drop_dead_segments handles it
            if seg_live / seg_total < threshold:
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
        try:
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
                if self.durability != "none":
                    os.fsync(out.fileno())
                    self._obs_fsyncs.inc()
        except BaseException:
            # crash/corruption before the commit point: the journal and a
            # partial tmp remain; resume (or the grace sweep) rolls back
            raise
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
                if seg_live / seg_total < self.compact_threshold:
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

    def close(self) -> None:
        """Seal nothing: release file handles, checkpoint the index."""
        super().close()
        with self._mutex:
            if self._active_file is not None:
                if self._dirty and self.durability != "none":
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


class SegmentCompactor:
    """Background thread that periodically compacts a segment store.

    Mirrors the cluster rebalancer's lifecycle: ``start``/``stop`` (or a
    ``with`` block) around a loop of :meth:`run_once` calls, each of
    which delegates to :meth:`SegmentChunkStore.compact` and records the
    result.  Compaction errors are reported as obs events, never raised
    into the host process.
    """

    def __init__(self, store, interval_s: float = 30.0,
                 threshold: float | None = None):
        self.store = store
        self.interval_s = float(interval_s)
        self.threshold = threshold
        self.runs = 0
        self.errors = 0
        self.last_result: dict | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> dict:
        if self.threshold is None:
            result = self.store.compact()
        else:
            result = self.store.compact(self.threshold)
        self.runs += 1
        self.last_result = result
        return result

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run_once()
            except Exception as exc:  # keep the host process alive
                self.errors += 1
                obs.events().emit("compactor_error", error=str(exc))

    def start(self) -> "SegmentCompactor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="segment-compactor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "SegmentCompactor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
