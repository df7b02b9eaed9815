"""Shared file storage: the paper's "external storage" substrate.

Models get split into metadata (documents) and files (code, serialized
parameters, compressed datasets).  The :class:`FileStore` persists files
under generated identifiers in a shared directory, exactly like the
evaluation's shared external storage that all machines can access.

Every byte lives in one content-addressed
:class:`~repro.filestore.segments.ChunkStore`.  Model parameters are saved
as a *manifest* of per-layer chunks keyed by the Merkle leaf hashes
computed at save time: bit-identical layers across models (BA chain
snapshots, PUA bases, replicated deployments) are stored once, and live
while a stored manifest names them: :meth:`FileStore.gc_chunks` marks from
the stored files and sweeps the rest.  A file (a manifest, architecture
code, a dataset archive) is a record of the same store under its
generated *file id*.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import struct
import threading
import uuid
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

from .. import obs
from ..errors import (
    LayersNeededError, OlderFormatError, StoreCorruptionError, TransientStoreError)
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
    "FORMAT_MARKER",
    "ManifestEntry",
    "ManifestMemo",
    "chunk_intact",
    "is_file_id",
    "is_spec_key",
    "mark_root",
    "open_root",
]

#: File-id suffix that marks a file as a chunked-state manifest.
MANIFEST_SUFFIX = ".manifest"

#: The one manifest format there is (v3; what older releases wrote is
#: converted by ``mmlib import``, :mod:`repro.importer`): a fixed header — this
#: tag, the raw sha256 of the manifest's spec record and the layer count —
#: then one raw 32-byte chunk digest per layer, in state-dict order.
MANIFEST_TAG = b"MMLIBMF3"
_MANIFEST_HEAD = struct.Struct("<8s32sI")

#: What :meth:`FileStore.read_manifest` reports as a manifest's ``format``.
MANIFEST_FORMAT = "mmlib-manifest-v3"

#: Key suffix of a spec record: the names, dtypes and shapes of a layer
#: layout, keyed by the sha256 of its bytes plus this suffix, written once
#: per layout and named by every manifest of that layout.
SPEC_SUFFIX = ".spec"

#: Format tag inside every spec record.
SPEC_FORMAT = "mmlib-layer-spec-v1"

#: Layouts whose spec record bytes a process keeps encoded (see
#: :func:`_spec_record`): a save encodes its layout's spec once.
SPEC_MEMO_ENTRIES = 64

#: Directory (under the store root) holding the content-addressed chunks.
CHUNK_DIR_NAME = "chunks"

#: Default byte budget for an in-process hot-chunk LRU (see :class:`ChunkCache`).
DEFAULT_CHUNK_CACHE_BYTES = 256 * 1024 * 1024

#: Layer entries of the parsed manifests a :class:`FileStore` keeps (see
#: :meth:`FileStore.read_manifest`), each manifest weighing two more for its
#: own objects: ~500 B a unit, so ~2 MB (a 932-layer ResNet-152 manifest
#: is ~450 KB parsed).
MANIFEST_MEMO_ENTRIES = 4096


class FileNotFoundInStoreError(KeyError):
    """Raised when recovering a file id that was never saved (or deleted)."""


class ManifestEntry(dict):
    """One layer's manifest entry (``chunk``, ``dtype``, ``shape``),
    read-only: a parsed manifest is shared by every reader of its bytes."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a manifest entry is read-only; copy it with dict()")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def is_spec_key(key: str) -> bool:
    """True iff a record key names a spec record."""
    return key.endswith(SPEC_SUFFIX)


_encoded_specs: dict[tuple, tuple] = {}


def _spec_record(layout: tuple) -> tuple[str, bytes, Mapping]:
    """``(key, bytes, parsed)`` of the spec record of ``layout``, a tuple of
    ``(name, numpy dtype, shape tuple)``, encoded once per process;
    ``parsed`` is what :func:`_parse_spec` makes of the bytes."""
    hit = _encoded_specs.get(layout)
    if hit is None:
        layers = tuple((name, np.dtype(dtype).str, shape) for name, dtype, shape in layout)
        payload = json.dumps(
            {"format": SPEC_FORMAT,
             "layers": [[name, dtype, list(shape)] for name, dtype, shape in layers]},
            separators=(",", ":")).encode()
        hit = (hashlib.sha256(payload).hexdigest() + SPEC_SUFFIX, payload, _spec_view(layers))
        if len(_encoded_specs) >= SPEC_MEMO_ENTRIES:
            _encoded_specs.clear()
        _encoded_specs[layout] = hit
    return hit


def _parse_spec(key: str, data: bytes) -> Mapping:
    """A spec record's bytes as ``{"layers": ((name, dtype, shape), ...),
    "names": ...}``, each shape a tuple shared by the layers that have it."""
    try:
        payload = json.loads(data.decode())
        if payload["format"] != SPEC_FORMAT:
            raise ValueError(f"format {payload['format']!r}")
        shapes: dict = {}
        layers = tuple(
            (name, dtype, shapes.setdefault(tuple(shape), tuple(shape)))
            for name, dtype, shape in payload["layers"])
    except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
        raise StoreCorruptionError(
            f"spec record {key!r} is corrupt: not a parsable layer spec ({exc})"
        ) from exc
    return _spec_view(layers)


def _spec_view(layers: tuple) -> Mapping:
    """A parsed spec record: its ``layers`` and their ``names``."""
    return MappingProxyType({"layers": layers, "names": tuple(name for name, _, _ in layers)})


def _manifest_digests(file_id: str, data) -> tuple[str, list[str]]:
    """A manifest record's spec key and chunk digests, from its bytes alone."""
    if len(data) < _MANIFEST_HEAD.size or bytes(data[:8]) != MANIFEST_TAG:
        raise StoreCorruptionError(
            f"file {file_id!r} is not a chunked-state manifest "
            f"(accepted: {MANIFEST_FORMAT!r})")
    _tag, spec, count = _MANIFEST_HEAD.unpack_from(data)
    body = bytes(data[_MANIFEST_HEAD.size:])
    if len(body) != 32 * count:
        raise StoreCorruptionError(
            f"file {file_id!r} is corrupt: {count} layers, {len(body)} digest bytes")
    hexed = body.hex()
    return spec.hex() + SPEC_SUFFIX, [hexed[i:i + 64] for i in range(0, len(hexed), 64)]


def _manifest_view(file_id: str, spec_key: str, spec: Mapping, digests: list[str],
                   entries: dict) -> Mapping:
    """A parsed manifest, read-only: ``format``, ``spec`` and ``layers`` as
    a tuple of ``(name, ManifestEntry)`` pairs.  ``entries`` interns the
    entries by chunk digest (a digest is a tensor hash, so it fixes its
    dtype and shape): a PUA model's manifest shares all but its changed
    layers' with its base's, so building it mostly looks up."""
    layout = spec["layers"]
    if len(layout) != len(digests):
        raise StoreCorruptionError(
            f"manifest {file_id!r} lists {len(digests)} digests; its spec "
            f"record {spec_key[:12]}… names {len(layout)} layers")
    if len(entries) > MANIFEST_MEMO_ENTRIES:
        entries.clear()
    found = list(map(entries.get, digests))
    if None in found:
        for index, entry in enumerate(found):
            if entry is None:
                _name, dtype, shape = layout[index]
                found[index] = entries[digests[index]] = ManifestEntry(
                    chunk=digests[index], dtype=dtype, shape=shape)
    return MappingProxyType(
        {"format": MANIFEST_FORMAT, "spec": spec_key, "layers": tuple(zip(spec["names"], found))})


class ManifestMemo:
    """Parsed manifests by file id, least recently used first out, holding
    at most ``capacity`` units: a manifest weighs its layers plus two for
    its own objects, and one that alone outweighs the capacity is not kept.
    Beside each manifest it keeps the Merkle root over its chunk digests
    (:meth:`root`).  Shared across threads, so every access holds its lock."""

    def __init__(self, capacity: int = MANIFEST_MEMO_ENTRIES):
        self.capacity = int(capacity)
        # file id -> [manifest, weight, Merkle root, digest tuple], the
        # last two None until first asked for (a save seeds the root)
        self._entries: OrderedDict[str, list] = OrderedDict()
        self._load = 0
        self._lock = threading.Lock()

    def get(self, file_id: str) -> Mapping | None:
        with self._lock:
            hit = self._entries.get(file_id)
            if hit is None:
                return None
            self._entries.move_to_end(file_id)
            return hit[0]

    def put(self, file_id: str, manifest: Mapping, root: str | None = None) -> Mapping:
        """Keep ``manifest`` (with ``root``, the Merkle root over its
        digests if the caller has it), evicting the least recently used;
        returns it."""
        weight = len(manifest["layers"]) + 2
        if weight > self.capacity:
            return manifest
        with self._lock:
            if file_id not in self._entries:
                self._entries[file_id] = [manifest, weight, root, None]
                self._load += weight
                while self._load > self.capacity:
                    evicted = self._entries.popitem(last=False)[1]
                    self._load -= evicted[1]
        return manifest

    def root(self, file_id: str, digests: Iterable[str]) -> str | None:
        """The Merkle root over ``digests`` if they are manifest
        ``file_id``'s chunk digests, in layer order: the root it was kept
        with, else folded now and kept.  ``None`` when the manifest is not
        kept or its digests are not ``digests``."""
        with self._lock:
            hit = self._entries.get(file_id)
        if hit is None:
            return None
        if hit[3] is None:
            hit[3] = tuple(meta["chunk"] for _name, meta in hit[0]["layers"])
        if tuple(digests) != hit[3]:
            return None
        if hit[2] is None:
            # lazy import: repro.core imports this module at package init
            from ..core.merkle import root_of

            hit[2] = root_of(hit[3])
        return hit[2]

    def __len__(self) -> int:
        return len(self._entries)


def self_checked(key: str) -> bool:
    """True iff a record is checked against its key alone (a file or a
    spec record); a layer chunk needs its manifest entry."""
    return is_file_id(key) or is_spec_key(key)


def is_file_id(key: str) -> bool:
    """True iff a record key is a file id, not a chunk digest.

    File ids are ``<16-hex sha256 prefix>-<uuid12><suffix>``; chunk
    digests are bare hex.
    """
    return key[16:17] == "-"


def chunk_intact(digest: str, data, layer: Mapping | None = None) -> bool:
    """True iff one record payload hashes back to its key.

    A file id (:func:`is_file_id`) starts with the sha256 prefix of its
    payload, and a spec record's key (:func:`is_spec_key`) is its whole
    sha256.  A chunk id is its layer's *tensor* hash (dtype + shape +
    bytes), so a chunk is checked with ``tensor_hash`` over ``layer``, the
    manifest entry it belongs to.  Recovery, fsck and cluster repair all
    verify a record through this one function.
    """
    if is_file_id(digest):
        prefix = digest.split("-", 1)[0]
        return hashlib.sha256(data).hexdigest()[: len(prefix)] == prefix
    if is_spec_key(digest):
        return hashlib.sha256(data).hexdigest() + SPEC_SUFFIX == digest
    # lazy import: repro.core imports this module at package init
    from ..core.hashing import tensor_hash

    try:
        array = np.frombuffer(data, dtype=_dtype(layer["dtype"])).reshape(layer["shape"])
    except ValueError:  # payload size disagrees with the manifest
        return False
    return tensor_hash(array) == digest


@functools.lru_cache(maxsize=64)
def _dtype(name: str) -> np.dtype:
    """The numpy dtype a manifest entry's ``dtype`` string names."""
    return np.dtype(name)


def _layer_array(meta: Mapping, data) -> np.ndarray | None:
    """One layer over its fetched chunk payload.

    ``None`` when its size disagrees with the entry's dtype and shape.
    The array is the caller's alone: it is over the fetched ``bytearray``
    itself — a chunk store read, which nobody else holds once the first
    reference to a digest has claimed it (later ones get a copy) — and
    over a ``bytearray`` copy of anything else (cached ``bytes``, a fault
    injector's).
    """
    if not isinstance(data, bytearray):
        data = bytearray(data)
    try:
        return np.frombuffer(data, dtype=_dtype(meta["dtype"])).reshape(meta["shape"])
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

    An entry is *vouched* once a verified recover has checked a payload of
    its digest against the content digest (:meth:`vouch`): it keeps the
    CRC-32 of the bytes that passed, and a later hit whose own bytes match
    that CRC needs no SHA-256 (:meth:`vouched`).  An entry starts
    unvouched, and its vouch goes with it (eviction, :meth:`discard`,
    :meth:`clear`).
    """

    def __init__(self, max_bytes: int = DEFAULT_CHUNK_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._vouched: dict[str, int] = {}  # digest -> CRC-32 of checked bytes
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
                self._vouched.pop(evicted_digest, None)
                self.current_bytes -= len(evicted)
                self.evictions += 1
                evicted_count += 1
                self._obs_events.emit(
                    "cache_evict", digest=evicted_digest, nbytes=len(evicted))
            self._obs_bytes.set(self.current_bytes)
        if evicted_count:
            self._obs_evictions.inc(evicted_count)

    def vouch(self, digest: str, crc: int) -> None:
        """Vouch for the entry of ``digest``, if one is cached: ``crc`` is the
        CRC-32 of bytes that just passed its content digest check."""
        with self._lock:
            if digest in self._entries:
                self._vouched[digest] = crc

    def vouched(self, digest: str, data) -> bool:
        """True iff ``data`` matches the CRC-32 the entry of ``digest`` was
        vouched with — bytes a content digest check already passed."""
        # no lock: a vouch is the CRC of the digest's one true content, so
        # one the entry lost since this read still vouches for those bytes
        crc = self._vouched.get(digest)
        return crc is not None and zlib.crc32(data) == crc

    def discard(self, digest: str) -> None:
        """Drop one entry (a payload that failed digest verification)."""
        with self._lock:
            self._vouched.pop(digest, None)
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
            self._vouched.clear()
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


#: The dotfile that says a store root holds the one format there is: v3
#: manifests over raw records, every model its own recovery base.
FORMAT_MARKER = ".format-v3"


def mark_root(root: Path) -> None:
    """Mark ``root`` as holding the one format, durably: the marker, then
    one fsync of the directory that names it."""
    (root / FORMAT_MARKER).touch()
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def open_root(root: Path) -> None:
    """Open ``root`` as a store root: a marked one opens (one ``stat``), an
    absent or empty one is created marked, and anything else raises
    :class:`~repro.errors.OlderFormatError` with nothing written."""
    if (root / FORMAT_MARKER).exists():
        return
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        root.mkdir(parents=True, exist_ok=True)
        names = []
    if FORMAT_MARKER in names:
        return  # a concurrent opener created it
    if names:
        raise OlderFormatError(root)
    mark_root(root)


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
    ``<16-hex sha256 prefix>-<uuid12><suffix>``; the prefix gives cheap
    corruption detection on recovery
    without a separate checksum channel.  Nothing is stored as a file
    under ``root`` but the format marker (:func:`open_root`; DESIGN.md §6
    "One store for every byte").

    State dicts are saved through :meth:`save_state_chunks`: each layer
    becomes one content-addressed chunk (keyed by its precomputed tensor
    hash), stored raw in the segment store, named by a binary (v3)
    manifest record — a header, then one raw digest per layer — whose
    layer names, dtypes and shapes are one spec record per layout.
    Identical layers across saves are stored once.  That is the only
    format there is: a root an older release wrote is refused on open
    (:func:`open_root`) and converted by ``mmlib import`` (DESIGN.md §11
    "One import door").

    Liveness is reachability: every stored file record is a root, and
    :meth:`gc_chunks` marks the chunks and the spec record each stored
    manifest names and sweeps the rest, holding :meth:`hold` exclusive
    from mark to sweep; a save holds it shared from its first write
    through its commit, so what
    it wrote or deduplicated against stays until something names it.  A
    save that fails or dies leaves unreachable records for the next gc
    (DESIGN.md §7).

    Robustness plumbing (all optional, all off by default):

    * ``faults`` — a :class:`~repro.faults.FaultInjector` consulted at
      every operation boundary (chaos testing);
    * ``retry`` — a :class:`~repro.retry.RetryPolicy` applied around each
      primitive operation, so transient failures are absorbed here and
      callers only ever see a typed error once the budget is spent;
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
      cache is attached, and a verified recover hashes a cached payload
      once, then checks its hits by CRC-32.

    A subclass changes how records travel through two hooks:
    :meth:`_put_chunk_data` writes one record and :meth:`_fetch_many`
    reads a batch.  Every read — a recover's chunks, a manifest, a spec
    record, a code file, a heal's re-fetch — goes through
    :meth:`_fetch_many`, and within it every record through
    :meth:`_read_chunk`, the fault plane and the key check of a file.

    Buffer ownership on the read path: the chunk store reads each
    record into a buffer of its own, and :meth:`recover_state_chunks`
    returns arrays over those buffers without copying them; whatever else
    a fetch yields (cached ``bytes``, a buffer a second layer also
    references) is copied once.  The test is the
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
        open_root(self.root)
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
        self._manifests = ManifestMemo()  # parsed manifests by file id
        self._specs = ManifestMemo()  # parsed spec records by key
        self._entries: dict[str, ManifestEntry] = {}  # interned, by chunk digest
        self._chunks: ChunkStore | None = None
        self._chunks_lock = threading.Lock()
        self._obs_tracer = obs.tracer()
        self._obs_coalesced = obs.registry().counter(
            "mmlib_chunk_cache_coalesced_total",
            "Chunk fetches coalesced by single-flight")

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

    def _cache_discard(self, digest: str) -> None:
        if self.chunk_cache is not None:
            self.chunk_cache.discard(digest)

    # -- the store's lock -------------------------------------------------------

    def hold(self, exclusive: bool = False):
        """The store's lock (:class:`~repro.filestore.segments.StoreLock`):
        shared by a save from its first write through its commit,
        exclusive by a sweep from its mark to its sweep."""
        return self.chunks.lock.hold(exclusive)

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
        separate checksum channel.  It is not flushed here: the next
        save's group fsync covers it (a model's code is written before its
        parameters).
        """
        file_id = self._new_file_id(data, suffix)
        with self.hold():
            self._put_chunk_data(file_id, data)
        return file_id

    def save_file(self, source: str | Path) -> str:
        """Copy an existing file into the store; returns the file id."""
        source = Path(source)
        data = source.read_bytes()
        return self.save_bytes(data, suffix=source.suffix)

    # -- chunked state save/recover ---------------------------------------------

    def _put_chunk_data(self, digest: str, buffer) -> bool:
        """Write one record (fault/retry wrapped).  A file record's fault
        point is ``file.write``, a chunk's ``chunk.write``."""
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
        return self._put_chunk_data(digest, buffer)

    def _read_chunk(self, digest: str, data=None) -> bytes:
        """One record through the fault plane: its fault point, its read,
        its in-transit corruption, its own retry.

        ``data`` is what :meth:`_fetch_many` already read for this record,
        its payload or the error its read raised; the first attempt takes
        it instead of reading the chunk store, a retry reads the store.  A file or spec record (fault
        points ``file.read``) is checked against its key instead of its
        record CRC — one check per byte, the stronger one — and a
        mismatch is retried; a chunk is checked by its reader.
        """
        pending = [data] if data is not None else []
        is_file = self_checked(digest)
        op = "file.read" if is_file else "chunk.read"

        def attempt() -> bytes:
            self._fault(op)
            payload = (pending.pop() if pending
                       else self.chunks.get_many([digest], crc=not is_file)[digest])
            if isinstance(payload, Exception):
                raise payload
            if self.faults is not None:
                payload = self.faults.corrupt(op, payload)
            if is_file and not chunk_intact(digest, payload):
                raise StoreCorruptionError(
                    f"stored file {digest!r} is corrupt: content digest mismatch")
            return payload

        retry_on = (TransientStoreError, StoreCorruptionError) if is_file else (
            TransientStoreError,)
        return self._call(op, attempt, retry_on=retry_on)

    def _fetch_many(self, digests: list[str], crc: bool,
                    crcs: dict | None = None) -> dict[str, bytes]:
        """Read a batch of records in one pass over the segments: the one
        read a subclass overrides (to charge a link, to route to replicas).

        :meth:`ChunkStore.get_many` reads every record, skipping its CRC
        when ``crc`` is false or every record is a file or spec record
        (checked against its key instead); each record then goes through
        :meth:`_read_chunk` in plan order with the payload already read, so
        the fault plane sees each record exactly as a one-by-one read would.
        A batch the chunk store refuses (a missing or damaged record) is
        left to those per-record reads, so the error surfaces where it
        always did; a one-record batch's error is that record's, raised
        by its first attempt without a second read.  ``crcs`` receives the
        record CRC of each returned payload that is the very buffer the
        batch checked against it.
        """
        crc = crc and not all(map(self_checked, digests))
        checked = {} if crcs is not None else None
        try:
            batch = self.chunks.get_many(digests, crc=crc, crcs=checked)
        except (ChunkNotFoundError, StoreCorruptionError) as exc:
            batch = {digests[0]: exc} if len(digests) == 1 else {}
        payloads = {digest: self._read_chunk(digest, batch.get(digest)) for digest in digests}
        if checked:
            crcs.update((digest, value) for digest, value in checked.items()
                        if payloads[digest] is batch[digest])
        return payloads

    def get_chunks(self, digests: Iterable[str], crc: bool = True,
                   crcs: dict | None = None) -> dict[str, bytes]:
        """Fetch many chunks as one batch; returns digest -> payload.

        Duplicates are fetched once, cached chunks are served from the
        hot-chunk LRU without touching the store, the misses are read in
        one pass over the segments (:meth:`_fetch_many`), and concurrent
        callers asking for the same digest share one transfer.
        ``crc=False`` skips the record CRC of the misses; only a caller
        that checks every payload against its content digest may pass it
        (:meth:`recover_state_chunks`).  ``crcs`` receives digest -> record
        CRC for each miss whose returned bytes were checked against it.
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
                results.update(self._fetch_many(misses, crc, crcs))
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
                    # what a flight that ended between this miss and begin()
                    # left behind: reading again would cross the link twice
                    landed = self._cache_get(digest) if digest in self.chunk_cache else None
                    if landed is None:
                        to_read.append(digest)
                    else:
                        results[digest] = landed
                if to_read:
                    fetched = self._fetch_many(to_read, crc, crcs)
                    for digest, data in fetched.items():
                        self.chunk_cache.put(digest, data)
                    results.update(fetched)
            finally:
                for digest in leaders:
                    self._singleflight.done(digest)
            for digest, event in waits:
                event.wait()
                cached = self._cache_get(digest)
                if cached is None:  # the leader failed or the entry was evicted
                    cached = self._fetch_many([digest], True)[digest]
                results[digest] = cached
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
        stored: Collection[str] = frozenset(),
        root: str | None = None,
    ) -> str:
        """Save a flat state dict as per-layer chunks plus a manifest.

        ``layer_hashes`` maps each layer name to its already-computed
        tensor hash (the Merkle leaves) — the chunk ids — in the order the
        manifest lists them.  A layer in ``held`` is listed by that
        manifest entry (``chunk``, ``dtype``, ``shape``): its chunk is
        already stored, so it is not written; one no longer stored when
        the save takes its hold raises
        :class:`~repro.errors.LayersNeededError` naming its layers.  Every
        other layer is its array in ``state``, whose chunk is put unless
        the layer is in ``stored`` — a layer whose chunk a stored manifest
        names (a PUA save's unchanged layers, its base's), listed from its
        array.  Nothing is re-hashed here, and already-contiguous arrays
        are written from a ``memoryview`` without copying.  With
        ``workers`` (default: the store's ``workers`` setting) distinct
        chunks are written concurrently.

        The layout's spec record is put if absent, then the chunks, then
        the manifest record, before the one group fsync that covers them
        all.  Returns the manifest's file id, which carries the
        ``.manifest`` suffix so recovery, deletion, and sizing recognize
        it; the parse memo starts out holding the manifest, and beside it
        ``root`` — the Merkle root over ``layer_hashes``' values in order,
        which the caller has already folded — so that :meth:`manifest_root`
        need not fold it again.  The whole save
        runs under :meth:`hold` shared, so no sweep falls between a chunk
        found stored and the manifest that names it.
        """
        if not suffix.endswith(MANIFEST_SUFFIX):
            raise ValueError(f"manifest suffix must end with {MANIFEST_SUFFIX!r}")
        with self._obs_tracer.span("store.save_chunks", layers=len(layer_hashes)), self.hold():
            held = held or {}
            gone = set(self.chunks.missing(meta["chunk"] for meta in held.values()))
            lost = [name for name, meta in held.items() if meta["chunk"] in gone]
            if lost:
                raise LayersNeededError(lost)
            layout = []
            buffers = {}
            for name, digest in layer_hashes.items():
                meta = held.get(name)
                if meta is None:
                    array = state[name]
                    if name not in stored and digest not in buffers:
                        buffers[digest] = self._layer_buffer(array)
                    layout.append((name, array.dtype, array.shape))
                else:
                    layout.append((name, np.dtype(meta["dtype"]), tuple(meta["shape"])))
            spec_key, spec, parsed = _spec_record(tuple(layout))
            digests = list(layer_hashes.values())
            body = bytes.fromhex("".join(digests))
            if len(body) != 32 * len(digests):
                raise ValueError("every layer hash must be a 64-hex sha256 digest")
            manifest = _MANIFEST_HEAD.pack(
                MANIFEST_TAG, bytes.fromhex(spec_key[:64]), len(digests)) + body
            file_id = self._new_file_id(manifest, suffix)
            self._put_chunk_data(spec_key, spec)
            unique = list(buffers)
            n = self._effective_workers(workers, len(unique))
            if n <= 1:
                for digest in unique:
                    self._put_chunk_data(digest, buffers[digest])
            else:
                with ThreadPoolExecutor(max_workers=n) as pool:
                    list(pool.map(lambda d: self._put_chunk_data(d, buffers[d]), unique))
            self._put_chunk_data(file_id, manifest)
            # group fsync: one durability barrier for the whole batch, the
            # manifest included
            self.chunks.flush()
            parsed = self._specs.get(spec_key) or self._specs.put(spec_key, parsed)
            self._manifests.put(
                file_id, _manifest_view(file_id, spec_key, parsed, digests, self._entries), root)
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
        file_id: str,
        verify: bool | None = None,
        verified: dict | None = None,
        skip: frozenset = frozenset(),
    ) -> "OrderedDict[str, np.ndarray | None]":
        """Rebuild the state dict a manifest describes (bitwise identical).

        Every chunk the manifest names is fetched in one
        :meth:`get_chunks` batch; layer order in the returned dict always
        matches the manifest.

        Each rebuilt layer is checked once against its content digest —
        its chunk id, the layer's tensor hash — on the shared hashing
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
        chunk cache will hand the payloads to other readers; then a cache
        hit whose bytes match the CRC-32 its entry was vouched with is not
        hashed again, and each payload that passes vouches for its entry
        (DESIGN.md §14 "Verify once").

        A layer whose content digest is in ``skip`` — bytes the caller
        already holds — is not fetched: it maps to ``None`` in the returned
        state and to that digest in ``verified``, for the caller's Merkle
        root to vouch for (DESIGN.md §15.2).  ``verified`` is filled in
        layer order, so when it holds every layer it is the manifest's
        digest vector, whose root :meth:`manifest_root` keeps.

        No returned array shares memory with another, with the chunk
        cache, or with a later call's: each is the buffer its chunk was
        read into or a copy (see :func:`_layer_array`).
        """
        strict = self.verify_reads if verify is None else bool(verify)
        check = strict or verified is not None
        with self._obs_tracer.span("store.recover_chunks", file_id=file_id) as sp:
            layers = self.read_manifest(file_id)["layers"]
            wanted = [meta["chunk"] for _name, meta in layers]
            if skip:
                wanted = [digest for digest in wanted if digest not in skip]
            sp.set(layers=len(wanted), held=len(layers) - len(wanted))
            # the payloads are digest-checked below, so their record CRC
            # may be skipped — unless the cache hands them to others
            crcs = {} if check and self.chunk_cache is not None else None
            payloads = self.get_chunks(
                wanted, crc=not check or self.chunk_cache is not None, crcs=crcs)
            # one fetched buffer may back several layers (identical tensors
            # share a digest): its first reference gets the buffer, every
            # later one a copy of it
            first: dict[str, str] = {}
            state: "OrderedDict[str, np.ndarray | None]" = OrderedDict()
            for name, meta in layers:
                digest = meta["chunk"]
                if digest in skip:
                    state[name] = None
                    continue
                data = payloads[digest]
                if digest in first:
                    data = bytearray(data)
                else:
                    first[digest] = name
                array = state[name] = _layer_array(meta, data)
                if array is None and not check:
                    self._misfit(name, digest)
            if check:
                self._check_layers(layers, state, first, skip, strict, verified, crcs)
            return state

    def _check_layers(self, layers, state, first, skip, strict, verified, crcs) -> None:
        """Hash each distinct fetched layer once, in byte-balanced runs on
        the shared pool; heal the layers that fail, record in ``verified``,
        in layer order, the ones that pass and the ones in ``skip``.

        ``first`` maps each fetched digest to the layer rebuilt over its
        payload; the others with that digest hold copies of it, so its
        hash checks them all.  With a chunk cache (``crcs`` is then the
        record CRCs :meth:`get_chunks` checked) a layer whose bytes match
        the CRC-32 its digest's cache entry was vouched with is not hashed,
        and a layer that passes its hash vouches for the entry: with its
        record CRC when that was checked on these bytes, else with a CRC-32
        taken here.
        """
        # lazy import: repro.core imports this module at package init
        from ..core.hashing import state_dict_hashes

        cache = self.chunk_cache if crcs is not None else None
        trusted = set() if cache is None else {
            digest for digest, name in first.items()
            if state[name] is not None and digest not in crcs
            and cache.vouched(digest, state[name])}
        hashes = state_dict_hashes(
            {name: state[name] for digest, name in first.items()
             if state[name] is not None and digest not in trusted})
        for name, meta in layers:
            digest = meta["chunk"]
            if digest in skip or digest in trusted:
                intact = True
            else:
                intact = hashes.get(first[digest]) == digest
                if not intact:
                    state[name], intact = self._heal_layer(name, meta, state[name], strict)
                    if state[name] is None:
                        self._misfit(name, digest)
                elif cache is not None and first[digest] == name:
                    crc = crcs.get(digest)
                    cache.vouch(digest, zlib.crc32(state[name]) if crc is None else crc)
            if intact and verified is not None:
                verified[name] = digest

    def _misfit(self, name: str, digest: str) -> None:
        """Raise for layer ``name``, whose chunk payload does not fit its
        manifest entry, first dropping the payload from the cache."""
        self._cache_discard(digest)
        raise StoreCorruptionError(
            f"layer {name!r} is corrupt: its chunk payload does not fit the "
            f"manifest entry (chunk {digest[:12]})")

    def _heal_layer(self, name, meta, array, strict):
        """Re-fetch the chunk of one layer that failed its check.

        Returns the layer and whether it now matches its digest.  Each
        failed attempt drops the cached copy (a poisoned entry would return
        the same bytes); the attempt that passes vouches for the new one.
        """
        digest = meta["chunk"]
        attempts = max(1, self.retry.max_attempts) if self.retry is not None else 1
        for _ in range(attempts - 1):  # the batch was the first attempt
            self._cache_discard(digest)
            data = self.get_chunks([digest])[digest]
            if chunk_intact(digest, data, meta):
                if self.chunk_cache is not None:
                    self.chunk_cache.vouch(digest, zlib.crc32(data))
                return _layer_array(meta, data), True
        self._cache_discard(digest)
        if strict:
            raise StoreCorruptionError(
                f"chunk {digest!r} of layer {name!r} is corrupt: content digest "
                f"mismatch persisted across {attempts} fetch attempt(s)"
            )
        return array, False

    def read_manifest(self, file_id: str) -> Mapping:
        """Load and validate a manifest file, as a read-only mapping:
        ``format``, ``spec`` (its spec record's key) and ``layers``.

        The record is read and checked against its id's digest prefix on
        every call; only the parse is memoized, by file id once that check
        has passed: a file id is content-prefixed and never rewritten, so
        bytes that pass it are the bytes that were parsed (DESIGN.md §14
        "Verify once").  The spec record is read, checked against its key
        and parsed the first time this store meets it, then memoized by
        key: its key is its whole digest.  So the value is shared:
        ``layers`` is a tuple of ``(name, entry)`` pairs, each entry a
        read-only :class:`ManifestEntry`.
        """
        data = self.recover_bytes(file_id)
        manifest = self._manifests.get(file_id)
        if manifest is None:
            spec_key, digests = _manifest_digests(file_id, data)
            manifest = self._manifests.put(file_id, _manifest_view(
                file_id, spec_key, self._spec(file_id, spec_key), digests, self._entries))
        return manifest

    def manifest_root(self, file_id: str, digests: Iterable[str]) -> str | None:
        """The Merkle root over ``digests`` if they are the chunk digests
        of manifest ``file_id`` as its kept parse holds them, in layer
        order: the root the save that wrote it passed, else folded once,
        the first time it is asked for.  ``None`` when the parse is not
        kept or names other digests.  Reads nothing: the parse is of bytes
        a :meth:`read_manifest` of ``file_id`` checked, the only bytes that
        id names."""
        return self._manifests.root(file_id, digests)

    def _spec(self, file_id: str, key: str) -> Mapping:
        """The parsed spec record ``key`` that manifest ``file_id`` names."""
        spec = self._specs.get(key)
        if spec is None:
            try:
                data = bytes(self._fetch_many([key], crc=False)[key])
            except ChunkNotFoundError:
                raise StoreCorruptionError(
                    f"manifest {file_id!r} names missing spec record {key!r}") from None
            spec = self._specs.put(key, _parse_spec(key, data))
        return spec

    def manifest_keys(self, file_id: str) -> list[str]:
        """The records manifest ``file_id`` keeps alive — its spec record's
        key, then every chunk digest in layer order — from the manifest
        record alone (its id's prefix checked)."""
        spec_key, digests = _manifest_digests(file_id, self.recover_bytes(file_id))
        return [spec_key, *digests]

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
            return bytes(self._fetch_many([file_id], crc=False)[file_id])
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
        """Drop the stored files ``file_ids``; returns those that existed.

        Only the file records go: a chunk a dropped manifest named is
        swept by the next :meth:`gc_chunks` once no stored manifest names
        it.
        """
        return self.chunks.drop_many(file_ids)

    def size(self, file_id: str, shared: frozenset = frozenset()) -> int:
        """Logical size in bytes of one stored file.

        For a manifest this is the manifest record plus the raw bytes of
        every referenced layer — the bytes a recovery materializes —
        independent of how much of it is deduplicated on disk (see
        :meth:`total_bytes` for the physical view); a layer whose chunk is
        in ``shared`` (another model's, say its base's) is not counted.
        Layer sizes come from the manifest's dtype/shape metadata, whatever
        the records hold.  The file's own part is its record's size.
        """
        size = self.chunks.size_of(file_id)
        if size is None:
            raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}")
        if self.is_manifest_id(file_id):
            manifest = self.read_manifest(file_id)
            for _name, meta in manifest["layers"]:
                if meta["chunk"] in shared:
                    continue
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

    def gc_chunks(self) -> dict:
        """Mark from every stored file, sweep the rest, compact.

        Every stored file record is a root, and every chunk and spec
        record a stored manifest names is marked.  Under :meth:`hold`
        exclusive the mark is taken and :meth:`ChunkStore.reap` sweeps the
        rest and reaps expired tmp files; compaction follows once the hold
        is released, so saves wait out the mark and the sweep only.  A
        stored manifest that cannot be read leaves what it names unknown:
        nothing is swept, and its id is under ``unreadable_manifests`` and
        in a ``gc.sweep_skipped`` event.
        """
        with self.hold(exclusive=True):
            live, unreadable = self.mark(self.file_ids())
            if unreadable:
                obs.event("gc.sweep_skipped", unreadable_manifests=unreadable)
            swept = self.chunks.reap(None if unreadable else live)
        compacted = self.chunks.compact()
        return dict(swept, segments_compacted=compacted["segments_compacted"],
                    segments_skipped=compacted["segments_skipped"],
                    unreadable_manifests=unreadable)

    def mark(self, file_ids: Iterable[str]) -> tuple[set[str], list[str]]:
        """The record keys ``file_ids`` keep alive — each stored one, and
        if it is a manifest its spec record and every chunk it names — and
        the stored manifests that could not be read, whose chunks are
        unknown."""
        live: set[str] = set()
        unreadable: list[str] = []
        for file_id in file_ids:
            if not self.exists(file_id):
                continue
            live.add(file_id)
            if not self.is_manifest_id(file_id):
                continue
            try:
                live.update(self.manifest_keys(file_id))
            except FileNotFoundInStoreError:
                continue  # dropped since it was listed
            except (IOError, ValueError):
                unreadable.append(file_id)
        return live, unreadable

    def close(self) -> None:
        """Release the chunk store's file handles (checkpointing its index
        when it changed, see :meth:`ChunkStore.close`); a later call opens
        what it needs again."""
        if self._chunks is not None:
            self._chunks.close()

    def clear(self) -> None:
        shutil.rmtree(self.root)
        open_root(self.root)
        self._chunks = None
        if self.chunk_cache is not None:
            self.chunk_cache.clear()
