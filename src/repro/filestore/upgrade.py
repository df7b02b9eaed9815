"""The one upgrade: what older releases wrote, rewritten once on open.

Older releases also wrote zlib/lz4/escape-framed records, v2 manifests of
sha256 pieces and monolithic ``.params`` / ``.update`` blobs; this module is
the only code that reads them (DESIGN.md §11 "One upgrader").  A root that
holds only the one format carries :data:`FORMAT_MARKER`, so opening it
costs one ``stat``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .. import obs
from ..errors import StoreCorruptionError

try:
    import fcntl
except ImportError:  # non-posix platform: single-process locking only
    fcntl = None

try:  # never installed: older releases wrote lz4 frames only where it was
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    _lz4 = None

#: The dotfile that says a root holds only the one format.
FORMAT_MARKER = ".one-format"

#: The v2 manifest tag: per layer a run of sha256-keyed pieces and a ``hash``.
MANIFEST_FORMAT_V2 = "mmlib-chunked-state-v2"

#: Suffixes of the monolithic state blobs.
BLOB_SUFFIXES = (".params", ".update")

#: A chunk frame: ``MMCZ | codec id (u8) | decoded length (u64 LE) | body``.
FRAME_MAGIC = b"MMCZ"
_FRAME = struct.Struct("<4sBQ")
CODEC_STORED, CODEC_ZLIB, CODEC_LZ4 = 0, 1, 2  # stored: raw bytes that began MMCZ

_ERRORS = (OSError, KeyError, ValueError, TypeError, AttributeError)


def fault_hook(op: str) -> None:
    """Called after each ``upgrade.chunk`` / ``upgrade.level`` step and
    before each ``upgrade.mark``; a crash test replaces it."""


def decode(payload):
    """The bytes of an at-rest ``payload``: an unframed one as it is, a
    frame decoded; :class:`~repro.errors.StoreCorruptionError` for a
    malformed frame, an unknown or absent codec, or a length mismatch."""
    if bytes(payload[:4]) != FRAME_MAGIC:
        return payload
    data = bytes(payload)
    decoders = {CODEC_STORED: bytes, CODEC_ZLIB: zlib.decompress,
                CODEC_LZ4: _lz4 and _lz4.decompress}
    try:
        _magic, codec, length = _FRAME.unpack_from(data)
        raw = decoders[codec](data[_FRAME.size:])
    except Exception as exc:  # a short header, a bad body, a codec not there
        raise StoreCorruptionError(f"corrupt chunk frame: {exc!r}") from exc
    if len(raw) != length:
        raise StoreCorruptionError(f"chunk frame of {length} bytes holds {len(raw)}")
    return raw


def open_root(root: Path) -> bool:
    """Make ``root``; True iff it holds only the one format.  One ``stat``
    when it is marked; an absent or empty root is created marked."""
    if (root / FORMAT_MARKER).exists():
        return True
    root.mkdir(parents=True, exist_ok=True)
    with os.scandir(root) as entries:
        if next(entries, None) is not None:
            return False
    (root / FORMAT_MARKER).touch()  # a lost one only runs the upgrade again
    return True


def upgrade(service) -> None:
    """Rewrite what older releases left in ``service``'s file store.

    Under an ``flock`` on its root, with each chunk store behind it indexed
    from disk again: (1) a framed record is appended again, raw, under its
    key when it passes its CRC and hashes back to the key decoded, not as
    stored — layer chunks once (2) the manifests are read, and a gc sweeps
    the framed records none names; (3) each blob or v2 level ``service``'s
    catalog names is saved again as a v1 manifest and swapped in, and a gc
    sweeps the pieces left unnamed; (4) the members' roots, then the
    store's, are marked — only if every manifest was read
    and no retired level is left.  What fails a
    check stays as it was, for fsck; the next open starts over.
    """
    files = service.files
    members = list(getattr(files, "members", {}).values())
    fd = os.open(files.root, os.O_RDONLY)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        stores = [member.chunks for member in members or [files]]
        for store in stores:  # another process may have upgraded it
            with store.lock.hold(exclusive=True), store._mutex:
                store._index.clear()
                store._segmeta.clear()
                store._load_checkpoint()
                store._refresh_locked()
        files.one_format = (files.root / FORMAT_MARKER).exists()
        if files.one_format:
            return
        framed = [_reappend(store, store.chunk_ids(), {}) for store in stores]
        layers, retired, complete = {}, {}, True  # retired: file id -> v2 layers
        for file_id in files.file_ids():
            if file_id.endswith(BLOB_SUFFIXES):
                retired[file_id] = None
            elif files.is_manifest_id(file_id):
                try:
                    manifest = json.loads(files.recover_bytes(file_id))
                    if manifest.get("format") == MANIFEST_FORMAT_V2:
                        retired[file_id] = manifest["layers"]
                    else:
                        layers.update((m["chunk"], m) for _, m in manifest["layers"])
                except _ERRORS:
                    complete = False
        for store, keys in zip(stores, framed):
            _reappend(store, keys, layers)
        # a framed record no manifest names goes before a level's rewrite
        # can deduplicate against it
        files.gc_chunks()
        _upgrade_levels(service, retired)
        if retired:
            files.gc_chunks()  # the pieces no stored manifest names now
        if complete and not retired.keys() & set(files.file_ids()):
            for root in [*(member.root for member in members), files.root]:
                fault_hook("upgrade.mark")
                (root / FORMAT_MARKER).touch()
            files.one_format = True
    finally:
        os.close(fd)


def _reappend(store, keys, layers: dict) -> list[str]:
    """Step 1 over ``keys``: a key in ``layers`` is a layer chunk, any other
    but a file id a v2 piece.  Returns the framed keys it left."""
    from .store import chunk_intact, is_file_id

    def vouched(key, data):
        if is_file_id(key) or key in layers:
            return chunk_intact(key, data, layers.get(key))
        return hashlib.sha256(data).hexdigest() == key

    left = []
    with store.lock.hold(exclusive=True), store._mutex:
        for key in keys:
            entry = store._index.get(key)
            fileobj = entry and store._read_file_locked(entry[0])
            if not fileobj or os.pread(fileobj.fileno(), 4, entry[1]) != FRAME_MAGIC:
                continue
            payload = store._read_intact_locked(entry)
            if payload is None or vouched(key, payload):
                continue  # damaged, or raw bytes that begin with the magic
            try:
                raw = decode(payload)
            except StoreCorruptionError:
                raw = None
            if raw is None or not vouched(key, raw):
                left.append(key)
                continue
            store._drop_entry_locked(key)
            store.put(key, raw)
            fault_hook("upgrade.chunk")
        store.flush()
        fault_hook("upgrade.chunk")
        store._write_checkpoint_locked()
    return left


def v2_pieces(files, file_id: str) -> list[str] | None:
    """The pieces a v2 manifest references; ``None`` if ``file_id`` is not
    a readable v2 manifest."""
    try:
        manifest = json.loads(files.recover_bytes(file_id))
        if manifest.get("format") == MANIFEST_FORMAT_V2:
            return [digest for _, meta in manifest["layers"] for digest in meta["chunks"]]
    except _ERRORS:
        pass
    return None


def _upgrade_levels(service, retired: dict) -> None:
    """Step 3: a level's layers are checked against the document's
    ``layer_hashes`` (and a v2 layer's ``hash``), saved through
    ``service._save_state`` and swapped in: the manifest, one document
    replace, then the old level's record dropped (its pieces go at the
    next gc)."""
    from ..core.compaction import ChainCompactor  # repro.core imports this package
    from ..core.hashing import state_dict_hashes
    from ..core.schema import MODELS
    from ..nn import serialization

    files, models = service.files, service.documents.collection(MODELS)
    rewriter = ChainCompactor(service)
    rewriter.fault_hook = lambda _op: fault_hook("upgrade.level")
    for found in models.find(projection=("parameters_file", "update_file")):
        for field in ("parameters_file", "update_file"):
            file_id = found.get(field)
            if file_id not in retired:
                continue
            entries = retired[file_id]
            try:
                document = models.get(found["_id"])
                recorded = [dict(document.get("layer_hashes") or ())]
                if entries is None:
                    state = serialization.loads(files.recover_bytes(file_id))
                else:
                    fetched = files.get_chunks(
                        [d for _, meta in entries for d in meta["chunks"]])
                    state = OrderedDict(
                        (name, np.frombuffer(
                            bytearray().join(fetched[d] for d in meta["chunks"]),
                            dtype=np.dtype(meta["dtype"])).reshape(meta["shape"]))
                        for name, meta in entries)
                    recorded.append({name: meta["hash"] for name, meta in entries})
                hashes = state_dict_hashes(state)
                if any(r.get(name, h) != h for r in recorded for name, h in hashes.items()):
                    raise ValueError("layer hash mismatch")
                kind = "params" if field == "parameters_file" else "update"
                with service._save_transaction():  # no sweep before the swap
                    document[field] = service._save_state(state, hashes, kind=kind)
                    rewriter.swap(document["_id"], document,
                                  release=lambda: files.delete(file_id))
            except _ERRORS as exc:
                obs.events().emit("upgrade_skipped", file_id=file_id, reason=str(exc))
                continue
            fault_hook("upgrade.level")
