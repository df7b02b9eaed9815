"""The one upgrade: what older releases wrote, rewritten once on open.

Older releases wrote JSON (v1) manifests, PUA delta levels that name only
the layers a model changed, zlib/lz4/escape-framed records, v2 manifests
of sha256 pieces and monolithic ``.params`` / ``.update`` blobs; this
module is the only code that reads them (DESIGN.md §11 "One upgrader").
A root that holds only the one format carries :data:`FORMAT_MARKER`, so
opening it costs one ``stat``.
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
from ..errors import MMLibError, StoreCorruptionError

try:
    import fcntl
except ImportError:  # non-posix platform: single-process locking only
    fcntl = None

try:  # never installed: older releases wrote lz4 frames only where it was
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    _lz4 = None

#: The dotfile that says a root holds only the one format: v3 manifests
#: over raw records, every model its own recovery base.
FORMAT_MARKER = ".format-v3"

#: The marker the release before wrote on a root holding only v1
#: manifests: it says nothing about v3, so a root holding it is upgraded,
#: and it goes when the root is marked.
RETIRED_MARKERS = (".one-format",)

#: The JSON manifest tags: v1 names a chunk per layer, v2 a run of
#: sha256-keyed pieces per layer plus a ``hash``.
MANIFEST_FORMAT_V1 = "mmlib-chunked-state-v1"
MANIFEST_FORMAT_V2 = "mmlib-chunked-state-v2"

#: Suffixes of the monolithic state blobs.
BLOB_SUFFIXES = (".params", ".update")

#: A chunk frame: ``MMCZ | codec id (u8) | decoded length (u64 LE) | body``.
FRAME_MAGIC = b"MMCZ"
_FRAME = struct.Struct("<4sBQ")
CODEC_STORED, CODEC_ZLIB, CODEC_LZ4 = 0, 1, 2  # stored: raw bytes that began MMCZ

_ERRORS = (OSError, KeyError, ValueError, TypeError, AttributeError, MMLibError)


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
    the framed records none names; (3) each retired level ``service``'s
    catalog names — a v1, v2 or blob snapshot, any PUA delta — is saved
    again as a full v3 manifest and swapped in, bases first, and a gc
    sweeps what is left unnamed; (4) the members' roots, then the store's,
    are marked — only if every manifest was read and no retired level is
    left.  What fails a check stays as it was, for fsck; the next open
    starts over.
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
        # layers: chunk -> entry; retired: file id -> (format, JSON layers)
        layers, retired, complete = {}, {}, True
        for file_id in files.file_ids():
            if file_id.endswith(BLOB_SUFFIXES):
                retired[file_id] = ("blob", None)
            elif files.is_manifest_id(file_id):
                try:
                    level = _retired_manifest(files, file_id)
                    if level is None:
                        entries = files.read_manifest(file_id)["layers"]
                    else:
                        retired[file_id] = level
                        entries = level[1] if level[0] == "v1" else ()
                    layers.update((m["chunk"], m) for _, m in entries)
                except _ERRORS:
                    complete = False
        for store, keys in zip(stores, framed):
            _reappend(store, keys, layers)
        # a framed record no manifest names goes before a level's rewrite
        # can deduplicate against it
        files.gc_chunks()
        if _upgrade_levels(service, retired):
            files.gc_chunks()  # what no stored manifest names now
        if complete and not retired.keys() & set(files.file_ids()):
            for root in [*(member.root for member in members), files.root]:
                fault_hook("upgrade.mark")
                (root / FORMAT_MARKER).touch()
                for name in RETIRED_MARKERS:
                    (root / name).unlink(missing_ok=True)
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


def _retired_manifest(files, file_id: str):
    """``(format, layers)`` of a JSON manifest (``"v1"`` or ``"v2"``),
    ``None`` for a v3 one; raises for one that reads as neither."""
    data = files.recover_bytes(file_id)
    if not data.startswith(b"{"):
        files.manifest_keys(file_id)  # raises unless it is v3
        return None
    manifest = json.loads(data)
    kind = {MANIFEST_FORMAT_V1: "v1", MANIFEST_FORMAT_V2: "v2"}[manifest.get("format")]
    return kind, manifest["layers"]


def retired_keys(files, file_id: str) -> list[str] | None:
    """The records a JSON (v1 or v2) manifest keeps alive — a v1 one's
    chunks, a v2 one's pieces; ``None`` if ``file_id`` is no readable JSON
    manifest."""
    try:
        level = _retired_manifest(files, file_id)
        if level is not None:
            kind, layers = level
            if kind == "v1":
                return [meta["chunk"] for _, meta in layers]
            return [digest for _, meta in layers for digest in meta["chunks"]]
    except _ERRORS:
        pass
    return None


def _bases_first(documents: dict) -> list[str]:
    """The ids of ``documents`` (id -> document) with each base before the
    models derived from it; a cycle's members come in no set order."""
    order, placed = [], set()
    for model_id in sorted(documents):
        trail = []
        current = model_id
        while current in documents and current not in placed and current not in trail:
            trail.append(current)
            current = documents[current].get("base_model")
        for found in reversed(trail):
            placed.add(found)
            order.append(found)
    return order


def _level_state(files, file_id: str, level) -> tuple[list, dict, dict, list]:
    """One retired level's layers: ``(order, arrays, entries, recorded)``
    — its layer names in order, the layers read into arrays (a blob's, a
    v2 level's), the manifest entries of those whose chunks are stored (a
    v1 level's) and the digests the level records for them (a v2 layer's
    ``hash``)."""
    kind, layers = level
    if kind == "blob":
        from ..nn import serialization

        arrays = serialization.loads(files.recover_bytes(file_id))
        return list(arrays), arrays, {}, []
    if kind == "v1":
        return [name for name, _ in layers], {}, {name: dict(meta) for name, meta in layers}, []
    fetched = files.get_chunks([d for _, meta in layers for d in meta["chunks"]])
    arrays = {
        name: np.frombuffer(
            bytearray().join(fetched[d] for d in meta["chunks"]),
            dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
        for name, meta in layers}
    return [name for name, _ in layers], arrays, {}, [
        {name: meta["hash"] for name, meta in layers}]


def _upgrade_levels(service, retired: dict) -> int:
    """Step 3: every model document of ``service``'s catalog naming a
    retired level or a PUA delta, bases first, becomes its own recovery
    base — a full v3 manifest as its ``parameters_file``, and a delta its
    chain's ``architecture`` — swapped in by one document replace, then
    the old level's record dropped (its pieces go at the next gc).  A
    delta's layers are its base's manifest (or an MPA base's replayed
    state) overridden by its own; every layer is checked against the
    document's Merkle root and any table it recorded.  Returns the levels
    rewritten."""
    from ..core.compaction import ChainCompactor  # repro.core imports this package
    from ..core.hashing import state_dict_hashes
    from ..core.merkle import root_of
    from ..core.schema import MODELS

    files, models = service.files, service.documents.collection(MODELS)
    rewriter = ChainCompactor(service)
    rewriter.fault_hook = lambda _op: fault_hook("upgrade.level")
    found = {d["_id"]: d for d in models.find(
        projection=("base_model", "parameters_file", "update_file"))}
    rewritten = 0
    for model_id in _bases_first(found):
        file_id = found[model_id].get("parameters_file") or found[model_id].get("update_file")
        if file_id not in retired:
            continue
        delta = not found[model_id].get("parameters_file")
        try:
            document = models.get(model_id)
            order, arrays, entries, recorded = _level_state(files, file_id, retired[file_id])
            if delta:
                order, arrays, entries = _over_base(service, document, order, arrays, entries)
            digests = state_dict_hashes(arrays)
            hashes = OrderedDict(
                (name, entries[name]["chunk"] if name in entries else digests[name])
                for name in order)
            recorded.append(dict(document.get("layer_hashes") or ()))
            if any(r.get(name, h) != h for r in recorded for name, h in hashes.items()) or (
                    document.get("merkle_root") not in (None, root_of(list(hashes.values())))):
                raise ValueError("layer hash mismatch")
            with service._save_transaction():  # no sweep before the swap
                document["parameters_file"] = service._save_state(
                    arrays, hashes, kind="params", held=entries)
                if delta:
                    document["architecture"] = service._chain_architecture(model_id)
                for field in ("update_file", "updated_layers", "layer_hashes"):
                    document.pop(field, None)
                rewriter.swap(model_id, document, release=lambda: files.delete(file_id))
        except _ERRORS as exc:
            obs.events().emit("upgrade_skipped", file_id=file_id, reason=str(exc))
            continue
        rewritten += 1
        fault_hook("upgrade.level")
    return rewritten


def _over_base(service, document: dict, order: list, arrays: dict, entries: dict):
    """A delta level's layers over its base's: ``(order, arrays,
    entries)`` as :func:`_level_state` gives them, in the base's layer
    order.  A base with a manifest (rewritten already: bases come first)
    gives its entries, an MPA base its replayed state."""
    from ..core.schema import MODELS

    base_id = document.get("base_model")
    base = service.documents.collection(MODELS).get(
        base_id, projection=("parameters_file",))
    if base.get("parameters_file"):
        layers = service.files.read_manifest(base["parameters_file"])["layers"]
        base_entries, base_arrays = {name: dict(meta) for name, meta in layers}, {}
    else:
        base_entries, base_arrays = {}, dict(service.recover_layers(base_id).state)
    base_order = list(base_entries or base_arrays)
    merged = base_order + [name for name in order if name not in set(base_order)]
    own = set(order)
    arrays = {**{n: a for n, a in base_arrays.items() if n not in own}, **arrays}
    entries = {**{n: m for n, m in base_entries.items() if n not in own}, **entries}
    return merged, arrays, entries
