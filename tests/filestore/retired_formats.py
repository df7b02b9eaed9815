"""Writers for the formats older releases saved, so tests can build such stores.

A save writes one format: a binary (v3) manifest naming every layer, whose
chunks are stored raw.  Stores written before that can hold four more, and
every one of them is converted by the import (:mod:`repro.importer`):

* ``"v1"`` manifests: JSON, one ``chunk``/``dtype``/``shape`` entry per
  layer, and a PUA model a delta level — an ``update_file`` naming only
  the layers it changed, over its base's;
* ``"v2"`` manifests: each layer is a run of sha256-addressed pieces plus
  its tensor hash.  The retired writer cut the pieces by content; these
  are fixed-size, since a reader never splits anything;
* ``zlib``-framed segment records instead of raw bytes, and escape-framed
  ones where a record's bytes begin with the frame magic;
* ``"params"``: the whole state serialized into one ``.params`` /
  ``.update`` blob, with no manifest and no chunks.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np

from repro import importer as codecs
from repro.core.merkle import root_of
from repro.filestore import FileStore
from repro.filestore.store import MANIFEST_SUFFIX, self_checked
from repro.importer import MANIFEST_FORMAT_V1, MANIFEST_FORMAT_V2
from repro.nn import serialization
from tests.filestore.helpers import locate
from tests.filestore.older_release import older_encode


def older_release(service, layer_hashes: bool = True):
    """``service``, saving as older releases did: JSON (v1) manifests (or
    what a :class:`RetiredFormatStore` writes), and a PUA model as a delta
    level — an ``update_file`` naming only the layers it changed, no
    ``parameters_file``, no ``architecture``.  With ``layer_hashes`` (the
    releases before the last one to write v1) each document with a Merkle
    root also stores its model's whole layer table.  Returns ``service``."""
    files = service.files
    tables: dict[str, dict] = {}  # model id -> its whole table
    table: list[dict] = []  # the running save's
    insert = service._insert_model_document

    def save_state(state, hashes, kind, held=None, root=None):
        table[:] = [dict(hashes)]
        suffix = f".{kind}{MANIFEST_SUFFIX}"
        if isinstance(files, RetiredFormatStore) and files.manifest != "v3":
            return files.save_state_chunks(state, hashes, suffix, held=held)
        return write_v1(files, state, hashes, suffix, held)  # no release wrote v3 levels

    def inserting(document):
        whole = table.pop() if table else None
        if whole and layer_hashes and document.get("merkle_root"):
            document = {**document, "layer_hashes": [[n, d] for n, d in whole.items()]}
        model_id = insert(document)
        if whole:
            tables[model_id] = whole
        return model_id

    def save_layers(base_model_id, hashes, arrays, held, use_case):
        base = tables.get(base_model_id) or service.layer_table(base_model_id)
        changed = [name for name, digest in hashes.items() if base.get(name) != digest]
        update = {name: arrays[name] for name in changed if name in arrays}
        environment_id = service._save_environment()
        update_file = save_state(
            update, {name: hashes[name] for name in changed}, "update",
            held={name: held[name] for name in changed if name not in update})
        table[:] = [dict(hashes)]
        return inserting({
            "base_model": base_model_id,
            "use_case": use_case,
            "environment_id": environment_id,
            "update_file": update_file,
            "merkle_root": root_of(list(hashes.values())),
        })

    service._save_state = save_state
    service._insert_model_document = inserting
    if hasattr(service, "_save_layers"):
        service._save_layers = save_layers
    return service


def write_v1(files, state, layer_hashes, suffix, held=None) -> str:
    """A JSON (v1) manifest as older releases wrote it, its chunks put
    first; a layer in ``held`` is listed by that entry."""
    held = held or {}
    entries = []
    for name, digest in layer_hashes.items():
        if name in held:
            meta = held[name]
        else:
            array = state[name]
            files.put_chunk(digest, np.ascontiguousarray(array).tobytes())
            meta = {"dtype": array.dtype.str, "shape": array.shape}
        entries.append([name, {"chunk": digest, "dtype": meta["dtype"],
                               "shape": list(meta["shape"])}])
    manifest = json.dumps({"format": MANIFEST_FORMAT_V1, "layers": entries}, sort_keys=True)
    file_id = files.save_bytes(manifest.encode(), suffix=suffix)
    files.chunks.flush()
    return file_id


def v1_layers(files, file_id: str) -> list:
    """The ``[name, entry]`` layers of a stored JSON (v1 or v2) manifest."""
    return json.loads(files.recover_bytes(file_id))["layers"]


def zlib_frame(buffer) -> bytes:
    """A zlib codec frame: magic, codec id, uncompressed length, body."""
    raw = bytes(buffer)
    head = struct.pack("<4sBQ", codecs.FRAME_MAGIC, codecs.CODEC_ZLIB, len(raw))
    return head + zlib.compress(raw)


def stored_record(store, digest: str) -> bytes:
    """One chunk's record payload exactly as it rests in its segment."""
    path, offset, length = locate(store.chunks, digest)
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read(length)


class RetiredFormatStore(FileStore):
    """A :class:`FileStore` whose saves write a retired format.

    ``manifest`` is ``"v1"``, ``"v2"``, ``"params"`` or ``"v3"`` (today's); with
    ``zlib`` every chunk record a save appends holds a zlib frame, and
    with ``escape`` one whose bytes begin with the frame magic holds an
    escape frame (:func:`~tests.filestore.older_release.older_encode`).
    All are plain attributes, so one store can mix formats save by save.
    """

    def __init__(self, root, manifest: str = "v3", zlib: bool = False,
                 piece_bytes: int = 1024, escape: bool = False, **kwargs):
        super().__init__(root, **kwargs)
        self.manifest = manifest
        self.zlib = zlib
        self.escape = escape
        self.piece_bytes = int(piece_bytes)

    def save_state_chunks(self, state, layer_hashes, suffix=".params" + MANIFEST_SUFFIX,
                          workers=None, held=None, stored=frozenset(), root=None):
        if self.manifest == "params":
            return self.save_bytes(
                serialization.dumps(state), suffix=suffix[: -len(MANIFEST_SUFFIX)])
        if self.manifest == "v2":
            return self._save_v2(state, layer_hashes, suffix)
        if self.manifest == "v1":
            return write_v1(self, state, layer_hashes, suffix, held)
        return super().save_state_chunks(
            state, layer_hashes, suffix, workers, held, stored, root)

    def _put_chunk_data(self, digest, buffer):
        # older releases framed chunk records, never files (files were not
        # records then) and never a spec
        if not self_checked(digest):
            if self.zlib:
                buffer = zlib_frame(buffer)
            elif self.escape:
                buffer = older_encode(buffer)
        return super()._put_chunk_data(digest, buffer)

    def _save_v2(self, state, layer_hashes, suffix) -> str:
        entries = []
        for name, array in state.items():
            raw = np.ascontiguousarray(array).tobytes()
            pieces = []
            for start in range(0, max(len(raw), 1), self.piece_bytes):
                piece = raw[start:start + self.piece_bytes]
                digest = hashlib.sha256(piece).hexdigest()
                self.put_chunk(digest, piece)
                pieces.append(digest)
            entries.append([name, {
                "chunks": pieces, "dtype": array.dtype.str,
                "shape": list(array.shape), "hash": layer_hashes[name],
            }])
        self.chunks.flush()
        manifest = {"format": MANIFEST_FORMAT_V2, "layers": entries}
        return self.save_bytes(json.dumps(manifest, sort_keys=True).encode(), suffix=suffix)
