"""Writers for the formats older releases saved, so tests can build such stores.

A save writes one format: a whole-layer (v1) manifest whose chunks are
stored raw (escape-framed only when they start with the frame magic).
Stores written before that can hold three more, and every one of them is
still read:

* ``"v2"`` manifests: each layer is a run of sha256-addressed pieces plus
  its tensor hash.  The retired writer cut the pieces by content; these
  are fixed-size, since a reader never splits anything;
* ``zlib``-framed segment records instead of raw bytes;
* ``"params"``: the whole state serialized into one ``.params`` /
  ``.update`` blob, with no manifest and no chunks.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np

from repro.filestore import FileStore, codecs
from repro.filestore.store import MANIFEST_FORMAT_V2, MANIFEST_SUFFIX
from repro.nn import serialization


def zlib_frame(buffer) -> bytes:
    """A zlib codec frame: magic, codec id, uncompressed length, body."""
    raw = bytes(buffer)
    head = struct.pack("<4sBQ", codecs.FRAME_MAGIC, codecs.CODEC_ZLIB, len(raw))
    return head + zlib.compress(raw)


def stored_record(store, digest: str) -> bytes:
    """One chunk's record payload exactly as it rests in its segment."""
    path, offset, length = store.chunks.locate(digest)
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read(length)


class RetiredFormatStore(FileStore):
    """A :class:`FileStore` whose saves write a retired format.

    ``manifest`` is ``"v1"`` (today's), ``"v2"`` or ``"params"``; with
    ``zlib`` every record a chunked save appends holds a zlib frame.  Both
    are plain attributes, so one store can mix formats save by save.
    """

    def __init__(self, root, manifest: str = "v1", zlib: bool = False,
                 piece_bytes: int = 1024, **kwargs):
        super().__init__(root, **kwargs)
        self.manifest = manifest
        self.zlib = zlib
        self.piece_bytes = int(piece_bytes)

    def save_state_chunks(self, state, layer_hashes,
                          suffix=".params" + MANIFEST_SUFFIX, workers=None):
        if self.manifest == "params":
            return self.save_bytes(
                serialization.dumps(state), suffix=suffix[: -len(MANIFEST_SUFFIX)])
        chunks = self.chunks
        if self.zlib:
            chunks._encode = zlib_frame
        try:
            if self.manifest == "v2":
                return self._save_v2(state, layer_hashes, suffix)
            return super().save_state_chunks(state, layer_hashes, suffix, workers)
        finally:
            chunks.__dict__.pop("_encode", None)

    def _save_v2(self, state, layer_hashes, suffix) -> str:
        entries, digests = [], []
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
            digests.extend(pieces)
        self.chunks.flush()
        self.chunks.add_refs(digests)
        self.journal_record("refs", digests=digests)
        manifest = {"format": MANIFEST_FORMAT_V2, "layers": entries}
        return self.save_bytes(json.dumps(manifest, sort_keys=True).encode(), suffix=suffix)
