"""Chunk payload framing: raw bytes at rest, frames only where needed.

A chunk is stored as its raw bytes.  The one ambiguity — raw bytes that
happen to begin with the frame magic — is resolved by the writer, which
escape-frames them (:func:`escape`).  A frame is::

    MMCZ | codec id (u8) | uncompressed length (u64 LE) | body

(13 bytes of header).  Writers only ever produce the ``stored`` frame
(id 0, body = the raw bytes); older releases also wrote ``zlib`` (id 1)
and ``lz4`` (id 2) frames, which :func:`decode` still reads, ``lz4``
when the optional module is importable.  Decoding is unambiguous: a
magic prefix always means "parse a frame".  Chunk digests are over the
decoded bytes, so verification and dedup never see a frame.
"""

from __future__ import annotations

import struct
import zlib

from ..errors import StoreCorruptionError

__all__ = ["FRAME_MAGIC", "FRAME_OVERHEAD", "decode", "escape", "raw_length"]

FRAME_MAGIC = b"MMCZ"
_FRAME = struct.Struct("<4sBQ")  # magic, codec id, uncompressed length
FRAME_OVERHEAD = _FRAME.size

CODEC_STORED = 0  # escape frame: body is the raw bytes
CODEC_ZLIB = 1
CODEC_LZ4 = 2

try:  # optional accelerator; never installed, only used when present
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    _lz4 = None


def _as_bytes(buffer) -> bytes:
    if isinstance(buffer, bytes):
        return buffer
    return memoryview(buffer).cast("B").tobytes()


def escape(buffer) -> bytes:
    """``buffer`` wrapped in a ``stored`` frame, so :func:`decode` returns
    it whole even though it begins with the frame magic."""
    raw = _as_bytes(buffer)
    return _FRAME.pack(FRAME_MAGIC, CODEC_STORED, len(raw)) + raw


def raw_length(head: bytes) -> int | None:
    """The decoded length of a framed payload that starts with ``head``
    (its first :data:`FRAME_OVERHEAD` bytes); ``None`` if it is unframed."""
    if len(head) < FRAME_OVERHEAD or head[:4] != FRAME_MAGIC:
        return None
    return _FRAME.unpack_from(head)[2]


def decode(payload):
    """Return the chunk bytes for an at-rest ``payload``.

    An unframed payload is returned as the very buffer passed in (so a
    caller that read it into a buffer of its own keeps that buffer); a
    framed one decodes to new ``bytes``.  Raises
    :class:`~repro.errors.StoreCorruptionError` on malformed frames,
    unknown codec ids, or decompressed-length mismatches — callers treat
    these exactly like a digest mismatch.
    """
    if bytes(payload[:4]) != FRAME_MAGIC:
        return payload
    data = _as_bytes(payload)
    if len(data) < FRAME_OVERHEAD:
        raise StoreCorruptionError(
            f"truncated chunk codec frame: {len(data)} bytes"
        )
    _magic, codec_id, raw_length = _FRAME.unpack_from(data)
    body = data[FRAME_OVERHEAD:]
    if codec_id == CODEC_STORED:
        raw = body
    elif codec_id == CODEC_ZLIB:
        try:
            raw = zlib.decompress(body)
        except zlib.error as exc:
            raise StoreCorruptionError(
                f"corrupt zlib chunk payload: {exc}"
            ) from exc
    elif codec_id == CODEC_LZ4:
        if _lz4 is None:
            raise StoreCorruptionError(
                "chunk was stored with the lz4 codec but lz4 is not importable"
            )
        try:
            raw = _lz4.decompress(body)
        except Exception as exc:  # lz4 raises its own error types
            raise StoreCorruptionError(
                f"corrupt lz4 chunk payload: {exc}"
            ) from exc
    else:
        raise StoreCorruptionError(
            f"unknown chunk codec id {codec_id} in payload frame"
        )
    if len(raw) != raw_length:
        raise StoreCorruptionError(
            f"chunk codec frame length mismatch: frame says {raw_length}, "
            f"decoded {len(raw)} bytes"
        )
    return raw
