"""Per-chunk compression codecs with self-describing payload framing.

Chunk *digests* are always computed over the **uncompressed** bytes, so
verification, read-repair, anti-entropy, and cross-store dedup are
unchanged by compression — only the bytes at rest differ.  A compressed
payload is framed as::

    MMCZ | codec id (u8) | uncompressed length (u64 LE) | body

(13 bytes of header).  Raw payloads are stored unframed; the one
ambiguity — raw bytes that happen to begin with the frame magic — is
resolved by the writer, which escape-frames them with the ``stored``
codec (id 0, body = raw bytes).  Decoding is therefore unambiguous: a
magic prefix always means "parse a frame".

The registry holds ``none`` (identity), ``zlib`` (stdlib), and ``lz4``
when the optional module is importable; nothing is ever installed.  A
cheap incompressibility sniff (compress a small sample first) skips
whole-chunk compression for high-entropy tensors, and compression is
abandoned whenever it fails to win back the frame header.
"""

from __future__ import annotations

import os
import struct
import zlib

from ..errors import StoreCorruptionError

__all__ = [
    "CODEC_ENV_VAR",
    "FRAME_MAGIC",
    "FRAME_OVERHEAD",
    "available_codecs",
    "decode",
    "encode",
    "resolve_codec",
]

#: environment variable consulted when no codec is passed explicitly
CODEC_ENV_VAR = "REPRO_CHUNK_CODEC"

FRAME_MAGIC = b"MMCZ"
_FRAME = struct.Struct("<4sBQ")  # magic, codec id, uncompressed length
FRAME_OVERHEAD = _FRAME.size

CODEC_STORED = 0  # escape frame: body is the raw bytes
CODEC_ZLIB = 1
CODEC_LZ4 = 2

_SNIFF_SAMPLE_BYTES = 4096
#: a sample must shrink below this fraction of itself to bother compressing
_SNIFF_THRESHOLD = 0.9

try:  # optional accelerator; never installed, only used when present
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    _lz4 = None


def available_codecs() -> tuple[str, ...]:
    """Codec names usable in this environment (``lz4`` only if importable)."""
    names = ["none", "zlib"]
    if _lz4 is not None:
        names.append("lz4")
    return tuple(names)


def resolve_codec(name: str | None) -> str:
    """Validate ``name``, falling back to ``$REPRO_CHUNK_CODEC`` then ``none``."""
    if name is None:
        name = os.environ.get(CODEC_ENV_VAR) or "none"
    name = name.strip().lower()
    if name not in available_codecs():
        raise ValueError(
            f"unknown chunk codec {name!r}; available: {available_codecs()}"
        )
    return name


def _as_bytes(buffer) -> bytes:
    if isinstance(buffer, bytes):
        return buffer
    return memoryview(buffer).cast("B").tobytes()


def _sniff_compressible(raw: bytes) -> bool:
    """Compress a small prefix; incompressible data fails even at level 1."""
    sample = raw[:_SNIFF_SAMPLE_BYTES]
    if not sample:
        return False
    squeezed = zlib.compress(sample, 1)
    return len(squeezed) < len(sample) * _SNIFF_THRESHOLD


def _frame(codec_id: int, body: bytes, raw_length: int) -> bytes:
    return _FRAME.pack(FRAME_MAGIC, codec_id, raw_length) + body


def _store_raw(raw: bytes) -> bytes:
    """Raw payloads go out unframed unless they collide with the magic."""
    if raw[:4] == FRAME_MAGIC:
        return _frame(CODEC_STORED, raw, len(raw))
    return raw


def encode(codec: str, buffer) -> bytes:
    """Return the at-rest payload for ``buffer`` under ``codec``.

    Always a net win or a no-op: compression output is kept only when it
    beats raw-plus-framing, so ``decode(encode(x)) == x`` and the stored
    payload is never larger than the escape-framed raw bytes.
    """
    raw = _as_bytes(buffer)
    if codec == "none" or not _sniff_compressible(raw):
        return _store_raw(raw)
    if codec == "zlib":
        body = zlib.compress(raw, 6)
        codec_id = CODEC_ZLIB
    elif codec == "lz4":
        if _lz4 is None:
            raise ValueError("lz4 codec requested but lz4 is not importable")
        body = _lz4.compress(raw)
        codec_id = CODEC_LZ4
    else:
        raise ValueError(f"unknown chunk codec {codec!r}")
    if len(body) + FRAME_OVERHEAD >= len(raw):
        return _store_raw(raw)
    return _frame(codec_id, body, len(raw))


def decode(payload):
    """Return the uncompressed chunk bytes for an at-rest ``payload``.

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
