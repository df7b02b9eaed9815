"""Helpers for tests that reach into a chunk store's segments."""

from __future__ import annotations

from pathlib import Path

from repro.filestore import ChunkNotFoundError


def locate(store, digest: str) -> tuple[Path, int, int]:
    """Where the record of ``digest`` in ``store`` (a ``ChunkStore``) keeps
    its payload: ``(segment path, offset, length)`` — for damage drills."""
    with store._mutex:
        entry = store._index.get(digest)
    if entry is None:
        raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
    return store.segments_dir / entry[0], entry[1], entry[2]
