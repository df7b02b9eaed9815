"""What turns a store this release wrote into one an older release left.

A root this release creates carries the format marker; one an older release
wrote does not, and is upgraded the first time this release opens it
(DESIGN.md §11 "One upgrader").  Tests build such roots with the writers of
:mod:`tests.filestore.retired_formats` and take the markers away.
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.filestore import FileStore
from repro.filestore.upgrade import CODEC_STORED, FORMAT_MARKER, FRAME_MAGIC, RETIRED_MARKERS


def as_older_release(root, parent_marker: bool = False) -> None:
    """Take every format marker under ``root`` away; with
    ``parent_marker``, leave the one the release before this format wrote
    (``.one-format``) in its place."""
    for marker in Path(root).rglob(FORMAT_MARKER):
        marker.unlink()
        if parent_marker:
            (marker.parent / RETIRED_MARKERS[0]).touch()


def older_encode(view):
    """The at-rest payload an older release wrote for one chunk: its bytes,
    escape-framed when they start with the frame magic."""
    if bytes(view[:4]) != FRAME_MAGIC:
        return view
    raw = bytes(view)
    return struct.pack("<4sBQ", FRAME_MAGIC, CODEC_STORED, len(raw)) + raw


def reopened(service, **store_kwargs):
    """``service`` over its file store's root as an older release left it,
    opened again by this release: a plain :class:`FileStore` (built with
    ``store_kwargs``) whose opening service upgrades it."""
    root = service.files.root
    service.files.chunks.close()
    as_older_release(root)
    return type(service)(
        service.documents, FileStore(root, **store_kwargs), scratch_dir=service._scratch_dir)
