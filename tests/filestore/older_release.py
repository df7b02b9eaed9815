"""What turns a store this release wrote into one an older release left,
and what brings such a store back: the import.

A root this release creates carries the format marker; one an older release
wrote does not, and no store of this release opens it: ``mmlib import``
converts a copy (DESIGN.md §11 "One import door").  Tests build such roots
with the writers of :mod:`tests.filestore.retired_formats`, take the markers
away, and open what :func:`imported` made of them.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.filestore.store import FORMAT_MARKER
from repro.importer import CODEC_STORED, FRAME_MAGIC, RETIRED_MARKERS, import_deployment


def as_older_release(root, parent_marker: bool = False) -> None:
    """Take every format marker under ``root`` away; with
    ``parent_marker``, leave the one the release before this format wrote
    (``.one-format``) in its place."""
    for marker in Path(root).rglob(FORMAT_MARKER):
        marker.unlink()
        if parent_marker:
            (marker.parent / RETIRED_MARKERS[0]).touch()


def tree_hash(root) -> str:
    """One digest of every path and byte under ``root``: what an import
    must leave as it was."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def older_encode(view) -> bytes:
    """The at-rest payload an older release wrote for one chunk: its bytes,
    escape-framed when they start with the frame magic."""
    raw = bytes(view)
    if raw[:4] != FRAME_MAGIC:
        return raw
    return struct.pack("<4sBQ", FRAME_MAGIC, CODEC_STORED, len(raw)) + raw


def imported(root, cluster: bool = False, docs: str = "docs", files: str = "files") -> Path:
    """Import the deployment under ``root`` — ``root/docs`` + ``root/files``,
    or the cluster ``root`` — into ``<root>-imported``, which it returns."""
    root = Path(root)
    new = root.with_name(f"{root.name}-imported")
    if cluster:
        import_deployment(new, cluster=root)
    else:
        import_deployment(new, docs=root / docs, files=root / files)
    return new


def persisted(documents, path: Path) -> Path:
    """The directory ``documents`` keeps its collections in; an in-memory
    store's documents are written to ``path`` first."""
    root = getattr(documents, "_root", None)
    if root is not None:
        return root
    target = DocumentStore(path)
    for name in documents.collection_names():
        collection = target.collection(name)
        for document in documents.collection(name).find():
            collection.insert_one(document)
    return path


def reopened(service, **store_kwargs):
    """``service`` over its stores as an older release left them, imported
    and opened again by this release: a plain :class:`FileStore` (built
    with ``store_kwargs``) over the imported files, and the imported
    documents."""
    root = service.files.root
    service.files.chunks.close()
    as_older_release(root)
    docs = persisted(service.documents, root.with_name(f"{root.name}-docs"))
    new = root.with_name(f"{root.name}-imported")
    import_deployment(new, docs=docs, files=root)
    return type(service)(
        DocumentStore(new / "documents"), FileStore(new / "files", **store_kwargs),
        scratch_dir=service._scratch_dir)
