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
import io
import json
import struct
import zlib
from pathlib import Path

from repro.docstore import DocumentStore
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RECORD_HEADER, RecordLog, read_record
from repro.filestore.segments import FOOTER_END_MAGIC, FOOTER_MAGIC, FOOTER_TAIL, HEADER
from repro.filestore.store import FORMAT_MARKER
from repro.importer import CODEC_STORED, FRAME_MAGIC, RETIRED_MARKERS, import_deployment

#: The marker of the release before tombstones: its deletes are in
#: ``chunks/index.json``.
V3_MARKER = RETIRED_MARKERS[1]


def as_older_release(root, marker: str | None = None) -> None:
    """Take every format marker under ``root`` away (this release's and the
    v3 one); with ``marker``, leave that one in each one's place."""
    for found in [*Path(root).rglob(FORMAT_MARKER), *Path(root).rglob(V3_MARKER)]:
        found.unlink()
        if marker is not None:
            (found.parent / marker).touch()


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


def as_v3_release(root) -> None:
    """Turn every file store root under ``root`` into what the release
    before tombstones (v3) left: each segment without its tombstones, the
    records they killed left in place (that release left a deleted record
    until compaction), an ``index.json`` checkpoint placing every live
    record and saying how far it scanned each segment (where that release
    recorded its deletes), and the v3 marker."""
    for segments in sorted(Path(root).rglob("segments")):
        store = ChunkStore(segments.parent)
        entries, metas = {}, {}
        for path in sorted(segments.iterdir()):
            moved, total, sealed = _without_tombstones(store, path)
            entries.update((digest, [path.name, moved[entry[1]], *entry[2:]])
                           for digest, entry in store._index.items() if entry[0] == path.name)
            metas[path.name] = {"scanned": path.stat().st_size, "total": total, "sealed": sealed}
        RecordLog(segments.parent / "index.json").rewrite([json.dumps(
            {"version": 1, "entries": entries, "segments": metas}).encode()])
    as_older_release(root, marker=V3_MARKER)


def _without_tombstones(store, path: Path) -> tuple[dict, int, bool]:
    """Rewrite the segment at ``path`` less its tombstones, a sealed one's
    footer as v3 wrote it; returns where each record's payload moved (old
    offset -> new), the payload bytes of its records, and whether it is
    sealed."""
    data = path.read_bytes()
    with open(path, "rb") as fileobj:
        catalog = store._read_footer(fileobj, len(data))
    stream = io.BytesIO(data[:catalog["end"]] if catalog else data)
    stream.seek(HEADER.size)
    kept, moved, total = [data[:HEADER.size]], {}, 0
    while True:
        start, offset = stream.tell(), sum(map(len, kept))
        record = read_record(stream.read)
        if record is None:
            break
        key, payload, _crc = record
        if not key.startswith(b"."):
            moved[start + RECORD_HEADER.size + len(key)] = offset + RECORD_HEADER.size + len(key)
            kept.append(data[start:stream.tell()])
            total += len(payload)
    if catalog:
        end = sum(map(len, kept))
        records = [[d, moved[off], length, crc] for d, off, length, crc in catalog["records"]]
        blob = json.dumps({"end": end, "records": records}, sort_keys=True).encode()
        kept.append(FOOTER_MAGIC + struct.pack("<I", len(blob)) + blob
                    + FOOTER_TAIL.pack(end, zlib.crc32(blob), FOOTER_END_MAGIC))
    path.write_bytes(b"".join(kept))
    return moved, total, bool(catalog)
