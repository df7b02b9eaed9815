"""``mmlib import``: the one door older formats come in through.

Every store and log of this release reads one format and refuses any
other (:class:`~repro.errors.OlderFormatError`).  What older releases
wrote — JSON (v1) manifests and PUA delta levels, v2 manifests of sha256
pieces, zlib/lz4/escape-framed records, monolithic ``.params`` /
``.update`` blobs, files kept loose in a store root, a file-per-chunk
``objects/`` root, JSON-lines logs, the parent's side logs and a
cluster's per-member deletes — is read here and nowhere else (DESIGN.md
§11 "One import door").

:func:`import_deployment` never writes to the deployment it reads.  It
copies it into ``NEW.importing`` (a stale copy a crash left is removed
first), converts the copy, checks that every model recovers verified
under its unchanged Merkle root and that fsck ends clean, fsyncs the
copy, and only then renames it to ``NEW``: the rename is the commit, so
a crash at any point leaves the old deployment as it was and no ``NEW``.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from .docstore.namespace import UnionDocumentStore
from .errors import MMLibError, StoreCorruptionError

try:  # never installed: older releases wrote lz4 frames only where it was
    import lz4.frame as _lz4  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    _lz4 = None

__all__ = ["ImportFailedError", "import_deployment"]

#: The marker the release before v3 manifests wrote on a root holding
#: only v1 manifests; it says nothing about v3.
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

#: Logs a parent release kept under a file store's root beside its
#: records: the chain compactor's swap intents, the save intent logs, the
#: rebalancer's move journals, the hinted-handoff logs, the segment
#: compaction journal and the chunk refcounts.  None says what the records
#: do not, so the import deletes them unread.
PARENT_LOGS = ("chain-compaction", "journal", "rebalance", "hints",
               "chunks/compaction.json", "chunks/refcounts.json")

#: A parent cluster's per-member deletes, ``{"_id": "<collection>/<doc_id>"}``.
PARENT_GRAVES = "__cluster_tombstones__"

_ERRORS = (OSError, KeyError, ValueError, TypeError, AttributeError, MMLibError)


class ImportFailedError(MMLibError):
    """The import refused, or the copy failed a check; ``NEW`` was not
    created.  The message names the record, level or model at fault."""


def fault_hook(op: str) -> None:
    """Called after each ``import.*`` step; a crash test replaces it."""


def import_deployment(new, docs=None, files=None, cluster=None, replicas: int = 2) -> dict:
    """Convert the deployment at ``docs`` + ``files`` (or the cluster
    directory ``cluster``, ``replicas`` copies per key) into ``new``.

    ``new`` gets the layout :meth:`~repro.distsim.environment.SharedStores.at`
    opens (``documents/``, ``files/``), or the cluster's own.  Returns
    what was converted: ``models`` checked, ``records`` re-appended raw,
    ``levels`` rewritten, ``files`` moved into the segments and ``logs``
    reframed."""
    new = Path(new)
    if new.exists():
        raise ImportFailedError(f"{new} exists; an import writes a new deployment")
    work = new.with_name(new.name + ".importing")
    shutil.rmtree(work, ignore_errors=True)  # a crashed import's copy
    if cluster is not None:
        shutil.copytree(cluster, work)
    else:
        shutil.copytree(docs, work / "documents")
        shutil.copytree(files, work / "files")
    fault_hook("import.copy")
    try:
        report = _convert(work, cluster is not None, replicas)
    except _ERRORS as exc:
        shutil.rmtree(work, ignore_errors=True)
        if isinstance(exc, ImportFailedError):
            raise
        raise ImportFailedError(f"import failed: {exc}") from exc
    _sync_tree(work)
    fault_hook("import.rename")
    work.rename(new)
    _sync_tree(new.parent, recurse=False)
    return report


def _sync_tree(root: Path, recurse: bool = True) -> None:
    """fsync every file and directory under ``root``, deepest first, then
    ``root`` itself: the rename that follows publishes durable bytes."""
    paths = sorted(root.rglob("*"), key=lambda p: -len(p.parts)) if recurse else []
    for path in [*paths, root]:
        fd = os.open(path, os.O_RDONLY | (os.O_DIRECTORY if path.is_dir() else 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _convert(work: Path, clustered: bool, replicas: int) -> dict:
    from .distsim.environment import SharedStores

    shards = sorted(path.name for path in work.glob("shard-*") if path.is_dir())
    roots = ([work / "cluster-meta", *(work / name / "files" for name in shards)]
             if clustered else [work / "files"])
    report = dict.fromkeys(("models", "records", "levels", "files"), 0)
    report["logs"] = _frame_logs(work)
    for root in roots:
        report["files"] += _retire_root(root)
    if clustered:
        from .docstore import DocumentStore

        _fold_graves([DocumentStore(work / name / "documents") for name in shards])
    fault_hook("import.files")

    if clustered:
        stores = SharedStores.cluster_at(work, shards=len(shards), replicas=replicas)
    else:
        stores = SharedStores.at(work)
    try:
        _convert_records(stores, report)
    finally:
        stores.files.close()
    return report


def _convert_records(stores, report: dict) -> None:
    from .core import ModelManager, ParameterUpdateSaveService
    from .core.schema import MODELS
    from .docstore.namespace import NamespacedDocumentStore

    files, documents = stores.files, stores.documents
    tenants = sorted(name[len("tenant--"):-len(f"--{MODELS}")]
                     for name in documents.collection_names()
                     if name.startswith("tenant--") and name.endswith(f"--{MODELS}"))
    scopes = [documents, *(NamespacedDocumentStore(documents, t) for t in tenants)]
    services = [ParameterUpdateSaveService(scope, files, scratch_dir=stores.scratch_dir)
                for scope in scopes]
    roots = [{d["_id"]: d.get("merkle_root")
              for d in scope.collection(MODELS).find(projection=("merkle_root",))}
             for scope in scopes]

    for store in [m.chunks for m in getattr(files, "members", {}).values()] or [files.chunks]:
        report["records"] += _reappend(store)
        fault_hook("import.records")
    for service in services:
        report["levels"] += _rewrite_levels(service)

    manager = ModelManager(ParameterUpdateSaveService(
        _WholeCatalog(documents, tenants), files, scratch_dir=stores.scratch_dir))
    manager.garbage_collect()
    fsck = manager.fsck(verify_chunks=True)
    if fsck.unrepaired:
        raise ImportFailedError(f"fsck of the converted copy: {fsck.summary()}; "
                                + "; ".join(i.detail for i in fsck.unrepaired))
    for service, before in zip(services, roots):
        for model_id, merkle_root in before.items():
            try:
                recovered = service.recover_model(model_id, verify=True)
                after = service.documents.collection(MODELS).get(
                    model_id, projection=("merkle_root",)).get("merkle_root")
            except _ERRORS as exc:
                raise ImportFailedError(f"model {model_id} does not recover: {exc}") from exc
            if after != merkle_root or (merkle_root is not None and not recovered.verified):
                raise ImportFailedError(f"model {model_id} does not recover verified "
                                        f"under its Merkle root {merkle_root}")
            report["models"] += 1
    fault_hook("import.verify")
    fsck = manager.fsck(repair=False, verify_chunks=True)
    if not fsck.clean:
        raise ImportFailedError(f"fsck of the converted copy: {fsck.summary()}")


class _WholeCatalog(UnionDocumentStore):
    """Every catalog of a deployment as one: the plain collections and
    each tenant's."""

    def collection(self, name: str):
        union = super().collection(name)
        union._members[""] = self._store.collection(name)
        return union


# -- logs, loose files, deletes -------------------------------------------------


def _frame_logs(work: Path) -> int:
    """Rewrite every log under ``work`` an older release wrote unframed —
    a catalog's JSON lines, a one-document ``index.json`` — in the CRC
    framing; returns how many."""
    from .filestore.recordlog import RecordLog

    count = 0
    for path in sorted(work.rglob("*")):
        if not (path.suffix == ".jsonl" or path.name == "index.json") or not path.is_file():
            continue
        data = path.read_bytes()
        if data[:1] != b"{":
            continue
        log = RecordLog(path)
        log.rewrite(_older_records(path, data))
        log.close()
        count += 1
    return count


def _older_records(path: Path, data: bytes) -> list[bytes]:
    """The payloads of an unframed log: one JSON document, or JSON lines
    of which a torn last one is cut off."""
    def parses(line: bytes) -> bool:
        try:
            json.loads(line)
        except ValueError:
            return False
        return True

    if parses(data):
        return [data.strip()]
    lines = [line.strip() for line in data.split(b"\n") if line.strip()]
    for index, line in enumerate(lines):
        if not parses(line):
            if index < len(lines) - 1:
                raise ImportFailedError(f"{path}: a bad record with records after it")
            return lines[:index]
    return lines


def _retire_root(root: Path) -> int:
    """Delete the parent's side logs and markers under the file store root
    ``root``, put the files an older release kept loose in it and those of
    a file-per-chunk ``chunks/objects/`` into the segments, delete them,
    and mark the root; returns how many went in."""
    from .filestore.segments import ChunkStore
    from .filestore.store import CHUNK_DIR_NAME, mark_root

    root.mkdir(parents=True, exist_ok=True)
    for name in (*PARENT_LOGS, *RETIRED_MARKERS):
        path = root / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    objects = root / CHUNK_DIR_NAME / "objects"
    loose = [(path, False) for path in sorted(root.iterdir())
             if path.is_file() and not path.name.startswith(".")]
    if objects.is_dir():
        loose += [(path, True) for path in sorted(objects.iterdir()) if path.is_file()]
    moved = 0
    if loose:
        store = ChunkStore(root / CHUNK_DIR_NAME)
        for path, framed in loose:
            if path.name.endswith(".tmp"):
                continue  # a dead writer's: the import runs offline
            data = path.read_bytes()
            try:
                store.put(path.name, decode(data) if framed else data)
            except StoreCorruptionError as exc:
                raise ImportFailedError(f"chunk file {path.name}: {exc}") from exc
            moved += 1
        store.flush()
        store.close()
        for path, _framed in loose:
            path.unlink()
        shutil.rmtree(objects, ignore_errors=True)
    mark_root(root)
    return moved


def _fold_graves(members) -> None:
    """Fold a parent cluster's :data:`PARENT_GRAVES` into stamped
    tombstones on the document member holding each, over a missing or
    unstamped copy, and drop the old collection."""
    from .cluster.sharded_docs import DELETED, FOLDED, STAMP, STAMP_FIELDS, _land, _stamp

    for member in members:
        if PARENT_GRAVES not in member.collection_names():
            continue
        for entry in member.collection(PARENT_GRAVES).find({}, projection=()):
            collection_name, _, doc_id = entry["_id"].partition("/")
            target = member.collection(collection_name)
            held = target.get_many([doc_id], projection=STAMP_FIELDS)
            if not held or not _stamp(held[0]):
                _land(target, {"_id": doc_id, STAMP: FOLDED, DELETED: True})
        member.drop_collection(PARENT_GRAVES)


# -- framed records ---------------------------------------------------------------


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


def _reappend(store) -> int:
    """Append each framed record of ``store`` again, decoded, under its
    key; returns how many.  One that fails its CRC fails the import; one
    that does not decode is raw bytes that begin with the magic, and
    stays (the import's checks hash every record a model names)."""
    appended = 0
    with store._mutex:
        for key in store.chunk_ids():
            entry = store._index[key]
            fileobj = store._read_file_locked(entry[0])
            if fileobj is None or os.pread(fileobj.fileno(), 4, entry[1]) != FRAME_MAGIC:
                continue
            payload = store._read_intact_locked(entry)
            if payload is None:
                raise ImportFailedError(f"record {key} fails its CRC")
            try:
                raw = decode(payload)
            except StoreCorruptionError:
                continue
            store._drop_entry_locked(key)
            store.put(key, raw)
            appended += 1
        store.flush()
        store._write_checkpoint_locked()
    return appended


# -- retired levels ---------------------------------------------------------------


def _retired_level(files, file_id: str):
    """``(format, JSON layers)`` of a level in a retired format — a blob,
    a JSON v1 or v2 manifest — or ``None`` for a v3 manifest; raises for
    one that reads as none of them."""
    if file_id.endswith(BLOB_SUFFIXES):
        return "blob", None
    data = files.recover_bytes(file_id)
    if not data.startswith(b"{"):
        files.manifest_keys(file_id)  # raises unless it is v3
        return None
    manifest = json.loads(data)
    kind = {MANIFEST_FORMAT_V1: "v1", MANIFEST_FORMAT_V2: "v2"}[manifest.get("format")]
    return kind, manifest["layers"]


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


def _level_arrays(files, file_id: str, kind: str, layers) -> tuple[dict, dict]:
    """One retired level's layers read into arrays, and the digest it
    recorded for each (a v1 layer's chunk key, a v2 layer's ``hash``)."""
    if kind == "blob":
        from .nn import serialization

        return serialization.loads(files.recover_bytes(file_id)), {}
    runs = {name: meta.get("chunks") or [meta["chunk"]] for name, meta in layers}
    fetched = files.get_chunks([digest for run in runs.values() for digest in run])
    arrays = {name: np.frombuffer(bytearray().join(fetched[d] for d in runs[name]),
                                  dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
              for name, meta in layers}
    return arrays, {name: meta.get("hash", meta.get("chunk")) for name, meta in layers}


def _rewrite_levels(service) -> int:
    """Every model document of ``service``'s catalog naming a retired
    level or a PUA delta, bases first, becomes its own recovery base: a
    full v3 manifest as its ``parameters_file`` (and a delta its chain's
    ``architecture``), published by one document replace, then the old
    level deleted.  A delta's layers are its base's, recovered, overridden
    by its own; every layer is checked against the document's Merkle root
    and any table it recorded, and a level that fails fails the import.
    Returns the levels rewritten."""
    from .core.hashing import state_dict_hashes
    from .core.merkle import root_of
    from .core.schema import MODELS

    files, models = service.files, service.documents.collection(MODELS)
    found = {d["_id"]: d for d in models.find(
        projection=("base_model", "parameters_file", "update_file"))}
    rewritten = 0
    for model_id in _bases_first(found):
        delta = not found[model_id].get("parameters_file")
        file_id = found[model_id].get("update_file" if delta else "parameters_file")
        try:
            level = file_id and _retired_level(files, file_id)
            if not level:
                continue
            document = models.get(model_id)
            arrays, recorded = _level_arrays(files, file_id, *level)
            if delta:
                base = service.recover_layers(document["base_model"]).state
                arrays = {**base, **arrays}
            hashes = state_dict_hashes(arrays)
            tables = (recorded, dict(document.get("layer_hashes") or ()))
            if any(t.get(name, h) != h for t in tables for name, h in hashes.items()) or (
                    document.get("merkle_root") not in (None, root_of(list(hashes.values())))):
                raise ValueError("layer hash mismatch")
            with service._save_transaction():
                document["parameters_file"] = service._save_state(arrays, hashes, kind="params")
                if delta:
                    document["architecture"] = service._chain_architecture(model_id)
                for field in ("update_file", "updated_layers", "layer_hashes"):
                    document.pop(field, None)
                models.replace_one(model_id, document)
            files.delete(file_id)
        except _ERRORS as exc:
            raise ImportFailedError(f"level {file_id} of model {model_id}: {exc}") from exc
        rewritten += 1
        fault_hook("import.level")
    return rewritten
