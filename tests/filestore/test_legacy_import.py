"""What older releases left on disk stays readable.

Chunk roots of the older file-per-chunk layout are imported on open.  That
layout kept each chunk in its own file, ``chunks/objects/<digest>`` (the
raw bytes or a codec frame), beside the ``refcounts.json`` both layouts
share.  A chunk root that still holds ``objects/`` is folded into the
segments once, under the store's lock: put, one group flush and an index
checkpoint, then the files are unlinked (DESIGN.md §9).

Store roots of the older file-per-blob layout are imported the same way:
every regular file directly under the root becomes a record under its
name, with a refcount of one (DESIGN.md §6 "One store for every byte").
The save journals and handoff hints those releases wrote name such a file
as a ``blob``; both are still honoured.

Saves write one format, whole-layer (v1) manifests over raw records; the
three retired write formats — v2 manifests of pieces, zlib-framed records,
monolithic ``.params`` / ``.update`` blobs — are read as they lie
(DESIGN.md §11, :class:`TestRetiredWriteFormats`).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster import HintDeliverer, HintLog, ShardedFileStore
from repro.core import (
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
)
from repro.core.errors import VerificationError
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore import codecs as chunk_codecs
from repro.filestore.journal import SaveJournal
from repro.filestore.store import MANIFEST_FORMAT, MANIFEST_FORMAT_V2, is_file_id
from repro.nn import serialization
from repro.workloads import generate_dataset
from repro.workloads.relations import TrainingRun
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import (
    assert_recovers,
    copy_state,
    flip_stored_bit,
    model_holding,
    save_pua_chain,
    tiny_arch,
)
from tests.filestore.retired_formats import RetiredFormatStore, stored_record, zlib_frame


def open_stores(root):
    files = FileStore(root / "files", tmp_grace_s=0.0)
    service = ParameterUpdateSaveService(
        DocumentStore(root / "docs"), files, scratch_dir=root / "scratch")
    return files, service, ModelManager(service)


def write_objects(chunk_root, payloads: dict) -> None:
    """One file per chunk, every other one zlib-framed."""
    objects = chunk_root / "objects"
    objects.mkdir(exist_ok=True)
    for index, (digest, raw) in enumerate(sorted(payloads.items())):
        (objects / digest).write_bytes(zlib_frame(raw) if index % 2 else raw)


def save_models(root) -> tuple[dict, dict]:
    """A PUA chain, saved and closed: ``({model_id: state}, refcounts)``."""
    files, service, _manager = open_stores(root)
    ids, states = save_pua_chain(service, depth=3, layers=("5.bias", "5.weight"))
    counts = files.chunks.export_refs()
    files.chunks.close()
    return dict(zip(ids, states)), counts


def stored_payloads(store) -> dict:
    return {digest: bytes(store.get(digest)) for digest in store.chunk_ids()}


def to_file_per_chunk(root) -> dict:
    """Rewrite the chunk root as the older layout left it: ``objects/``, a
    folded ``refcounts.json``, no segments, no index."""
    store = FileStore(root / "files").chunks
    payloads = stored_payloads(store)
    counts = store.export_refs()
    store.close()
    chunk_root = store.root
    shutil.rmtree(chunk_root / "segments")
    (chunk_root / "index.json").unlink(missing_ok=True)
    write_objects(chunk_root, payloads)
    (chunk_root / "refcounts.json").write_text(json.dumps(counts, sort_keys=True))
    return payloads


def assert_whole(root, states: dict, counts: dict) -> None:
    """Opened again: every model bitwise, the same counts, fsck clean, no
    ``objects/`` left."""
    files, service, manager = open_stores(root)
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    assert files.chunks.export_refs() == counts
    report = manager.fsck(verify_chunks=True)
    assert report.clean, report.summary()
    assert not (files.chunks.root / "objects").exists()


class TestAMixedChunkRoot:
    def test_chunks_written_beside_the_segments_are_all_found(self, tmp_path):
        """A file-per-chunk writer on a segments root stored every chunk it
        was handed in ``objects/`` and counted it in the shared log; half
        of them it was the only one to store."""
        states, counts = save_models(tmp_path)
        store = FileStore(tmp_path / "files").chunks
        payloads = stored_payloads(store)
        for digest in sorted(payloads)[::2]:
            assert store.drop(digest)
        store.close()
        write_objects(store.root, payloads)

        assert_whole(tmp_path, states, counts)
        store = ChunkStore(store.root)
        assert store.chunk_ids() == sorted(payloads)
        assert store.segment_stats()["chunks"] == len(payloads)


class TestAStoreInTheOlderLayout:
    def test_it_opens_recovers_with_the_same_counts_and_is_fsck_clean(self, tmp_path):
        states, counts = save_models(tmp_path)
        payloads = to_file_per_chunk(tmp_path)
        objects = tmp_path / "files" / "chunks" / "objects"
        framed = [p for p in objects.iterdir()
                  if p.read_bytes()[:4] == chunk_codecs.FRAME_MAGIC]
        assert 0 < len(framed) < len(payloads)

        assert_whole(tmp_path, states, counts)
        files, service, manager = open_stores(tmp_path)
        assert sorted(files.chunks.chunk_ids()) == sorted(payloads)
        # and it carries on: a delete, a gc
        tip = list(states)[-1]
        manager.delete_model(tip)
        del states[tip]
        manager.garbage_collect()
        for model_id, state in states.items():
            assert_recovers(service, model_id, state)
        assert manager.fsck(verify_chunks=True).clean


class TestACrashMidImport:
    def test_a_crash_after_any_imported_file_loses_no_chunk(self, tmp_path, monkeypatch):
        """Kill the import after put k, after the flush, after unlink k:
        the next open finishes it."""
        seed = tmp_path / "seed"
        states, counts = save_models(seed)
        imported = len(to_file_per_chunk(seed))
        faults = FaultInjector(seed=0)
        monkeypatch.setattr(ChunkStore, "_hook", lambda self, op: faults.fail_point(op))
        crashes = 0
        for at in range(1, 2 * imported + 3):
            root = tmp_path / f"crash-{at}"
            shutil.copytree(seed, root)
            faults.arm_crash(at, op="chunk.import")
            try:
                FileStore(root / "files").chunks
            except CrashPoint:
                crashes += 1
            else:
                break  # the import outran the armed crash: every point hit
            assert (root / "files" / "chunks" / "objects").exists(), f"crash at {at}"
            assert_whole(root, states, counts)
        else:
            pytest.fail("the import never completed")
        assert crashes == 2 * imported + 1  # n puts, the flush, n unlinks


WORKER = r"""
import hashlib, json, sys, time
from repro.filestore import ChunkStore
time.sleep(max(0.0, float(sys.argv[2]) - time.time()))
store = ChunkStore(sys.argv[1])
print(json.dumps({d: hashlib.sha256(bytes(store.get(d))).hexdigest()
                  for d in store.chunk_ids()}))
"""


class TestTwoProcesses:
    def test_both_openers_of_one_legacy_root_see_every_chunk(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        blobs = [bytes([index]) * (20_000 + index) for index in range(40)]
        payloads = {hashlib.sha256(blob).hexdigest(): blob for blob in blobs}
        write_objects(root, payloads)
        counts = {digest: 1 for digest in payloads}
        (root / "refcounts.json").write_text(json.dumps(counts, sort_keys=True))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        start_at = str(time.time() + 1.0)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER, str(root), start_at],
                stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        for child in children:
            out, _ = child.communicate(timeout=60)
            assert child.returncode == 0
            assert json.loads(out) == {digest: digest for digest in payloads}

        store = ChunkStore(root)
        assert not (root / "objects").exists()
        assert store.export_refs() == counts
        stats = store.segment_stats()
        assert stats["chunks"] == len(payloads)
        assert stats["dead_bytes"] == 0  # imported once, not once per opener
        for digest, blob in payloads.items():
            assert bytes(store.get(digest)) == blob


# -- the retired write formats ----------------------------------------------

#: a float32 whose bytes are the frame magic: a record that starts with it
#: is escape-framed
MAGIC_FLOAT = np.frombuffer(chunk_codecs.FRAME_MAGIC, dtype=np.float32)[0]

#: one PUA chain, level by level: (parameter file format, zlib-framed
#: records, layers the level changes)
RETIRED_CHAIN = (
    ("params", False, ()),                  # the root: one ``.params`` blob
    ("v2", False, ("5.weight",)),           # sha256 pieces
    ("v1", True, ("0.weight", "5.bias")),   # zlib-framed records
    ("params", False, ("5.bias",)),         # a whole-state ``.update`` blob
    ("v1", False, ("5.bias",)),             # a record that starts with MMCZ
)


def build_retired_store(root) -> dict:
    """A store in every retired format, written without today's writer
    (but for the last level's escape frame, which it still writes):
    ``{model_id: state}``."""
    files = RetiredFormatStore(root / "files", piece_bytes=256)
    service = ParameterUpdateSaveService(
        DocumentStore(root / "docs"), files, scratch_dir=root / "scratch")
    state = copy_state(make_tiny_cnn(seed=4).state_dict())
    states = {}
    for level, (manifest, framed, layers) in enumerate(RETIRED_CHAIN):
        files.manifest, files.zlib = manifest, framed
        state = copy_state(state)
        for key in layers:
            state[key] += level
        if manifest == "v1" and not framed:
            state["5.bias"][0] = MAGIC_FLOAT
        base = list(states)[-1] if states else None
        states[service.save_model(ModelSaveInfo(
            model_holding(state), tiny_arch(), base_model_id=base))] = state
    files.chunks.close()
    return states


def record_kinds(files, digests=None) -> dict:
    """``digest -> "raw" | "escape" | "zlib"``, from the stored bytes."""
    kinds = {}
    for digest in files.chunks.chunk_ids() if digests is None else digests:
        head = stored_record(files, digest)[:5]
        if head[:4] != chunk_codecs.FRAME_MAGIC:
            kinds[digest] = "raw"
        else:
            kinds[digest] = {chunk_codecs.CODEC_STORED: "escape",
                             chunk_codecs.CODEC_ZLIB: "zlib"}[head[4]]
    return kinds


def assert_state(model, expected) -> None:
    state = model.state_dict()
    assert list(state) == list(expected)
    for key, value in expected.items():
        assert state[key].dtype == value.dtype and np.array_equal(state[key], value), key


class TestRetiredWriteFormats:
    def test_it_recovers_bitwise_verified_or_not_and_is_fsck_clean(self, tmp_path):
        states = build_retired_store(tmp_path)
        files, service, manager = open_stores(tmp_path)
        assert set(record_kinds(files).values()) == {"raw", "escape", "zlib"}
        stored = files.file_ids()
        assert {files.read_manifest(f)["format"] for f in stored
                if files.is_manifest_id(f)} == {MANIFEST_FORMAT, MANIFEST_FORMAT_V2}
        assert any(f.endswith(".params") for f in stored)
        assert any(f.endswith(".update") for f in stored)

        for verify, verified in ((True, True), (False, None)):
            for model_id, state in states.items():
                recovered = service.recover_model(model_id, verify=verify)
                assert recovered.verified is verified
                assert_state(recovered.model, state)
        report = manager.fsck(verify_chunks=True)
        assert report.clean, report.summary()

    @pytest.mark.parametrize("kind", ["zlib", "escape"])
    def test_a_flipped_bit_in_a_framed_record_is_caught(self, tmp_path, kind):
        states = build_retired_store(tmp_path)
        files, service, manager = open_stores(tmp_path)
        digest = next(d for d, k in record_kinds(files).items() if k == kind)
        flip_stored_bit(files, digest)

        failed = 0
        for verify in (True, False):
            for model_id, state in states.items():
                try:
                    recovered = service.recover_model(model_id, verify=verify)
                except (StoreCorruptionError, VerificationError):
                    failed += 1
                else:  # a model that does not read the record is whole
                    assert_state(recovered.model, state)
        assert failed >= 2  # every reader fails, verified or not
        report = manager.fsck(repair=False, verify_chunks=True)
        assert "corrupt_chunk" in {issue.kind for issue in report.issues}

    def test_the_next_save_writes_only_v1_raw_records(self, tmp_path):
        states = build_retired_store(tmp_path)
        files, service, _manager = open_stores(tmp_path)
        chunks_before, files_before = set(files.chunks.chunk_ids()), set(files.file_ids())

        tip = list(states)[-1]
        state = copy_state(states[tip])
        for value in state.values():
            if value.dtype.kind == "f":
                value += 0.5
        state["5.bias"][0] = MAGIC_FLOAT
        derived = service.save_model(
            ModelSaveInfo(model_holding(state), tiny_arch(), base_model_id=tip))
        snapshot = service.save_model(ModelSaveInfo(model_holding(state), tiny_arch()))
        assert_recovers(service, derived, state)
        assert_recovers(service, snapshot, state)

        written = set(files.file_ids()) - files_before
        assert all(f.endswith((".manifest", ".py")) for f in written)
        manifests = [f for f in written if files.is_manifest_id(f)]
        assert len(manifests) == 2
        assert all(files.read_manifest(f)["format"] == MANIFEST_FORMAT for f in manifests)
        kinds = record_kinds(files, set(files.chunks.chunk_ids()) - chunks_before)
        escaped = {d for d, k in kinds.items() if k == "escape"}
        assert escaped == {state_dict_hashes(state)["5.bias"]}
        assert set(kinds.values()) == {"raw", "escape"}


# -- the older file-per-blob layout ------------------------------------------

#: every suffix an older release stored as a file in the root
BLOB_SUFFIXES = {".py", ".params.manifest", ".update.manifest", ".state", ".zip", ".params"}


def open_deployment(root, cluster: bool) -> SharedStores:
    if cluster:
        return SharedStores.cluster_at(root, shards=3, replicas=2)
    return SharedStores.at(root)


def member_stores(stores) -> list:
    files = stores.files
    return list(files.members.values()) if isinstance(files, ShardedFileStore) else [files]


def save_every_kind(root, cluster: bool) -> dict:
    """One model per kind of stored file, saved by today's writer:
    ``{model_id: state}``.  A PUA root and a derived level, an MPA level
    (dataset archive, optimizer state), and a snapshot whose parameters are
    rewritten as the whole-state ``.params`` file older releases wrote."""
    stores = open_deployment(root, cluster)
    pua = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    mpa = ProvenanceSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    states = {}
    base = make_tiny_cnn(seed=11)
    base_id = pua.save_model(ModelSaveInfo(base, tiny_arch()))
    states[base_id] = copy_state(base.state_dict())
    derived = copy_state(states[base_id])
    derived["5.bias"] += 1.0
    states[pua.save_model(ModelSaveInfo(
        model_holding(derived), tiny_arch(), base_model_id=base_id))] = derived

    run = TrainingRun(
        dataset_dir=generate_dataset("co512", root / "data", scale=1 / 2048),
        number_epochs=1, number_batches=1, seed=2, image_size=8, num_classes=10,
    )
    trained = model_holding(states[base_id])
    run.execute(trained)
    states[mpa.save_model(run.to_provenance_info(base_id, trained_model=trained))] = (
        copy_state(trained.state_dict()))

    legacy = copy_state(states[base_id])
    legacy["0.weight"] *= 2.0
    legacy_id = pua.save_model(ModelSaveInfo(model_holding(legacy), tiny_arch()))
    models = stores.documents.collection(MODELS)
    document = models.get(legacy_id)
    manifest = document["parameters_file"]
    document["parameters_file"] = stores.files.save_bytes(
        serialization.dumps(legacy), suffix=".params")
    models.replace_one(legacy_id, document)
    stores.files.delete(manifest)
    states[legacy_id] = legacy
    return states


def unimport_files(files) -> list[str]:
    """Turn every file record of ``files`` back into what an older release
    kept: a regular file in the root under its id, no record, no refcount.
    Returns the ids."""
    ids = files.file_ids()
    for file_id in ids:
        (files.root / file_id).write_bytes(bytes(files.chunks.get(file_id)))
        files.chunks.drop(file_id)
    files.chunks.forget_refs(ids)
    files.chunks.close()
    return ids


def to_file_per_blob(root, cluster: bool) -> dict:
    """Rewrite every member the way an older release left it
    (:func:`unimport_files`), plus an expired and a young ``*.tmp``.
    Returns ``{member root: [file ids]}``."""
    stores = open_deployment(root, cluster)
    placed = {}
    for files in member_stores(stores):
        ids = unimport_files(files)
        expired = files.root / "0123456789abcdef-000000000000.params.tmp"
        expired.write_bytes(b"half a file")
        os.utime(expired, (time.time() - 3600,) * 2)
        (files.root / "fedcba9876543210-000000000000.py.tmp").write_bytes(b"in flight")
        placed[files.root] = ids
    return placed


def assert_imported(root, cluster: bool, states: dict, placed: dict) -> None:
    """Opened again: every model bitwise, fsck clean, each imported id a
    record with refcount one, and nothing left in a root but the young tmp."""
    stores = open_deployment(root, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    report = ModelManager(service).fsck(verify_chunks=True)
    assert report.clean, report.summary()
    for files in member_stores(stores):
        relative = files.root.relative_to(root)
        for file_id in placed[root / relative]:
            assert files.chunks.refcount(file_id) == 1, file_id
        left = sorted(p.name for p in files.root.iterdir() if p.is_file())
        assert left == ["fedcba9876543210-000000000000.py.tmp"], left


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestAStoreOfFilesPerBlob:
    def test_every_blob_is_imported_and_every_model_recovers(self, tmp_path, cluster):
        states = save_every_kind(tmp_path, cluster)
        placed = to_file_per_blob(tmp_path, cluster)
        suffixes = {f[f.index("."):] for ids in placed.values() for f in ids}
        assert suffixes == BLOB_SUFFIXES
        assert_imported(tmp_path, cluster, states, placed)

    def test_a_crash_at_every_import_step_loses_no_file(
        self, tmp_path, cluster, monkeypatch
    ):
        """Kill the import after put k, the flush, the counts, unlink k of
        every member: the next open finishes it."""
        seed = tmp_path / "seed"
        states = save_every_kind(seed, cluster)
        placed = {
            root.relative_to(seed): ids
            for root, ids in to_file_per_blob(seed, cluster).items()
        }
        steps = sum(2 * len(ids) + 2 for ids in placed.values())
        faults = FaultInjector(seed=0)
        monkeypatch.setattr(ChunkStore, "_hook", lambda self, op: faults.fail_point(op))
        crashes = 0
        for at in range(1, steps + 2):
            root = tmp_path / f"crash-{at}"
            shutil.copytree(seed, root)
            faults.arm_crash(at, op="chunk.import")
            try:
                open_deployment(root, cluster)
            except CrashPoint:
                crashes += 1
            else:
                break  # the import outran the armed crash: every point hit
            assert_imported(
                root, cluster, states,
                {root / relative: ids for relative, ids in placed.items()})
        else:
            pytest.fail("the import never completed")
        assert crashes == steps


def as_older_journal(journal: SaveJournal) -> list[dict]:
    """A save journal as an older release wrote it: files as ``blob``
    intents, never chunks, and no reference of their own."""
    entries = []
    for entry in journal.entries:
        if entry["op"] == "chunk" and is_file_id(entry["digest"]):
            continue
        if entry["op"] == "refs":
            files = [d for d in entry["digests"] if is_file_id(d)]
            chunks = [d for d in entry["digests"] if not is_file_id(d)]
            if chunks:
                entries.append({"op": "refs", "digests": chunks})
            entries.extend({"op": "blob", "file_id": f} for f in files)
            continue
        entries.append(entry)
    return entries


class TestOlderArtefacts:
    def test_a_crashed_save_journal_rolls_back_its_blob_intents(self, tmp_path):
        files = FileStore(tmp_path / "files")
        documents = DocumentStore(tmp_path / "docs")
        service = BaselineSaveService(documents, files)
        kept = make_tiny_cnn(seed=5)
        kept_id = service.save_model(ModelSaveInfo(kept, tiny_arch()))
        # a save that died before its document: code, chunks, manifest
        crashed = copy_state(kept.state_dict())
        crashed["5.bias"] += 3.0
        files.begin_journal()
        code_id = files.save_bytes(b"def build(): ...", suffix=".py")
        manifest_id = files.save_state_chunks(crashed, state_dict_hashes(crashed))
        journal = files._active_journal()
        files.abandon_journal()
        entries = as_older_journal(journal)
        assert {e["file_id"] for e in entries if e["op"] == "blob"} == {
            code_id, manifest_id}
        # the older release's one file per save, and no intent log
        older = files.journal_dir / f"{journal.save_id}.jsonl"
        older.write_text("".join(json.dumps(e) + "\n" for e in entries))
        for path in files.journal_dir.glob("intents-*.log"):
            path.unlink()
        unimport_files(files)

        files = FileStore(tmp_path / "files")
        assert {code_id, manifest_id} <= set(files.file_ids())
        [journal] = files.incomplete_journals()
        stats = files.rollback_journal(journal)
        assert stats["blobs_removed"] == 2
        assert not files.exists(code_id) and not files.exists(manifest_id)
        changed = state_dict_hashes(crashed)["5.bias"]
        assert not files.chunks.has(changed)
        service = BaselineSaveService(documents, files)
        assert_recovers(service, kept_id, copy_state(kept.state_dict()))
        assert ModelManager(service).fsck(verify_chunks=True).clean

    def test_a_pending_blob_hint_is_delivered(self, tmp_path):
        members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(3)}
        hints = HintLog(tmp_path / "hints")
        store = ShardedFileStore(tmp_path / "meta", members, replicas=2, hint_log=hints)
        file_id = store.save_bytes(b"architecture source", suffix=".py")
        owner = store.ring.owners(file_id)[0]
        members[owner].chunks.drop(file_id)
        members[owner].chunks.forget_refs([file_id])
        hints.record(owner, "blob", file_id)  # what an older release recorded

        deliverer = HintDeliverer(hints, None, store.hint_appliers())
        assert deliverer.drain() is True
        assert deliverer.stats["delivered"] == 1
        assert members[owner].recover_bytes(file_id) == b"architecture source"
        assert members[owner].chunks.refcount(file_id) == 1
