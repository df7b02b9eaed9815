"""What older releases left on disk comes in through one door: the import.

No store of this release opens a root an older release wrote
(:class:`~repro.errors.OlderFormatError`); ``mmlib import`` copies the
deployment, converts the copy and renames it into place once every model
recovers verified and fsck is clean (DESIGN.md §11 "One import door").
Each fixture here is such a deployment:

* chunk roots of the older file-per-chunk layout, ``chunks/objects/<digest>``
  (the raw bytes or a codec frame) beside a ``refcounts.json``;
* store roots of the older file-per-blob layout: every file a regular file
  directly under the root;
* the retired write formats — v2 manifests of pieces, zlib- or
  escape-framed records, monolithic ``.params`` / ``.update`` blobs, JSON
  (v1) manifests and PUA delta levels (:class:`TestRetiredWriteFormats`,
  :class:`TestAStoreTheParentWrote`).

Each imports at one store and at 3x2, and a kill at every import step
leaves the deployment it read as it was and no ``NEW`` (:class:`TestImportCrashes`).
"""

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pytest

from repro import importer
from repro.cluster import ShardedFileStore
from repro.core import (
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
)
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import OlderFormatError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore.store import (
    FORMAT_MARKER, MANIFEST_FORMAT, MANIFEST_TAG, chunk_intact, is_file_id, is_spec_key)
from repro.importer import MANIFEST_FORMAT_V1, MANIFEST_FORMAT_V2, ImportFailedError
from repro.nn import serialization
from repro.workloads import generate_dataset
from repro.workloads.relations import TrainingRun
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import (
    assert_recovers,
    copy_state,
    count_calls,
    flip_stored_bit,
    model_holding,
    save_pua_chain,
    tiny_arch,
)
from tests.filestore.older_release import as_older_release, imported, older_encode, tree_hash
from tests.filestore.retired_formats import (
    RetiredFormatStore,
    older_release,
    stored_record,
    v1_layers,
    write_v1,
    zlib_frame,
)


def open_stores(root, docs="docs"):
    files = FileStore(root / "files", tmp_grace_s=0.0)
    service = ParameterUpdateSaveService(
        DocumentStore(root / docs), files, scratch_dir=root / "scratch")
    return files, service, ModelManager(service)


def write_objects(chunk_root, payloads: dict) -> None:
    """One file per chunk, every other one zlib-framed."""
    objects = chunk_root / "objects"
    objects.mkdir(exist_ok=True)
    for index, (digest, raw) in enumerate(sorted(payloads.items())):
        (objects / digest).write_bytes(zlib_frame(raw) if index % 2 else raw)


def save_models(root, cluster: bool = False) -> tuple[dict, dict]:
    """A PUA chain, saved and closed: ``({model_id: state}, {member root
    relative to root: its record keys})``."""
    stores = open_deployment(root, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    ids, states = save_pua_chain(service, depth=3, layers=("5.bias", "5.weight"))
    keys = {files.root.relative_to(root): files.chunks.chunk_ids()
            for files in member_stores(stores)}
    stores.files.close()
    return dict(zip(ids, states)), keys


def stored_payloads(store) -> dict:
    return {digest: bytes(store.get(digest)) for digest in store.chunk_ids()}


def to_file_per_chunk(root, cluster: bool = False) -> dict:
    """Rewrite every chunk root as the older layout left it: ``objects/``,
    a folded ``refcounts.json``, no segments, no index, no format marker.
    Returns ``{member root relative to root: {key: payload}}``."""
    stores = open_deployment(root, cluster)
    payloads = {}
    for files in member_stores(stores):
        store = files.chunks
        payloads[files.root.relative_to(root)] = held = stored_payloads(store)
        store.close()
        shutil.rmtree(store.root / "segments")
        (store.root / "index.json").unlink(missing_ok=True)
        write_objects(store.root, held)
        (store.root / "refcounts.json").write_text(
            json.dumps(dict.fromkeys(held, 1), sort_keys=True))
    as_older_release(root)
    return payloads


def assert_whole(new, cluster: bool, states: dict, keys: dict):
    """The imported deployment: fsck clean, every model bitwise, the same
    records on every member, no ``objects/`` and no ``refcounts.json``.
    Returns a service and a manager over it."""
    stores = open_deployment(new, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    manager = ModelManager(service)
    report = manager.fsck(verify_chunks=True)
    assert report.clean, report.summary()
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    for files in member_stores(stores):
        assert files.chunks.chunk_ids() == keys[files.root.relative_to(new)]
        assert not (files.chunks.root / "objects").exists()
        assert not (files.chunks.root / "refcounts.json").exists()
    return service, manager


class TestAMixedChunkRoot:
    def test_chunks_written_beside_the_segments_are_all_found(self, tmp_path):
        """A file-per-chunk writer on a segments root stored every chunk it
        was handed in ``objects/``; half of them it was the only one to
        store."""
        states, keys = save_models(tmp_path)
        store = FileStore(tmp_path / "files").chunks
        payloads = stored_payloads(store)
        for digest in sorted(payloads)[::2]:
            assert store.drop(digest)
        store.close()
        write_objects(store.root, payloads)
        as_older_release(tmp_path)

        new = import_deployment(tmp_path, cluster=False)
        assert_whole(new, False, states, keys)
        store = ChunkStore(new / "files" / "chunks")
        assert store.chunk_ids() == sorted(payloads)
        assert store.segment_stats()["chunks"] == len(payloads)


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestAStoreInTheOlderLayout:
    def test_it_opens_recovers_with_the_same_counts_and_is_fsck_clean(self, tmp_path, cluster):
        states, keys = save_models(tmp_path, cluster)
        payloads = to_file_per_chunk(tmp_path, cluster)
        objects = [tmp_path / member / "chunks" / "objects" for member in payloads]
        framed = [p for directory in objects for p in directory.iterdir()
                  if p.read_bytes()[:4] == importer.FRAME_MAGIC]
        assert 0 < len(framed) < sum(map(len, payloads.values()))
        with pytest.raises(OlderFormatError):
            open_deployment(tmp_path, cluster)

        new = import_deployment(tmp_path, cluster)
        service, manager = assert_whole(new, cluster, states, keys)
        assert all(directory.is_dir() for directory in objects)  # the import only read them
        # and it carries on: a delete, a gc
        tip = list(states)[-1]
        manager.delete_model(tip)
        del states[tip]
        manager.garbage_collect()
        for model_id, state in states.items():
            assert_recovers(service, model_id, state)
        assert manager.fsck(verify_chunks=True).clean


# -- the retired write formats ----------------------------------------------

#: a float32 whose bytes are the frame magic: an older release escape-framed
#: a record that starts with it, this one stores it raw
MAGIC_FLOAT = np.frombuffer(importer.FRAME_MAGIC, dtype=np.float32)[0]

#: one PUA chain, level by level: (parameter file format, zlib-framed
#: records, layers the level changes)
RETIRED_CHAIN = (
    ("params", False, ()),                  # the root: one ``.params`` blob
    ("v2", False, ("5.weight",)),           # sha256 pieces
    ("v1", True, ("0.weight", "5.bias")),   # zlib-framed records
    ("params", False, ("5.bias",)),         # a whole-state ``.update`` blob
    ("v1", False, ("5.bias",)),             # an escape-framed record (MMCZ)
)


def build_retired_store(root) -> tuple[dict, dict]:
    """A store in every retired format, as an older release left it (no
    format marker): ``({model_id: state}, before)``, ``before`` what it
    holds — ``kinds`` and ``locations`` of its records, the ``formats`` of
    its manifests and the ``suffixes`` of its files."""
    files = RetiredFormatStore(root / "files", piece_bytes=256, escape=True)
    service = older_release(ParameterUpdateSaveService(
        DocumentStore(root / "docs"), files, scratch_dir=root / "scratch"))
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
    stored = files.file_ids()
    before = {
        "kinds": record_kinds(files),
        "locations": {d: files.chunks.locate(d) for d in files.chunks.chunk_ids()},
        "formats": {json.loads(files.recover_bytes(f))["format"]
                    for f in stored if files.is_manifest_id(f)},
        "suffixes": {f[f.index("."):] for f in stored},
    }
    files.chunks.close()
    as_older_release(root)
    return states, before


def record_kinds(files) -> dict:
    """``digest -> "raw" | "escape" | "zlib"``, from the stored bytes of a
    store an older release wrote."""
    kinds = {}
    for digest in files.chunks.chunk_ids():
        head = stored_record(files, digest)[:5]
        if head[:4] != importer.FRAME_MAGIC:
            kinds[digest] = "raw"
        else:
            kinds[digest] = {importer.CODEC_STORED: "escape",
                             importer.CODEC_ZLIB: "zlib"}[head[4]]
    return kinds


def layer_bytes(states) -> dict:
    """``digest -> raw bytes`` of every layer of ``states``."""
    raw = {}
    for state in states:
        for name, digest in state_dict_hashes(state).items():
            raw[digest] = np.ascontiguousarray(state[name]).tobytes()
    return raw


def assert_one_format(files, states) -> None:
    """Only v3 manifests and raw records: every chunk rests as its layer's
    bytes, every file and spec record as bytes its key vouches for, no
    blob and no delta level is left, and the root is marked."""
    raw = layer_bytes(states)
    for key in files.chunks.chunk_ids():
        stored = stored_record(files, key)
        if not is_file_id(key):
            assert stored == raw[key] if not is_spec_key(key) else chunk_intact(key, stored), key
            continue
        assert chunk_intact(key, stored), key
        assert not key.endswith((".params", ".update", ".update.manifest")), key
        if files.is_manifest_id(key):
            assert stored.startswith(MANIFEST_TAG), key
    assert (files.root / FORMAT_MARKER).exists()


def merkle_roots(documents) -> dict:
    return {d["_id"]: d["merkle_root"]
            for d in documents.collection(MODELS).find(projection=("merkle_root",))}


def assert_state(model, expected) -> None:
    state = model.state_dict()
    assert list(state) == list(expected)
    for key, value in expected.items():
        assert state[key].dtype == value.dtype and np.array_equal(state[key], value), key


def flip_bit_at(location) -> bytes:
    """Flip one bit mid-payload of the record at ``(path, offset, length)``;
    returns the payload as it is now."""
    path, offset, length = location
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(offset + length // 2)
        handle.write(bytes([byte[0] ^ 0x01]))
        handle.seek(offset)
        return handle.read(length)


class TestRetiredWriteFormats:
    def test_it_recovers_bitwise_verified_or_not_and_is_fsck_clean(self, tmp_path):
        """One import converts the store: only raw records and v3 manifests
        are left, and every model recovers bitwise under its unchanged
        Merkle root."""
        states, before = build_retired_store(tmp_path)
        assert set(before["kinds"].values()) == {"raw", "escape", "zlib"}
        assert before["formats"] == {MANIFEST_FORMAT_V1, MANIFEST_FORMAT_V2}
        assert {".params", ".update"} <= before["suffixes"]
        roots = merkle_roots(DocumentStore(tmp_path / "docs"))
        old = tree_hash(tmp_path)

        files, service, manager = open_stores(imported(tmp_path), docs="documents")
        assert tree_hash(tmp_path) == old
        assert_one_format(files, states.values())
        report = manager.fsck(verify_chunks=True)
        assert report.clean, report.summary()
        for verify, verified in ((True, True), (False, None)):
            for model_id, state in states.items():
                recovered = service.recover_model(model_id, verify=verify)
                assert recovered.verified is verified
                assert recovered.recovery_depth == 0
                assert_state(recovered.model, state)
        assert merkle_roots(service.documents) == roots

    @pytest.mark.parametrize("kind", ["zlib", "escape"])
    def test_a_flipped_bit_in_a_framed_record_is_caught(self, tmp_path, kind):
        """A framed record that fails its CRC fails the import, which names
        it, creates nothing and leaves the store it read as it was."""
        states, before = build_retired_store(tmp_path)
        digest = next(d for d, k in sorted(before["kinds"].items()) if k == kind)
        flip_bit_at(before["locations"][digest])
        old = tree_hash(tmp_path)

        with pytest.raises(ImportFailedError, match=digest):
            imported(tmp_path)
        assert tree_hash(tmp_path) == old
        assert not tmp_path.with_name(f"{tmp_path.name}-imported").exists()
        assert not tmp_path.with_name(f"{tmp_path.name}-imported.importing").exists()

    def test_the_next_save_writes_only_v1_raw_records(self, tmp_path):
        states, _ = build_retired_store(tmp_path)
        files, service, _manager = open_stores(imported(tmp_path), docs="documents")
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
        fresh = set(files.chunks.chunk_ids()) - chunks_before - written
        raw = layer_bytes([state])
        assert fresh and all(stored_record(files, d) == raw[d] for d in fresh)
        bias = state_dict_hashes(state)["5.bias"]
        assert bias in fresh and stored_record(files, bias)[:4] == importer.FRAME_MAGIC


class TestAFrameMagicLayer:
    """A layer whose bytes begin with the frame magic rests raw, where an
    older release escape-framed it."""

    def test_it_rests_raw_and_survives_segment_compaction(self, tmp_path):
        files, service, manager = open_stores(tmp_path)
        files.chunks.segment_bytes = 1 << 30
        fillers = [service.save_model(ModelSaveInfo(make_tiny_cnn(seed=s), tiny_arch()))
                   for s in (7, 8)]
        state = copy_state(make_tiny_cnn(seed=6).state_dict())
        state["5.bias"][0] = MAGIC_FLOAT
        model_id = service.save_model(ModelSaveInfo(model_holding(state), tiny_arch()))
        digest = state_dict_hashes(state)["5.bias"]
        assert stored_record(files, digest) == state["5.bias"].tobytes()
        # seal the segment, then leave a third of it live
        files.chunks.segment_bytes = 1
        files.chunks.put("ff" * 32, b"seals the segment")
        for filler in fillers:
            manager.delete_model(filler)
        located = files.chunks.locate(digest)
        manager.garbage_collect()  # the fillers' code files go too
        assert files.chunks.locate(digest) != located

        assert stored_record(files, digest) == state["5.bias"].tobytes()
        for verify, verified in ((True, True), (False, None)):
            recovered = service.recover_model(model_id, verify=verify)
            assert recovered.verified is verified
            assert_state(recovered.model, state)
        report = manager.fsck(verify_chunks=True)
        assert report.clean, report.summary()

    def test_it_rests_raw_and_survives_a_read_repair(self, tmp_path):
        stores = open_deployment(tmp_path, cluster=True)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        state = copy_state(make_tiny_cnn(seed=6).state_dict())
        state["5.bias"][0] = MAGIC_FLOAT
        model_id = service.save_model(ModelSaveInfo(model_holding(state), tiny_arch()))
        digest = state_dict_hashes(state)["5.bias"]
        owners = [stores.files.members[name] for name in stores.files.ring.owners(digest)]
        assert all(stored_record(m, digest) == state["5.bias"].tobytes() for m in owners)

        flip_stored_bit(owners[0], digest)
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state(recovered.model, state)
        assert stores.files.cluster_stats["read_repairs"] >= 1
        assert all(stored_record(m, digest) == state["5.bias"].tobytes() for m in owners)
        assert_state(service.recover_model(model_id, verify=False).model, state)
        report = ModelManager(service).fsck(verify_chunks=True)
        assert report.clean, report.summary()


# -- the older file-per-blob layout ------------------------------------------

#: every suffix an older release stored as a file in the root
BLOB_SUFFIXES = {".py", ".params.manifest", ".state", ".zip", ".params"}


def open_deployment(root, cluster: bool) -> SharedStores:
    if cluster:
        return SharedStores.cluster_at(root, shards=3, replicas=2)
    return SharedStores.at(root)


def import_deployment(root, cluster: bool):
    """Import the deployment under ``root`` (laid out as
    :func:`open_deployment` opens it); returns where it went."""
    return imported(root, cluster=cluster, docs="documents")


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
        dataset_dir=generate_dataset("co512", root.parent / f"{root.name}-data", scale=1 / 2048),
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
    kept: a regular file in the root under its id, no record, no format
    marker.  Returns the ids."""
    ids = files.file_ids()
    for file_id in ids:
        (files.root / file_id).write_bytes(bytes(files.chunks.get(file_id)))
        files.chunks.drop(file_id)
    files.chunks.close()
    as_older_release(files.root)
    return ids


def to_file_per_blob(root, cluster: bool) -> dict:
    """Rewrite every member the way an older release left it
    (:func:`unimport_files`, no format marker), plus an expired and a young
    ``*.tmp``.  Returns ``{member root relative to root: [file ids]}``."""
    stores = open_deployment(root, cluster)
    placed = {}
    for files in member_stores(stores):
        ids = unimport_files(files)
        expired = files.root / "0123456789abcdef-000000000000.params.tmp"
        expired.write_bytes(b"half a file")
        os.utime(expired, (time.time() - 3600,) * 2)
        (files.root / "fedcba9876543210-000000000000.py.tmp").write_bytes(b"in flight")
        placed[files.root.relative_to(root)] = ids
    as_older_release(root)
    return placed


def assert_imported(new, cluster: bool, states: dict, placed: dict) -> None:
    """The imported deployment: every model bitwise, fsck clean, each
    imported id a stored record — but the ``.params`` file, which the
    import replaced by a manifest — and nothing left in a root but the
    format marker and the chunk store."""
    stores = open_deployment(new, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    report = ModelManager(service).fsck(verify_chunks=True)
    assert report.clean, report.summary()
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    assert (stores.files.root / FORMAT_MARKER).exists()
    levels = {document["parameters_file"] for document in stores.documents.collection(
        MODELS).find(projection=("parameters_file",)) if document.get("parameters_file")}
    assert all(stores.files.is_manifest_id(level) for level in levels)
    for files in member_stores(stores):
        for file_id in placed[files.root.relative_to(new)]:
            wanted = not file_id.endswith(".params")
            assert files.chunks.has(file_id) == wanted, file_id
        assert sorted(p.name for p in files.root.iterdir()) == [FORMAT_MARKER, "chunks"]


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestAStoreOfFilesPerBlob:
    def test_every_blob_is_imported_and_every_model_recovers(self, tmp_path, cluster):
        states = save_every_kind(tmp_path, cluster)
        placed = to_file_per_blob(tmp_path, cluster)
        suffixes = {f[f.index("."):] for ids in placed.values() for f in ids}
        assert suffixes == BLOB_SUFFIXES
        with pytest.raises(OlderFormatError):
            open_deployment(tmp_path, cluster)
        assert_imported(import_deployment(tmp_path, cluster), cluster, states, placed)

    def test_a_crash_at_every_import_step_loses_no_file(
        self, tmp_path, cluster, monkeypatch
    ):
        """Kill the import at every step: the deployment it reads stays as
        it was, no ``NEW`` appears, and a rerun finishes."""
        seed = tmp_path / "seed"
        states = save_every_kind(seed, cluster)
        placed = to_file_per_blob(seed, cluster)
        new = kill_the_import_at_every_step(
            monkeypatch, lambda: import_deployment(seed, cluster), seed)
        assert_imported(new, cluster, states, placed)


class TestOlderArtefacts:
    def test_a_pending_blob_hint_is_delivered(self, tmp_path):
        """An older release's ``blob`` hint for a file an owner lost: the
        import deletes the hint unread, and its fsck restores the file."""
        stores = open_deployment(tmp_path, cluster=True)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        ids, states = save_pua_chain(service, depth=1)
        file_id = stores.documents.collection(MODELS).get(
            ids[0])["architecture"]["code_file_id"]
        owners = stores.files.ring.owners(file_id)
        stores.files.members[owners[0]].chunks.drop(file_id)
        hints = tmp_path / "cluster-meta" / "hints"
        hints.mkdir()
        (hints / f"{owners[0]}.jsonl").write_text(json.dumps(
            {"op": "hint", "kind": "blob", "key": file_id}) + "\n")
        for member in member_stores(stores):
            member.chunks.close()
        as_older_release(tmp_path)

        new = import_deployment(tmp_path, cluster=True)
        assert not (new / "cluster-meta" / "hints").exists()
        stores = open_deployment(new, cluster=True)
        for owner in owners:
            assert stores.files.members[owner].chunks.has(file_id)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        for model_id, state in zip(ids, states):
            assert_recovers(service, model_id, state)


# -- the import, killed at every step -----------------------------------------


def kill_the_import_at_every_step(monkeypatch, run, old):
    """Run ``run`` (an import of ``old``) killed after its first, second,
    ... step until one run outlives the armed kill: each killed run leaves
    ``old`` byte for byte as it was and no ``NEW``, and the next run starts
    over.  Returns where the finishing run put ``NEW``."""
    faults = FaultInjector(seed=0)
    monkeypatch.setattr(importer, "fault_hook", faults.fail_point)
    before = tree_hash(old)
    new = old.with_name(f"{old.name}-imported")
    crashes = 0
    for at in range(1, 200):
        faults.arm_crash(at, op="import.")
        try:
            finished = run()
        except CrashPoint:
            crashes += 1
            assert tree_hash(old) == before, f"crash at {at}"
            assert not new.exists(), f"crash at {at}"
            assert new.with_name(f"{new.name}.importing").exists()  # what the rerun removes
        else:
            break  # the import outran the armed crash: every step was hit
    else:
        pytest.fail("the import never completed")
    monkeypatch.undo()
    assert crashes >= 5  # the copy, the files, a record pass, a check, the rename
    assert tree_hash(old) == before
    assert not new.with_name(f"{new.name}.importing").exists()
    return finished


def build_retired_cluster(root) -> dict:
    """A 3x2 cluster as an older release left it: a ``.params`` root
    snapshot, a v2 level, a level whose bias starts with the frame magic,
    every other chunk record zlib-framed and the magic one escape-framed,
    no format marker.  Returns ``{model_id: state}``."""
    stores = open_deployment(root, cluster=True)
    service = older_release(ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir), layer_hashes=False)
    ids, states = save_pua_chain(service, depth=2, layers=("5.bias", "5.weight"))
    tip = copy_state(states[-1])
    tip["5.bias"][0] = MAGIC_FLOAT
    ids.append(service.save_model(
        ModelSaveInfo(model_holding(tip), tiny_arch(), base_model_id=ids[-1])))
    states.append(tip)
    files, models = stores.files, stores.documents.collection(MODELS)

    document = models.get(ids[0])
    old = document["parameters_file"]
    document["parameters_file"] = files.save_bytes(
        serialization.dumps(states[0]), suffix=".params")
    models.replace_one(ids[0], document)
    files.delete(old)

    document = models.get(ids[1])
    old = document["update_file"]
    entries = []
    for name, meta in v1_layers(files, old):
        raw = np.ascontiguousarray(states[1][name]).tobytes()
        run = []
        for start in range(0, max(len(raw), 1), 256):
            piece = raw[start:start + 256]
            run.append(hashlib.sha256(piece).hexdigest())
            files.put_chunk(run[-1], piece)
        entries.append([name, {"chunks": run, "dtype": meta["dtype"],
                               "shape": meta["shape"], "hash": meta["chunk"]}])
    files.chunks.flush()
    document["update_file"] = files.save_bytes(json.dumps(
        {"format": MANIFEST_FORMAT_V2, "layers": entries}, sort_keys=True).encode(),
        suffix=".update.manifest")
    models.replace_one(ids[1], document)
    files.delete(old)

    for member in member_stores(stores):
        chunks = member.chunks
        for index, digest in enumerate(chunks.chunk_ids()):
            if is_file_id(digest):
                continue
            raw = bytes(chunks.get(digest))
            chunks.drop(digest)
            chunks.put(digest, (zlib_frame if index % 2 else older_encode)(raw))
        chunks.flush()
        chunks.close()
    as_older_release(root)
    return dict(zip(ids, states))


def retired_deployment(root, cluster: bool) -> dict:
    if cluster:
        return build_retired_cluster(root)
    stores = open_deployment(root, cluster=False)
    stores.files.chunks.close()
    shutil.rmtree(root)
    states, _ = build_retired_store(root)
    (root / "docs").rename(root / "documents")
    return states


def catalog(root, cluster: bool):
    """The deployment's documents, read without opening its file stores
    (an older release's refuse to open)."""
    from repro.cluster import ShardedDocumentStore

    if not cluster:
        return DocumentStore(root / "documents")
    members = {path.name: DocumentStore(path / "documents")
               for path in sorted(root.glob("shard-*"))}
    return ShardedDocumentStore(members, replicas=2)


def assert_upgraded(new, cluster: bool, states: dict, roots: dict) -> None:
    """The imported deployment: fsck clean on its first run, every model
    bitwise, verified or not, under its Merkle root and its own recovery
    base, and only raw records and v3 manifests."""
    stores = open_deployment(new, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    report = ModelManager(service).fsck(verify_chunks=True)
    assert report.clean, report.summary()
    for verify, verified in ((True, True), (False, None)):
        for model_id, state in states.items():
            recovered = service.recover_model(model_id, verify=verify)
            assert recovered.verified is verified
            assert recovered.recovery_depth == 0
            assert_state(recovered.model, state)
    assert merkle_roots(service.documents) == roots
    assert (service.files.root / FORMAT_MARKER).exists()
    for files in member_stores(stores):
        assert_one_format(files, states.values())


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestImportCrashes:
    def test_a_crash_at_every_import_step_leaves_the_store_as_it_was(
        self, tmp_path, cluster, monkeypatch
    ):
        """Kill the import after its copy, its files, each re-append pass,
        each level and its checks, and before its rename: the store it
        reads is unchanged, no ``NEW`` appears, and a rerun finishes."""
        seed = tmp_path / "seed"
        states = retired_deployment(seed, cluster)
        roots = merkle_roots(catalog(seed, cluster))
        new = kill_the_import_at_every_step(
            monkeypatch, lambda: import_deployment(seed, cluster), seed)
        assert_upgraded(new, cluster, states, roots)


class TestAStoreThisReleaseWrote:
    @staticmethod
    def count_open(monkeypatch, root, docs="docs") -> dict:
        """What opening the stores, a service and a manager over ``root``,
        and its chunk store, costs: calls per read."""
        calls = {
            "records read": count_calls(monkeypatch, ChunkStore, "_read_run_locked"),
            "files read": count_calls(monkeypatch, FileStore, "recover_bytes"),
        }
        files, _service, _manager = open_stores(root, docs)
        files.chunks  # opened too
        monkeypatch.undo()
        return {name: len(made) for name, made in calls.items()}

    def test_opening_it_scans_no_record_and_reads_no_manifest(self, tmp_path, monkeypatch):
        files, service, _manager = open_stores(tmp_path)
        save_pua_chain(service, depth=3)
        files.chunks.close()
        assert set(self.count_open(monkeypatch, tmp_path).values()) == {0}

    def test_an_upgraded_store_pays_once(self, tmp_path, monkeypatch):
        """The import reads what it converts; opening what it wrote reads
        nothing."""
        build_retired_store(tmp_path)
        new = imported(tmp_path)
        assert set(self.count_open(monkeypatch, new, "documents").values()) == {0}


# -- a store the release before v3 manifests wrote ------------------------


def build_parent_deployment(root, cluster: bool) -> dict:
    """What the release before v3 manifests left: JSON (v1) manifests, PUA
    delta levels — one chain eight deep whose fourth level its compaction
    materialized, one five deep never compacted — and every root marked
    ``.one-format``.  Returns ``{model_id: state}``."""
    stores = open_deployment(root, cluster)
    service = older_release(ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir), layer_hashes=False)
    ids, states = save_pua_chain(service, depth=8, layers=("5.bias", "5.weight"))
    more_ids, more_states = save_pua_chain(service, depth=5, seed=2)
    files, models = service.files, service.documents.collection(MODELS)
    # that release's compaction of ids[4]: a full v1 manifest, a code copy,
    # the delta released
    document = models.get(ids[4])
    architecture = dict(models.get(ids[0])["architecture"])
    architecture["code_file_id"] = files.save_bytes(
        files.recover_bytes(architecture["code_file_id"]), suffix=".py")
    old = document.pop("update_file")
    document.update(
        parameters_file=write_v1(files, states[4], state_dict_hashes(states[4]),
                                 ".params.manifest"),
        architecture=architecture, compacted={"from_depth": 4})
    models.replace_one(ids[4], document)
    files.delete(old)
    for member in member_stores(stores):
        member.chunks.close()
    as_older_release(root, parent_marker=True)
    return dict(zip(ids + more_ids, states + more_states))


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestAStoreTheParentWrote:
    def test_it_upgrades_to_full_manifests_and_recovers_bitwise(self, tmp_path, cluster):
        states = build_parent_deployment(tmp_path, cluster)
        with pytest.raises(OlderFormatError):
            open_deployment(tmp_path, cluster)
        documents = catalog(tmp_path, cluster)
        deltas = [d["_id"] for d in documents.collection(MODELS).find(
            projection=("update_file",)) if d.get("update_file")]
        assert len(deltas) == len(states) - 3  # every level but two roots and one compacted
        assert list(tmp_path.rglob(".one-format"))
        roots = merkle_roots(documents)

        new = import_deployment(tmp_path, cluster)
        assert list(tmp_path.rglob(".one-format"))  # the import only read it
        assert not list(new.rglob(".one-format"))
        assert_upgraded(new, cluster, states, roots)
        for document in catalog(new, cluster).collection(MODELS).find():
            assert document["parameters_file"] and document["architecture"]
            assert "update_file" not in document

    def test_a_crash_at_every_upgrade_step_resumes_on_the_next_open(
        self, tmp_path, cluster, monkeypatch
    ):
        """Kill the import at every step: the parent's store is unchanged,
        no ``NEW`` appears, and a rerun finishes."""
        seed = tmp_path / "seed"
        states = build_parent_deployment(seed, cluster)
        roots = merkle_roots(catalog(seed, cluster))
        new = kill_the_import_at_every_step(
            monkeypatch, lambda: import_deployment(seed, cluster), seed)
        assert_upgraded(new, cluster, states, roots)

