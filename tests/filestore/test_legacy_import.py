"""What older releases left on disk stays readable.

Chunk roots of the older file-per-chunk layout are imported on open.  That
layout kept each chunk in its own file, ``chunks/objects/<digest>`` (the
raw bytes or a codec frame), beside a ``refcounts.json`` that nothing
reads now and fsck deletes.  A chunk root that still holds ``objects/`` is folded into the
segments once, under the store's lock: put, one group flush and an index
checkpoint, then the files are unlinked (DESIGN.md §9).

Store roots of the older file-per-blob layout are imported the same way:
every regular file directly under the root becomes a record under its
name (DESIGN.md §6 "One store for every byte").  The handoff hints those
releases wrote name such a file as a ``blob``; they are still honoured.
The save journals they wrote beside it are deleted by fsck, whose sweep
reclaims every file a crashed save left.

Saves write one format, whole-layer (v1) manifests over raw records; a
store holding one of the three retired write formats — v2 manifests of
pieces, zlib- or escape-framed records, monolithic ``.params`` /
``.update`` blobs — is upgraded the first time it is opened, resumably
(DESIGN.md §11, :class:`TestRetiredWriteFormats`, :class:`TestUpgradeCrashes`).
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

from repro.cluster import SelfHealer, ShardedFileStore
from repro.core import (
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
from repro.filestore import ChunkStore, FileStore, upgrade
from repro.filestore.store import MANIFEST_FORMAT, MANIFEST_TAG, chunk_intact, is_file_id, is_spec_key
from repro.filestore.upgrade import FORMAT_MARKER, MANIFEST_FORMAT_V1, MANIFEST_FORMAT_V2
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
from tests.filestore.older_release import as_older_release, older_encode
from tests.filestore.retired_formats import (
    RetiredFormatStore,
    older_release,
    stored_record,
    v1_layers,
    write_v1,
    zlib_frame,
)


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
    """A PUA chain, saved and closed: ``({model_id: state}, record keys)``."""
    files, service, _manager = open_stores(root)
    ids, states = save_pua_chain(service, depth=3, layers=("5.bias", "5.weight"))
    keys = files.chunks.chunk_ids()
    files.chunks.close()
    return dict(zip(ids, states)), keys


def stored_payloads(store) -> dict:
    return {digest: bytes(store.get(digest)) for digest in store.chunk_ids()}


def to_file_per_chunk(root) -> dict:
    """Rewrite the chunk root as the older layout left it: ``objects/``, a
    folded ``refcounts.json``, no segments, no index."""
    store = FileStore(root / "files").chunks
    payloads = stored_payloads(store)
    counts = dict.fromkeys(payloads, 1)
    store.close()
    chunk_root = store.root
    shutil.rmtree(chunk_root / "segments")
    (chunk_root / "index.json").unlink(missing_ok=True)
    write_objects(chunk_root, payloads)
    (chunk_root / "refcounts.json").write_text(json.dumps(counts, sort_keys=True))
    return payloads


def assert_whole(root, states: dict, keys: list) -> None:
    """Opened again: every model bitwise, the same records, fsck clean, no
    ``objects/`` and no ``refcounts.json`` left."""
    files, service, manager = open_stores(root)
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    assert files.chunks.chunk_ids() == keys
    report = manager.fsck(verify_chunks=True)
    assert report.clean, report.summary()
    assert not (files.chunks.root / "objects").exists()
    assert not (files.chunks.root / "refcounts.json").exists()


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

        assert_whole(tmp_path, states, keys)
        store = ChunkStore(store.root)
        assert store.chunk_ids() == sorted(payloads)
        assert store.segment_stats()["chunks"] == len(payloads)


class TestAStoreInTheOlderLayout:
    def test_it_opens_recovers_with_the_same_counts_and_is_fsck_clean(self, tmp_path):
        states, keys = save_models(tmp_path)
        payloads = to_file_per_chunk(tmp_path)
        objects = tmp_path / "files" / "chunks" / "objects"
        framed = [p for p in objects.iterdir()
                  if p.read_bytes()[:4] == upgrade.FRAME_MAGIC]
        assert 0 < len(framed) < len(payloads)

        assert_whole(tmp_path, states, keys)
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
        states, keys = save_models(seed)
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
            assert_whole(root, states, keys)
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
        assert store.chunk_ids() == sorted(counts)
        stats = store.segment_stats()
        assert stats["chunks"] == len(payloads)
        assert stats["dead_bytes"] == 0  # imported once, not once per opener
        for digest, blob in payloads.items():
            assert bytes(store.get(digest)) == blob


# -- the retired write formats ----------------------------------------------

#: a float32 whose bytes are the frame magic: an older release escape-framed
#: a record that starts with it, this one stores it raw
MAGIC_FLOAT = np.frombuffer(upgrade.FRAME_MAGIC, dtype=np.float32)[0]

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
    files = RetiredFormatStore(root / "files", piece_bytes=256)
    service = older_release(ParameterUpdateSaveService(
        DocumentStore(root / "docs"), files, scratch_dir=root / "scratch"))
    state = copy_state(make_tiny_cnn(seed=4).state_dict())
    states = {}
    for level, (manifest, framed, layers) in enumerate(RETIRED_CHAIN):
        files.manifest, files.zlib = manifest, framed
        files.chunks._encode = older_encode  # each level: the zlib writer drops it
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
        if head[:4] != upgrade.FRAME_MAGIC:
            kinds[digest] = "raw"
        else:
            kinds[digest] = {upgrade.CODEC_STORED: "escape",
                             upgrade.CODEC_ZLIB: "zlib"}[head[4]]
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
        """One open upgrades the store: only raw records and v1 manifests
        are left, and every model recovers bitwise under its unchanged
        Merkle root."""
        states, before = build_retired_store(tmp_path)
        assert set(before["kinds"].values()) == {"raw", "escape", "zlib"}
        assert before["formats"] == {MANIFEST_FORMAT_V1, MANIFEST_FORMAT_V2}
        assert {".params", ".update"} <= before["suffixes"]
        roots = merkle_roots(DocumentStore(tmp_path / "docs"))

        files, service, manager = open_stores(tmp_path)
        assert_one_format(files, states.values())
        assert (files.root / FORMAT_MARKER).exists()
        for verify, verified in ((True, True), (False, None)):
            for model_id, state in states.items():
                recovered = service.recover_model(model_id, verify=verify)
                assert recovered.verified is verified
                assert_state(recovered.model, state)
        assert merkle_roots(service.documents) == roots
        report = manager.fsck(verify_chunks=True)
        assert report.clean, report.summary()

    @pytest.mark.parametrize("kind", ["zlib", "escape"])
    def test_a_flipped_bit_in_a_framed_record_is_caught(self, tmp_path, kind):
        """The upgrade leaves a framed record that fails its CRC as it was;
        every model that reads it fails, verified or not, and fsck sees it."""
        states, before = build_retired_store(tmp_path)
        digest = next(d for d, k in sorted(before["kinds"].items()) if k == kind)
        damaged = flip_bit_at(before["locations"][digest])

        files, service, manager = open_stores(tmp_path)
        assert stored_record(files, digest) == damaged
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
        states, _ = build_retired_store(tmp_path)
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
        fresh = set(files.chunks.chunk_ids()) - chunks_before - written
        raw = layer_bytes([state])
        assert fresh and all(stored_record(files, d) == raw[d] for d in fresh)
        bias = state_dict_hashes(state)["5.bias"]
        assert bias in fresh and stored_record(files, bias)[:4] == upgrade.FRAME_MAGIC


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
    ``*.tmp``.  Returns ``{member root: [file ids]}``."""
    stores = open_deployment(root, cluster)
    placed = {}
    for files in member_stores(stores):
        ids = unimport_files(files)
        expired = files.root / "0123456789abcdef-000000000000.params.tmp"
        expired.write_bytes(b"half a file")
        os.utime(expired, (time.time() - 3600,) * 2)
        (files.root / "fedcba9876543210-000000000000.py.tmp").write_bytes(b"in flight")
        placed[files.root] = ids
    as_older_release(root)
    return placed


def assert_imported(root, cluster: bool, states: dict, placed: dict) -> None:
    """Opened again: every model bitwise, fsck clean, each imported id a
    stored record — but the ``.params`` file, which the upgrade replaced by
    a manifest — and nothing left in a root but the young tmp and the
    format marker."""
    stores = open_deployment(root, cluster)
    service = ParameterUpdateSaveService(
        stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    for model_id, state in states.items():
        assert_recovers(service, model_id, state)
    report = ModelManager(service).fsck(verify_chunks=True)
    assert report.clean, report.summary()
    assert (stores.files.root / FORMAT_MARKER).exists()
    levels = {document["parameters_file"] for document in stores.documents.collection(
        MODELS).find(projection=("parameters_file",)) if document.get("parameters_file")}
    assert all(stores.files.is_manifest_id(level) for level in levels)
    for files in member_stores(stores):
        relative = files.root.relative_to(root)
        for file_id in placed[root / relative]:
            wanted = not file_id.endswith(".params")
            assert files.chunks.has(file_id) == wanted, file_id
        left = sorted(p.name for p in files.root.iterdir()
                      if p.is_file() and p.name != FORMAT_MARKER)
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
        """Kill the import after put k, the flush, unlink k of every
        member: the next open finishes it."""
        seed = tmp_path / "seed"
        states = save_every_kind(seed, cluster)
        placed = {
            root.relative_to(seed): ids
            for root, ids in to_file_per_blob(seed, cluster).items()
        }
        steps = sum(2 * len(ids) + 1 for ids in placed.values())
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


class TestOlderArtefacts:
    def test_a_pending_blob_hint_is_delivered(self, tmp_path):
        """An older release's ``blob`` hint for a file an owner lost: no
        hint is read, and the sweep restores what it named."""
        members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(3)}
        store = ShardedFileStore(tmp_path / "meta", members, replicas=2)
        file_id = store.save_bytes(b"architecture source", suffix=".py")
        owner = store.ring.owners(file_id)[0]
        members[owner].chunks.drop(file_id)
        hints = tmp_path / "meta" / "hints"
        hints.mkdir()
        (hints / f"{owner}.jsonl").write_text(json.dumps(
            {"op": "hint", "kind": "blob", "key": file_id}) + "\n")

        report = SelfHealer([store]).converge()
        assert report["converged"] is True
        assert report["sweeps"]["files"]["repaired"] == [{"kind": "chunk", "key": file_id}]
        assert members[owner].recover_bytes(file_id) == b"architecture source"
        assert members[owner].chunks.has(file_id)


# -- the upgrade, crashed at every step ---------------------------------------


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
            chunks._encode = zlib_frame if index % 2 else older_encode
            chunks.put(digest, raw)
            del chunks._encode
        chunks.flush()
        chunks.close()
    as_older_release(root)
    return dict(zip(ids, states))


def retired_deployment(root, cluster: bool) -> dict:
    if cluster:
        return build_retired_cluster(root)
    return build_retired_store(root)[0]


def catalog(root, cluster: bool):
    """The deployment's documents, opened without a save service."""
    if cluster:
        return open_deployment(root, cluster=True).documents
    return DocumentStore(root / "docs")


def open_service(root, cluster: bool):
    """A save service over the deployment: opening it upgrades it."""
    if cluster:
        stores = open_deployment(root, cluster=True)
        return ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
    return open_stores(root)[1]


def assert_upgraded(root, cluster: bool, states: dict, roots: dict) -> None:
    """Opened again, the upgrade finishes: every model bitwise, verified or
    not, under its Merkle root; one fsck repairs what a crash left (a
    level it orphaned keeps the root unmarked), a second is clean; the
    next open marks the root, and only raw records and v1 manifests
    remain."""
    service = open_service(root, cluster)
    for verify, verified in ((True, True), (False, None)):
        for model_id, state in states.items():
            recovered = service.recover_model(model_id, verify=verify)
            assert recovered.verified is verified
            assert_state(recovered.model, state)
    assert merkle_roots(service.documents) == roots
    manager = ModelManager(service)
    report = manager.fsck(verify_chunks=True)
    assert not report.unrepaired, report.summary()
    report = manager.fsck(verify_chunks=True)
    assert report.clean, report.summary()
    service = open_service(root, cluster)
    assert (service.files.root / FORMAT_MARKER).exists()
    for files in member_stores(service):
        assert_one_format(files, states.values())


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestUpgradeCrashes:
    def test_a_crash_at_every_upgrade_step_resumes_on_the_next_open(
        self, tmp_path, cluster, monkeypatch
    ):
        """Kill the upgrade after each re-append, the flush, each level's
        manifest, replace and release, and before each marker: the next
        open finishes it and nothing is lost."""
        seed = tmp_path / "seed"
        states = retired_deployment(seed, cluster)
        roots = merkle_roots(catalog(seed, cluster))
        faults = FaultInjector(seed=0)
        monkeypatch.setattr(upgrade, "fault_hook", faults.fail_point)
        crashes = 0
        for at in range(1, 200):
            root = tmp_path / f"crash-{at}"
            shutil.copytree(seed, root)
            faults.arm_crash(at, op="upgrade.")
            try:
                open_service(root, cluster)
            except CrashPoint:
                crashes += 1
            else:
                break  # the upgrade outran the armed crash: every point hit
            assert_upgraded(root, cluster, states, roots)
        else:
            pytest.fail("the upgrade never completed")
        assert crashes > len(states)
        assert_upgraded(root, cluster, states, roots)


class TestUpgradeWithAMemberDown:
    @pytest.mark.parametrize("down", ["shard-0", "shard-1", "shard-2"])
    def test_the_roots_stay_unmarked_until_every_level_is_upgraded(self, tmp_path, down):
        """A 3x2 file member down during the first open: the rewrites that
        need it fail, their levels stay as they were and no root is marked;
        once the member is back an open finishes the upgrade and nothing is
        lost.  (The catalog stays up: a document write short of its quorum
        may land on one replica, a divergence of the catalog's own.)"""
        states = build_retired_cluster(tmp_path)
        roots = merkle_roots(catalog(tmp_path, cluster=True))
        stores = open_deployment(tmp_path, cluster=True)
        injector = stores.files.members[down].faults = FaultInjector(seed=0)
        injector.set_down(True)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        assert not service.files.one_format
        assert not list(tmp_path.rglob(FORMAT_MARKER))
        injector.set_down(False)
        assert_upgraded(tmp_path, True, states, roots)


WORKER_OPEN = r"""
import hashlib, json, sys, time
from repro.core import ParameterUpdateSaveService
from repro.docstore import DocumentStoreClient
from repro.filestore import FileStore
host, port, files, start_at = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
time.sleep(max(0.0, start_at - time.time()))
with DocumentStoreClient(host, port) as documents:
    service = ParameterUpdateSaveService(documents, FileStore(files))
    print(json.dumps({
        model_id: {name: hashlib.sha256(array.tobytes()).hexdigest()
                   for name, array in service.recover_model(model_id).model.state_dict().items()}
        for model_id in service.saved_model_ids()}))
"""


class TestTwoProcessesUpgrade:
    def test_both_openers_of_one_legacy_root_see_every_model(self, tmp_path):
        from repro.docstore import DocumentStoreClient, DocumentStoreServer

        states, _ = build_retired_store(tmp_path)
        expected = {
            model_id: {name: hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
                       for name, array in state.items()}
            for model_id, state in states.items()}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with DocumentStoreServer(DocumentStore(tmp_path / "docs"), port=0) as server:
            start_at = str(time.time() + 1.0)
            children = [
                subprocess.Popen(
                    [sys.executable, "-c", WORKER_OPEN, server.host, str(server.port),
                     str(tmp_path / "files"), start_at],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
                for _ in range(2)
            ]
            for child in children:
                out, err = child.communicate(timeout=120)
                assert child.returncode == 0, err
                assert json.loads(out) == expected
            with DocumentStoreClient(server.host, server.port) as documents:
                service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
                assert_one_format(service.files, states.values())
                report = ModelManager(service).fsck(verify_chunks=True)
                assert report.clean, report.summary()


class TestAStoreThisReleaseWrote:
    @staticmethod
    def count_open(monkeypatch, root) -> dict:
        """What opening the stores, a service and a manager over ``root``,
        and its chunk store, costs: calls per upgrade step and per read."""
        calls = {
            "upgrades": count_calls(monkeypatch, upgrade, "upgrade"),
            "records read": count_calls(monkeypatch, ChunkStore, "_read_run_locked"),
            "files read": count_calls(monkeypatch, FileStore, "recover_bytes"),
        }
        files, _service, _manager = open_stores(root)
        files.chunks  # opened too
        monkeypatch.undo()
        return {name: len(made) for name, made in calls.items()}

    def test_opening_it_scans_no_record_and_reads_no_manifest(self, tmp_path, monkeypatch):
        files, service, _manager = open_stores(tmp_path)
        save_pua_chain(service, depth=3)
        files.chunks.close()
        assert set(self.count_open(monkeypatch, tmp_path).values()) == {0}

    def test_an_upgraded_store_pays_once(self, tmp_path, monkeypatch):
        build_retired_store(tmp_path)
        first = self.count_open(monkeypatch, tmp_path)
        assert first["upgrades"] == 1
        assert first["records read"] and first["files read"]
        assert set(self.count_open(monkeypatch, tmp_path).values()) == {0}


# -- a store the release before v3 manifests wrote ------------------------


def build_parent_deployment(root, cluster: bool) -> dict:
    """What the release before v3 manifests left: JSON (v1) manifests, PUA
    delta levels — one chain eight deep whose fourth level its compaction
    materialized, one five deep never compacted — and every root marked
    ``.one-format``.  Returns ``{model_id: state}``."""
    service = open_service(root, cluster)
    older_release(service, layer_hashes=False)
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
    for member in member_stores(service):
        member.chunks.close()
    as_older_release(root, parent_marker=True)
    return dict(zip(ids + more_ids, states + more_states))


@pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
class TestAStoreTheParentWrote:
    def test_it_upgrades_to_full_manifests_and_recovers_bitwise(self, tmp_path, cluster):
        states = build_parent_deployment(tmp_path, cluster)
        documents = catalog(tmp_path, cluster).collection(MODELS)
        deltas = [d["_id"] for d in documents.find(projection=("update_file",))
                  if d.get("update_file")]
        assert len(deltas) == len(states) - 3  # every level but two roots and one compacted
        assert list(tmp_path.rglob(".one-format"))
        roots = merkle_roots(catalog(tmp_path, cluster))

        service = open_service(tmp_path, cluster)
        assert service.files.one_format
        for document in service.documents.collection(MODELS).find():
            assert document["parameters_file"] and document["architecture"]
            assert "update_file" not in document
        for model_id, state in states.items():
            recovered = service.recover_model(model_id)
            assert recovered.recovery_depth == 0
            assert_state(recovered.model, state)
        assert merkle_roots(service.documents) == roots
        assert not list(tmp_path.rglob(".one-format"))
        assert ModelManager(service).fsck(verify_chunks=True).clean
        for files in member_stores(service):
            assert_one_format(files, states.values())

    def test_a_crash_at_every_upgrade_step_resumes_on_the_next_open(
        self, tmp_path, cluster, monkeypatch
    ):
        seed = tmp_path / "seed"
        states = build_parent_deployment(seed, cluster)
        roots = merkle_roots(catalog(seed, cluster))
        faults = FaultInjector(seed=0)
        monkeypatch.setattr(upgrade, "fault_hook", faults.fail_point)
        crashes = 0
        for at in range(1, 400):
            root = tmp_path / f"crash-{at}"
            shutil.copytree(seed, root)
            faults.arm_crash(at, op="upgrade.")
            try:
                open_service(root, cluster)
            except CrashPoint:
                crashes += 1
            else:
                break  # the upgrade outran the armed crash: every point hit
            assert_upgraded(root, cluster, states, roots)
        else:
            pytest.fail("the upgrade never completed")
        assert crashes > len(states)
        assert_upgraded(root, cluster, states, roots)
