"""What older releases left on disk stays readable.

Chunk roots of the older file-per-chunk layout are imported on open.  That
layout kept each chunk in its own file, ``chunks/objects/<digest>`` (the
raw bytes or a codec frame), beside the ``refcounts.json`` both layouts
share.  A chunk root that still holds ``objects/`` is folded into the
segments once, under the store's lock: put, one group flush and an index
checkpoint, then the files are unlinked (DESIGN.md §9).

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

from repro.core import ModelManager, ModelSaveInfo, ParameterUpdateSaveService
from repro.core.errors import VerificationError
from repro.core.hashing import state_dict_hashes
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore import codecs as chunk_codecs
from repro.filestore.store import MANIFEST_FORMAT, MANIFEST_FORMAT_V2
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
