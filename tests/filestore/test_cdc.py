"""v2 manifests stay readable.

Older releases could save a state as content-defined (v2) manifests: each
layer a run of sha256-addressed pieces.  Saves now write whole-layer (v1)
manifests only, so these stores are built with the test-side writer and
read back through a plain :class:`FileStore`.
"""

import numpy as np
import pytest

from repro.errors import StoreCorruptionError
from repro.filestore import FileStore
from repro.filestore.store import (
    MANIFEST_FORMAT,
    MANIFEST_FORMAT_V2,
    is_file_id,
    layer_chunk_digests,
    manifest_chunk_digests,
)
from repro.core.hashing import state_dict_hashes
from tests.filestore.retired_formats import RetiredFormatStore

PIECE_BYTES = 64 * 1024


def v2_store(root, **kwargs):
    return RetiredFormatStore(root, manifest="v2", piece_bytes=PIECE_BYTES, **kwargs)


class TestV2Manifests:
    def state(self, seed=0, shift=0.0):
        rng = np.random.default_rng(seed)
        state = {
            "backbone.weight": rng.standard_normal(120_000).astype(np.float32),
            "head.weight": rng.standard_normal(5_000).astype(np.float32),
            "head.bias": np.zeros(10, dtype=np.float32),
        }
        if shift:
            state["head.bias"] = state["head.bias"] + np.float32(shift)
        return state

    def save(self, store, state):
        return store.save_state_chunks(state, state_dict_hashes(state))

    def test_round_trip_is_bitwise(self, tmp_path):
        state = self.state()
        file_id = self.save(v2_store(tmp_path / "files"), state)
        store = FileStore(tmp_path / "files")
        manifest = store.read_manifest(file_id)
        assert manifest["format"] == MANIFEST_FORMAT_V2
        recovered = store.recover_state_chunks(file_id)
        for key, want in state.items():
            got = recovered[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_mixed_v1_and_v2_manifests_coexist(self, tmp_path):
        writer = v2_store(tmp_path / "files")
        v2_id = self.save(writer, self.state(seed=6))
        assert writer.read_manifest(v2_id)["format"] == MANIFEST_FORMAT_V2

        v1_store = FileStore(tmp_path / "files")
        v1_id = self.save(v1_store, self.state(seed=5))
        assert v1_store.read_manifest(v1_id)["format"] == MANIFEST_FORMAT

        # either store recovers either manifest — the reader dispatches on
        # the per-layer entry shape, not on who wrote it
        for store in (v1_store, writer):
            for file_id, seed in ((v1_id, 5), (v2_id, 6)):
                recovered = store.recover_state_chunks(file_id)
                want = self.state(seed=seed)
                for key in want:
                    assert np.array_equal(recovered[key], want[key])

    def test_digest_helpers(self, tmp_path):
        file_id = self.save(v2_store(tmp_path / "files"), self.state())
        manifest = FileStore(tmp_path / "files").read_manifest(file_id)
        digests = manifest_chunk_digests(manifest)
        assert digests
        per_layer = [
            layer_chunk_digests(meta) for _, meta in manifest["layers"]
        ]
        assert sorted(digests) == sorted(d for ds in per_layer for d in ds)

    def test_delete_releases_all_chunk_refs(self, tmp_path):
        file_id = self.save(v2_store(tmp_path / "files"), self.state())
        store = FileStore(tmp_path / "files")
        assert len(store.chunks) > 0
        store.delete(file_id)
        assert len(store.chunks) == 0

    @staticmethod
    def replace_payload(store, digest):
        """Bytes that are not ``digest``'s content, in an intact record —
        damage only the content digest can see, not the record CRC."""
        payload = bytearray(store.chunks.get(digest))
        payload[len(payload) // 2] ^= 0xFF
        store.chunks.drop(digest)
        store.chunks.put(digest, bytes(payload))
        store.chunks.flush()

    def test_corrupt_chunk_detected_on_recovery(self, tmp_path):
        file_id = self.save(v2_store(tmp_path / "files"), self.state())
        store = FileStore(tmp_path / "files", verify_reads=True)
        manifest = store.read_manifest(file_id)
        digest = layer_chunk_digests(manifest["layers"][0][1])[0]
        self.replace_payload(store, digest)
        with pytest.raises(StoreCorruptionError):
            store.recover_state_chunks(file_id, verify=True)

    def test_fsck_verifies_v2_chunks_by_content_digest(self, tmp_path):
        from repro.core import ArchitectureRef, ModelManager, ModelSaveInfo
        from repro.core.baseline import BaselineSaveService
        from repro.docstore import DocumentStore
        from tests.conftest import make_tiny_cnn

        store = v2_store(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), store)
        arch = ArchitectureRef.from_factory(
            "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
        )
        service.save_model(ModelSaveInfo(make_tiny_cnn(), arch))
        manager = ModelManager(service)
        assert manager.fsck().clean

        digest = next(d for d in store.chunks.chunk_ids() if not is_file_id(d))
        self.replace_payload(store, digest)
        report = manager.fsck(repair=False)
        assert {issue.kind for issue in report.issues} == {"corrupt_chunk"}

    def test_parallel_recovery_matches_serial(self, tmp_path):
        state = self.state(seed=9)
        file_id = self.save(v2_store(tmp_path / "files"), state)
        store = FileStore(tmp_path / "files", workers=4)
        recovered = store.recover_state_chunks(file_id)
        for key in state:
            assert np.array_equal(recovered[key], state[key])

