"""Content-defined chunking: boundary stability, bounds, v2 manifests."""

import numpy as np
import pytest

from repro.errors import StoreCorruptionError
from repro.filestore import FileStore
from repro.filestore.cdc import DEFAULT_TARGET_BYTES, gear_table, split_buffer
from repro.filestore.store import (
    MANIFEST_FORMAT,
    MANIFEST_FORMAT_V2,
    layer_chunk_digests,
    manifest_chunk_digests,
)
from repro.core.hashing import state_dict_hashes


def make_buffer(nbytes, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8
    ).tobytes()


class TestSplitter:
    def test_spans_cover_buffer_exactly(self):
        data = make_buffer(500_000)
        spans = split_buffer(data, target_bytes=16 * 1024)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(data)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_deterministic(self):
        data = make_buffer(300_000, seed=3)
        assert split_buffer(data) == split_buffer(data)

    def test_gear_table_is_stable(self):
        # the table is part of the on-disk format: same content must chunk
        # the same way forever, or dedup against old stores breaks
        table = gear_table()
        assert len(table) == 256
        assert int(table[0]) == int(gear_table()[0])

    def test_min_max_bounds_hold(self):
        data = make_buffer(800_000, seed=1)
        target = 16 * 1024
        spans = split_buffer(data, target_bytes=target)
        sizes = [end - start for start, end in spans]
        for size in sizes[:-1]:
            assert target // 4 <= size <= target * 4
        assert sizes[-1] <= target * 4

    def test_empty_and_tiny_buffers(self):
        assert split_buffer(b"") == [(0, 0)]
        assert split_buffer(b"x" * 100) == [(0, 100)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            split_buffer(b"", target_bytes=16)
        with pytest.raises(ValueError):
            split_buffer(b"", target_bytes=1024, min_bytes=2048)
        with pytest.raises(ValueError):
            split_buffer(b"", target_bytes=1024, max_bytes=512)

    def test_one_byte_edit_shifts_o1_chunks(self):
        """The CDC invariant: a point edit must not re-chunk the buffer."""
        target = 16 * 1024
        data = bytearray(make_buffer(600_000, seed=2))
        before = {
            bytes(data[start:end]) for start, end in
            split_buffer(bytes(data), target_bytes=target)
        }
        data[300_000] ^= 0xFF
        after_spans = split_buffer(bytes(data), target_bytes=target)
        after = {bytes(data[start:end]) for start, end in after_spans}
        changed = len(after - before)
        # only the chunk containing the edit (and at most its neighbours,
        # if the edit lands on/near a boundary) may differ
        assert changed <= 3, f"{changed} of {len(after_spans)} chunks changed"

    def test_fixed_size_chunking_would_fail_on_insert(self):
        """Insertions shift every downstream byte; CDC re-syncs, fixed
        offsets never would — the reason CDC exists."""
        target = 16 * 1024
        data = make_buffer(400_000, seed=4)
        shifted = data[:50_000] + b"\x42" * 7 + data[50_000:]
        before = {
            data[start:end] for start, end in
            split_buffer(data, target_bytes=target)
        }
        after_spans = split_buffer(shifted, target_bytes=target)
        after = {shifted[start:end] for start, end in after_spans}
        shared = len(before & after)
        assert shared >= len(after_spans) // 2


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
        store = FileStore(tmp_path / "files", cdc=True)
        state = self.state()
        file_id = self.save(store, state)
        manifest = store.read_manifest(file_id)
        assert manifest["format"] == MANIFEST_FORMAT_V2
        recovered = store.recover_state_chunks(file_id)
        for key, want in state.items():
            got = recovered[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_sub_layer_dedup_on_derived_state(self, tmp_path):
        """A small edit to one big layer re-uploads only O(1) chunks."""
        store = FileStore(tmp_path / "files", cdc=True, cdc_target_bytes=16 * 1024)
        base = self.state(seed=7)
        self.save(store, base)
        derived = {k: v.copy() for k, v in base.items()}
        derived["backbone.weight"][123] += 1.0
        stats_before = store.chunks.dedup_stats()
        self.save(store, derived)
        stats = store.chunks.dedup_stats()
        new_logical = stats["logical_bytes"] - stats_before["logical_bytes"]
        new_dedup = stats["dedup_bytes"] - stats_before["dedup_bytes"]
        # nearly everything the second save offered was already stored
        assert new_dedup / new_logical > 0.8
        assert stats["dedup_ratio"] > 1.5

    def test_mixed_v1_and_v2_manifests_coexist(self, tmp_path):
        v1_store = FileStore(tmp_path / "files", cdc=False)
        state = self.state(seed=5)
        v1_id = self.save(v1_store, state)
        assert v1_store.read_manifest(v1_id)["format"] == MANIFEST_FORMAT

        v2_store = FileStore(tmp_path / "files", cdc=True)
        v2_id = self.save(v2_store, self.state(seed=6))
        assert v2_store.read_manifest(v2_id)["format"] == MANIFEST_FORMAT_V2

        # either store recovers either manifest — the reader dispatches on
        # the per-layer entry shape, not the store's save-time setting
        for store in (v1_store, v2_store):
            for file_id, seed in ((v1_id, 5), (v2_id, 6)):
                recovered = store.recover_state_chunks(file_id)
                want = self.state(seed=seed)
                for key in want:
                    assert np.array_equal(recovered[key], want[key])

    def test_digest_helpers(self, tmp_path):
        store = FileStore(tmp_path / "files", cdc=True)
        file_id = self.save(store, self.state())
        manifest = store.read_manifest(file_id)
        digests = manifest_chunk_digests(manifest)
        assert digests
        per_layer = [
            layer_chunk_digests(meta) for _, meta in manifest["layers"]
        ]
        assert sorted(digests) == sorted(d for ds in per_layer for d in ds)

    def test_delete_releases_all_chunk_refs(self, tmp_path):
        store = FileStore(tmp_path / "files", cdc=True)
        file_id = self.save(store, self.state())
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
        store = FileStore(tmp_path / "files", cdc=True, verify_reads=True)
        file_id = self.save(store, self.state())
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

        store = FileStore(tmp_path / "files", cdc=True)
        service = BaselineSaveService(DocumentStore(), store)
        arch = ArchitectureRef.from_factory(
            "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
        )
        service.save_model(ModelSaveInfo(make_tiny_cnn(), arch))
        manager = ModelManager(service)
        assert manager.fsck().clean

        digest = sorted(store.chunks.chunk_ids())[0]
        self.replace_payload(store, digest)
        report = manager.fsck(repair=False)
        assert {issue.kind for issue in report.issues} == {"corrupt_chunk"}

    def test_parallel_recovery_matches_serial(self, tmp_path):
        store = FileStore(tmp_path / "files", cdc=True, workers=4)
        state = self.state(seed=9)
        file_id = self.save(store, state)
        recovered = store.recover_state_chunks(file_id)
        for key in state:
            assert np.array_equal(recovered[key], state[key])

    def test_env_var_enables_cdc(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CDC", "1")
        store = FileStore(tmp_path / "files")
        assert store.cdc is True
        monkeypatch.setenv("REPRO_CDC", "0")
        assert FileStore(tmp_path / "files2").cdc is False

    def test_default_target_is_64k(self, tmp_path):
        store = FileStore(tmp_path / "files", cdc=True)
        assert store.cdc_target_bytes == DEFAULT_TARGET_BYTES == 64 * 1024
