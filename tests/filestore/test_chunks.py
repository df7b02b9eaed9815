"""Content-addressed chunk storage: dedup, refcounts, GC, network cost."""

import json
import os
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.hashing import state_dict_hashes
from repro.filestore import (
    ChunkNotFoundError,
    ChunkStore,
    FileStore,
    NetworkModel,
    SimulatedNetworkFileStore,
)


def small_state(seed=0, bias=0.0):
    rng = np.random.default_rng(seed)
    state = OrderedDict()
    state["conv.weight"] = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    state["bn.running_mean"] = np.zeros(4, dtype=np.float32)
    state["fc.weight"] = rng.standard_normal((10, 64)).astype(np.float32)
    state["fc.bias"] = np.full(10, bias, dtype=np.float32)
    return state


class TestChunkStore:
    def test_put_is_idempotent(self, tmp_path):
        store = ChunkStore(tmp_path / "c")
        assert store.put("abc123", b"payload") is True
        assert store.put("abc123", b"payload") is False
        assert store.get("abc123") == b"payload"
        assert store.has("abc123")

    def test_missing_chunk_raises(self, tmp_path):
        store = ChunkStore(tmp_path / "c")
        with pytest.raises(ChunkNotFoundError):
            store.get("feedface")

    @pytest.mark.parametrize("bad", ["", "../x", ".hidden", "a/b"])
    def test_invalid_digests_rejected(self, tmp_path, bad):
        store = ChunkStore(tmp_path / "c")
        with pytest.raises(ValueError):
            store.put(bad, b"x")

    def test_refcounting_deletes_at_zero(self, tmp_path):
        store = ChunkStore(tmp_path / "c")
        store.put("d1", b"one")
        store.add_refs(["d1"])
        store.add_refs(["d1"])
        assert store.refcount("d1") == 2
        assert store.release_refs(["d1"]) == []
        assert store.has("d1")
        assert store.release_refs(["d1"]) == ["d1"]
        assert not store.has("d1")

    def test_gc_removes_unreferenced_chunks(self, tmp_path):
        store = ChunkStore(tmp_path / "c")
        store.put("orphan", b"never referenced")
        store.put("kept", b"referenced")
        store.add_refs(["kept"])
        stats = store.gc()
        assert stats["chunks_removed"] == 1
        assert stats["bytes_freed"] == len(b"never referenced")
        assert store.has("kept") and not store.has("orphan")

    def test_accounting(self, tmp_path):
        store = ChunkStore(tmp_path / "c")
        store.put("a1", b"xxxx")
        store.put("b2", b"yy")
        assert store.total_bytes() == 6
        assert store.chunk_ids() == ["a1", "b2"]
        assert len(store) == 2


class TestChunkedStateSave:
    def test_round_trip_is_bitwise(self, tmp_path):
        store = FileStore(tmp_path / "s")
        state = small_state()
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        assert file_id.endswith(".manifest")
        restored = store.recover_state_chunks(file_id)
        assert list(restored) == list(state)
        for key in state:
            assert np.array_equal(restored[key], state[key])
            assert restored[key].dtype == state[key].dtype

    def test_identical_layers_stored_once(self, tmp_path):
        store = FileStore(tmp_path / "s")
        first = small_state(seed=1)
        second = small_state(seed=1, bias=5.0)  # only fc.bias differs
        hashes_a = state_dict_hashes(first)
        hashes_b = state_dict_hashes(second)
        store.save_state_chunks(first, hashes_a)
        chunks_after_first = len(store.chunks)
        store.save_state_chunks(second, hashes_b)
        # one new chunk for the changed layer, everything else deduplicated
        assert len(store.chunks) == chunks_after_first + 1

    def test_deleting_manifest_releases_chunks(self, tmp_path):
        store = FileStore(tmp_path / "s")
        shared = small_state(seed=2)
        id_a = store.save_state_chunks(shared, state_dict_hashes(shared))
        id_b = store.save_state_chunks(shared, state_dict_hashes(shared))
        assert len(store.chunks) == len(shared)
        store.delete(id_a)
        assert len(store.chunks) == len(shared)  # still referenced by id_b
        store.delete(id_b)
        assert len(store.chunks) == 0

    def test_manifest_logical_size_vs_physical_total(self, tmp_path):
        store = FileStore(tmp_path / "s")
        state = small_state(seed=3)
        id_a = store.save_state_chunks(state, state_dict_hashes(state))
        id_b = store.save_state_chunks(state, state_dict_hashes(state))
        payload_bytes = sum(a.nbytes for a in state.values())
        # each manifest's logical size covers all its chunks...
        assert store.size(id_a) > payload_bytes
        assert store.size(id_b) > payload_bytes
        # ...but physically the chunks exist once
        assert store.total_bytes() < store.size(id_a) + store.size(id_b)

    def test_non_contiguous_and_scalar_layers(self, tmp_path):
        store = FileStore(tmp_path / "s")
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        state = OrderedDict(
            [
                ("view", base[:, ::2]),
                ("scalar", np.array(7.5, dtype=np.float64)),
                ("empty", np.zeros((0, 3), dtype=np.float32)),
            ]
        )
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        restored = store.recover_state_chunks(file_id)
        assert np.array_equal(restored["view"], base[:, ::2])
        assert restored["scalar"].shape == () and restored["scalar"] == 7.5
        assert restored["empty"].shape == (0, 3)

    def test_read_manifest_rejects_non_manifest_payload(self, tmp_path):
        store = FileStore(tmp_path / "s")
        file_id = store.save_bytes(
            json.dumps({"format": "something-else"}).encode(), suffix=".manifest"
        )
        with pytest.raises(IOError, match="manifest"):
            store.read_manifest(file_id)


class TestStoreHygiene:
    def test_tmp_files_excluded_from_accounting(self, tmp_path):
        store = FileStore(tmp_path / "s")
        file_id = store.save_bytes(b"real payload")
        (store.root / "interrupted-save.params.tmp").write_bytes(b"x" * 1000)
        assert store.file_ids() == [file_id]
        assert store.total_bytes() == len(b"real payload")

    def test_orphaned_tmp_files_cleaned_on_init(self, tmp_path):
        root = tmp_path / "s"
        store = FileStore(root)
        file_id = store.save_bytes(b"keep me")
        leftover = root / "leftover.update.tmp"
        leftover.write_bytes(b"junk")
        # age it past the grace window: only *expired* tmp files are reaped
        stale = time.time() - 3600
        os.utime(leftover, (stale, stale))
        reopened = FileStore(root)
        assert not leftover.exists()
        assert reopened.recover_bytes(file_id) == b"keep me"

    def test_fresh_tmp_files_survive_init(self, tmp_path):
        """A young tmp file may belong to a concurrent in-flight save."""
        root = tmp_path / "s"
        FileStore(root)
        in_flight = root / "concurrent-save.params.tmp"
        in_flight.write_bytes(b"still being written")
        FileStore(root)
        assert in_flight.exists()

    def test_gc_spares_fresh_tmp_but_reaps_expired(self, tmp_path):
        store = FileStore(tmp_path / "s")
        fresh = store.chunks.root / "refcounts-12345678.tmp"
        fresh.write_bytes(b"in flight")
        expired = store.chunks.root / "refcounts-87654321.tmp"
        expired.write_bytes(b"orphaned by a crash before its rename")
        stale = time.time() - 3600
        os.utime(expired, (stale, stale))
        stats = store.chunks.gc()
        assert fresh.exists()
        assert not expired.exists()
        assert stats["chunks_removed"] == 1


class TestNetworkChunkTransfer:
    def link_store(self, tmp_path):
        return SimulatedNetworkFileStore(
            tmp_path / "s", NetworkModel(bandwidth_bytes_per_s=1e6), sleep=False
        )

    def test_duplicate_chunks_cost_only_the_digest_query(self, tmp_path):
        store = self.link_store(tmp_path)
        payload = b"x" * 100_000
        store.put_chunk("c1", payload)
        sent_first = store.bytes_sent
        store.put_chunk("c1", payload)
        assert store.bytes_sent - sent_first == store.CHUNK_QUERY_BYTES
        assert store.chunks_deduplicated == 1
        assert store.chunk_bytes_deduplicated == len(payload)

    def test_chunked_state_resave_transfers_almost_nothing(self, tmp_path):
        store = self.link_store(tmp_path)
        state = small_state(seed=4)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        sent_first = store.bytes_sent
        store.save_state_chunks(state, hashes)
        resave_cost = store.bytes_sent - sent_first
        assert resave_cost < sent_first / 2
        assert store.chunks_deduplicated == len(state)

    def test_get_chunk_charges_download(self, tmp_path):
        store = self.link_store(tmp_path)
        store.put_chunk("c9", b"z" * 5000)
        received_before = store.bytes_received
        store.get_chunk("c9")
        assert store.bytes_received - received_before == 5000

    def test_reset_clears_dedup_counters(self, tmp_path):
        store = self.link_store(tmp_path)
        store.put_chunk("c1", b"abc")
        store.put_chunk("c1", b"abc")
        store.reset_accounting()
        assert store.chunks_deduplicated == 0
        assert store.chunk_bytes_deduplicated == 0
