"""Parallel chunk I/O: hot-chunk cache, batched fetches, accounting."""

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.hashing import state_dict_hashes
from repro.filestore import (
    ChunkCache,
    FileStore,
    NetworkModel,
    SimulatedNetworkFileStore,
)
from repro.retry import RetryPolicy


def small_state(seed=0, layers=6):
    rng = np.random.default_rng(seed)
    state = OrderedDict()
    for index in range(layers):
        state[f"layer{index}.weight"] = rng.standard_normal((8, 8)).astype(np.float32)
    return state


def states_equal(a, b):
    return list(a) == list(b) and all(
        np.array_equal(a[name], b[name]) for name in a
    )


class TestChunkCache:
    def test_put_get_roundtrip(self):
        cache = ChunkCache(max_bytes=1024)
        cache.put("d1", b"abc")
        assert cache.get("d1") == b"abc"
        assert "d1" in cache and len(cache) == 1

    def test_byte_bounded_lru_eviction(self):
        cache = ChunkCache(max_bytes=100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"x" * 40)
        cache.get("a")  # refresh a: b is now least recently used
        cache.put("c", b"x" * 40)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_oversized_payloads_are_not_admitted(self):
        cache = ChunkCache(max_bytes=10)
        cache.put("big", b"x" * 11)
        assert "big" not in cache and len(cache) == 0

    def test_discard_and_clear(self):
        cache = ChunkCache(max_bytes=1024)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.discard("a")
        assert "a" not in cache and "b" in cache
        cache.clear()
        assert len(cache) == 0 and cache.stats()["bytes"] == 0

    def test_stats_track_hits_and_misses(self):
        cache = ChunkCache(max_bytes=1024)
        assert cache.get("absent") is None
        cache.put("a", b"x")
        cache.get("a")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ChunkCache(max_bytes=0)


class TestParallelSaveRecover:
    @pytest.mark.parametrize("workers", [0, 4])
    def test_recover_is_bitwise_identical(self, tmp_path, workers):
        store = FileStore(tmp_path / "files", workers=workers)
        state = small_state(seed=1, layers=12)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = store.recover_state_chunks(file_id, verify=True)
        assert states_equal(state, recovered)

    def test_parallel_and_serial_saves_interoperate(self, tmp_path):
        parallel = FileStore(tmp_path / "files", workers=4)
        serial = FileStore(tmp_path / "files", workers=0)
        state = small_state(seed=2)
        file_id = parallel.save_state_chunks(state, state_dict_hashes(state))
        assert states_equal(state, serial.recover_state_chunks(file_id))

    def test_duplicate_layers_share_one_chunk(self, tmp_path):
        store = FileStore(tmp_path / "files", workers=4)
        state = small_state(seed=3, layers=2)
        state["copy.weight"] = state["layer0.weight"].copy()
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        # 3 layers, 2 distinct payloads, the manifest's own record and its
        # spec record
        assert len(store.chunks) == 4
        assert states_equal(state, store.recover_state_chunks(file_id))

    def test_manifest_order_is_preserved(self, tmp_path):
        store = FileStore(tmp_path / "files", workers=4)
        state = small_state(seed=4, layers=10)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = store.recover_state_chunks(file_id)
        assert list(recovered) == list(state)


class TestGetChunks:
    def test_batch_returns_all_unique_digests(self, tmp_path):
        store = FileStore(tmp_path / "files")
        state = small_state(seed=5)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        digests = list(hashes.values())
        payloads = store.get_chunks(digests + digests[:2])
        assert set(payloads) == set(digests)

    def test_cache_serves_repeat_batches(self, tmp_path):
        store = FileStore(tmp_path / "files", workers=2, chunk_cache=1 << 20)
        state = small_state(seed=6)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        digests = list(hashes.values())
        store.get_chunks(digests)
        before = store.chunk_cache.stats()["hits"]
        store.get_chunks(digests)
        assert store.chunk_cache.stats()["hits"] >= before + len(digests)

    def test_singleflight_coalesces_concurrent_fetches(self, tmp_path):
        fetch_started = threading.Event()
        release_fetch = threading.Event()
        reads = []

        class SlowStore(FileStore):
            def _fetch_many(self, digests, crc, crcs=None):
                reads.extend(digests)
                fetch_started.set()
                release_fetch.wait(timeout=5)
                return super()._fetch_many(digests, crc, crcs)

        store = SlowStore(tmp_path / "files", chunk_cache=1 << 20)
        state = small_state(seed=7, layers=1)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        digest = next(iter(hashes.values()))

        results = []
        leader = threading.Thread(target=lambda: results.append(store.get_chunks([digest])[digest]))
        leader.start()
        assert fetch_started.wait(timeout=5)
        # second reader arrives while the leader's fetch is in flight
        follower = threading.Thread(target=lambda: results.append(store.get_chunks([digest])[digest]))
        follower.start()
        release_fetch.set()
        leader.join(timeout=5)
        follower.join(timeout=5)

        assert len(results) == 2 and results[0] == results[1]
        assert reads == [digest]  # one fetch crossed the store boundary


class TestCorruptCacheHealing:
    def test_poisoned_cache_entry_is_refetched(self, tmp_path):
        store = FileStore(
            tmp_path / "files",
            workers=2,
            chunk_cache=1 << 20,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
        )
        state = small_state(seed=8, layers=3)
        hashes = state_dict_hashes(state)
        file_id = store.save_state_chunks(state, hashes)
        # poison the cache: a stale/corrupt payload for one digest
        victim = next(iter(hashes.values()))
        store.chunk_cache.put(victim, b"\x00" * 16)
        recovered = store.recover_state_chunks(file_id, verify=True)
        assert states_equal(state, recovered)
        # the bad entry was dropped, so the cache is healed too
        assert store.chunk_cache.get(victim) != b"\x00" * 16


class TestBatchAccounting:
    def make_store(self, tmp_path, **kwargs):
        link = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.05)
        return SimulatedNetworkFileStore(tmp_path / "files", link, **kwargs)

    def test_pipelined_batch_pays_one_latency_per_window(self, tmp_path):
        store = self.make_store(tmp_path, workers=4, pipeline_depth=4)
        state = small_state(seed=9, layers=8)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        digests = list(hashes.values())
        total = sum(len(store.chunks.get(d)) for d in digests)

        store.reset_accounting()
        store.get_chunks(digests)
        # 8 chunks over depth-4 windows: 2 round-trips paid, 6 saved
        assert store.round_trips == 2
        assert store.round_trips_saved == 6
        assert store.bytes_received == total
        assert store.simulated_seconds == pytest.approx(
            2 * 0.05 + total / 1_000_000
        )

    def test_serial_fetch_pays_latency_per_chunk(self, tmp_path):
        store = self.make_store(tmp_path, workers=0, pipeline_depth=1)
        state = small_state(seed=10, layers=5)
        hashes = state_dict_hashes(state)
        file_id = store.save_state_chunks(state, hashes)
        store.reset_accounting()
        store.recover_state_chunks(file_id)
        # one manifest read + one round-trip per chunk, none saved
        assert store.round_trips == 1 + 5
        assert store.round_trips_saved == 0

    def test_cache_hits_are_free(self, tmp_path):
        store = self.make_store(
            tmp_path, workers=4, pipeline_depth=4, chunk_cache=1 << 20
        )
        state = small_state(seed=11, layers=6)
        hashes = state_dict_hashes(state)
        file_id = store.save_state_chunks(state, hashes)
        store.recover_state_chunks(file_id)  # warms the cache
        store.reset_accounting()
        store.recover_state_chunks(file_id)
        # only the manifest crosses the link; every chunk is a cache hit
        assert store.round_trips == 1
        assert store.bytes_received < 2048

    def test_reset_accounting_zeroes_new_counters(self, tmp_path):
        store = self.make_store(tmp_path, workers=2, pipeline_depth=2)
        state = small_state(seed=12, layers=4)
        hashes = state_dict_hashes(state)
        store.save_state_chunks(state, hashes)
        store.get_chunks(list(hashes.values()))
        store.reset_accounting()
        assert store.round_trips == 0 and store.round_trips_saved == 0
        assert store.simulated_seconds == 0.0
