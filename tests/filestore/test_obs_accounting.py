"""Registry mirrors of the cache and network accounting attributes."""

import numpy as np
import pytest

from repro import obs
from repro.core.hashing import state_dict_hashes
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.filestore.store import ChunkCache


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def state(seed: int, layers: int = 6) -> dict:
    rng = np.random.default_rng(seed)
    return {
        f"layer{i}": rng.standard_normal((16, 16)).astype(np.float32)
        for i in range(layers)
    }


class TestChunkCacheMirrors:
    def test_hits_misses_evictions_match_registry(self):
        cache = ChunkCache(max_bytes=64)
        registry = obs.registry()
        cache.get("a")                    # miss
        cache.put("a", b"x" * 40)
        cache.get("a")                    # hit
        cache.put("b", b"y" * 40)         # evicts a
        cache.get("a")                    # miss again
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 2, 1)
        assert registry.value("mmlib_chunk_cache_hits_total") == stats["hits"]
        assert registry.value("mmlib_chunk_cache_misses_total") == stats["misses"]
        assert registry.value("mmlib_chunk_cache_evictions_total") == stats["evictions"]
        assert registry.value("mmlib_chunk_cache_bytes") == stats["bytes"]

    def test_eviction_emits_event(self):
        cache = ChunkCache(max_bytes=32)
        cache.put("first", b"x" * 30)
        cache.put("second", b"y" * 30)
        [event] = obs.events().events(kind="cache_evict")
        assert event.fields["digest"] == "first"
        assert event.fields["nbytes"] == 30

    def test_store_level_cache_traffic_lands_in_registry(self, tmp_path):
        store = FileStore(tmp_path / "files", chunk_cache=1 << 20)
        file_id = store.save_state_chunks(state(0), state_dict_hashes(state(0)))
        store.recover_state_chunks(file_id)   # warms the cache
        store.recover_state_chunks(file_id)   # pure hits
        stats = store.chunk_cache.stats()
        assert stats["hits"] > 0
        registry = obs.registry()
        assert registry.value("mmlib_chunk_cache_hits_total") == stats["hits"]
        assert registry.value("mmlib_chunk_cache_misses_total") == stats["misses"]


class TestNetworkMirrors:
    def test_round_trips_and_bytes_match_registry(self, tmp_path):
        link = NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=0.001)
        store = SimulatedNetworkFileStore(
            tmp_path / "net", link, sleep=False, pipeline_depth=4
        )
        file_id = store.save_state_chunks(state(1), state_dict_hashes(state(1)))
        store.recover_state_chunks(file_id)
        registry = obs.registry()
        assert store.round_trips > 0
        assert registry.value("mmlib_network_round_trips_total") == store.round_trips
        assert (
            registry.value("mmlib_network_round_trips_saved_total")
            == store.round_trips_saved
        )
        assert (
            registry.value("mmlib_network_bytes_total", direction="sent")
            == store.bytes_sent
        )
        assert (
            registry.value("mmlib_network_bytes_total", direction="received")
            == store.bytes_received
        )

    def test_pipelined_batch_saves_round_trips_in_both_views(self, tmp_path):
        link = NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=0.001)
        store = SimulatedNetworkFileStore(
            tmp_path / "net", link, sleep=False, pipeline_depth=4
        )
        file_id = store.save_state_chunks(
            state(2, layers=8), state_dict_hashes(state(2, layers=8))
        )
        # 8 distinct chunks in windows of 4: fewer round-trips than chunks
        store.recover_state_chunks(file_id)
        assert store.round_trips_saved > 0
        assert (
            obs.registry().value("mmlib_network_round_trips_saved_total")
            == store.round_trips_saved
        )

    def test_transfers_traced(self, tmp_path):
        link = NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=0.001)
        store = SimulatedNetworkFileStore(tmp_path / "net", link, sleep=False)
        store.save_bytes(b"payload")
        spans = [sp for sp in obs.tracer().spans() if sp.name == "net.transfer"]
        assert spans
        assert all(sp.attrs["nbytes"] >= 0 for sp in spans)
