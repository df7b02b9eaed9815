"""Recovery read-ahead: a recover's digest list, fetched into the shared
hot-chunk cache."""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    ChainPrefetcher,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.filestore.store import manifest_chunk_digests
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_prefetch", "build_probe_model", {"num_classes": 10}
    )


def build_pua_chain(service, depth=4):
    """A PUA chain; returns (ids, expected state dicts)."""
    model = make_tiny_cnn(seed=1)
    ids = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
    states = [model.state_dict()]
    for level in range(depth - 1):
        derived = make_tiny_cnn()
        state = {k: v.copy() for k, v in states[-1].items()}
        state["5.bias"] = state["5.bias"] + level + 1.0
        derived.load_state_dict(state)
        ids.append(
            service.save_model(ModelSaveInfo(derived, tiny_arch(), base_model_id=ids[-1]))
        )
        states.append(derived.state_dict())
    return ids, states


@pytest.fixture
def network_store(tmp_path):
    link = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.01)
    return SimulatedNetworkFileStore(
        tmp_path / "files", link, workers=2, pipeline_depth=4, chunk_cache=1 << 20
    )


def manifest_digests(store, model_id, documents):
    """The chunk digests of one model's own payload file."""
    document = documents.collection(MODELS).get(model_id)
    file_id = document.get("parameters_file") or document["update_file"]
    return file_id, manifest_chunk_digests(store.read_manifest(file_id))


class TestUsability:
    def test_requires_a_chunk_cache(self, tmp_path):
        plain = FileStore(tmp_path / "plain")  # no cache: nowhere to land
        assert not ChainPrefetcher(plain).usable()
        cached = FileStore(tmp_path / "cached", chunk_cache=1 << 20)
        assert ChainPrefetcher(cached).usable()

    def test_invalid_workers(self, tmp_path):
        store = FileStore(tmp_path / "files", chunk_cache=1 << 20)
        with pytest.raises(ValueError):
            ChainPrefetcher(store, workers=0)

    def test_noop_without_cache_instead_of_wasted_fetches(
        self, mem_doc_store, tmp_path
    ):
        plain = FileStore(tmp_path / "plain")
        service = ParameterUpdateSaveService(mem_doc_store, plain)
        ids, _ = build_pua_chain(service, depth=2)
        _, digests = manifest_digests(plain, ids[0], mem_doc_store)
        with ChainPrefetcher(plain) as prefetcher:
            prefetcher.prefetch(digests)
            prefetcher.drain()
            assert prefetcher.stats()["chunks_prefetched"] == 0


class TestPrefetchFile:
    def test_warms_the_cache_so_recovery_is_free(self, mem_doc_store, network_store):
        service = ParameterUpdateSaveService(mem_doc_store, network_store)
        ids, states = build_pua_chain(service, depth=1)
        manifest_id, digests = manifest_digests(network_store, ids[0], mem_doc_store)

        with ChainPrefetcher(network_store) as prefetcher:
            prefetcher.prefetch(digests)
            prefetcher.drain()
            assert prefetcher.stats()["chunks_prefetched"] == len(set(digests))

        network_store.reset_accounting()
        state = network_store.recover_state_chunks(manifest_id)
        assert all(np.array_equal(state[k], states[0][k]) for k in states[0])
        # every chunk came from the hot cache; only the manifest re-crossed
        assert network_store.round_trips == 1

    def test_errors_are_swallowed_and_counted(self, network_store):
        with ChainPrefetcher(network_store) as prefetcher:
            prefetcher.prefetch(["0" * 64])  # no such chunk
            prefetcher.prefetch([])  # nothing to read: nothing scheduled
            prefetcher.drain()
            assert prefetcher.stats() == {
                "chunks_prefetched": 0, "errors": 1, "inflight": 0}


class TestPrefetchChain:
    def test_whole_chain_lands_in_the_cache(self, mem_doc_store, network_store):
        """The store hands the prefetcher the merged chain's digests: after
        one tip recover every chunk of the tip's state is cached, and a
        second recover moves no chunk."""
        prefetcher = ChainPrefetcher(network_store)
        service = ParameterUpdateSaveService(
            mem_doc_store, network_store, prefetcher=prefetcher)
        ids, states = build_pua_chain(service, depth=4)
        network_store.chunk_cache.clear()

        with prefetcher:
            service.recover_model(ids[-1])
            prefetcher.drain()
            # identical tensors share a chunk
            tip_chunks = set(state_dict_hashes(states[-1]).values())
            assert prefetcher.stats()["chunks_prefetched"] == len(tip_chunks)
            assert all(digest in network_store.chunk_cache for digest in tip_chunks)

        network_store.reset_accounting()
        recovered = service.recover_model(ids[-1]).model.state_dict()
        assert all(np.array_equal(recovered[k], states[-1][k]) for k in states[-1])
        # chunk transfers were all pre-paid; what remains is manifests,
        # architecture code, and metadata blobs — no pipelined batches
        assert network_store.round_trips_saved == 0

    def test_duplicate_requests_coalesce_while_inflight(
        self, mem_doc_store, network_store
    ):
        service = ParameterUpdateSaveService(mem_doc_store, network_store)
        ids, _ = build_pua_chain(service, depth=1)
        _, digests = manifest_digests(network_store, ids[0], mem_doc_store)
        chunk_bytes = sum(
            network_store.chunks.size_of(digest) for digest in set(digests))
        network_store.chunk_cache.clear()
        network_store.reset_accounting()
        with ChainPrefetcher(network_store, workers=4) as prefetcher:
            for _ in range(5):
                prefetcher.prefetch(digests)
            prefetcher.drain()
        # five racing batches, one transfer per chunk
        assert network_store.bytes_received == chunk_bytes


class TestServiceIntegration:
    def test_recovery_with_prefetcher_is_bitwise_identical(
        self, mem_doc_store, network_store
    ):
        prefetcher = ChainPrefetcher(network_store)
        service = ParameterUpdateSaveService(
            mem_doc_store, network_store, prefetcher=prefetcher
        )
        ids, states = build_pua_chain(service, depth=4)
        with prefetcher:
            for model_id, state in zip(ids, states):
                recovered = service.recover_model(model_id).model.state_dict()
                assert all(np.array_equal(recovered[k], state[k]) for k in state)
            prefetcher.drain()
            assert prefetcher.stats()["errors"] == 0

    def test_closed_prefetcher_schedules_nothing(self, mem_doc_store, network_store):
        service = ParameterUpdateSaveService(mem_doc_store, network_store)
        ids, _ = build_pua_chain(service, depth=2)
        _, digests = manifest_digests(network_store, ids[0], mem_doc_store)
        prefetcher = ChainPrefetcher(network_store)
        prefetcher.close()
        prefetcher.prefetch(digests)  # must not raise or leak tasks
        assert prefetcher.stats()["inflight"] == 0


class TestRetryPropagation:
    def test_shared_retry_absorbs_transient_fetch_failures(
        self, mem_doc_store, tmp_path
    ):
        from repro.faults import FaultInjector
        from repro.retry import RetryPolicy

        store = FileStore(tmp_path / "files", chunk_cache=1 << 20)
        service = ParameterUpdateSaveService(mem_doc_store, store)
        ids, _ = build_pua_chain(service, depth=3)
        _, digests = manifest_digests(store, ids[0], mem_doc_store)
        store.chunk_cache.clear()

        # the link turns flaky only once the chain exists on disk; each
        # retried fetch makes forward progress through the chunk cache,
        # so a generous attempt budget always converges
        store.faults = FaultInjector(seed=21, error_rate=0.2,
                                     max_consecutive_failures=3)
        retry = RetryPolicy(max_attempts=25, base_delay_s=0.0, sleep=lambda s: None)
        with ChainPrefetcher(store, retry=retry) as prefetcher:
            prefetcher.prefetch(digests)
            prefetcher.drain()
            stats = prefetcher.stats()
        assert stats["errors"] == 0
        assert stats["chunks_prefetched"] > 0
        assert retry.retries_taken > 0

    def test_without_a_policy_failures_still_only_count(self, mem_doc_store, tmp_path):
        from repro.faults import FaultInjector

        store = FileStore(tmp_path / "files", chunk_cache=1 << 20)
        service = ParameterUpdateSaveService(mem_doc_store, store)
        ids, _ = build_pua_chain(service, depth=2)
        _, digests = manifest_digests(store, ids[0], mem_doc_store)
        store.chunk_cache.clear()
        store.faults = FaultInjector(seed=5, error_rate=1.0)

        with ChainPrefetcher(store) as prefetcher:
            prefetcher.prefetch(digests)
            prefetcher.drain()
            assert prefetcher.stats()["errors"] > 0  # swallowed, never raised

    def test_make_service_wires_the_shared_policy_into_the_prefetcher(self, tmp_path):
        from repro.distsim import SharedStores, make_service
        from repro.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, sleep=lambda s: None)
        stores = SharedStores.at(tmp_path, retry=retry, chunk_cache_bytes=1 << 20)
        service = make_service("param_update", stores, prefetch_workers=1)
        try:
            assert service.prefetcher is not None
            assert service.prefetcher.retry is retry
        finally:
            service.prefetcher.close()
