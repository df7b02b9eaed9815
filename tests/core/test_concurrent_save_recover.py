"""Concurrent saves and recoveries against one shared store pair.

The parallel recovery plane puts worker threads inside the save/recover
paths; these tests drive many *application* threads through one
FileStore/ChunkStore on top of that, with and without fault injection,
and check the two invariants that matter: every recovery is bitwise
identical to what was saved, and refcounts stay consistent with the
surviving manifests (fsck finds a clean catalog).
"""

import threading

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.faults import FaultInjector
from repro.filestore import FileStore
from repro.retry import RetryPolicy
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_concurrent_save_recover",
        "build_probe_model",
        {"num_classes": 10},
    )


def states_equal(a, b):
    return list(a) == list(b) and all(
        np.array_equal(a[name], b[name]) for name in a
    )


def run_threads(workers):
    errors = []

    def guard(fn):
        try:
            fn()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [], errors


class TestConcurrentCleanStores:
    def test_parallel_savers_and_recoverers_share_one_store(
        self, mem_doc_store, tmp_path
    ):
        file_store = FileStore(tmp_path / "files", workers=2, chunk_cache=1 << 20)
        service = BaselineSaveService(mem_doc_store, file_store)
        arch = tiny_arch()

        # seed models the recoverer threads will hammer while savers run
        seeded = {}
        for seed in range(3):
            model = make_tiny_cnn(seed=seed)
            seeded[service.save_model(ModelSaveInfo(model, arch))] = model.state_dict()

        saved = {}
        saved_lock = threading.Lock()

        def saver(seed):
            def run():
                model = make_tiny_cnn(seed=seed)
                model_id = service.save_model(ModelSaveInfo(model, arch))
                with saved_lock:
                    saved[model_id] = model.state_dict()

            return run

        def recoverer(model_id):
            def run():
                for _ in range(3):
                    recovered = service.recover_model(model_id).model.state_dict()
                    assert states_equal(seeded[model_id], recovered)

            return run

        run_threads(
            [saver(seed) for seed in range(10, 14)]
            + [recoverer(model_id) for model_id in seeded]
        )

        for model_id, state in saved.items():
            recovered = service.recover_model(model_id).model.state_dict()
            assert states_equal(state, recovered)
        assert ModelManager(service).fsck(repair=False).clean

    def test_concurrent_derived_saves_keep_refcounts_consistent(
        self, mem_doc_store, tmp_path
    ):
        file_store = FileStore(tmp_path / "files", workers=2, chunk_cache=1 << 20)
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        arch = tiny_arch()
        base_model = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base_model, arch))

        results = {}
        lock = threading.Lock()

        def derive(offset):
            def run():
                derived = make_tiny_cnn()
                state = {k: v.copy() for k, v in base_model.state_dict().items()}
                state["5.bias"] = state["5.bias"] + float(offset)
                derived.load_state_dict(state)
                model_id = service.save_model(
                    ModelSaveInfo(derived, arch, base_model_id=base_id)
                )
                with lock:
                    results[model_id] = derived.state_dict()

            return run

        run_threads([derive(offset) for offset in range(1, 7)])

        for model_id, state in results.items():
            recovered = service.recover_model(model_id).model.state_dict()
            assert states_equal(state, recovered)
        # six updates sharing one base: the shared chunks' refcounts must
        # match exactly what the surviving manifests reference
        assert ModelManager(service).fsck(repair=False, verify_chunks=True).clean


class TestConcurrentUnderFaults:
    def test_faulty_store_still_recovers_bitwise_identical(
        self, mem_doc_store, tmp_path
    ):
        faults = FaultInjector(
            seed=11,
            error_rate=0.1,
            corrupt_rate=0.1,
            max_consecutive_failures=2,
        )
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0)
        file_store = FileStore(
            tmp_path / "files",
            faults=faults,
            retry=retry,
            workers=2,
            chunk_cache=1 << 20,
        )
        service = ParameterUpdateSaveService(mem_doc_store, file_store, retry=retry)
        arch = tiny_arch()

        base_model = make_tiny_cnn(seed=2)
        base_id = service.save_model(ModelSaveInfo(base_model, arch))

        expected = {base_id: base_model.state_dict()}
        lock = threading.Lock()

        def saver(offset):
            def run():
                derived = make_tiny_cnn()
                state = {k: v.copy() for k, v in base_model.state_dict().items()}
                state["5.bias"] = state["5.bias"] + float(offset)
                derived.load_state_dict(state)
                model_id = service.save_model(
                    ModelSaveInfo(derived, arch, base_model_id=base_id)
                )
                with lock:
                    expected[model_id] = derived.state_dict()

            return run

        def recoverer():
            def run():
                for _ in range(4):
                    recovered = service.recover_model(base_id).model.state_dict()
                    assert states_equal(expected[base_id], recovered)

            return run

        run_threads([saver(o) for o in range(1, 5)] + [recoverer(), recoverer()])

        for model_id, state in expected.items():
            recovered = service.recover_model(model_id).model.state_dict()
            assert states_equal(state, recovered)
        # stop injecting before the consistency sweep: fsck itself re-reads
        # every chunk, and the invariant under test is store state, not
        # fsck's own fault tolerance
        faults.error_rate = faults.corrupt_rate = 0.0
        assert ModelManager(service).fsck(repair=False, verify_chunks=True).clean

    def test_injector_counters_stay_consistent_under_threads(self):
        """The injector's PRNG and counters are shared mutable state; the
        parallel chunk paths hit them from worker threads, so every fault
        decision is lock-guarded — no op may be lost or double-counted."""
        from repro.core.errors import TransientStoreError

        faults = FaultInjector(seed=9, error_rate=0.3)
        calls_per_thread = 200

        def hammer():
            def run():
                for _ in range(calls_per_thread):
                    try:
                        faults.fail_point("chunk.read")
                    except TransientStoreError:
                        pass

            return run

        run_threads([hammer() for _ in range(8)])
        assert faults.stats["ops"] == 8 * calls_per_thread
        assert 0 < faults.stats["errors"] < faults.stats["ops"]


class TestVerifyCatalogCacheReuse:
    def test_caller_provided_cache_is_reused_across_sweeps(
        self, mem_doc_store, tmp_path
    ):
        from repro.core import RecoveryCache
        from tests.core.test_recovery_plan import save_mpa_chain

        service, ids, _ = save_mpa_chain(
            mem_doc_store, FileStore(tmp_path / "files"), tmp_path, 3)
        manager = ModelManager(service)
        cache = RecoveryCache(max_entries=16)
        first = manager.verify_catalog(cache=cache)
        assert all(first.values())
        warm = cache.stats()["hits"]

        second = manager.verify_catalog(cache=cache)
        assert all(second.values())
        # the second sweep recovers every MPA level through the same cache:
        # each is served from memory, not replayed again
        assert cache.stats()["hits"] == warm + len(ids) - 1
