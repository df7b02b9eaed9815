"""Recovery cache: MPA replays reused, isolation, bounded admission."""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.core.cache import RecoveryCache
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import ShiftTrainService, count_calls, save_mpa_chain


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_cache", "build_probe_model", {"num_classes": 10}
    )


@pytest.fixture
def chain_setup(mem_doc_store, file_store, tmp_path):
    """A root snapshot plus 4 MPA levels; returns (service, ids, states)."""
    return save_mpa_chain(mem_doc_store, file_store, tmp_path, 4)


class TestCacheBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RecoveryCache(max_entries=0)

    def test_stats_track_hits_and_misses(self):
        cache = RecoveryCache()
        assert cache.get("absent") is None
        cache.put("present", make_tiny_cnn(), tiny_arch(), depth=0)
        assert cache.get("present") is not None
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_clear(self):
        cache = RecoveryCache()
        cache.put("x", make_tiny_cnn(), tiny_arch(), depth=0)
        cache.clear()
        assert len(cache) == 0 and cache.stats()["hits"] == 0


class TestProtectPrefix:
    """The one admission policy: a full cache rejects cold ids, so the
    bases a sweep recovered first stay."""

    def test_cold_inserts_rejected_at_capacity(self):
        cache = RecoveryCache(max_entries=2)
        arch = tiny_arch()
        for index in range(4):
            cache.put(f"model-{index}", make_tiny_cnn(seed=index), arch, depth=0)
        # the first two entries (the chain prefix) survive; later cold ids
        # are rejected without the deep copy
        assert "model-0" in cache and "model-1" in cache
        assert "model-2" not in cache and "model-3" not in cache
        assert cache.skipped_inserts == 2

    def test_rejected_insert_does_not_copy(self, monkeypatch):
        from repro.core import cache as cache_module

        cache = RecoveryCache(max_entries=1)
        arch = tiny_arch()
        cache.put("warm", make_tiny_cnn(seed=0), arch, depth=0)
        copies = {"n": 0}
        real_snapshot = cache_module._snapshot

        def counting_snapshot(value):
            copies["n"] += 1
            return real_snapshot(value)

        monkeypatch.setattr(cache_module, "_snapshot", counting_snapshot)
        cache.put("cold", make_tiny_cnn(seed=1), arch, depth=0)
        assert copies["n"] == 0

    def test_warm_ids_still_updatable_at_capacity(self):
        cache = RecoveryCache(max_entries=1)
        arch = tiny_arch()
        cache.put("warm", make_tiny_cnn(seed=0), arch, depth=0)
        cache.put("warm", make_tiny_cnn(seed=1), arch, depth=3)
        hit = cache.get("warm")
        assert hit is not None and hit[1] == 3 and hit[2] is arch

    def test_clear_resets_skip_counter(self):
        cache = RecoveryCache(max_entries=1)
        arch = tiny_arch()
        cache.put("a", make_tiny_cnn(), arch, depth=0)
        cache.put("b", make_tiny_cnn(), arch, depth=0)
        assert cache.skipped_inserts == 1
        cache.clear()
        assert cache.skipped_inserts == 0


class TestCachedRecovery:
    def test_results_identical_with_and_without_cache(self, chain_setup):
        service, ids, states = chain_setup
        cache = RecoveryCache()
        for index, model_id in enumerate(ids):
            plain = service.recover_model(model_id).model.state_dict()
            cached = service.recover_model(model_id, cache=cache).model.state_dict()
            for key in states[index]:
                assert np.array_equal(states[index][key], plain[key])
                assert np.array_equal(states[index][key], cached[key])

    def test_sweep_hits_grow_with_chain(self, chain_setup):
        service, ids, _ = chain_setup
        cache = RecoveryCache()
        for model_id in ids:
            service.recover_model(model_id, cache=cache)
        # every MPA level is cached (the root snapshot is a read, never
        # cached), and each level past the first reused its predecessor
        assert len(cache) == len(ids) - 1
        assert cache.hits == len(ids) - 2

    def test_cached_models_do_not_alias(self, chain_setup):
        """Mutating one recovered model must not leak into later recoveries."""
        service, ids, states = chain_setup
        cache = RecoveryCache()
        first = service.recover_model(ids[-1], cache=cache).model
        first.state_dict()["5.bias"][...] = 777.0
        second = service.recover_model(ids[-1], cache=cache).model
        assert np.array_equal(second.state_dict()["5.bias"], states[-1]["5.bias"])

    def test_verification_still_applies_on_cache_hits(self, chain_setup):
        service, ids, _ = chain_setup
        cache = RecoveryCache()
        service.recover_model(ids[2], cache=cache)
        recovered = service.recover_model(ids[2], cache=cache)
        assert cache.hits == 1
        assert recovered.verified is True
        assert recovered.recovery_depth == 2


class TestCatalogSweep:
    def test_verify_catalog_with_cache(self, chain_setup):
        service, ids, _ = chain_setup
        results = ModelManager(service).verify_catalog()
        assert set(results) == set(ids)
        assert all(flag is True for flag in results.values())

    def test_a_sweep_replays_each_mpa_level_once(self, chain_setup, monkeypatch):
        """n MPA levels, n trainings — in whatever order the catalog
        lists them — where a sweep without the cache would run
        1 + 2 + … + n."""
        service, ids, _ = chain_setup
        trainings = count_calls(monkeypatch, ShiftTrainService, "train")
        assert all(ModelManager(service).verify_catalog().values())
        assert len(trainings) == len(ids) - 1

    @pytest.mark.parametrize("approach", ["BA", "PUA"])
    def test_a_ba_or_pua_sweep_leaves_the_cache_empty(
        self, mem_doc_store, file_store, approach
    ):
        """A snapshot or a PUA chain recovers as one merged read: the cache
        is neither consulted nor filled."""
        service_class = {
            "BA": BaselineSaveService, "PUA": ParameterUpdateSaveService}[approach]
        service = service_class(mem_doc_store, file_store)
        model = make_tiny_cnn(seed=1)
        ids = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
        for level in range(3):
            state = {key: value.copy() for key, value in model.state_dict().items()}
            state["5.bias"] += level + 1.0
            model.load_state_dict(state)
            ids.append(service.save_model(ModelSaveInfo(
                model, tiny_arch(),
                base_model_id=ids[-1] if approach == "PUA" else None)))
        cache = RecoveryCache()
        assert all(ModelManager(service).verify_catalog(cache=cache).values())
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_verify_catalog_detects_tampering(self, chain_setup, mem_doc_store):
        from repro.core import VerificationError

        service, ids, _ = chain_setup
        document = mem_doc_store.collection("models").get(ids[-1])
        document["merkle_root"] = "0" * 64
        mem_doc_store.collection("models").replace_one(ids[-1], document)
        manager = ModelManager(service)
        with pytest.raises(VerificationError):
            manager.verify_catalog()
