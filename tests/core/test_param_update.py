"""Parameter update approach: pruned updates, recursive recovery (§3.2)."""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    MerkleTree,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    extract_parameter_update,
)
from repro.core.errors import RecoveryError, SaveError
from repro.core.hashing import state_dict_hashes
from repro.core.param_update import BASE_FIELDS
from repro.core.schema import APPROACH_PARAM_UPDATE, MODELS
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture round trips."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_param_update", "build_probe_model", {"num_classes": 10}
    )


@pytest.fixture
def service(mem_doc_store, file_store):
    return ParameterUpdateSaveService(mem_doc_store, file_store)


def updated_layers(service, document):
    """The layers a derived model changed — the entries of its full
    manifest whose chunk differs from its base's — in state order."""
    base = service.documents.collection(MODELS).get(document["base_model"])
    before = dict(service.files.read_manifest(base["parameters_file"])["layers"])
    return [name for name, meta in service.files.read_manifest(
        document["parameters_file"])["layers"] if meta["chunk"] != before[name]["chunk"]]


def perturb(model, layer_keys):
    """Return a same-architecture model with only ``layer_keys`` changed."""
    clone = make_tiny_cnn()
    state = {k: v.copy() for k, v in model.state_dict().items()}
    for key in layer_keys:
        state[key] = state[key] + 1.0
    clone.load_state_dict(state)
    return clone


class TestExtractParameterUpdate:
    def test_prunes_unchanged_layers(self):
        base = make_tiny_cnn(seed=1)
        derived = perturb(base, ["5.weight", "5.bias"])
        update, diff = extract_parameter_update(
            derived.state_dict(),
            MerkleTree.from_state_dict(derived.state_dict()),
            MerkleTree.from_state_dict(base.state_dict()),
        )
        assert set(update) == {"5.weight", "5.bias"}
        assert diff.changed_layers == ["5.weight", "5.bias"]

    def test_flat_mode_same_layers_more_comparisons(self):
        base = make_tiny_cnn(seed=1)
        derived = perturb(base, ["5.bias"])
        current = MerkleTree.from_state_dict(derived.state_dict())
        base_tree = MerkleTree.from_state_dict(base.state_dict())
        merkle_update, merkle_diff = extract_parameter_update(
            derived.state_dict(), current, base_tree, use_merkle=True
        )
        flat_update, flat_diff = extract_parameter_update(
            derived.state_dict(), current, base_tree, use_merkle=False
        )
        assert list(merkle_update) == list(flat_update)
        assert flat_diff.comparisons == len(base.state_dict())


class TestSave:
    def test_initial_save_is_full_snapshot_with_hashes(self, service, mem_doc_store):
        model = make_tiny_cnn()
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        assert document["parameters_file"]
        # the PUA always stores the root; the table is its manifest's
        assert document["merkle_root"] == MerkleTree.from_state_dict(model.state_dict()).root_hash
        assert "layer_hashes" not in document
        assert service.layer_table(model_id) == state_dict_hashes(model.state_dict())

    def test_derived_save_stores_update_only(self, service, mem_doc_store, file_store):
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb(base, ["5.weight"])
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )
        document = mem_doc_store.collection(MODELS).get(derived_id)
        base_document = mem_doc_store.collection(MODELS).get(base_id)
        # its own recovery base: a full manifest, its base's architecture
        assert document["parameters_file"] and "update_file" not in document
        assert document["architecture"] == base_document["architecture"]
        assert "updated_layers" not in document and "layer_hashes" not in document
        assert updated_layers(service, document) == ["5.weight"]
        assert document["approach"] == APPROACH_PARAM_UPDATE
        assert document["base_model"] == base_id

    def test_derived_save_reads_only_base_document(self, service, mem_doc_store, file_store):
        """§3.2: saving must not recover the base model's parameters.  It
        reads the base's layer table — its document and manifest — only."""
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        base_doc = mem_doc_store.collection(MODELS).get(base_id)
        # drop every parameter chunk of the base: the save must still succeed
        manifest = file_store.read_manifest(base_doc["parameters_file"])
        for _name, meta in manifest["layers"]:
            file_store.chunks.drop(meta["chunk"])
        derived = perturb(base, ["5.bias"])
        service.save_model(ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id))

    def test_save_against_hashless_base_rejected(self, service, mem_doc_store):
        base_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(base_id)
        del document["merkle_root"]  # a base has a layer table iff it stores a root
        mem_doc_store.collection(MODELS).replace_one(base_id, document)
        with pytest.raises(SaveError, match="layer hashes"):
            service.save_model(
                ModelSaveInfo(make_tiny_cnn(seed=2), tiny_arch(), base_model_id=base_id)
            )

    def test_last_diff_exposes_comparison_count(self, service):
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb(base, ["5.bias"])
        service.save_model(ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id))
        assert service.last_diff is not None
        assert service.last_diff.comparisons < len(base.state_dict()) + 5

    def test_storage_shrinks_with_update_size(self, service):
        """§4.2: partial updates store dramatically less than snapshots."""
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        partial = perturb(base, ["5.bias"])
        partial_id = service.save_model(
            ModelSaveInfo(partial, tiny_arch(), base_model_id=base_id)
        )
        full = make_tiny_cnn(seed=9)  # all layers differ
        full_id = service.save_model(
            ModelSaveInfo(full, tiny_arch(), base_model_id=base_id)
        )
        partial_bytes = service.model_save_size(partial_id).files["parameters"]
        full_bytes = service.model_save_size(full_id).files["parameters"]
        base_bytes = service.model_save_size(base_id).files["parameters"]
        assert partial_bytes < base_bytes / 10
        assert full_bytes == pytest.approx(base_bytes, rel=0.25)


class TestRecover:
    def test_single_level_round_trip(self, service):
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb(base, ["5.weight", "1.running_mean"])
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )
        recovered = service.recover_model(derived_id)
        assert recovered.verified is True
        assert recovered.recovery_depth == 0  # its own manifest, no chain
        for key, value in derived.state_dict().items():
            assert np.array_equal(value, recovered.model.state_dict()[key]), key

    def test_deep_chain_recovery(self, service):
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        expected = model
        for depth in range(4):
            expected = perturb(expected, ["5.bias"])
            model_id = service.save_model(
                ModelSaveInfo(expected, tiny_arch(), base_model_id=model_id)
            )
        recovered = service.recover_model(model_id)
        assert recovered.recovery_depth == 0
        assert len(service.base_chain(model_id)) == 5  # lineage stays
        assert np.array_equal(
            recovered.model.state_dict()["5.bias"], expected.state_dict()["5.bias"]
        )

    def test_update_priority_on_merge_conflict(self, service):
        """§3.2: merges prioritize the derived model's parameters."""
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb(base, ["5.bias"])
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )
        recovered = service.recover_model(derived_id)
        assert np.array_equal(
            recovered.model.state_dict()["5.bias"], derived.state_dict()["5.bias"]
        )
        assert not np.array_equal(
            recovered.model.state_dict()["5.bias"], base.state_dict()["5.bias"]
        )

    def test_cycle_detection(self, service, mem_doc_store):
        base = make_tiny_cnn(seed=1)
        a = service.save_model(ModelSaveInfo(base, tiny_arch()))
        b = service.save_model(
            ModelSaveInfo(perturb(base, ["5.bias"]), tiny_arch(), base_model_id=a)
        )
        # corrupt the chain into a cycle
        doc_a = mem_doc_store.collection(MODELS).get(a)
        doc_a["base_model"] = b
        mem_doc_store.collection(MODELS).replace_one(a, doc_a)
        with pytest.raises(RecoveryError, match="cycle"):
            service.base_chain(b)

    def test_a_missing_base_document_leaves_recovery_whole(self, service, mem_doc_store):
        """A derived model is its own recovery base: with its base's
        document gone it still recovers bitwise."""
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb(base, ["5.bias"])
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )
        mem_doc_store.collection(MODELS).delete_one(base_id)
        recovered = service.recover_model(derived_id)
        assert recovered.verified is True
        for key, value in derived.state_dict().items():
            assert np.array_equal(value, recovered.model.state_dict()[key]), key


class TestChainScenario:
    def test_evaluation_flow_chain_partial(self, partial_chain, mem_doc_store, file_store):
        """Full Fig. 6 chain through the PUA: every model recovers exactly."""
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        arch = partial_chain.config.architecture_ref()
        ids = {}
        for step in partial_chain.steps:
            base_id = (
                ids[partial_chain.steps[step.base_index].use_case]
                if step.base_index is not None
                else None
            )
            ids[step.use_case] = service.save_model(
                ModelSaveInfo(
                    partial_chain.build_model(step.use_case),
                    arch,
                    base_model_id=base_id,
                    use_case=step.use_case,
                )
            )
        # partial updates must be far smaller than the initial snapshot
        initial = service.model_save_size(ids["U_1"]).files["parameters"]
        update = service.model_save_size(ids["U_3-1-1"]).files["parameters"]
        assert update < initial / 2
        # the deepest model recovers exactly
        expected = partial_chain.build_model("U_3-2-2").state_dict()
        recovered = service.recover_model(ids["U_3-2-2"])
        assert recovered.recovery_depth == 0
        assert len(service.base_chain(ids["U_3-2-2"])) == 4
        got = recovered.model.state_dict()
        assert all(np.array_equal(expected[k], got[k]) for k in expected)


def mobilenet_arch():
    return ArchitectureRef.from_factory(
        "repro.nn.models", "mobilenetv2", {"num_classes": 10, "scale": 0.125})


def changed_copy(model, layer_keys, factory, delta=1.0):
    """A fresh ``factory()`` model holding ``model``'s state with
    ``layer_keys`` shifted by ``delta``."""
    clone = factory()
    state = {k: v.copy() for k, v in model.state_dict().items()}
    for key in layer_keys:
        state[key] = state[key] + delta
    clone.load_state_dict(state)
    return clone


def expected_save(base_model, model):
    """What a derived save must store and count, from trees built fresh."""
    base_tree = MerkleTree.from_state_dict(base_model.state_dict())
    tree = MerkleTree.from_state_dict(model.state_dict())
    diff = tree.diff(base_tree)
    return tree.root_hash, diff.changed_layers, diff.comparisons


class TestTreeCache:
    """A derived save derives its tree from its base's cached tree."""

    def save_chain(self, service, models, arch):
        ids = [service.save_model(ModelSaveInfo(models[0], arch))]
        for model in models[1:]:
            ids.append(service.save_model(ModelSaveInfo(model, arch, base_model_id=ids[-1])))
        return ids

    def test_a_cached_save_hashes_only_the_changed_paths(self, service, monkeypatch):
        import math

        from repro.core import merkle
        from repro.nn.models import mobilenetv2

        def factory():
            return mobilenetv2(num_classes=10, scale=0.125)

        base = factory()
        keys = list(base.state_dict())[-2:]
        first = changed_copy(base, keys, factory)
        second = changed_copy(first, keys, factory)
        base_id, first_id = self.save_chain(service, [base, first], mobilenet_arch())
        assert first_id in service._trees
        calls = []
        real = merkle.combine_hashes
        monkeypatch.setattr(merkle, "combine_hashes", lambda a, b: calls.append(1) or real(a, b))
        second_id = service.save_model(
            ModelSaveInfo(second, mobilenet_arch(), base_model_id=first_id))
        monkeypatch.undo()
        n, k = len(base.state_dict()), len(keys)
        assert (n, k) == (314, 2)
        assert len(calls) <= 2 * k * math.ceil(math.log2(n)) + 1
        assert len(calls) <= 20  # from scratch: ~626
        document = service.documents.collection(MODELS).get(second_id)
        root, changed, comparisons = expected_save(first, second)
        assert document["merkle_root"] == root
        assert updated_layers(service, document) == changed == keys
        assert service.last_diff.comparisons == comparisons

    def test_a_hit_reads_only_the_base_root(self, service, mem_doc_store, monkeypatch):
        from repro import obs

        base = make_tiny_cnn(seed=1)
        first = perturb(base, ["5.bias"])
        _, first_id = self.save_chain(service, [base, first], tiny_arch())
        models = mem_doc_store.collection(MODELS)
        reads = []
        real_get = models.get
        monkeypatch.setattr(
            models, "get", lambda doc_id, projection=None: reads.append(
                (doc_id, projection)) or real_get(doc_id, projection=projection))
        hits = obs.registry().value("mmlib_merkle_tree_cache_total", result="hit")
        service.save_model(
            ModelSaveInfo(perturb(first, ["5.weight"]), tiny_arch(), base_model_id=first_id))
        assert [r for r in reads if r[0] == first_id] == [(first_id, BASE_FIELDS)]
        assert obs.registry().value("mmlib_merkle_tree_cache_total", result="hit") == hits + 1

    def test_a_tree_whose_root_disagrees_is_rebuilt_from_the_document(self, service):
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        names = list(base.state_dict())
        planted = MerkleTree(names, [f"{i:064x}" for i in range(len(names))])
        service._trees[base_id] = planted
        derived = perturb(base, ["5.weight"])
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id))
        document = service.documents.collection(MODELS).get(derived_id)
        root, changed, comparisons = expected_save(base, derived)
        assert (document["merkle_root"], updated_layers(service, document)) == (root, changed)
        assert service.last_diff.comparisons == comparisons
        assert service._trees[base_id] is not planted
        assert service._trees[base_id].root_hash == MerkleTree.from_state_dict(
            base.state_dict()).root_hash

    def test_a_deleted_base_is_not_found(self, service, mem_doc_store):
        from repro.core import ModelNotFoundError

        base = make_tiny_cnn(seed=1)
        first = perturb(base, ["5.bias"])
        _, first_id = self.save_chain(service, [base, first], tiny_arch())
        assert first_id in service._trees
        mem_doc_store.collection(MODELS).delete_one(first_id)
        with pytest.raises(ModelNotFoundError):
            service.save_model(
                ModelSaveInfo(perturb(first, ["5.bias"]), tiny_arch(), base_model_id=first_id))

    def test_a_planted_tree_cannot_pass_a_corrupted_model(self, service, mem_doc_store):
        from repro.core.errors import VerificationError

        base = make_tiny_cnn(seed=1)
        first = perturb(base, ["5.bias"])
        _, first_id = self.save_chain(service, [base, first], tiny_arch())
        names = list(first.state_dict())
        planted = MerkleTree(names, [f"{i:064x}" for i in range(len(names))])
        service._trees[first_id] = planted
        # the document is corrupted to agree with the planted tree
        models = mem_doc_store.collection(MODELS)
        document = models.get(first_id)
        document["merkle_root"] = planted.root_hash
        models.replace_one(first_id, document)
        with pytest.raises(VerificationError):
            service.recover_model(first_id, verify=True)

    def test_threads_save_from_one_base(self, service):
        """More savers than cores derive from one cached base tree at once:
        every save stores its own root and layers, and each cached tree is
        its model's."""
        import sys
        import threading

        base = make_tiny_cnn(seed=1)
        first = perturb(base, ["5.bias"])
        _, first_id = self.save_chain(service, [base, first], tiny_arch())
        changes = [["5.weight"], ["1.running_mean", "5.bias"], ["0.weight"], []]
        derived = [perturb(first, keys) for keys in changes]
        barrier = threading.Barrier(len(derived))
        saved, errors = {}, []

        def save(index):
            try:
                barrier.wait(timeout=30)
                saved[index] = service.save_model(
                    ModelSaveInfo(derived[index], tiny_arch(), base_model_id=first_id))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=save, args=(i,)) for i in range(len(derived))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(saved) == len(derived)
        for index, model_id in saved.items():
            document = service.documents.collection(MODELS).get(model_id)
            root, changed, _ = expected_save(first, derived[index])
            assert (document["merkle_root"], updated_layers(service, document)) == (root, changed)
            recovered = service.recover_model(model_id, verify=True)
            for name, value in derived[index].state_dict().items():
                assert np.array_equal(value, recovered.model.state_dict()[name]), name
        for model_id, tree in service._trees.items():
            stored = service.documents.collection(MODELS).get(model_id)["merkle_root"]
            assert tree.root_hash == stored

    def test_the_cache_is_bounded(self, service, monkeypatch):
        from repro.core import param_update

        monkeypatch.setattr(param_update, "TREE_CACHE_ENTRIES", 3)
        models = [make_tiny_cnn(seed=1)]
        for _ in range(6):
            models.append(perturb(models[-1], ["5.bias"]))
        ids = self.save_chain(service, models, tiny_arch())
        assert list(service._trees) == ids[-3:]

    @pytest.mark.parametrize("step", ["_save_state", "_insert_model_document"])
    def test_a_rolled_back_save_caches_nothing(self, service, mem_doc_store, monkeypatch, step):
        """Neither the base tree a miss built (the save fails writing its
        chunks) nor the new tree (it fails once its document is inserted:
        the save committed, and nothing undoes it)."""
        base = make_tiny_cnn(seed=1)
        first = perturb(base, ["5.bias"])
        base_id, first_id = self.save_chain(service, [base, first], tiny_arch())
        service._trees.clear()
        real = getattr(service, step)

        def fail(*args, **kwargs):
            if step == "_insert_model_document":
                real(*args, **kwargs)  # the document lands, then the save fails
            raise RuntimeError("injected")

        monkeypatch.setattr(service, step, fail)
        for model_id in (base_id, first_id):
            with pytest.raises(RuntimeError, match="injected"):
                service.save_model(ModelSaveInfo(
                    perturb(first, ["5.weight"]), tiny_arch(), base_model_id=model_id))
        committed = 2 if step == "_insert_model_document" else 0
        assert mem_doc_store.collection(MODELS).count() == 2 + committed
        assert service._trees == {}

    def test_cached_and_uncached_saves_store_the_same(
            self, mem_doc_store, file_store, monkeypatch):
        """One chain saved twice: through cached trees, and with the cache
        off so every tree is built from the base document, as before it
        existed.  Roots, updated layers and comparison counts are equal."""
        from repro.core import param_update
        from repro.docstore import DocumentStore

        def change(model, keys, delta):
            return changed_copy(model, keys, make_tiny_cnn, delta)

        models = [make_tiny_cnn(seed=1)]
        names = list(models[0].state_dict())
        for step, keys in enumerate(
                [["5.bias"], [], names, names[:1], names[-1:], names[2:4], ["5.bias"]]):
            models.append(change(models[-1], keys, 0.5 + step))
        runs = []
        for entries in (param_update.TREE_CACHE_ENTRIES, 0):
            monkeypatch.setattr(param_update, "TREE_CACHE_ENTRIES", entries)
            svc = ParameterUpdateSaveService(DocumentStore(), file_store)
            ids = [svc.save_model(ModelSaveInfo(models[0], tiny_arch()))]
            stored = []
            for model in models[1:]:
                ids.append(svc.save_model(
                    ModelSaveInfo(model, tiny_arch(), base_model_id=ids[-1])))
                document = svc.documents.collection(MODELS).get(ids[-1])
                stored.append((document["merkle_root"], updated_layers(svc, document),
                               svc.last_diff.comparisons))
            assert len(svc._trees) == (entries and len(models))
            runs.append(stored)
        assert runs[0] == runs[1]
        assert runs[0] == [expected_save(a, b) for a, b in zip(models, models[1:])]
