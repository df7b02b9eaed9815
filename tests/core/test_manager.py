"""ModelManager: catalog, lineage, deletion, garbage collection."""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    DependentModelsError,
    ModelManager,
    ModelNotFoundError,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_manager", "build_probe_model", {"num_classes": 10}
    )


@pytest.fixture
def setup(mem_doc_store, file_store):
    """Service + manager with a small saved chain: root -> a -> b, root -> c."""
    service = ParameterUpdateSaveService(mem_doc_store, file_store)
    manager = ModelManager(service)

    def perturb(model):
        derived = make_tiny_cnn()
        state = {k: v.copy() for k, v in model.state_dict().items()}
        state["5.bias"] = state["5.bias"] + 1.0
        derived.load_state_dict(state)
        return derived

    root = make_tiny_cnn(seed=1)
    root_id = service.save_model(ModelSaveInfo(root, tiny_arch(), use_case="U_1"))
    a = perturb(root)
    a_id = service.save_model(
        ModelSaveInfo(a, tiny_arch(), base_model_id=root_id, use_case="U_3-1-1")
    )
    b = perturb(a)
    b_id = service.save_model(
        ModelSaveInfo(b, tiny_arch(), base_model_id=a_id, use_case="U_3-1-2")
    )
    c = perturb(root)
    c_id = service.save_model(
        ModelSaveInfo(c, tiny_arch(), base_model_id=root_id, use_case="U_2")
    )
    return manager, {"root": root_id, "a": a_id, "b": b_id, "c": c_id}


class TestCatalog:
    def test_list_all_sorted_by_save_time(self, setup):
        manager, ids = setup
        records = manager.list_models()
        assert [r.model_id for r in records] == [ids["root"], ids["a"], ids["b"], ids["c"]]

    def test_query_filtering(self, setup):
        manager, ids = setup
        records = manager.find_by_use_case("U_3-1-1")
        assert [r.model_id for r in records] == [ids["a"]]

    def test_get_record_fields(self, setup):
        manager, ids = setup
        record = manager.get(ids["root"])
        assert record.is_root
        assert sorted(record.derived_model_ids) == sorted([ids["a"], ids["c"]])

    def test_get_missing_raises(self, setup):
        manager, _ = setup
        with pytest.raises(ModelNotFoundError):
            manager.get("model-" + "0" * 32)


class TestLineage:
    def test_lineage_walks_to_root(self, setup):
        manager, ids = setup
        chain = manager.lineage(ids["b"])
        assert [r.model_id for r in chain] == [ids["b"], ids["a"], ids["root"]]

    def test_descendants(self, setup):
        manager, ids = setup
        descendants = {r.model_id for r in manager.descendants(ids["root"])}
        assert descendants == {ids["a"], ids["b"], ids["c"]}
        assert manager.descendants(ids["b"]) == []

    def test_lineage_tree_rendering(self, setup):
        manager, ids = setup
        tree = manager.lineage_tree(ids["root"])
        assert ids["root"] in tree and ids["b"] in tree
        assert "U_3-1-2" in tree


class TestStorage:
    def test_storage_report_covers_all_models(self, setup):
        manager, ids = setup
        report = manager.storage_report()
        assert set(report) == set(ids.values())
        assert manager.total_storage_bytes() == sum(b.total for b in report.values())


class TestRecoverDelegation:
    def test_recover_through_manager(self, setup):
        manager, ids = setup
        recovered = manager.recover(ids["b"])
        assert recovered.verified is True
        assert recovered.recovery_depth == 2


class TestDeletion:
    def test_refuses_to_orphan_derived_models(self, setup):
        manager, ids = setup
        with pytest.raises(DependentModelsError):
            manager.delete_model(ids["root"])

    def test_leaf_deletion_removes_documents_and_files(self, setup):
        manager, ids = setup
        document = manager.documents.collection("models").get(ids["b"])
        update_file = document["update_file"]
        assert manager.files.exists(update_file)
        manager.delete_model(ids["b"])
        assert not manager.files.exists(update_file)
        with pytest.raises(ModelNotFoundError):
            manager.get(ids["b"])

    def test_force_deletes_despite_dependents(self, setup):
        manager, ids = setup
        manager.delete_model(ids["root"], force=True)
        with pytest.raises(ModelNotFoundError):
            manager.get(ids["root"])

    def test_environment_documents_cleaned(self, setup):
        """The shared environment document survives while any model
        references it and goes with the last referent."""
        manager, ids = setup
        environments = manager.documents.collection("environments")
        assert environments.count() == 1
        for name in ("b", "a", "c"):
            manager.delete_model(ids[name])
            assert environments.count() == 1
        manager.delete_model(ids["root"])
        assert environments.count() == 0


class TestGarbageCollection:
    def test_gc_removes_orphans_only(self, setup):
        manager, ids = setup
        orphan = manager.files.save_bytes(b"leftover" * 100)
        stats = manager.garbage_collect()
        assert stats["files_removed"] == 1
        assert stats["bytes_freed"] == len(b"leftover" * 100)
        assert not manager.files.exists(orphan)
        # every model still recovers after gc
        recovered = manager.recover(ids["b"])
        assert recovered.verified is True

    def test_gc_on_clean_store_is_noop(self, setup):
        manager, _ = setup
        assert manager.garbage_collect() == {"files_removed": 0, "bytes_freed": 0}

    def test_gc_preserves_provenance_state_files(self, mem_doc_store, file_store, tmp_path):
        from repro.core import ProvenanceSaveService
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        service = ProvenanceSaveService(mem_doc_store, file_store, scratch_dir=tmp_path / "s")
        manager = ModelManager(service)
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        dataset_root = generate_dataset("co512", tmp_path / "data", scale=1 / 2048)
        run = TrainingRun(
            dataset_dir=dataset_root, number_epochs=1, number_batches=1,
            seed=2, image_size=8, num_classes=10,
        )
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        run.execute(model)
        model_id = service.save_model(run.to_provenance_info(base_id, trained_model=model))
        stats = manager.garbage_collect()
        assert stats["files_removed"] == 0
        assert manager.recover(model_id).verified is True


class TestPromoteAndSquash:
    def test_promote_makes_model_self_contained(self, setup, mem_doc_store):
        manager, ids = setup
        manager.promote_to_snapshot(ids["b"])
        document = mem_doc_store.collection("models").get(ids["b"])
        assert document["parameters_file"]
        assert document["base_model"] is None
        assert document["promoted_from"] == ids["a"]
        # ancestors can now disappear without breaking recovery
        manager.delete_model(ids["a"])
        recovered = manager.recover(ids["b"])
        assert recovered.verified is True
        assert recovered.recovery_depth == 0

    def test_promote_preserves_exact_parameters(self, setup):
        manager, ids = setup
        before = manager.recover(ids["b"]).model.state_dict()
        manager.promote_to_snapshot(ids["b"])
        after = manager.recover(ids["b"]).model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_promote_snapshot_is_noop(self, setup, mem_doc_store):
        manager, ids = setup
        first = mem_doc_store.collection("models").get(ids["root"])
        manager.promote_to_snapshot(ids["root"])
        assert mem_doc_store.collection("models").get(ids["root"]) == first

    def test_promote_removes_update_file(self, setup, mem_doc_store):
        manager, ids = setup
        old_update = mem_doc_store.collection("models").get(ids["b"])["update_file"]
        manager.promote_to_snapshot(ids["b"])
        assert not manager.files.exists(old_update)

    def test_a_failed_promote_releases_nothing(self, setup, mem_doc_store, monkeypatch):
        """A failure at the commit point (the document replace) leaves the
        old document whole: its update file is still stored, the model
        recovers bitwise, and fsck reclaims the new manifest and code copy
        that no document names."""
        manager, ids = setup
        before = manager.recover(ids["b"]).model.state_dict()
        files_before = set(manager.files.file_ids())
        old_update = mem_doc_store.collection("models").get(ids["b"])["update_file"]

        def failed_replace(doc_id, document):
            raise OSError("injected failure at the commit point")

        monkeypatch.setattr(mem_doc_store.collection("models"), "replace_one", failed_replace)
        with pytest.raises(OSError):
            manager.promote_to_snapshot(ids["b"])
        monkeypatch.undo()

        assert manager.files.exists(old_update)
        recovered = manager.recover(ids["b"])
        assert recovered.verified is True
        after = recovered.model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        orphans = set(manager.files.file_ids()) - files_before
        assert {file_id.rpartition(".")[2] for file_id in orphans} == {"py", "manifest"}
        report = manager.fsck(repair=True)
        assert {issue.kind for issue in report.repaired} >= {"orphan_file"}
        assert not report.unrepaired, report.summary()
        assert set(manager.files.file_ids()) == files_before
        assert manager.fsck().clean

    def test_squash_deletes_exclusive_ancestors_only(self, setup, mem_doc_store):
        """root has two children (a-chain and c): squashing b may delete a
        but must keep root (c still needs it)."""
        manager, ids = setup
        deleted = manager.squash_chain(ids["b"])
        assert deleted == 1  # only 'a'
        with pytest.raises(ModelNotFoundError):
            manager.get(ids["a"])
        assert manager.get(ids["root"]) is not None  # kept: 'c' depends on it
        assert manager.recover(ids["b"]).verified is True
        assert manager.recover(ids["c"]).verified is True

    def test_squash_frees_storage_for_long_chains(self, mem_doc_store, file_store):
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        manager = ModelManager(service)
        model = make_tiny_cnn(seed=1)
        chain = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
        state = {k: v.copy() for k, v in model.state_dict().items()}
        for level in range(5):
            state["5.bias"] = state["5.bias"] + 1.0
            derived = make_tiny_cnn()
            derived.load_state_dict(state)
            chain.append(
                service.save_model(
                    ModelSaveInfo(derived, tiny_arch(), base_model_id=chain[-1])
                )
            )
        before = file_store.total_bytes()
        assert manager.squash_chain(chain[-1]) == 5
        assert len(manager.list_models()) == 1
        assert file_store.total_bytes() < before


# -- catalog reads against a full scan ---------------------------------------


def scan_records(documents) -> dict:
    """Reference: every ``ModelRecord`` from a scan of whole model documents
    (how the manager answered before it projected and batched its reads)."""
    from repro.core import ModelRecord

    everything = documents.collection("models").find()
    derived: dict[str, list[str]] = {}
    for document in everything:
        if document.get("base_model"):
            derived.setdefault(document["base_model"], []).append(document["_id"])
    return {
        document["_id"]: ModelRecord(
            model_id=document["_id"],
            approach=document["approach"],
            base_model_id=document.get("base_model"),
            use_case=document.get("use_case"),
            saved_at=document["saved_at"],
            derived_model_ids=sorted(derived.get(document["_id"], [])),
        )
        for document in everything
    }


def save_tree(service, prefix: str) -> dict[str, str]:
    """root -> a -> b, root -> c, a -> d under ``service``."""
    ids: dict[str, str] = {}
    for name, base in (("root", None), ("a", "root"), ("b", "a"), ("c", "root"), ("d", "a")):
        model = make_tiny_cnn(seed=len(ids) + 1)
        ids[name] = service.save_model(ModelSaveInfo(
            model, tiny_arch(), base_model_id=ids.get(base), use_case=f"{prefix}-{name}"))
    return ids


@pytest.fixture(params=["single", "multi-tenant"])
def catalogs(request, tmp_path, file_store):
    """(manager, trees): one store, or the admin union over two tenants."""
    from repro.docstore import DocumentStore, NamespacedDocumentStore, UnionDocumentStore

    shared = DocumentStore(tmp_path / "docs")
    if request.param == "single":
        service = ParameterUpdateSaveService(shared, file_store)
        return ModelManager(service), [save_tree(service, "solo")]
    trees = [
        save_tree(
            ParameterUpdateSaveService(NamespacedDocumentStore(shared, tenant), file_store),
            tenant,
        )
        for tenant in ("acme", "globex")
    ]
    union = UnionDocumentStore(shared, ["acme", "globex"])
    return ModelManager(ParameterUpdateSaveService(union, file_store)), trees


class TestCatalogReadsAgreeWithAFullScan:
    def test_get_list_and_find(self, catalogs):
        manager, trees = catalogs
        reference = scan_records(manager.documents)
        assert len(reference) == 5 * len(trees)
        for ids in trees:
            for model_id in ids.values():
                assert manager.get(model_id) == reference[model_id]
        assert manager.list_models() == sorted(
            reference.values(), key=lambda record: record.saved_at)
        use_case = reference[trees[-1]["a"]].use_case
        assert manager.find_by_use_case(use_case) == [reference[trees[-1]["a"]]]

    def test_lineage_and_descendants(self, catalogs):
        manager, trees = catalogs
        reference = scan_records(manager.documents)
        for ids in trees:
            assert manager.lineage(ids["b"]) == [
                reference[ids[name]] for name in ("b", "a", "root")]
            below_root = manager.descendants(ids["root"])
            assert below_root == sorted(
                (reference[ids[name]] for name in ("a", "b", "c", "d")),
                key=lambda record: record.model_id)
            assert {r.model_id for r in manager.descendants(ids["a"])} == {ids["b"], ids["d"]}
            assert manager.descendants(ids["c"]) == []
            tree = manager.lineage_tree(ids["root"]).splitlines()
            assert len(tree) == 5 and tree[0].startswith(ids["root"])
            assert [line.strip().split()[0] for line in tree if line.startswith("    ")] == sorted(
                [ids["b"], ids["d"]])

    def test_a_record_costs_one_children_query_and_no_whole_document(self, setup, monkeypatch):
        from repro.docstore import engine

        manager, ids = setup
        finds, copies = [], []
        real_find, real_isolated = engine.Collection.find, engine._isolated

        def counting_find(self, query=None, **kwargs):
            finds.append(query)
            return real_find(self, query, **kwargs)

        def counting_isolated(document, projection=None):
            copies.append(projection)
            return real_isolated(document, projection)

        monkeypatch.setattr(engine.Collection, "find", counting_find)
        monkeypatch.setattr(engine, "_isolated", counting_isolated)
        manager.get(ids["root"])
        assert finds == [{"base_model": {"$in": [ids["root"]]}}]
        finds.clear()
        assert len(manager.list_models()) == 4
        assert len(finds) == 2  # the models, then all their children at once
        finds.clear()
        manager.lineage(ids["b"])
        assert len(finds) == 1
        assert copies and None not in copies
