"""Tenant namespaces: isolated catalogs, qualified ids, the admin union."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo
from repro.distsim.environment import SharedStores
from repro.docstore import (
    DocumentStore,
    NamespacedDocumentStore,
    UnionDocumentStore,
    tenant_collection_name,
    validate_tenant_name,
)
from repro.errors import OlderFormatError
from repro.filestore.store import FORMAT_MARKER
from repro.gateway import GatewayError, TenantQuota, TenantRegistry
from repro.gateway.tenancy import qualify_id, split_qualified_id
from repro.importer import import_deployment
from repro.nn import serialization
from tests.conftest import make_tiny_cnn
from tests.filestore.older_release import as_older_release

FACTORY_REF = ("tests.conftest", "make_tiny_cnn", {"num_classes": 10})


class TestTenantNames:
    def test_accepts_lowercase_alphanumerics(self):
        for name in ("acme", "t1", "a-b_c", "0day"):
            assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "Acme", "a/b", "-lead", "a" * 65, None, "tenant name"]
    )
    def test_rejects_illegal_names(self, name):
        with pytest.raises(ValueError):
            validate_tenant_name(name)

    def test_physical_collection_name_embeds_tenant(self):
        assert tenant_collection_name("acme", "models") == "tenant--acme--models"


class TestNamespacedStore:
    def test_tenants_cannot_see_each_other(self, mem_doc_store):
        acme = NamespacedDocumentStore(mem_doc_store, "acme")
        globex = NamespacedDocumentStore(mem_doc_store, "globex")
        acme.collection("models").insert_one({"_id": "m1", "tenant": "acme"})
        assert acme.collection("models").count() == 1
        assert globex.collection("models").count() == 0
        with pytest.raises(KeyError):
            globex.collection("models").get("m1")

    def test_same_logical_name_maps_to_distinct_physical_collections(
        self, mem_doc_store
    ):
        NamespacedDocumentStore(mem_doc_store, "acme").collection(
            "models"
        ).insert_one({"_id": "m1"})
        assert mem_doc_store.collection("tenant--acme--models").count() == 1

    def test_storage_bytes_scopes_to_own_collections(self, tmp_path):
        store = DocumentStore(tmp_path / "docs")
        acme = NamespacedDocumentStore(store, "acme")
        globex = NamespacedDocumentStore(store, "globex")
        acme.collection("models").insert_one({"_id": "m1", "blob": "x" * 4096})
        assert acme.storage_bytes() > 0
        assert globex.storage_bytes() == 0


class TestUnionStore:
    @pytest.fixture
    def populated(self, mem_doc_store):
        for tenant, doc_id in (("acme", "m1"), ("globex", "m2")):
            NamespacedDocumentStore(mem_doc_store, tenant).collection(
                "models"
            ).insert_one({"_id": doc_id, "owner": tenant})
        return UnionDocumentStore(mem_doc_store, ["acme", "globex"])

    def test_reads_span_every_tenant(self, populated):
        models = populated.collection("models")
        assert models.count() == 2
        assert models.get("m1")["owner"] == "acme"
        assert models.get("m2")["owner"] == "globex"
        assert {d["_id"] for d in models.find({})} == {"m1", "m2"}
        assert models.find_one({"owner": "globex"})["_id"] == "m2"
        assert [d["_id"] for d in models.get_many(["m2", "m1"])] == ["m2", "m1"]

    def test_repairs_land_on_the_owning_tenant(self, populated, mem_doc_store):
        models = populated.collection("models")
        models.replace_one("m1", {"_id": "m1", "owner": "acme", "fixed": True})
        assert mem_doc_store.collection("tenant--acme--models").get("m1")["fixed"]
        assert models.delete_one("m2")
        assert mem_doc_store.collection("tenant--globex--models").count() == 0

    def test_inserts_are_refused(self, populated):
        with pytest.raises(TypeError):
            populated.collection("models").insert_one({"_id": "m3"})

    def test_missing_document_raises_keyerror(self, populated):
        with pytest.raises(KeyError):
            populated.collection("models").get("m-missing")

    def test_tenant_model_counts(self, populated):
        assert populated.tenant_model_counts() == {"acme": 1, "globex": 1}


class TestQualifiedIds:
    def test_qualify_and_split_roundtrip(self):
        qualified = qualify_id("acme", "model-abc")
        assert qualified == "acme/model-abc"
        assert split_qualified_id("acme", qualified) == "model-abc"

    def test_unqualified_id_is_own_namespace_shorthand(self):
        assert split_qualified_id("acme", "model-abc") == "model-abc"

    def test_foreign_tenant_id_is_forbidden_not_data(self):
        with pytest.raises(GatewayError) as excinfo:
            split_qualified_id("acme", "globex/model-abc")
        assert excinfo.value.kind == "forbidden"
        assert not excinfo.value.retryable

    def test_malformed_qualified_id_is_invalid(self):
        with pytest.raises(GatewayError) as excinfo:
            split_qualified_id("acme", "acme/")
        assert excinfo.value.kind == "invalid"


class TestTenantQuota:
    def test_defaults_are_sane(self):
        quota = TenantQuota()
        assert quota.requests_per_s > 0 and quota.max_inflight >= 1
        assert quota.max_concurrency >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests_per_s": 0},
            {"bytes_per_s": -1},
            {"burst_requests": 0},
            {"burst_bytes": 0},
            {"max_inflight": 0},
            {"max_concurrency": 0},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestTenantRegistry:
    @pytest.fixture
    def stores(self, tmp_path):
        return SharedStores.at(tmp_path / "store")

    def test_accepts_list_with_default_quotas(self, stores):
        registry = TenantRegistry(stores, ["globex", "acme"])
        assert registry.tenant_names == ["acme", "globex"]
        assert registry.tenant("acme").quota == TenantQuota()

    def test_unknown_tenant_is_forbidden(self, stores):
        registry = TenantRegistry(stores, ["acme"])
        with pytest.raises(GatewayError) as excinfo:
            registry.tenant("mallory")
        assert excinfo.value.kind == "forbidden"

    def test_needs_at_least_one_tenant(self, stores):
        with pytest.raises(ValueError):
            TenantRegistry(stores, [])

    def test_unknown_approach_rejected(self, stores):
        with pytest.raises(KeyError):
            TenantRegistry(stores, ["acme"], approach="telepathy")

    def test_admin_manager_spans_tenants_and_fsck_is_clean(self, stores):
        registry = TenantRegistry(stores, ["acme", "globex"])
        for name in ("acme", "globex"):
            tenant = registry.tenant(name)
            module, factory, kwargs = FACTORY_REF
            arch = ArchitectureRef.from_factory(module, factory, kwargs)
            tenant.service.save_model(
                ModelSaveInfo(model=arch.build(), architecture=arch)
            )
        # each tenant's own catalog sees exactly its model
        for name in ("acme", "globex"):
            assert len(registry.tenant(name).manager.list_models()) == 1
        # the admin union sees both, and fsck over it keeps shared files:
        # an orphan sweep scoped to one tenant would eat the other's chunks
        admin = registry.admin_manager()
        assert len(admin.list_models()) == 2
        report = admin.fsck(verify_chunks=True)
        assert report.clean
        assert report.checked_models == 2
        stats = admin.stats()
        assert stats["tenants"] == {"acme": 1, "globex": 1}

    @pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
    def test_a_store_an_older_release_left_is_imported_for_every_tenant(
        self, tmp_path, cluster
    ):
        """Each tenant's snapshot, and a plain catalog's, a monolithic
        ``.params`` blob: no store opens the deployment, and one import
        rewrites every catalog's levels and marks the copy."""
        def open_deployment(root):
            if cluster:
                return SharedStores.cluster_at(root, shards=3, replicas=2)
            return SharedStores.at(root)

        stores = open_deployment(tmp_path / "store")
        registry = TenantRegistry(stores, ["acme", "globex"])
        module, factory, kwargs = FACTORY_REF
        arch = ArchitectureRef.from_factory(module, factory, kwargs)
        plain = BaselineSaveService(stores.documents, stores.files)
        saved = {}
        for seed, (name, service) in enumerate((
                ("acme", registry.tenant("acme").service),
                ("globex", registry.tenant("globex").service), (None, plain))):
            model = make_tiny_cnn(seed=seed)
            model_id = service.save_model(ModelSaveInfo(model=model, architecture=arch))
            models = service.documents.collection("models")
            document = models.get(model_id)
            old = document["parameters_file"]
            document["parameters_file"] = stores.files.save_bytes(
                serialization.dumps(model.state_dict()), suffix=".params")
            models.replace_one(model_id, document)
            stores.files.delete(old)
            saved[name] = (model_id, model.state_dict())
        stores.files.close()
        as_older_release(tmp_path / "store")
        with pytest.raises(OlderFormatError):
            open_deployment(tmp_path / "store")

        if cluster:
            import_deployment(tmp_path / "new", cluster=tmp_path / "store")
        else:
            import_deployment(
                tmp_path / "new", docs=tmp_path / "store" / "documents",
                files=tmp_path / "store" / "files")
        stores = open_deployment(tmp_path / "new")
        registry = TenantRegistry(stores, ["acme", "globex"])
        assert (stores.files.root / FORMAT_MARKER).exists()
        for name, (model_id, state) in saved.items():
            service = registry.tenant(name).service if name else BaselineSaveService(
                stores.documents, stores.files)
            document = service.documents.collection("models").get(model_id)
            assert document["parameters_file"].endswith(".params.manifest")
            recovered = service.recover_model(model_id).model.state_dict()
            assert all(np.array_equal(recovered[key], state[key]) for key in state)
        assert not any(f.endswith(".params") for f in stores.files.file_ids())
