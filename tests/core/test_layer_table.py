"""A model's layer table is stored once and parsed once.

BA and PUA documents carry no ``layer_hashes``: a model's table is its
manifest chain, the recovery base's manifest overridden by each PUA delta
(DESIGN.md §13, §16).  Only an MPA record, which has no manifest, and a
document an older release wrote store one.  A manifest's parse is
memoized by file id (DESIGN.md §14 "Verify once"), and the memo skips
no read, no digest check and no root comparison.
"""

from __future__ import annotations

import asyncio
import json
import operator

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.core.compaction import ChainCompactor
from repro.core.errors import VerificationError
from repro.core.hashing import state_dict_hashes
from repro.core.merkle import MerkleTree
from repro.core.schema import MODELS
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.filestore import FileStore
from repro.filestore.store import ManifestMemo
from repro.gateway import AsyncGatewayClient, GatewayServer, TenantRegistry
from repro.nn.models import create_model
from repro.workloads.serving import serving_mlp
from tests.core.test_byte_path import (
    flip_stored_bit,
    save_mpa_level,
    save_pua_tip,
    twin_arch,
    twin_model,
)

CLUSTER = [pytest.param(False, id="single"), pytest.param(True, id="3x2")]


def open_stores(tmp_path, cluster: bool) -> SharedStores:
    if cluster:
        return SharedStores.cluster_at(tmp_path / "stores", shards=3, replicas=2)
    return SharedStores.at(tmp_path / "stores")


def tensor_table(state) -> list:
    return [[name, digest] for name, digest in state_dict_hashes(state).items()]


def assert_one_table(service, model_id) -> None:
    """The service's table is the recovered state's per-layer tensor hashes."""
    table = service.layer_hashes(model_id)
    recovered = service.recover_model(model_id)
    assert recovered.verified is True
    assert table == tensor_table(recovered.model.state_dict())
    assert dict(service.layer_table(model_id)) == dict(table)


def stored_fields(service, model_id) -> set:
    return set(service.documents.collection(MODELS).get(model_id))


def changed(model, names, amount: float = 1.0):
    """A :func:`twin_model`-shaped copy of ``model`` with ``names`` + amount."""
    clone = twin_model(seed=0)
    state = {name: array.copy() for name, array in model.state_dict().items()}
    for name in names:
        state[name] = state[name] + np.float32(amount)
    clone.load_state_dict(state)
    return clone


def save_chain(service, depth: int):
    """A PUA root and ``depth`` derived levels, each changing one layer."""
    names = list(twin_model(seed=0).state_dict())
    models = [twin_model(seed=31)]
    ids = [service.save_model(ModelSaveInfo(models[0], twin_arch()))]
    for level in range(depth):
        models.append(changed(models[-1], [names[level % len(names)]], level + 1.0))
        ids.append(service.save_model(
            ModelSaveInfo(models[-1], twin_arch(), base_model_id=ids[-1])))
    return ids, models


class TestOneLayerTable:
    """``service.layer_hashes(id)`` equals the recovered state's per-layer
    tensor hashes, whatever saved the model, single-node and 3x2."""

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_baseline_snapshot(self, tmp_path, cluster):
        stores = open_stores(tmp_path, cluster)
        service = BaselineSaveService(stores.documents, stores.files)
        model = twin_model(seed=30)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        assert "layer_hashes" not in stored_fields(service, model_id)
        assert service.layer_hashes(model_id) == tensor_table(model.state_dict())
        assert_one_table(service, model_id)

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_pua_chain_of_depth_three(self, tmp_path, cluster):
        stores = open_stores(tmp_path, cluster)
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, models = save_chain(service, depth=3)
        for model_id, model in zip(ids, models):
            assert not {"layer_hashes", "updated_layers"} & stored_fields(service, model_id)
            assert service.layer_hashes(model_id) == tensor_table(model.state_dict())
            assert_one_table(service, model_id)
        assert service.recover_model(ids[-1]).recovery_depth == 0  # its own manifest

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_compacted_pua_tip(self, tmp_path, cluster):
        stores = open_stores(tmp_path, cluster)
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, models = save_chain(service, depth=4)
        ChainCompactor(service).compact_model(ids[-1])
        document = service.documents.collection(MODELS).get(ids[-1])
        assert document["parameters_file"] and "update_file" not in document
        assert not {"layer_hashes", "updated_layers"} & set(document)
        assert service.layer_hashes(ids[-1]) == tensor_table(models[-1].state_dict())
        assert_one_table(service, ids[-1])
        # a save derived from the compacted tip, with no cached tree, reads
        # the table from its new manifest
        fresh = ParameterUpdateSaveService(stores.documents, stores.files)
        tip = changed(models[-1], ["4.bias"], 5.0)
        tip_id = fresh.save_model(ModelSaveInfo(tip, twin_arch(), base_model_id=ids[-1]))
        assert fresh.layer_hashes(tip_id) == tensor_table(tip.state_dict())
        assert_one_table(fresh, tip_id)

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_pua_tip_over_an_mpa_base(self, tmp_path, cluster):
        stores = open_stores(tmp_path, cluster)
        documents, files = stores.documents, stores.files
        pua = ParameterUpdateSaveService(documents, files)
        base_id = pua.save_model(ModelSaveInfo(twin_model(seed=32), twin_arch()))
        mpa_id = save_mpa_level(documents, files, tmp_path, base_id, seed=32)
        # the provenance record has no manifest: it keeps its table
        assert "layer_hashes" in stored_fields(pua, mpa_id)
        tip_id, saved = save_pua_tip(pua, mpa_id, seed=32, layer="0.bias", base_shift=2.0)
        assert "layer_hashes" not in stored_fields(pua, tip_id)
        assert pua.layer_hashes(tip_id) == tensor_table(saved)
        assert_one_table(pua, tip_id)

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_gateway_digest_first_save(self, tmp_path, cluster):
        stores = open_stores(tmp_path, cluster)
        registry = TenantRegistry(stores, ["acme"], approach="param_update")
        factory, kwargs = "repro.workloads.serving:serving_mlp", {"hidden": 64}
        root = serving_mlp(**kwargs).state_dict()
        names = list(root)
        tip = {name: array + np.float32(1e-3) if name in names[-2:] else array
               for name, array in root.items()}
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(factory, root, kwargs)
                    tip_id = await client.save_model(factory, tip, kwargs, base=root_id)
                    wire = await client.request("layers", model_id=tip_id)
                    return tip_id, wire["layers"], (await client.recover_model(tip_id)).state
            tip_id, wire_table, recovered = asyncio.run(scenario())
        tenant = registry.tenant("acme")
        tip_id = tenant.resolve(tip_id)
        assert not {"layer_hashes", "updated_layers"} & stored_fields(tenant.service, tip_id)
        assert wire_table == tensor_table(tip) == tensor_table(recovered)
        assert_one_table(tenant.service, tip_id)

    @pytest.mark.parametrize("cluster", CLUSTER)
    def test_a_legacy_document_carrying_its_table(self, tmp_path, cluster):
        """What an older release wrote: BA and PUA documents with
        ``layer_hashes`` (and ``updated_layers``), read with no migration."""
        stores = open_stores(tmp_path, cluster)
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, models = save_chain(service, depth=2)
        models_collection = service.documents.collection(MODELS)
        for model_id, model in zip(ids, models):
            document = models_collection.get(model_id)
            document["layer_hashes"] = tensor_table(model.state_dict())
            models_collection.replace_one(model_id, document)
        reads = []
        read = stores.files.read_manifest
        stores.files.read_manifest = lambda file_id: reads.append(file_id) or read(file_id)
        for model_id, model in zip(ids, models):
            assert service.layer_hashes(model_id) == tensor_table(model.state_dict())
        assert reads == []  # the stored table is the table
        for model_id in ids:
            assert_one_table(service, model_id)
        fresh = ParameterUpdateSaveService(stores.documents, stores.files)
        tip = changed(models[-1], ["4.weight"], 3.0)
        tip_id = fresh.save_model(ModelSaveInfo(tip, twin_arch(), base_model_id=ids[-1]))
        assert fresh.layer_hashes(tip_id) == tensor_table(tip.state_dict())
        assert_one_table(fresh, tip_id)


class TestTheMemoSkipsNoCheck:
    """The manifest parse is memoized; the bytes are still read and
    checked, and the root still compared, on every recover."""

    def test_a_flipped_manifest_byte_after_the_parse_was_memoized(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=33), twin_arch()))
        assert service.recover_model(model_id).verified is True  # parsed, memoized
        manifest_id = service.documents.collection(MODELS).get(model_id)["parameters_file"]
        flip_stored_bit(files, manifest_id)
        with pytest.raises(StoreCorruptionError):
            service.recover_model(model_id)
        with pytest.raises(StoreCorruptionError):
            files.read_manifest(manifest_id)
        report = ModelManager(service).fsck(repair=False)
        assert any(manifest_id in issue.detail for issue in report.unrepaired), report.issues

    def test_the_root_is_compared_on_every_recover(self, tmp_path):
        """A document whose root disagrees with the fold of its digest
        vector fails verification, the parse memoized or not."""
        stores = SharedStores.at(tmp_path / "stores")
        service = BaselineSaveService(stores.documents, stores.files)
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=34), twin_arch()))
        assert service.recover_model(model_id).verified is True
        models = service.documents.collection(MODELS)
        document = models.get(model_id)
        document["merkle_root"] = "ab" * 32
        models.replace_one(model_id, document)
        with pytest.raises(VerificationError):
            service.recover_model(model_id)

    def test_editing_a_returned_table_does_not_change_the_next_read(self, tmp_path):
        stores = SharedStores.at(tmp_path / "stores")
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, models = save_chain(service, depth=1)
        expected = tensor_table(models[-1].state_dict())
        table = service.layer_hashes(ids[-1])
        table[0][1] = "edited"
        table.append(["extra", "00" * 32])
        service.layer_table(ids[-1])["0.weight"] = "edited"
        assert service.layer_hashes(ids[-1]) == expected
        manifest_id = service.documents.collection(MODELS).get(ids[0])["parameters_file"]
        manifest = stores.files.read_manifest(manifest_id)
        _name, entry = manifest["layers"][0]
        for edit in (lambda: operator.setitem(entry, "chunk", "00" * 32),
                     lambda: entry.update(chunk="00" * 32),
                     lambda: entry.pop("chunk"),
                     lambda: operator.setitem(manifest["layers"], 0, None),
                     lambda: operator.setitem(manifest, "layers", ())):
            with pytest.raises(TypeError):
                edit()
        copied = dict(entry)  # a caller's own copy edits nothing shared
        copied["chunk"] = "00" * 32
        stored = stores.files.manifest_keys(manifest_id)[1:]
        again = stores.files.read_manifest(manifest_id)["layers"]
        assert [e["chunk"] for _n, e in again] == stored
        assert service.layer_hashes(ids[-1]) == expected
        assert service.recover_model(ids[-1]).verified is True

    def test_the_memo_is_bounded(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        ids = [service.save_model(ModelSaveInfo(twin_model(seed=seed), twin_arch()))
               for seed in (40, 41, 42)]
        # a manifest of the twin's 6 layers weighs 6 + 2: two fit, a third evicts
        files._manifests = ManifestMemo(2 * (6 + 2))
        for model_id in ids:
            assert service.recover_model(model_id).verified is True
        assert len(files._manifests) == 2
        manifest_of = {model_id: service.documents.collection(MODELS).get(model_id)[
            "parameters_file"] for model_id in ids}
        assert files._manifests.get(manifest_of[ids[0]]) is None  # least recently used
        assert files._manifests.get(manifest_of[ids[2]]) is not None
        # one that alone outweighs the capacity is returned, not kept
        files._manifests = ManifestMemo(6 + 1)
        assert service.recover_model(ids[0]).verified is True
        assert len(files._manifests) == 0


def document_bytes(service, model_id) -> int:
    document = service.documents.collection(MODELS).get(model_id)
    return len(json.dumps(document, sort_keys=True).encode())


def paper_model(name: str, seed: int):
    kwargs = {"num_classes": 100, "scale": 0.25}
    model = create_model(name, seed=seed, **kwargs)
    return model, ArchitectureRef.from_factory("repro.nn.models", name, kwargs)


class TestDocumentSize:
    """A document carries metadata only: ≤ 2 KB whatever the architecture."""

    def test_a_resnet152_baseline_document(self, tmp_path):
        stores = SharedStores.at(tmp_path / "stores")
        service = BaselineSaveService(stores.documents, stores.files)
        model, architecture = paper_model("resnet152", seed=1)
        model_id = service.save_model(ModelSaveInfo(model, architecture))
        assert len(service.layer_hashes(model_id)) == len(model.state_dict()) > 900
        assert document_bytes(service, model_id) <= 2048

    def test_a_pua_document_that_changes_every_mobilenetv2_layer(self, tmp_path):
        stores = SharedStores.at(tmp_path / "stores")
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        model, architecture = paper_model("mobilenetv2", seed=2)
        base_id = service.save_model(ModelSaveInfo(model, architecture))
        state = model.state_dict()
        for array in state.values():
            array += np.asarray(1, dtype=array.dtype)
        tip_id = service.save_model(ModelSaveInfo(model, architecture, base_model_id=base_id))
        assert service.last_diff.changed_layers == list(state)
        assert len(state) > 300
        assert document_bytes(service, tip_id) <= 2048
        assert service.layer_hashes(tip_id) == [
            [name, digest] for name, digest in state_dict_hashes(state).items()]
        assert MerkleTree.from_state_dict(state).root_hash == service.documents.collection(
            MODELS).get(tip_id)["merkle_root"]
