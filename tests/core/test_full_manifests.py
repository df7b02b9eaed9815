"""Every model with parameters is its own recovery base (DESIGN.md §6, §16).

A manifest (v3) is a fixed header and one raw digest per layer; the layer
names, dtypes and shapes are a spec record, stored once per layout and kept
alive by every manifest naming it.  A PUA save writes a full manifest whose
unchanged layers name its base's chunks, so a recover, a layer table and
the gateway's digest-first exchanges read one model document and one
manifest whatever the lineage depth.
"""

import asyncio
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.core.errors import VerificationError
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.filestore import FileStore
from repro.filestore.store import MANIFEST_TAG, is_spec_key
from repro.gateway import AsyncGatewayClient, GatewayServer, TenantQuota, TenantRegistry
from repro.nn.models import MODEL_REGISTRY, create_model
from tests.conftest import make_tiny_cnn, replace_record
from tests.core.test_recovery_plan import (
    FLOAT_LAYERS,
    assert_recovers,
    copy_state,
    model_holding,
    save_pua_chain,
    tiny_arch,
)


def open_stores(root, cluster: bool) -> SharedStores:
    if cluster:
        return SharedStores.cluster_at(root, shards=3, replicas=2)
    return SharedStores.at(root)


def counting(service) -> Counter:
    """Count the model documents and manifests ``service`` reads from now on."""
    counts = Counter()
    models = service.documents.collection(MODELS)
    get, read = models.get, service.files.read_manifest

    def counted_get(doc_id, projection=None):
        counts["documents"] += 1
        return get(doc_id, projection=projection)

    def counted_read(file_id):
        counts["manifests"] += 1
        return read(file_id)

    models.get = counted_get
    service.files.read_manifest = counted_read
    return counts


def flipped(data) -> bytes:
    data = bytearray(data)
    data[len(data) // 2] ^= 0x01
    return bytes(data)


def spec_keys(files) -> list[str]:
    return [key for key in files.chunks.chunk_ids() if is_spec_key(key)]


class TestOneReadPerRecover:
    @pytest.mark.parametrize("depth", [1, 8, 32])
    def test_recover_layer_table_and_layers_read_one_of_each(self, tmp_path, depth):
        service = ParameterUpdateSaveService(DocumentStore(), FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, depth, layers=("5.bias", "5.weight"))
        counts = counting(service)
        recovered = assert_recovers(service, ids[-1], states[-1])
        assert recovered.recovery_depth == 0
        assert counts == {"documents": 1, "manifests": 1}
        counts.clear()
        assert service.layer_table(ids[-1]) == state_dict_hashes(states[-1])
        assert counts == {"documents": 1, "manifests": 1}
        counts.clear()
        layers = service.recover_layers(ids[-1])
        assert layers.layers == list(state_dict_hashes(states[-1]).items())
        assert counts == {"documents": 1, "manifests": 1}
        assert len(service.base_chain(ids[-1])) == depth + 1  # lineage stays

    @pytest.mark.parametrize("depth", [1, 8, 32])
    def test_the_gateway_layers_op_reads_one_of_each(self, tmp_path, depth):
        registry = TenantRegistry(SharedStores.at(tmp_path / "store"), {"acme": TenantQuota()})
        tenant = registry.tenant("acme")
        ids, states = save_pua_chain(tenant.service, depth)
        counts = counting(tenant.service)
        with GatewayServer(registry) as server:
            async def layers():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    return await client.request("layers", model_id=tenant.qualify(ids[-1]))

            response = asyncio.run(layers())
        assert dict(response["layers"]) == state_dict_hashes(states[-1])
        assert counts == {"documents": 1, "manifests": 1}


def counting_folds(monkeypatch) -> Counter:
    """Count ``root_of`` calls and ``combine_hashes`` calls (the fold's
    steps) from now on, wherever the recover path reaches them."""
    from repro.core import abstract, merkle

    counts = Counter()
    combine, root_of = merkle.combine_hashes, merkle.root_of

    def counted_combine(left, right):
        counts["combine_hashes"] += 1
        return combine(left, right)

    def counted_root_of(leaves):
        counts["root_of"] += 1
        return root_of(leaves)

    monkeypatch.setattr(merkle, "combine_hashes", counted_combine)
    monkeypatch.setattr(merkle, "root_of", counted_root_of)
    monkeypatch.setattr(abstract, "root_of", counted_root_of)
    return counts


def set_root(documents, model_id, root) -> None:
    models = documents.collection(MODELS)
    document = models.get(model_id)
    document["merkle_root"] = root
    models.replace_one(model_id, document)


class TestOneRootFoldPerManifest:
    """A manifest's Merkle root is kept with its parse: the save that wrote
    it seeds it, a store that only reads it folds it once, and a verified
    recover of a model whose every layer passed the fetch check compares
    the document's root with it."""

    @pytest.mark.parametrize("cluster", [False, True])
    def test_verified_recovers_after_a_save_fold_nothing(self, tmp_path, monkeypatch, cluster):
        stores = open_stores(tmp_path, cluster)
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, states = save_pua_chain(service, 3, layers=("5.bias", "5.weight"))
        counts = counting_folds(monkeypatch)
        for _ in range(2):
            for model_id, state in zip(ids, states):
                recovered = assert_recovers(service, model_id, state)
                assert set(recovered.timings) == {"load", "recover", "check_env", "check_hash"}
            layers = service.recover_layers(ids[-1], have={state_dict_hashes(states[-1])["5.bias"]})
            assert layers.layers == list(state_dict_hashes(states[-1]).items())
        assert counts == {}

    def test_a_fresh_store_folds_once_per_manifest(self, tmp_path, monkeypatch):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 3)
        fresh = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        counts = counting_folds(monkeypatch)
        for model_id, state in zip(ids, states):
            assert_recovers(fresh, model_id, state)
        assert counts == {"root_of": len(ids), "combine_hashes": len(ids) * (len(states[0]) - 1)}
        counts.clear()
        for model_id, state in zip(ids, states):
            assert_recovers(fresh, model_id, state)
        assert fresh.recover_layers(ids[-1]).verified is True
        assert counts == {}

    def test_threads_sharing_a_fresh_store_fold_and_compare_consistently(self, tmp_path):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 3)
        fresh = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        errors = []

        def worker(offset):
            try:
                for step in range(12):
                    index = (offset + step) % len(ids)
                    assert_recovers(fresh, ids[index], states[index])
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads), errors

    @pytest.mark.parametrize("fresh", [False, True])
    def test_an_altered_root_fails_verification(self, tmp_path, fresh):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 2)
        if fresh:
            service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
            assert_recovers(service, ids[-1], states[-1])  # folds and keeps the root
        other = documents.collection(MODELS).get(ids[0])["merkle_root"]
        set_root(documents, ids[-1], other)
        with pytest.raises(VerificationError):
            service.recover_model(ids[-1])
        with pytest.raises(VerificationError):
            service.recover_layers(ids[-1])
        assert_recovers(service, ids[0], states[0])

    def test_an_mpa_tip_still_hashes_its_replayed_layers(self, tmp_path, monkeypatch):
        from repro.core import abstract
        from tests.core.test_recovery_plan import save_mpa_chain

        documents = DocumentStore()
        service, ids, states = save_mpa_chain(documents, FileStore(tmp_path / "files"), tmp_path, 1)
        hashed = []
        hash_state = abstract.state_dict_hashes
        monkeypatch.setattr(abstract, "state_dict_hashes",
                            lambda state: hashed.extend(state) or hash_state(state))
        counts = counting_folds(monkeypatch)
        assert_recovers(service, ids[1], states[1])
        assert hashed == list(states[1])  # every replayed layer, once
        assert counts["root_of"] == 1
        set_root(documents, ids[1], documents.collection(MODELS).get(ids[0])["merkle_root"])
        with pytest.raises(VerificationError):
            service.recover_model(ids[1])


class TestTheFormat:
    def test_a_resnet152_manifest_fits_32_kb_and_its_spec_is_stored_once(self, tmp_path):
        kwargs = {"num_classes": 10, "scale": 0.125}
        factory = MODEL_REGISTRY["resnet152"].factory
        arch = ArchitectureRef.from_factory(factory.__module__, factory.__name__, kwargs)
        model = create_model("resnet152", seed=1, **kwargs)
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids = [service.save_model(ModelSaveInfo(model, arch))]
        state = model.state_dict()
        for step in range(2):
            state["fc.bias"] += 1.0
            ids.append(service.save_model(ModelSaveInfo(model, arch, base_model_id=ids[-1])))
        for model_id in ids:
            manifest_id = service.documents.collection(MODELS).get(model_id)["parameters_file"]
            data = files.recover_bytes(manifest_id)
            assert data.startswith(MANIFEST_TAG)
            assert len(data) <= 32 * 1024
            assert len(files.read_manifest(manifest_id)["layers"]) == len(state) == 932
        assert len(spec_keys(files)) == 1
        assert service.recover_model(ids[-1]).verified is True

    def test_the_parse_memo_holds_what_a_save_wrote(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        model = make_tiny_cnn(seed=2)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        manifest_id = service.documents.collection(MODELS).get(model_id)["parameters_file"]
        seeded = files._manifests.get(manifest_id)
        assert seeded is not None
        assert files.read_manifest(manifest_id) is seeded
        fresh = FileStore(tmp_path / "files")  # parses the stored bytes
        assert fresh.read_manifest(manifest_id) == seeded
        assert [meta["chunk"] for _, meta in seeded["layers"]] == list(
            state_dict_hashes(model.state_dict()).values())

    def test_a_pua_save_over_an_mpa_base_stores_every_layer(self, tmp_path):
        from tests.core.test_byte_path import save_mpa_level, twin_arch, twin_model

        documents, files = DocumentStore(), FileStore(tmp_path / "files")
        pua = ParameterUpdateSaveService(documents, files)
        base_id = pua.save_model(ModelSaveInfo(twin_model(seed=9), twin_arch()))
        mpa_id = save_mpa_level(documents, files, tmp_path, base_id, seed=9)
        tip = twin_model(seed=9)
        tip.state_dict()["4.bias"][...] += 2.0
        tip.state_dict()["0.bias"][...] += 1.0
        saved = copy_state(tip.state_dict())
        tip_id = pua.save_model(ModelSaveInfo(tip, twin_arch(), base_model_id=mpa_id))
        recovered = pua.recover_model(tip_id)
        assert recovered.verified is True and recovered.recovery_depth == 0
        for name, array in saved.items():
            assert np.array_equal(recovered.model.state_dict()[name], array), name
        assert pua.model_save_size(tip_id).files["parameters"] > sum(
            array.nbytes for array in saved.values())


class TestIntegrity:
    def saved(self, stores):
        service = ParameterUpdateSaveService(stores.documents, stores.files)
        ids, states = save_pua_chain(service, 2)
        manifest = stores.documents.collection(MODELS).get(ids[-1])["parameters_file"]
        return service, ids, states, manifest

    @pytest.mark.parametrize("what", ["manifest", "spec", "chunk"])
    def test_a_flipped_bit_is_caught_at_read_and_by_fsck(self, tmp_path, what):
        stores = open_stores(tmp_path, cluster=False)
        service, ids, states, manifest = self.saved(stores)
        files = stores.files
        key = {"manifest": manifest, "spec": files.manifest_keys(manifest)[0],
               "chunk": state_dict_hashes(states[-1])["5.bias"]}[what]
        replace_record(files, key, flipped(files.chunks.get(key)))
        # a fresh store: nothing of the spec or manifest is memoized
        fresh = ParameterUpdateSaveService(stores.documents, FileStore(files.root))
        with pytest.raises(StoreCorruptionError if what != "chunk" else VerificationError):
            fresh.recover_model(ids[-1])
        report = ModelManager(fresh).fsck(repair=False, verify_chunks=True)
        kinds = {issue.kind for issue in report.unrepaired}
        assert kinds & {"corrupt_chunk", "corrupt_manifest"}, report.summary()

    @pytest.mark.parametrize("what", ["manifest", "spec", "chunk"])
    def test_a_flipped_bit_on_one_replica_is_healed(self, tmp_path, what):
        stores = open_stores(tmp_path, cluster=True)
        service, ids, states, manifest = self.saved(stores)
        files = stores.files
        key = {"manifest": manifest, "spec": files.manifest_keys(manifest)[0],
               "chunk": state_dict_hashes(states[-1])["5.bias"]}[what]
        owner = files.members[files.ring.owners(key)[0]]
        replace_record(owner, key, flipped(owner.chunks.get(key)))
        ModelManager(service).heal()
        for name in files.ring.owners(key):
            member = files.members[name]
            assert bytes(member.chunks.get(key)) == bytes(
                files.members[files.ring.owners(key)[1]].chunks.get(key))
        fresh = ParameterUpdateSaveService(
            stores.documents, open_stores(tmp_path, cluster=True).files)
        assert_recovers(fresh, ids[-1], states[-1])


class TestSpecLiveness:
    def test_gc_keeps_a_spec_while_a_manifest_names_it_and_sweeps_it_after(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        manager = ModelManager(service)
        first = service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        second = service.save_model(ModelSaveInfo(make_tiny_cnn(seed=2), tiny_arch()))
        [spec] = spec_keys(files)
        manager.delete_model(first)
        manager.garbage_collect()
        assert spec_keys(files) == [spec]  # the second model's manifest names it
        assert service.recover_model(second).verified is True
        manager.delete_model(second)
        assert files.chunks.has(spec)  # until the sweep
        manager.garbage_collect()
        assert spec_keys(files) == []
        assert manager.fsck(verify_chunks=True).clean


class LineageTrees(RuleBasedStateMachine):
    """PUA lineage trees — a random base for every save, random layers
    changed — with deletes and gcs between the saves: every live model
    recovers bitwise with one manifest read, and its layer table is its
    reference state's."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.service = ParameterUpdateSaveService(
            DocumentStore(), FileStore(Path(self.directory.name) / "files"))
        self.manager = ModelManager(self.service)
        model = make_tiny_cnn(seed=3)
        self.live = {self.service.save_model(ModelSaveInfo(model, tiny_arch())):
                     copy_state(model.state_dict())}

    def teardown(self):
        self.directory.cleanup()

    @rule(base=st.integers(min_value=0), changed=st.frozensets(st.sampled_from(FLOAT_LAYERS)),
          shift=st.floats(min_value=0.5, max_value=4.0))
    def save(self, base, changed, shift):
        if not self.live:
            return
        base_id = sorted(self.live)[base % len(self.live)]
        state = copy_state(self.live[base_id])
        for name in changed:
            state[name] += np.float32(shift)
        model_id = self.service.save_model(
            ModelSaveInfo(model_holding(state), tiny_arch(), base_model_id=base_id))
        self.live[model_id] = state

    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        if len(self.live) < 2:
            return
        model_id = sorted(self.live)[pick % len(self.live)]
        self.manager.delete_model(model_id, force=True)  # descendants stand alone
        del self.live[model_id]

    @rule()
    def gc(self):
        self.manager.garbage_collect()

    @invariant()
    def every_live_model_recovers_from_one_manifest(self):
        for model_id, state in self.live.items():
            counts = Counter()
            read = self.service.files.read_manifest
            self.service.files.read_manifest = lambda f: counts.update(["m"]) or read(f)
            try:
                assert_recovers(self.service, model_id, state)
            finally:
                del self.service.files.read_manifest
            assert counts["m"] == 1
            assert self.service.layer_table(model_id) == state_dict_hashes(state)


TestLineageTrees = LineageTrees.TestCase
TestLineageTrees.settings = settings(max_examples=20, stateful_step_count=20, deadline=None)
