"""The content-addressed save/recover pipeline wired through the services.

Per-layer hashes computed exactly once per save (no whole-blob re-hash),
bitwise round-trip equality including over ``SimulatedNetworkFileStore``,
chunk dedup across a chain of full snapshots — and monolithic ``.params``
blobs, which older releases wrote, still recovering beside manifests.
"""

import builtins
import io
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
)
from repro.core import hashing
from repro.docstore import DocumentStore
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.filestore.store import FORMAT_MARKER
from tests.conftest import make_tiny_cnn
from tests.filestore.older_release import reopened
from tests.filestore.retired_formats import RetiredFormatStore


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_chunked_pipeline", "build_probe_model", {"num_classes": 10}
    )


def perturbed(base_model, *, level):
    """A copy of ``base_model`` with only the final bias changed."""
    model = make_tiny_cnn()
    state = {k: v.copy() for k, v in base_model.state_dict().items()}
    state["5.bias"] = state["5.bias"] + float(level)
    model.load_state_dict(state)
    return model


class TestHashOncePerSave:
    def test_chunked_save_hashes_each_layer_exactly_once(
        self, mem_doc_store, file_store, monkeypatch
    ):
        service = BaselineSaveService(mem_doc_store, file_store)
        model = make_tiny_cnn(seed=5)
        n_layers = len(model.state_dict())

        calls = {"tensor_hash": 0}
        real_tensor_hash = hashing.tensor_hash

        def counting_tensor_hash(array):
            calls["tensor_hash"] += 1
            return real_tensor_hash(array)

        monkeypatch.setattr(hashing, "tensor_hash", counting_tensor_hash)
        service.save_model(ModelSaveInfo(model, tiny_arch(), store_checksums=True))
        assert calls["tensor_hash"] == n_layers

    def test_chunked_save_never_rehashes_the_whole_parameter_blob(
        self, mem_doc_store, file_store, monkeypatch
    ):
        """A file id (the SHA-256 of its whole payload) is only made for
        small metadata files on the chunked path — never for the
        serialized parameter payload."""
        service = BaselineSaveService(mem_doc_store, file_store)
        model = make_tiny_cnn(seed=6)
        param_bytes = sum(a.nbytes for a in model.state_dict().values())

        blobs = []
        real_new_file_id = FileStore._new_file_id

        def recording_new_file_id(data, suffix=""):
            blobs.append((len(data), suffix))
            return real_new_file_id(data, suffix)

        monkeypatch.setattr(FileStore, "_new_file_id", staticmethod(recording_new_file_id))
        service.save_model(ModelSaveInfo(model, tiny_arch(), store_checksums=True))
        assert blobs, "expected metadata blobs (code, manifest)"
        # the serialized parameter payload never gets a file id; only the
        # architecture code and a small manifest do
        assert all(suffix != ".params" for _, suffix in blobs)
        non_code = [size for size, suffix in blobs if suffix != ".py"]
        assert max(non_code) < param_bytes


class TestRoundTrip:
    # False: the monolithic ``.params`` blob older releases wrote
    @pytest.mark.parametrize("chunked", [True, False])
    def test_baseline_round_trip_bitwise(self, mem_doc_store, tmp_path, chunked):
        files = RetiredFormatStore(tmp_path / "files", manifest="v3" if chunked else "params")
        service = BaselineSaveService(mem_doc_store, files)
        model = make_tiny_cnn(seed=7)
        model_id = service.save_model(
            ModelSaveInfo(model, tiny_arch(), store_checksums=True)
        )
        if not chunked:  # imported before this release opens it
            service = reopened(service)
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        state, out = model.state_dict(), recovered.model.state_dict()
        for key in state:
            assert np.array_equal(state[key], out[key])

    def test_pua_chain_round_trip_over_network_store(self, mem_doc_store, tmp_path):
        files = SimulatedNetworkFileStore(
            tmp_path / "net-files", NetworkModel(bandwidth_bytes_per_s=1e9), sleep=False
        )
        service = ParameterUpdateSaveService(mem_doc_store, files)
        root_model = make_tiny_cnn(seed=8)
        ids = [service.save_model(ModelSaveInfo(root_model, tiny_arch()))]
        models = [root_model]
        for level in range(1, 4):
            derived = perturbed(models[-1], level=level)
            ids.append(
                service.save_model(
                    ModelSaveInfo(derived, tiny_arch(), base_model_id=ids[-1])
                )
            )
            models.append(derived)
        for model_id, model in zip(ids, models):
            recovered = service.recover_model(model_id, verify=True)
            assert recovered.verified is True  # Merkle root matches
            state, out = model.state_dict(), recovered.model.state_dict()
            for key in state:
                assert np.array_equal(state[key], out[key])

    def test_chunked_and_monolithic_documents_coexist(self, mem_doc_store, tmp_path):
        """Format compatibility: a catalog an older release left mixing both
        layouts is imported as one."""
        legacy = BaselineSaveService(
            mem_doc_store, RetiredFormatStore(tmp_path / "files", manifest="params"))
        model = make_tiny_cnn(seed=9)
        id_legacy = legacy.save_model(ModelSaveInfo(model, tiny_arch()))
        chunked = BaselineSaveService(mem_doc_store, FileStore(tmp_path / "files"))
        id_chunked = chunked.save_model(ModelSaveInfo(model, tiny_arch()))
        models = mem_doc_store.collection("models")
        assert models.get(id_legacy)["parameters_file"].endswith(".params")
        assert models.get(id_chunked)["parameters_file"].endswith(".params.manifest")
        # the import rewrites the monolithic level in its copy
        upgraded = reopened(chunked)
        imported_models = upgraded.documents.collection("models")
        assert imported_models.get(id_legacy)["parameters_file"].endswith(".params.manifest")
        assert models.get(id_legacy)["parameters_file"].endswith(".params")  # only read
        # any service instance recovers either document
        for service in (upgraded, ParameterUpdateSaveService(upgraded.documents, upgraded.files)):
            for model_id in (id_chunked, id_legacy):
                out = service.recover_model(model_id).model.state_dict()
                for key, value in model.state_dict().items():
                    assert np.array_equal(out[key], value)


class TestDedup:
    def snapshot_chain(self, service, length=5):
        base = make_tiny_cnn(seed=11)
        ids = [service.save_model(ModelSaveInfo(base, tiny_arch()))]
        current = base
        for level in range(1, length):
            current = perturbed(current, level=level)
            ids.append(service.save_model(ModelSaveInfo(current, tiny_arch())))
        return ids

    def test_chain_of_snapshots_dedups_unchanged_layers(self, mem_doc_store, tmp_path):
        chunked_files = FileStore(tmp_path / "chunked")
        mono_files = RetiredFormatStore(tmp_path / "mono", manifest="params")
        self.snapshot_chain(BaselineSaveService(DocumentStore(), chunked_files))
        self.snapshot_chain(BaselineSaveService(DocumentStore(), mono_files))

        def param_storage(store):
            # exclude the per-save architecture code blobs, which dominate
            # a tiny model's parameters and are identical in both stores
            code = sum(store.size(f) for f in store.file_ids() if f.endswith(".py"))
            return store.total_bytes() - code

        # partially-updated snapshots share all but one layer: the chunked
        # store keeps one physical copy of every unchanged layer
        assert param_storage(chunked_files) < 0.7 * param_storage(mono_files)

    def test_delete_and_gc_reclaim_chunks(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        ids = self.snapshot_chain(service, length=3)
        manager = ModelManager(service)
        for model_id in ids:
            manager.delete_model(model_id, force=True)
        stats = manager.garbage_collect()
        assert len(file_store.chunks) == 0
        # a delete drops the model document alone: each manifest and code
        # file waits for gc
        assert stats["files_removed"] == 2 * len(ids)


class TestNoFileUnderTheRoot:
    """Every byte a save stores is a segment record: no save creates a
    regular file directly under the store root, nor a log of its own
    (DESIGN.md §6)."""

    @pytest.mark.parametrize("kind", ["BA", "PUA initial", "PUA derived", "MPA"])
    def test_a_save_creates_no_file_in_the_root(self, tmp_path, kind):
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        documents, files = DocumentStore(), FileStore(tmp_path / "files")
        pua = ParameterUpdateSaveService(documents, files)
        base = make_tiny_cnn(seed=12)
        base_id = pua.save_model(ModelSaveInfo(base, tiny_arch()))
        if kind == "MPA":
            run = TrainingRun(
                dataset_dir=generate_dataset("co512", tmp_path / "data", scale=1 / 2048),
                number_epochs=1, number_batches=1, seed=2, image_size=8,
                num_classes=10,
            )
            trained = perturbed(base, level=0)
            run.execute(trained)

        def root_entries():
            return sorted(p.name for p in files.root.iterdir())

        # a fresh store's first save: marked when it was created, no log
        assert root_entries() == [FORMAT_MARKER, "chunks"]
        before = set(files.file_ids())
        if kind == "BA":
            BaselineSaveService(documents, files).save_model(
                ModelSaveInfo(perturbed(base, level=1), tiny_arch()))
        elif kind == "PUA initial":
            pua.save_model(ModelSaveInfo(perturbed(base, level=1), tiny_arch()))
        elif kind == "PUA derived":
            pua.save_model(ModelSaveInfo(
                perturbed(base, level=1), tiny_arch(), base_model_id=base_id))
        else:
            ProvenanceSaveService(
                documents, files, scratch_dir=tmp_path / "scratch").save_model(
                run.to_provenance_info(base_id, trained_model=trained))
        assert set(files.file_ids()) > before  # the save did store files
        assert root_entries() == [FORMAT_MARKER, "chunks"]

    @pytest.mark.parametrize("kind", ["BA", "PUA derived"])
    def test_a_warm_save_creates_no_file_anywhere_under_the_root(
        self, tmp_path, monkeypatch, kind
    ):
        """Not in the root, not in a directory of its own, not even one a
        save unlinks again: every file an open creates during the save is
        counted."""
        documents, files = DocumentStore(), FileStore(tmp_path / "files")
        pua = ParameterUpdateSaveService(documents, files)
        base = make_tiny_cnn(seed=12)
        base_id = pua.save_model(ModelSaveInfo(base, tiny_arch()))
        pua.save_model(ModelSaveInfo(perturbed(base, level=1), tiny_arch()))
        created = []

        def is_new(path) -> bool:
            path = Path(os.fsdecode(path)) if not isinstance(path, int) else None
            return (path is not None and not path.exists()
                    and files.root in path.absolute().parents)

        real_os_open, real_open = os.open, io.open

        def spy_os_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT and is_new(path):
                created.append(path)
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax") and is_new(file):
                created.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        if kind == "BA":
            BaselineSaveService(documents, files).save_model(
                ModelSaveInfo(perturbed(base, level=2), tiny_arch()))
        else:
            pua.save_model(ModelSaveInfo(
                perturbed(base, level=2), tiny_arch(), base_model_id=base_id))
        monkeypatch.undo()
        assert created == []
