"""Failure injection: corrupted stores, broken references, torn payloads.

A model-management system's error paths matter as much as its happy paths:
these tests corrupt each persistence layer in turn and check that recovery
fails *loudly and precisely* instead of returning a wrong model.
"""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    RecoveryError,
    VerificationError,
)
from repro.core.schema import ENVIRONMENTS, MODELS, TRAIN_INFO, WRAPPERS
from repro.nn import serialization
from tests.conftest import make_tiny_cnn, replace_record


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_failure_injection", "build_probe_model", {"num_classes": 10}
    )


def perturb(model, key="5.bias"):
    derived = make_tiny_cnn()
    state = {k: v.copy() for k, v in model.state_dict().items()}
    state[key] = state[key] + 1.0
    derived.load_state_dict(state)
    return derived


class TestFileCorruption:
    def test_flipped_bit_in_parameters_detected(self, mem_doc_store, file_store):
        """Corruption inside a stored file trips the digest check."""
        service = BaselineSaveService(mem_doc_store, file_store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        file_id = document["parameters_file"]
        data = bytearray(file_store.chunks.get(file_id))
        data[len(data) // 2] ^= 0xFF
        replace_record(file_store, file_id, bytes(data))
        with pytest.raises(IOError, match="corrupt"):
            service.recover_model(model_id)

    def test_deleted_parameters_file(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        file_store.delete(document["parameters_file"])
        with pytest.raises(KeyError):
            service.recover_model(model_id)

    def test_corrupt_update_file_mid_chain(self, mem_doc_store, file_store):
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        middle = perturb(base)
        middle_id = service.save_model(
            ModelSaveInfo(middle, tiny_arch(), base_model_id=base_id)
        )
        top = perturb(middle)
        top_id = service.save_model(
            ModelSaveInfo(top, tiny_arch(), base_model_id=middle_id)
        )
        middle_doc = mem_doc_store.collection(MODELS).get(middle_id)
        file_id = middle_doc["parameters_file"]
        data = bytearray(file_store.chunks.get(file_id))
        data[-1] ^= 0x01
        replace_record(file_store, file_id, bytes(data))
        with pytest.raises(IOError, match="corrupt"):
            service.recover_model(middle_id)
        # the tip names every layer in its own manifest: it reads nothing
        # of the middle's
        assert service.recover_model(top_id).verified is True


class TestDocumentTampering:
    def test_swapped_update_file_caught_by_checksum(self, mem_doc_store, file_store):
        """Pointing a model at the *wrong* (but valid) update is caught by
        the Merkle-root verification, not the file digest."""
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        a = perturb(base)
        a_id = service.save_model(ModelSaveInfo(a, tiny_arch(), base_model_id=base_id))
        b = perturb(base, key="5.weight")
        b_id = service.save_model(ModelSaveInfo(b, tiny_arch(), base_model_id=base_id))

        doc_a = mem_doc_store.collection(MODELS).get(a_id)
        doc_b = mem_doc_store.collection(MODELS).get(b_id)
        doc_a["parameters_file"] = doc_b["parameters_file"]
        mem_doc_store.collection(MODELS).replace_one(a_id, doc_a)
        with pytest.raises(VerificationError):
            service.recover_model(a_id)

    def test_missing_environment_document_fails_env_check_only(
        self, mem_doc_store, file_store
    ):
        service = BaselineSaveService(mem_doc_store, file_store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        mem_doc_store.collection(ENVIRONMENTS).delete_one(document["environment_id"])
        # without the env check recovery still works...
        assert service.recover_model(model_id).verified is True
        # ...with it, the dangling reference surfaces
        with pytest.raises(KeyError):
            service.recover_model(model_id, check_env=True)

    def test_document_without_recovery_route(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        del document["parameters_file"]
        document["approach"] = "mystery"
        mem_doc_store.collection(MODELS).replace_one(model_id, document)
        with pytest.raises(RecoveryError, match="neither parameters"):
            service.recover_model(model_id)


class TestTornPayloads:
    def test_truncated_serialization_fails_cleanly(self):
        payload = serialization.dumps({"w": np.ones((8, 8))})
        with pytest.raises(Exception):
            serialization.loads(payload[: len(payload) // 2 - 3])

    def test_truncated_parameters_file(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(model_id)
        file_id = document["parameters_file"]
        replace_record(file_store, file_id, bytes(file_store.chunks.get(file_id))[:100])
        with pytest.raises(Exception):
            service.recover_model(model_id)


class TestWrapperFailures:
    def test_missing_wrapper_document(self, mem_doc_store, file_store, tmp_path):
        from repro.core import ProvenanceSaveService
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        service = ProvenanceSaveService(mem_doc_store, file_store, scratch_dir=tmp_path)
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        dataset_root = generate_dataset("co512", tmp_path / "d", scale=1 / 2048)
        run = TrainingRun(
            dataset_dir=dataset_root, number_epochs=1, number_batches=1,
            seed=1, image_size=8, num_classes=10,
        )
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        run.execute(model)
        model_id = service.save_model(run.to_provenance_info(base_id, trained_model=model))

        document = mem_doc_store.collection(MODELS).get(model_id)
        train_document = mem_doc_store.collection(TRAIN_INFO).get(document["train_info_id"])
        mem_doc_store.collection(WRAPPERS).delete_one(train_document["optimizer_wrapper"])
        with pytest.raises(KeyError):
            service.recover_model(model_id)

    def test_deleted_state_file(self, mem_doc_store, file_store, tmp_path):
        from repro.core import ProvenanceSaveService
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        service = ProvenanceSaveService(mem_doc_store, file_store, scratch_dir=tmp_path)
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        dataset_root = generate_dataset("co512", tmp_path / "d", scale=1 / 2048)
        run = TrainingRun(
            dataset_dir=dataset_root, number_epochs=1, number_batches=1,
            seed=1, image_size=8, num_classes=10,
        )
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        run.execute(model)
        model_id = service.save_model(run.to_provenance_info(base_id, trained_model=model))

        document = mem_doc_store.collection(MODELS).get(model_id)
        train_document = mem_doc_store.collection(TRAIN_INFO).get(document["train_info_id"])
        wrapper = mem_doc_store.collection(WRAPPERS).get(train_document["optimizer_wrapper"])
        file_store.delete(wrapper["state_file_id"])
        with pytest.raises(KeyError):
            service.recover_model(model_id)
