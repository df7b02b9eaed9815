"""Adaptive save service: per-save approach routing (§4.7)."""

import numpy as np
import pytest

from repro.core import (
    APPROACH_BASELINE,
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
    AdaptiveSaveService,
    ArchitectureRef,
    ModelSaveInfo,
)
from repro.core.errors import SaveError
from repro.core.param_update import BASE_FIELDS
from repro.core.schema import MODELS
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_adaptive", "build_probe_model", {"num_classes": 10}
    )


@pytest.fixture
def service(mem_doc_store, file_store, tmp_path):
    return AdaptiveSaveService(
        mem_doc_store, file_store, scratch_dir=tmp_path / "scratch"
    )


def perturb_classifier(base):
    derived = make_tiny_cnn()
    state = {k: v.copy() for k, v in base.state_dict().items()}
    state["5.bias"] = state["5.bias"] + 1.0
    derived.load_state_dict(state)
    return derived


class TestSnapshotRouting:
    def test_initial_model_goes_to_baseline(self, service, mem_doc_store):
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        assert service.last_choice.approach == APPROACH_BASELINE
        document = mem_doc_store.collection(MODELS).get(model_id)
        assert document["parameters_file"]

    def test_sparse_update_goes_to_pua(self, service, mem_doc_store):
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = perturb_classifier(base)
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )
        assert service.last_choice.approach == APPROACH_PARAM_UPDATE
        document = mem_doc_store.collection(MODELS).get(derived_id)
        assert document["approach"] == APPROACH_PARAM_UPDATE and document["parameters_file"]

    def test_profiling_reads_only_the_fields_it_needs(self, service, mem_doc_store, monkeypatch):
        """The base document is never copied whole; once the PUA service
        caches the base's tree, the profile reads the base's root only."""
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        first = perturb_classifier(base)
        first_id = service.save_model(ModelSaveInfo(first, tiny_arch(), base_model_id=base_id))
        assert service.last_choice.approach == APPROACH_PARAM_UPDATE
        models = mem_doc_store.collection(MODELS)
        reads = []
        real_get = models.get
        monkeypatch.setattr(
            models, "get", lambda doc_id, projection=None: reads.append(
                (doc_id, projection)) or real_get(doc_id, projection=projection))
        service.save_model(
            ModelSaveInfo(perturb_classifier(first), tiny_arch(), base_model_id=first_id))
        assert service.last_choice.approach == APPROACH_PARAM_UPDATE
        projections = [projection for doc_id, projection in reads if doc_id == first_id]
        assert None not in projections
        assert BASE_FIELDS in projections

    def test_fully_changed_derived_model_not_forced_to_pua(self, service):
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        unrelated = make_tiny_cnn(seed=99)
        service.save_model(ModelSaveInfo(unrelated, tiny_arch(), base_model_id=base_id))
        # a fully changed model gains nothing from the PUA; either route is
        # acceptable cost-wise, but the profile must say ~100% updated
        assert service.last_choice.storage_bytes >= 0.9 * sum(
            v.nbytes for v in unrelated.state_dict().values()
        )

    def test_base_without_hashes_forces_baseline(self, service, mem_doc_store):
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        document = mem_doc_store.collection(MODELS).get(base_id)
        del document["merkle_root"]  # a base has a layer table iff it stores a root
        mem_doc_store.collection(MODELS).replace_one(base_id, document)
        service.save_model(
            ModelSaveInfo(perturb_classifier(base), tiny_arch(), base_model_id=base_id)
        )
        assert service.last_choice.approach == APPROACH_BASELINE

    def test_pua_feasibility_reads_no_manifest(self, service, file_store, monkeypatch):
        """Whether a base has a layer table is decided from its document: a
        PUA chain's tip is a feasible base without its chain being walked."""
        pua = service._services[APPROACH_PARAM_UPDATE]
        model = make_tiny_cnn()
        tip_id = pua.save_model(ModelSaveInfo(model, tiny_arch()))
        for _ in range(3):
            model = perturb_classifier(model)
            tip_id = pua.save_model(ModelSaveInfo(model, tiny_arch(), base_model_id=tip_id))
        reads = []
        read_manifest = file_store.read_manifest
        monkeypatch.setattr(
            file_store, "read_manifest", lambda file_id: reads.append(file_id) or read_manifest(file_id))
        info = ModelSaveInfo(perturb_classifier(model), tiny_arch(), base_model_id=tip_id)
        assert APPROACH_PARAM_UPDATE in service._feasible_approaches(info)
        assert reads == []


class TestProvenanceRouting:
    @pytest.fixture
    def recorded_run(self, tmp_path):
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        dataset_root = generate_dataset("co512", tmp_path / "data", scale=1 / 2048)
        run = TrainingRun(
            dataset_dir=dataset_root,
            number_epochs=1,
            number_batches=1,
            seed=5,
            image_size=8,
            num_classes=10,
        )
        return run

    def test_small_dataset_routes_to_mpa(self, service, recorded_run):
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        recorded_run.execute(model)
        info = recorded_run.to_provenance_info(base_id, trained_model=model)
        model_id = service.save_model(info)
        # tiny CNN (~13 KB) vs ~100 KB dataset: snapshot is cheaper -> no MPA
        assert service.last_choice.approach in (APPROACH_BASELINE, APPROACH_PARAM_UPDATE)
        recovered = service.recover_model(model_id)
        expected = model.state_dict()
        got = recovered.model.state_dict()
        assert all(np.array_equal(expected[k], got[k]) for k in expected)

    def test_external_dataset_routes_to_mpa(self, service, recorded_run):
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        recorded_run.execute(model)
        info = recorded_run.to_provenance_info(base_id, trained_model=model)
        info.dataset_reference = "s3://lake/co512"
        dataset_root = info.dataset_dir
        info.dataset_dir = None
        model_id = service.save_model(info)
        assert service.last_choice.approach == APPROACH_PROVENANCE
        recovered = service.recover_model(
            model_id, execution_env={"dataset_root": str(dataset_root)}
        )
        assert recovered.verified is True

    def test_provenance_info_requires_expected_model(self, service, recorded_run):
        base_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))
        model = make_tiny_cnn()
        recorded_run.execute(model)
        info = recorded_run.to_provenance_info(base_id)  # no trained model
        with pytest.raises(SaveError, match="expected_model"):
            service.save_model(info)


class TestConstraints:
    def test_storage_bound_forces_pua(self, mem_doc_store, file_store, tmp_path):
        base = make_tiny_cnn()
        model_bytes = sum(v.nbytes for v in base.state_dict().values())
        service = AdaptiveSaveService(
            mem_doc_store,
            file_store,
            scratch_dir=tmp_path / "s",
            max_storage_bytes=model_bytes * 2,  # roomy for the initial save
        )
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        service.max_storage_bytes = model_bytes * 0.1  # tight for updates
        service.save_model(
            ModelSaveInfo(perturb_classifier(base), tiny_arch(), base_model_id=base_id)
        )
        assert service.last_choice.approach == APPROACH_PARAM_UPDATE

    def test_unsatisfiable_constraints_raise(self, mem_doc_store, file_store, tmp_path):
        service = AdaptiveSaveService(
            mem_doc_store, file_store, scratch_dir=tmp_path / "s", max_storage_bytes=1
        )
        with pytest.raises(SaveError, match="constraints"):
            service.save_model(ModelSaveInfo(make_tiny_cnn(), tiny_arch()))


class TestMixedChainRecovery:
    def test_mixed_approach_chain_recovers(self, service):
        """Adaptive saves can interleave approaches along one chain."""
        base = make_tiny_cnn()
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        level1 = perturb_classifier(base)
        level1_id = service.save_model(
            ModelSaveInfo(level1, tiny_arch(), base_model_id=base_id)
        )
        level2 = perturb_classifier(level1)
        level2_id = service.save_model(
            ModelSaveInfo(level2, tiny_arch(), base_model_id=level1_id)
        )
        recovered = service.recover_model(level2_id)
        expected = level2.state_dict()
        got = recovered.model.state_dict()
        assert all(np.array_equal(expected[k], got[k]) for k in expected)
