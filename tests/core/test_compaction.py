"""Chain compaction: bounded recovery depth, a swap committed by its document,
and promote / squash running the same swap."""

import numpy as np
import pytest

from repro.cluster import ShardedFileStore
from repro.core import (
    ArchitectureRef,
    ChainCompactor,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
)
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_compaction", "build_probe_model", {"num_classes": 10}
    )


def save_chain(service, length):
    """One root snapshot plus ``length`` PUA deltas; returns (ids, states)."""
    model = make_tiny_cnn(seed=1)
    ids = [service.save_model(ModelSaveInfo(model, tiny_arch(), use_case="U_1"))]
    states = {ids[0]: {k: v.copy() for k, v in model.state_dict().items()}}
    for _ in range(length):
        state = {k: v.copy() for k, v in model.state_dict().items()}
        state["5.bias"] = state["5.bias"] + 1.0
        model = make_tiny_cnn()
        model.load_state_dict(state)
        model_id = service.save_model(
            ModelSaveInfo(model, tiny_arch(), base_model_id=ids[-1])
        )
        ids.append(model_id)
        states[model_id] = state
    return ids, states


def assert_bitwise(service, ids, states):
    for model_id in ids:
        recovered = service.recover_model(model_id, verify=True)
        got = recovered.model.state_dict()
        assert set(got) == set(states[model_id])
        for key, want in states[model_id].items():
            assert np.array_equal(np.asarray(got[key]), np.asarray(want)), (
                model_id, key)


@pytest.fixture
def setup(mem_doc_store, file_store):
    service = ParameterUpdateSaveService(mem_doc_store, file_store)
    return service, ModelManager(service)


class TestPlanAndRun:
    def test_compact_bounds_depth_and_keeps_recovery_bitwise(self, setup):
        service, manager = setup
        ids, states = save_chain(service, 6)
        assert service.recover_model(ids[-1]).recovery_depth == 6

        report = manager.compact(max_depth=4)
        assert [m["model_id"] for m in report["materialized"]] == [ids[4]]

        assert_bitwise(service, ids, states)
        assert service.recover_model(ids[-1]).recovery_depth == 2
        assert service.recover_model(ids[4]).recovery_depth == 0

    def test_lineage_and_ids_survive_compaction(self, setup):
        service, manager = setup
        ids, _ = save_chain(service, 5)
        manager.compact(max_depth=4)
        assert service.base_chain(ids[-1]) == list(reversed(ids))
        document = service.documents.collection("models").get(ids[4])
        assert document["base_model"] == ids[3]
        assert document["parameters_file"]
        assert document["compacted"]["from_depth"] == 4
        assert "update_file" not in document

    def test_dry_run_plans_without_rewriting(self, setup):
        service, manager = setup
        ids, _ = save_chain(service, 5)
        report = manager.compact(max_depth=4, dry_run=True)
        assert [p["model_id"] for p in report["planned"]] == [ids[4]]
        assert report["materialized"] == []
        assert service.recover_model(ids[-1]).recovery_depth == 5

    def test_second_run_is_a_no_op(self, setup):
        service, manager = setup
        save_chain(service, 6)
        manager.compact(max_depth=4)
        report = manager.compact(max_depth=4)
        assert report["planned"] == []
        assert report["materialized"] == []

    def test_long_chain_materializes_every_k_levels(self, setup):
        service, manager = setup
        ids, states = save_chain(service, 9)
        report = manager.compact(max_depth=4)
        # depth resets at each planned node: 4 and 8 get materialized
        assert [m["model_id"] for m in report["materialized"]] == [ids[4], ids[8]]
        assert_bitwise(service, ids, states)
        assert service.recover_model(ids[-1]).recovery_depth == 1

    def test_released_bytes_reported_and_snapshots_skipped(self, setup):
        service, manager = setup
        ids, _ = save_chain(service, 4)
        report = manager.compact(max_depth=4)
        assert report["released_bytes"] > 0
        compactor = ChainCompactor(service)
        outcome = compactor.compact_model(ids[0])  # already a snapshot
        assert outcome["released_bytes"] == 0

    def test_max_depth_validation(self, setup):
        service, manager = setup
        with pytest.raises(ValueError):
            ChainCompactor(service, max_depth=0)
        with pytest.raises(ValueError):  # 0 is not "the default"
            manager.compact(max_depth=0)

    def test_fsck_stays_clean_after_compaction(self, setup):
        service, manager = setup
        save_chain(service, 6)
        manager.compact(max_depth=4)
        report = manager.fsck()
        assert report.clean, report.summary()


#: Where a rewrite can die: each step of the swap, and (``promote``)
#: between promote's materializing commit and its severing one.
CRASH_POINTS = ("compact.artifacts", "compact.commit", "compact.cleanup", "promote")


def open_stores(kind, root):
    """A service + manager over one file store or a six-member R=2 cluster."""
    if kind == "single":
        files = FileStore(root / "files")
    else:
        members = {f"m{i}": FileStore(root / f"m{i}") for i in range(6)}
        files = ShardedFileStore(root / "meta", members, replicas=2)
    service = ParameterUpdateSaveService(DocumentStore(), files)
    return service, ModelManager(service)


def crash(service, manager, ids, point, monkeypatch):
    """Run the rewrite of ``ids[4]`` that ``point`` names and kill it there."""
    if point == "promote":
        materialize = ChainCompactor.compact_model

        def materialize_then_die(self, *args, **kwargs):
            materialize(self, *args, **kwargs)
            raise CrashPoint("between promote's two commits")

        monkeypatch.setattr(ChainCompactor, "compact_model", materialize_then_die)
        with pytest.raises(CrashPoint):
            manager.promote_to_snapshot(ids[4])
        monkeypatch.undo()
        return
    faults = FaultInjector(seed=0)
    compactor = ChainCompactor(service, max_depth=4)
    compactor.fault_hook = faults.fail_point
    faults.arm_crash(1, op=point)
    with pytest.raises(CrashPoint):
        compactor.run()


class TestCrashSafety:
    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_crash_at_every_swap_step_recovers_bitwise(self, kind, tmp_path, monkeypatch):
        """Kill the rewrite at each step: every model recovers bitwise before
        any repair, and what the crash left is unreferenced records only —
        one fsck pass repairs all of it, and so does a plain GC."""
        for point in CRASH_POINTS:
            for remedy in ("fsck", "gc"):
                service, manager = open_stores(kind, tmp_path / f"{point}-{remedy}")
                ids, states = save_chain(service, 5)
                crash(service, manager, ids, point, monkeypatch)
                assert_bitwise(service, ids, states)  # before repair
                if remedy == "fsck":
                    report = manager.fsck()
                    assert not report.unrepaired, (point, report.summary())
                else:
                    manager.garbage_collect()
                assert manager.fsck().clean, (point, remedy)
                assert_bitwise(service, ids, states)
                # the next rewrite finishes the job
                if point == "promote":
                    manager.promote_to_snapshot(ids[4])
                    document = service.documents.collection("models").get(ids[4])
                    assert document["base_model"] is None
                else:
                    manager.compact(max_depth=4)
                assert manager.compact(max_depth=4)["planned"] == []
                assert service.recover_model(ids[-1]).recovery_depth == 1
                assert_bitwise(service, ids, states)
                assert manager.fsck().clean, (point, remedy)

    def test_uncommitted_swap_rolls_back(self, setup):
        """A crash before the document update publishes nothing: the old
        delta stays, and fsck reclaims the new manifest and code copy."""
        service, manager = setup
        ids, states = save_chain(service, 4)
        files_before = set(service.files.file_ids())
        faults = FaultInjector(seed=0)
        compactor = ChainCompactor(service, max_depth=4)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op="compact.commit")
        with pytest.raises(CrashPoint):
            compactor.run()
        document = service.documents.collection("models").get(ids[4])
        assert not document.get("parameters_file")
        assert document.get("update_file")
        orphans = set(service.files.file_ids()) - files_before
        assert {file_id.rpartition(".")[2] for file_id in orphans} == {"py", "manifest"}
        report = manager.fsck()
        assert {issue.kind for issue in report.repaired} >= {"orphan_file"}
        assert not report.unrepaired, report.summary()
        assert set(service.files.file_ids()) == files_before
        assert_bitwise(service, ids, states)
        assert service.recover_model(ids[4]).recovery_depth == 4

    def test_committed_swap_rolls_forward(self, setup):
        """A crash after the document update leaves the old delta behind,
        unreferenced: fsck drops it and the new base stands."""
        service, manager = setup
        ids, states = save_chain(service, 4)
        old_update = service.documents.collection("models").get(ids[4])["update_file"]
        faults = FaultInjector(seed=0)
        compactor = ChainCompactor(service, max_depth=4)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op="compact.cleanup")
        with pytest.raises(CrashPoint):
            compactor.run()
        assert service.files.exists(old_update)
        report = manager.fsck()
        assert not report.unrepaired, report.summary()
        assert not service.files.exists(old_update)
        assert manager.fsck().clean
        assert_bitwise(service, ids, states)
        assert service.recover_model(ids[4]).recovery_depth == 0

    def test_fsck_without_repair_reports_the_superseded_delta(self, setup):
        service, manager = setup
        ids, _ = save_chain(service, 4)
        old_update = service.documents.collection("models").get(ids[4])["update_file"]
        faults = FaultInjector(seed=0)
        compactor = ChainCompactor(service, max_depth=4)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op="compact.cleanup")
        with pytest.raises(CrashPoint):
            compactor.run()
        report = manager.fsck(repair=False)
        assert any(
            issue.kind == "orphan_file" and old_update in issue.detail
            for issue in report.unrepaired), report.summary()
        assert service.files.exists(old_update)  # untouched
        manager.fsck(repair=True)
        assert not service.files.exists(old_update)
        assert manager.fsck().clean


class TestPromoteRunsTheSwap:
    def test_squashing_a_compacted_model_deletes_its_exclusive_ancestors(self, setup):
        service, manager = setup
        ids, states = save_chain(service, 5)
        manager.compact(max_depth=4)
        assert manager.squash_chain(ids[4]) == 4
        assert service.saved_model_ids() == sorted(ids[4:])
        document = service.documents.collection("models").get(ids[4])
        assert document["base_model"] is None
        assert document["promoted_from"] == ids[3]
        assert_bitwise(service, ids[4:], states)
        assert manager.fsck().clean

    def test_promote_of_an_mpa_level_releases_its_training_record(self, tmp_path):
        from repro.workloads import generate_dataset
        from repro.workloads.relations import TrainingRun

        documents = DocumentStore()
        service = ProvenanceSaveService(
            documents, FileStore(tmp_path / "files"), scratch_dir=tmp_path / "s")
        manager = ModelManager(service)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        run = TrainingRun(
            dataset_dir=generate_dataset("co512", tmp_path / "data", scale=1 / 2048),
            number_epochs=1, number_batches=1, seed=2, image_size=8, num_classes=10,
        )
        model = make_tiny_cnn()
        model.load_state_dict(base.state_dict())
        run.execute(model)
        model_id = service.save_model(run.to_provenance_info(base_id, trained_model=model))
        states = {model_id: {k: v.copy() for k, v in model.state_dict().items()}}

        document = documents.collection("models").get(model_id)
        train_id = document["train_info_id"]
        wrapper_ids = [
            value for key, value in documents.collection("train_info").get(train_id).items()
            if key.endswith("_wrapper") and isinstance(value, str)]
        state_files = [documents.collection("wrappers").get(w).get("state_file_id")
                       for w in wrapper_ids]
        released = [document["provenance"]["dataset_file_id"]] + list(filter(None, state_files))
        assert len(released) > 1 and all(service.files.exists(f) for f in released)

        manager.promote_to_snapshot(model_id)
        document = documents.collection("models").get(model_id)
        assert document["base_model"] is None and document["parameters_file"]
        assert "train_info_id" not in document and "provenance" not in document
        assert documents.collection("train_info").count() == 0
        assert documents.collection("wrappers").count() == 0
        assert not any(service.files.exists(f) for f in released)
        manager.delete_model(base_id)
        assert_bitwise(service, [model_id], states)
        assert service.recover_model(model_id).recovery_depth == 0
        assert manager.fsck().clean
