"""Crash-consistent saves: kill a save at every step, fsck repairs all.

The tentpole robustness guarantee: a save is atomic under process death.
It commits by its model document's insert and writes no log of its own.
Whatever operation the process dies on, ``ModelManager.fsck`` restores
every storage invariant: a save that died before the insert leaves the
stores exactly as it found them (its records and documents are orphans
fsck's sweep and orphan-document sweep reclaim), one that died after
it is saved and recovers bitwise, no previously saved model is lost, and
a subsequent save succeeds.  Single store and 3x2 cluster alike.

A delete commits by the model document's delete alone, so a delete and
the gc after it, killed at any operation, leave the model either listed
and recoverable or gone with only orphans for fsck to reclaim.
"""

import numpy as np
import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveInfo,
    ProvenanceSaveService,
    TrainRunSpec,
)
from repro.core.schema import ENVIRONMENTS, MODELS, TRAIN_INFO, WRAPPERS
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import ChunkStore, FileStore
from repro.nn import rng
from repro.retry import RetryPolicy
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import ShiftTrainService


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_crash_consistency", "build_probe_model", {"num_classes": 10}
    )


def assert_states_equal(model, other):
    for key, value in model.state_dict().items():
        assert np.array_equal(value, other.state_dict()[key]), key


SERVICES = [BaselineSaveService, ParameterUpdateSaveService, ProvenanceSaveService]


def catalog(manager) -> set[str]:
    return {record.model_id for record in manager.list_models()}


def store_state(manager) -> dict:
    """What a save that never committed must leave as it found it: the
    catalog, the file and chunk ids (a cluster's member by member) and the
    documents a save puts beside its model's."""
    files, documents = manager.files, manager.documents
    stores = getattr(files, "members", {"": files})
    state = {
        "catalog": catalog(manager),
        "files": sorted(files.file_ids()),
        "chunks": {name: sorted(member.chunks.chunk_ids())
                   for name, member in stores.items()},
    }
    for name in (ENVIRONMENTS, TRAIN_INFO, WRAPPERS):
        state[name] = sorted(documents.collection(name).find(), key=lambda d: d["_id"])
    return state


def assert_repaired(service, manager, before: dict, victim, label: str) -> set[str]:
    """fsck after a crashed save: nothing left unrepaired and a second pass
    clean.  A crash before the model document's insert leaves the stores
    exactly as ``before``; one after it leaves one more model, which
    recovers bitwise.  Returns the committed model's id, if any."""
    report = manager.fsck()
    assert not report.unrepaired, f"{label}: {report.summary()}"
    assert manager.fsck().clean, f"{label}: second fsck dirty"
    added = catalog(manager) - before["catalog"]
    documents = manager.documents
    for model_id in added if hasattr(documents, "ring") else ():
        # a cluster's fsck restored the committing insert to every owner
        live = {"_id": model_id, "_deleted": {"$exists": False}}
        holders = {name for name, member in documents.members.items()
                   if member.collection(MODELS).count(live)}
        assert holders == set(documents.ring.owners(f"{MODELS}/{model_id}")), label
    assert catalog(manager) >= before["catalog"], f"{label}: a model was lost"
    assert len(added) <= 1, f"{label}: catalog grew by {added}"
    if added:
        assert_states_equal(victim, service.recover_model(*added).model)
    else:
        assert store_state(manager) == before, f"{label}: the stores differ"
    return added


@pytest.fixture(params=["segments"])
def layout(request):
    """The one chunk layout (the parameter keeps the test ids)."""
    return request.param


class TestCrashMatrix:
    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_crash_at_every_step_is_repairable(self, service_cls, layout, tmp_path):
        """Kill the save at op 1, 2, 3, ... until it finally runs to completion.

        After every crash: fsck detects damage and repairs to zero
        unrepaired issues, a second fsck is clean, the catalog still holds
        exactly the fault-free base model, and that model recovers bitwise.
        """
        faults = FaultInjector(seed=0)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(
            tmp_path / "files", faults=faults, tmp_grace_s=0.0
        )
        service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))

        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1"
        )
        crash_points = 0
        for at in range(1, 200):
            faults.arm_crash(at)
            try:
                second_id = service.save_model(save_info)
            except CrashPoint:
                crash_points += 1
            else:
                break  # the save outran the armed crash: every step covered
        else:
            pytest.fail("save never completed")
        faults.crash_at = None  # disarm: the leftover arm must not fire later

        # the crash loop's final, completed save must itself be consistent
        report = manager.fsck()
        assert not report.unrepaired, report.summary()

        recovered = service.recover_model(second_id)
        assert_states_equal(victim, recovered.model)
        assert crash_points >= 5, f"only {crash_points} distinct crash points hit"

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_each_crash_repairs_and_preserves_base(self, service_cls, layout, tmp_path):
        faults = FaultInjector(seed=0)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(
            tmp_path / "files", faults=faults, tmp_grace_s=0.0
        )
        service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        clean = store_state(manager)

        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1"
        )
        for at in range(1, 200):
            faults.arm_crash(at)
            try:
                service.save_model(save_info)
            except CrashPoint:
                pass
            else:
                break
        else:
            pytest.fail("save never completed")
            return
        faults.crash_at = None

        # one fsck repairs the debris of *all* crashed attempts at once,
        # and nothing the base model depends on was lost along the way
        report = manager.fsck()
        assert not report.unrepaired, report.summary()
        assert manager.fsck().clean

        assert base_id in catalog(manager)
        recovered = service.recover_model(base_id)
        assert_states_equal(base, recovered.model)
        # every model the attempts committed (the last one's at least) is
        # whole; deleted, they leave exactly the store before the first
        for model_id in catalog(manager) - {base_id}:
            assert_states_equal(victim, service.recover_model(model_id).model)
            manager.delete_model(model_id)
        manager.garbage_collect()
        assert store_state(manager) == clean


class TestCrashBeforeTheChunkBatchIsJournaled:
    """Dying at a save's group fsync, after its last put, leaves chunks no
    document reaches: orphans, which fsck sweeps."""

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_unjournaled_chunks_are_swept_as_orphans(
        self, service_cls, layout, tmp_path, monkeypatch
    ):
        docs = DocumentStore(tmp_path / "docs")
        files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
        service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        before = store_state(manager)

        def die_at_the_group_fsync(store):
            raise CrashPoint("died at the group fsync, after the last put")

        monkeypatch.setattr(ChunkStore, "flush", die_at_the_group_fsync)
        victim = make_tiny_cnn(seed=2)
        with pytest.raises(CrashPoint):
            # a plain snapshot of new parameters: every service writes chunks
            service.save_model(ModelSaveInfo(victim, tiny_arch(), use_case="U_2"))
        monkeypatch.undo()

        written = set(files.chunks.chunk_ids()) - set(before["chunks"][""])
        report = manager.fsck(repair=False)
        orphans = {issue.detail for issue in report.issues if issue.kind == "orphan_chunk"}
        assert written and len(orphans) == len(written) - 2, (
            "every chunk the crashed save wrote is an orphan (its code file and "
            "manifest are orphan files)")

        # the process really died: reopen from disk, then repair
        files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
        service = service_cls(
            DocumentStore(tmp_path / "docs"), files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)
        assert not assert_repaired(service, manager, before, victim, "at the fsync")
        assert_states_equal(base, service.recover_model(base_id).model)
        second_id = service.save_model(ModelSaveInfo(victim, tiny_arch(), use_case="U_2"))
        assert_states_equal(victim, service.recover_model(second_id).model)
        assert manager.fsck().clean


class TestPerCrashRepair:
    def test_fsck_repairs_after_every_individual_crash(self, layout, tmp_path):
        """The exhaustive matrix: after *each* crash point, repair + verify."""
        faults = FaultInjector(seed=0)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(
            tmp_path / "files", faults=faults, tmp_grace_s=0.0
        )
        service = BaselineSaveService(docs, files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))

        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1"
        )
        crashes = 0
        for at in range(1, 200):
            before = store_state(manager)
            faults.arm_crash(at)
            try:
                service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                assert_repaired(service, manager, before, victim, f"crash at {at}")
                assert_states_equal(base, service.recover_model(base_id).model)
            else:
                break
        else:
            pytest.fail("save never completed")
        faults.crash_at = None
        assert crashes >= 8, f"only {crashes} crash points exercised"
        assert manager.fsck().clean


class TestCrashThenRestartFromDisk:
    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_a_restarted_process_repairs_every_crash_point(
        self, service_cls, layout, tmp_path
    ):
        """As the matrix above, but the process really dies: after each
        crash the stores are opened anew from their directories — the
        catalog is whatever the append-only collection logs replay to —
        and fsck there must repair to exactly the stores before the save,
        or, past the model document's insert, to one more model."""
        faults = FaultInjector(seed=0)

        def restart():
            docs = FaultyDocumentStore(DocumentStore(tmp_path / "docs"), faults)
            files = FileStore(
                tmp_path / "files", faults=faults, tmp_grace_s=0.0
            )
            service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
            return service, ModelManager(service)

        service, manager = restart()
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1"
        )
        crashes, committed = 0, set()
        for at in range(1, 200):
            before = store_state(manager)
            faults.arm_crash(at)
            try:
                second_id = service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                service, manager = restart()
                report = manager.fsck(repair=False)
                assert "catalog_torn_tail" not in {i.kind for i in report.issues}
                committed |= assert_repaired(
                    service, manager, before, victim, f"crash at {at}")
            else:
                break
        else:
            pytest.fail("save never completed")
        faults.crash_at = None
        assert crashes >= 5, f"only {crashes} crash points exercised"
        service, manager = restart()
        assert manager.fsck().clean
        assert catalog(manager) == {base_id, second_id} | committed
        assert_states_equal(base, service.recover_model(base_id).model)
        assert_states_equal(victim, service.recover_model(second_id).model)


class KeptStateTrainService(ShiftTrainService):
    """A :class:`ShiftTrainService` whose save also keeps a wrapper
    document with a state file, as an optimizer's wrapper does."""

    def save(self, collections, file_store):
        state_file = file_store.save_bytes(b"optimizer state", suffix=".state")
        wrapper = collections.collection(WRAPPERS).insert_one({"state_file_id": state_file})
        return collections.collection(TRAIN_INFO).insert_one({
            "service_class": f"{__name__}.KeptStateTrainService",
            "layers": self.layers, "amount": self.amount, "optimizer_wrapper": wrapper,
        })


def save_victim(service, kind, base_id, dataset):
    """A leaf model over ``base_id`` to delete: a BA snapshot, a PUA
    update or an MPA level (a train document, a wrapper and its state
    file, a dataset file); returns its id and the model it recovers to."""
    if kind != "MPA":
        victim = make_tiny_cnn(seed=2)
        return service.save_model(ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_2")), victim
    trained = make_tiny_cnn(seed=1)
    trained.state_dict()["5.bias"][...] += 1.0
    model_id = service.save_model(ProvenanceSaveInfo(
        base_model_id=base_id,
        train_service=KeptStateTrainService(["5.bias"], 1.0),
        train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=0),
        rng_state=rng.get_rng_state(),
        dataset_dir=dataset,
        expected_model=trained,
    ))
    return model_id, trained


class TestADeleteCommitsByItsDocument:
    @pytest.mark.parametrize("kind", ["BA", "PUA", "MPA"])
    def test_a_delete_and_its_gc_killed_at_every_step(self, kind, tmp_path):
        """Kill ``delete_model`` + ``garbage_collect`` at every operation
        and restart the stores from disk: either the model is listed and
        recovers bitwise (the delete had not committed), or it is gone
        and fsck repairs nothing but orphans, leaving the stores as they
        were before the model was saved."""
        faults = FaultInjector(seed=0)
        service_cls = {"BA": BaselineSaveService, "PUA": ParameterUpdateSaveService,
                       "MPA": ProvenanceSaveService}[kind]
        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / "sample.bin").write_bytes(b"replay needs a dataset to unpack")

        def restart():
            docs = FaultyDocumentStore(DocumentStore(tmp_path / "docs"), faults)
            files = FileStore(tmp_path / "files", faults=faults, tmp_grace_s=0.0)
            service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
            return service, ModelManager(service)

        service, manager = restart()
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        clean = store_state(manager)
        crashes = listed = 0
        for at in range(1, 400):
            victim_id, victim = save_victim(service, kind, base_id, dataset)
            faults.arm_crash(at)
            try:
                manager.delete_model(victim_id)
                manager.garbage_collect()
            except CrashPoint:
                crashes += 1
                service, manager = restart()
                label = f"crash at {at}"
                if victim_id in catalog(manager):
                    listed += 1
                    assert_states_equal(victim, service.recover_model(victim_id).model)
                    assert manager.fsck(repair=False).clean, label
                    manager.delete_model(victim_id)
                    manager.garbage_collect()
                else:
                    report = manager.fsck()
                    assert not report.unrepaired, f"{label}: {report.summary()}"
                    kinds = {issue.kind for issue in report.issues}
                    assert kinds <= {"orphan_file", "orphan_chunk", "orphan_document"}, label
                    assert manager.fsck().clean, f"{label}: second fsck dirty"
                assert store_state(manager) == clean, label
                assert_states_equal(base, service.recover_model(base_id).model)
            else:
                break
        else:
            pytest.fail("delete and gc never completed")
        faults.crash_at = None
        assert listed >= 1 and crashes - listed >= 3, (crashes, listed)
        service, manager = restart()
        assert manager.fsck().clean
        assert store_state(manager) == clean


@pytest.mark.parametrize("service_cls", [BaselineSaveService, ParameterUpdateSaveService],
                         ids=["BA", "PUA"])
class TestCrashMatrixOnACluster:
    def test_a_restarted_cluster_repairs_every_crash_point(self, service_cls, tmp_path):
        """Kill a derived save at every operation of a 3x2 cluster's members
        and restart every store from disk: each member's sweep takes back
        what the save left, as before the save or with the one model
        it committed, and every model recovers bitwise."""
        faults = FaultInjector(seed=0)

        def restart():
            stores = SharedStores.cluster_at(
                tmp_path / "cluster", shards=3, replicas=2, faults=faults)
            service = service_cls(
                stores.documents, stores.files, scratch_dir=stores.scratch_dir)
            return service, ModelManager(service)

        service, manager = restart()
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1")
        crashes, committed = 0, set()
        for at in range(1, 400):
            before = store_state(manager)
            faults.arm_crash(at)
            try:
                second_id = service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                service, manager = restart()
                committed |= assert_repaired(
                    service, manager, before, victim, f"crash at {at}")
                assert_states_equal(base, service.recover_model(base_id).model)
            else:
                break
        else:
            pytest.fail("save never completed")
        faults.crash_at = None
        assert crashes >= 10, f"only {crashes} crash points exercised"
        service, manager = restart()
        assert manager.fsck().clean
        assert catalog(manager) == {base_id, second_id} | committed
        for model_id in catalog(manager) - {base_id}:
            assert_states_equal(victim, service.recover_model(model_id).model)


class TestAllServicesRetryThroughChaos:
    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_flaky_stores_still_save_and_recover_bitwise(
        self, service_cls, layout, tmp_path
    ):
        """ISSUE acceptance: >=10% transient error rates, bitwise round trip."""
        faults = FaultInjector(
            seed=13, error_rate=0.12, outage_rate=0.12, max_consecutive_failures=3
        )
        retry = RetryPolicy(max_attempts=6, base_delay_s=0.0, sleep=lambda s: None)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(
            tmp_path / "files", faults=faults, retry=retry, tmp_grace_s=0.0,
        )
        service = service_cls(
            docs, files, scratch_dir=tmp_path / "scratch", retry=retry
        )
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=3)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        derived = make_tiny_cnn(seed=4)
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id, use_case="U_2")
        )

        assert_states_equal(base, service.recover_model(base_id).model)
        assert_states_equal(derived, service.recover_model(derived_id).model)
        assert retry.retries_taken > 0, "chaos run took no retries at these rates"
        assert faults.stats["errors"] + faults.stats["outages"] > 0
        assert manager.fsck().clean
