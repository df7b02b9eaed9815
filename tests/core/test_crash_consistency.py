"""Crash-consistent saves: kill a save at every step, fsck repairs all.

The tentpole robustness guarantee: a save is atomic under process death.
Whatever operation the process dies on, ``ModelManager.fsck`` restores
every storage invariant, no previously saved model is lost, and a
subsequent save succeeds.
"""

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
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from repro.retry import RetryPolicy
from tests.conftest import make_tiny_cnn


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
        clean_files = set(files.file_ids())
        clean_chunks = set(files.chunks.chunk_ids())

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

        catalog = {record.model_id for record in manager.list_models()}
        assert base_id in catalog
        recovered = service.recover_model(base_id)
        assert_states_equal(base, recovered.model)
        assert clean_files <= set(files.file_ids())
        assert clean_chunks <= set(files.chunks.chunk_ids())


class TestCrashBeforeTheChunkBatchIsJournaled:
    """A save journals its chunk intents as one batch after the puts.  Dying
    between the last put and that append leaves chunks no journal names:
    refcount-0 orphans, which fsck sweeps (the journal module's promise)."""

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_unjournaled_chunks_are_swept_as_orphans(
        self, service_cls, layout, tmp_path, monkeypatch
    ):
        from repro.filestore.journal import SaveJournal

        docs = DocumentStore(tmp_path / "docs")
        files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
        service = service_cls(docs, files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        chunks_before = set(files.chunks.chunk_ids())

        record_many = SaveJournal.record_many

        def die_on_the_chunk_batch(journal, entries):
            if entries and entries[0]["op"] == "chunk":
                raise CrashPoint("died between the last put and the journal append")
            record_many(journal, entries)

        monkeypatch.setattr(SaveJournal, "record_many", die_on_the_chunk_batch)
        victim = make_tiny_cnn(seed=2)
        with pytest.raises(CrashPoint):
            # a plain snapshot of new parameters: every service writes chunks
            service.save_model(ModelSaveInfo(victim, tiny_arch(), use_case="U_2"))
        monkeypatch.setattr(SaveJournal, "record_many", record_many)

        written = set(files.chunks.chunk_ids()) - chunks_before
        journal, = files.incomplete_journals()
        assert not any(entry["op"] == "chunk" for entry in journal.entries)
        # the code file took its one reference, journaled, before the chunks
        journaled = {d for e in journal.entries if e["op"] == "refs" for d in e["digests"]}
        orphans = written - journaled
        assert orphans, "the crashed save wrote no chunk before its journal append"
        assert all(files.chunks.refcount(digest) == 0 for digest in orphans)

        # the process really died: reopen from disk, then repair
        files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
        service = service_cls(
            DocumentStore(tmp_path / "docs"), files, scratch_dir=tmp_path / "scratch")
        manager = ModelManager(service)
        report = manager.fsck()
        assert not report.unrepaired, report.summary()
        assert manager.fsck().clean
        assert set(files.chunks.chunk_ids()) == chunks_before
        assert {r.model_id for r in manager.list_models()} == {base_id}
        assert_states_equal(base, service.recover_model(base_id).model)
        second_id = service.save_model(ModelSaveInfo(victim, tiny_arch(), use_case="U_2"))
        assert_states_equal(victim, service.recover_model(second_id).model)
        assert manager.fsck().clean

    def test_a_save_journals_its_chunks_with_one_append(self, tmp_path, monkeypatch):
        from repro.filestore.journal import SaveJournal

        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        record_many = SaveJournal.record_many
        batches = []

        def spy(journal, entries):
            batches.append([entry["op"] for entry in entries])
            record_many(journal, entries)

        monkeypatch.setattr(SaveJournal, "record_many", spy)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=3), tiny_arch()))
        chunk_batches = [ops for ops in batches if "chunk" in ops]
        assert len(chunk_batches) == 1 and set(chunk_batches[0]) == {"chunk"}
        assert len(chunk_batches[0]) > 1

    def test_a_batch_is_one_json_object_per_line(self, tmp_path):
        """A batch is one record of the intent log, its entries in order."""
        from repro.filestore import FileStore
        from repro.filestore.recordlog import RecordLog

        files = FileStore(tmp_path / "files")
        journal = files.begin_journal()
        journal.record("blob", file_id="f1")
        journal.record_many([{"op": "chunk", "digest": d} for d in ("a", "b", "c")])
        journal.record_many([])
        records = RecordLog(files._intents.path).replay()
        assert records[1:] == [{"save": journal.save_id, "entries": [
            {"digest": "a", "op": "chunk"},
            {"digest": "b", "op": "chunk"},
            {"digest": "c", "op": "chunk"},
        ]}]
        files.abandon_journal()
        [loaded] = FileStore(tmp_path / "files").incomplete_journals()
        assert loaded.entries == journal.entries
        assert len(journal.entries) == 4


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
            faults.arm_crash(at)
            try:
                service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                report = manager.fsck()
                assert not report.unrepaired, f"crash at {at}: {report.summary()}"
                assert manager.fsck().clean, f"crash at {at}: second fsck dirty"
                catalog = {r.model_id for r in manager.list_models()}
                assert catalog == {base_id}, f"crash at {at}: catalog {catalog}"
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
        and fsck there must repair to exactly the fault-free catalog."""
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
        crashes = 0
        for at in range(1, 200):
            faults.arm_crash(at)
            try:
                second_id = service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                service, manager = restart()
                report = manager.fsck()
                assert not report.unrepaired, f"crash at {at}: {report.summary()}"
                assert "catalog_torn_tail" not in {i.kind for i in report.issues}
                assert manager.fsck().clean, f"crash at {at}: second fsck dirty"
                catalog = {r.model_id for r in manager.list_models()}
                assert catalog == {base_id}, f"crash at {at}: catalog {catalog}"
            else:
                break
        else:
            pytest.fail("save never completed")
        faults.crash_at = None
        assert crashes >= 5, f"only {crashes} crash points exercised"
        service, manager = restart()
        assert manager.fsck().clean
        assert {r.model_id for r in manager.list_models()} == {base_id, second_id}
        assert_states_equal(base, service.recover_model(base_id).model)
        assert_states_equal(victim, service.recover_model(second_id).model)


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
