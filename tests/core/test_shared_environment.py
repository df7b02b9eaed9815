"""One content-addressed environment document per distinct environment.

Every model saved from one environment references the same
``environments`` document.  These tests pin the sharing itself, the one
enumeration of installed distributions behind it, and the three ownership
rules that sharing changes: the document is not a step a save undoes, a
delete leaves it for fsck's orphan-document sweep to reclaim once no model
names it, and neither a crashed save nor a concurrent delete can take it
from a model that references it.
"""

import importlib.metadata
import sys
import threading

import pytest

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
    environment,
)
from repro.core.schema import ENVIRONMENTS, MODELS
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn
from tests.core.test_provenance import save_chain


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_shared_environment", "build_probe_model", {"num_classes": 10}
    )


def save_info(seed, base_model_id=None):
    return ModelSaveInfo(make_tiny_cnn(seed=seed), tiny_arch(), base_model_id=base_model_id)


def assert_one_shared_environment(documents, model_ids):
    environments = documents.collection(ENVIRONMENTS).find()
    assert len(environments) == 1
    env_id = environments[0]["_id"]
    assert env_id == environment.environment_id(environments[0])
    models = documents.collection(MODELS).get_many(model_ids)
    assert len(models) == len(model_ids)
    assert {m["environment_id"] for m in models} == {env_id}


class TestOneDocumentPerEnvironment:
    def test_baseline_saves_share_one_document(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        ids = [service.save_model(save_info(seed)) for seed in range(4)]
        assert_one_shared_environment(mem_doc_store, ids)

    def test_param_update_root_and_updates_share_one_document(
        self, mem_doc_store, file_store
    ):
        service = ParameterUpdateSaveService(mem_doc_store, file_store)
        ids = [service.save_model(save_info(0))]
        for seed in (1, 2, 3):
            ids.append(service.save_model(save_info(seed, base_model_id=ids[-1])))
        assert_one_shared_environment(mem_doc_store, ids)

    def test_provenance_base_snapshot_and_records_share_one_document(
        self, mem_doc_store, file_store, tmp_path, full_chain
    ):
        service = ProvenanceSaveService(
            mem_doc_store, file_store, scratch_dir=tmp_path / "scratch"
        )
        ids = save_chain(service, full_chain, upto=2)
        assert len(ids) == 3
        assert_one_shared_environment(mem_doc_store, list(ids.values()))

    def test_stats_report_models_per_environment(self, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        for seed in range(3):
            service.save_model(save_info(seed))
        (env_id,) = (d["_id"] for d in mem_doc_store.collection(ENVIRONMENTS).find())
        assert ModelManager(service).stats()["environments"] == {
            "distinct": 1,
            "models": {env_id: 3},
        }


class TestEnumerationHappensOnce:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        """Forget the process's snapshot and count enumerations from here."""
        calls = []
        real = importlib.metadata.distributions

        def counting(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(importlib.metadata, "distributions", counting)
        monkeypatch.setattr(environment, "_installed", None)
        return calls

    def test_fifty_saves_enumerate_once(self, enumerations, mem_doc_store, file_store):
        service = BaselineSaveService(mem_doc_store, file_store)
        model = save_info(0)
        for _ in range(50):
            service.save_model(model)
        assert len(enumerations) == 1
        assert mem_doc_store.collection(ENVIRONMENTS).count() == 1

    def test_concurrent_first_saves_enumerate_once(
        self, enumerations, mem_doc_store, file_store
    ):
        service = BaselineSaveService(mem_doc_store, file_store)
        barrier = threading.Barrier(8)
        errors = []

        def first_save(seed):
            try:
                barrier.wait(timeout=30)
                service.save_model(save_info(seed))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=first_save, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(enumerations) == 1
        assert mem_doc_store.collection(ENVIRONMENTS).count() == 1
        assert mem_doc_store.collection(MODELS).count() == 8


class TestCrashedSaveDoesNotOwnTheDocument:
    @pytest.mark.parametrize("layout", ["segments"])
    def test_crash_after_environment_insert_leaves_it_for_the_next_save(
        self, layout, tmp_path
    ):
        """Save A inserts the document and dies; save B reuses it and
        commits.  Reclaiming what A left must not take B's environment."""
        faults = FaultInjector(seed=0)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(
            tmp_path / "files", faults=faults, tmp_grace_s=0.0
        )
        service = BaselineSaveService(docs, files)
        manager = ModelManager(service)

        # a save's second insert is its model document: die just before it
        faults.arm_crash(2, op="docs.insert_one")
        with pytest.raises(CrashPoint):
            service.save_model(save_info(1))
        assert docs.collection(ENVIRONMENTS).count() == 1
        assert docs.collection(MODELS).count() == 0

        survivor = service.save_model(save_info(2))
        report = manager.fsck()
        # A's code file and manifest are unreferenced; the document is not
        assert "orphan_file" in {issue.kind for issue in report.issues}
        assert "orphan_document" not in {issue.kind for issue in report.issues}
        assert not report.unrepaired, report.summary()
        assert_one_shared_environment(docs, [survivor])
        assert manager.fsck().clean
        assert service.recover_model(survivor, check_env=True).verified

    def test_failed_save_rollback_keeps_the_shared_document(
        self, mem_doc_store, file_store, monkeypatch
    ):
        service = BaselineSaveService(mem_doc_store, file_store)
        kept = service.save_model(save_info(1))

        def refuse(document):
            raise OSError("catalog refused the model document")

        monkeypatch.setattr(service, "_insert_model_document", refuse)
        with pytest.raises(OSError):
            service.save_model(save_info(2))
        assert_one_shared_environment(mem_doc_store, [kept])
        ModelManager(service).garbage_collect()  # what the failed save left
        assert ModelManager(service).fsck().clean


class TestConcurrentSaveAndDelete:
    def test_no_model_is_left_naming_a_missing_environment(self, doc_store, tmp_path):
        """Savers and deleters race over one store; the deleters keep
        removing the environment's last referent, and a collector keeps
        sweeping what they free, the environment document included.  After
        every round each surviving model's environment document must exist.
        The tiny models share chunks, so a save also dedups against chunks
        a concurrent delete leaves unreached: no sweep falls between.
        """
        service = BaselineSaveService(doc_store, FileStore(tmp_path / "files"))
        manager = ModelManager(service)
        models = doc_store.collection(MODELS)
        environments = doc_store.collection(ENVIRONMENTS)
        infos = [save_info(seed) for seed in range(6)]
        errors = []

        def guard(fn, *args):
            try:
                fn(*args)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def delete_all(model_ids):
            for model_id in model_ids:
                manager.delete_model(model_id)

        def collect(done):
            while not done.is_set():
                manager.garbage_collect()
            manager.garbage_collect()  # after the round's last delete

        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            survivors = [service.save_model(infos[0])]
            for _ in range(12):
                done = threading.Event()
                collector = threading.Thread(target=guard, args=(collect, done))
                collector.start()
                threads = [
                    threading.Thread(target=guard, args=(service.save_model, info))
                    for info in infos
                ] + [
                    # each deleter takes every other survivor, so together
                    # they delete all of them, last referent included
                    threading.Thread(target=guard, args=(delete_all, survivors[half::2]))
                    for half in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                done.set()
                collector.join(timeout=120)
                assert not any(thread.is_alive() for thread in (*threads, collector))
                assert errors == []
                survivors = [document["_id"] for document in models.find()]
                assert len(survivors) == len(infos)
                for document in models.find():
                    environments.get(document["environment_id"])  # KeyError = dangling
        finally:
            sys.setswitchinterval(previous_interval)
        assert manager.fsck().clean
