"""fsck: verify-and-repair across documents, files, chunks, refcounts."""

import numpy as np
import pytest

from repro import cli
from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
)
from repro.core.schema import ENVIRONMENTS
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.filestore.store import is_file_id
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_fsck", "build_probe_model", {"num_classes": 10}
    )


@pytest.fixture(params=["segments"])
def file_store(tmp_path, request):
    """Override the global fixture (the parameter keeps the test ids)."""
    return FileStore(tmp_path / "files")


@pytest.fixture
def setup(mem_doc_store, file_store):
    service = BaselineSaveService(mem_doc_store, file_store)
    manager = ModelManager(service)
    model = make_tiny_cnn(seed=1)
    model_id = service.save_model(ModelSaveInfo(model, tiny_arch(), use_case="U_1"))
    return manager, service, file_store, model_id, model


def kinds(report):
    return {issue.kind for issue in report.issues}


def destroy_chunk(files, digest):
    """Data loss: drop the stored payload out from under the refcounts."""
    files.chunks.drop(digest)


def flip_chunk_byte(files, digest):
    """Bit rot: flip the first stored payload byte in place."""
    path, offset, length = files.chunks.locate(digest)
    assert length > 0
    with open(path, "r+b") as fileobj:
        fileobj.seek(offset)
        byte = fileobj.read(1)
        fileobj.seek(offset)
        fileobj.write(bytes([byte[0] ^ 0xFF]))


class TestFsckDetectAndRepair:
    def test_clean_catalog_is_clean(self, setup):
        manager, *_ = setup
        report = manager.fsck()
        assert report.clean
        assert report.checked_models == 1
        assert report.checked_chunks > 0

    def test_orphan_file_is_removed(self, setup):
        manager, _, files, _, _ = setup
        orphan = files.save_bytes(b"debris from a pre-journal crash")
        report = manager.fsck()
        assert kinds(report) == {"orphan_file"}
        assert not report.unrepaired
        assert not files.exists(orphan)
        assert manager.fsck().clean

    def test_orphan_chunk_is_removed(self, setup):
        manager, _, files, _, _ = setup
        files.chunks.put("deadbeef" * 4, b"unreferenced payload")
        report = manager.fsck()
        assert kinds(report) == {"orphan_chunk"}
        assert not report.unrepaired
        assert not files.chunks.has("deadbeef" * 4)
        assert manager.fsck().clean

    def test_leaked_refcount_is_reconciled(self, setup):
        manager, _, files, _, _ = setup
        digest = files.chunks.chunk_ids()[0]
        before = files.chunks.refcount(digest)
        files.chunks.add_refs([digest])  # leak one reference
        report = manager.fsck()
        assert kinds(report) == {"refcount_mismatch"}
        assert not report.unrepaired
        assert files.chunks.refcount(digest) == before
        assert manager.fsck().clean

    def test_deflated_refcount_is_reconciled(self, setup):
        manager, service, files, _, model = setup
        # a second identical save dedups every chunk: refcounts go up by one
        service.save_model(ModelSaveInfo(model, tiny_arch(), use_case="U_2"))
        digest = files.chunks.chunk_ids()[0]
        before = files.chunks.refcount(digest)
        assert before >= 2
        files.chunks.release_refs([digest])  # would let gc eat a live chunk
        report = manager.fsck()
        assert "refcount_mismatch" in kinds(report)
        assert not report.unrepaired
        assert files.chunks.refcount(digest) == before

    def test_missing_chunk_is_unrepairable(self, setup):
        manager, service, files, model_id, model = setup
        digest = files.chunks.chunk_ids()[0]
        destroy_chunk(files, digest)
        report = manager.fsck()
        assert "missing_chunk" in kinds(report)
        assert report.unrepaired, "data loss must be reported, not hidden"

    def test_corrupt_chunk_is_detected(self, setup):
        manager, _, files, _, _ = setup
        digest = files.chunks.chunk_ids()[0]
        flip_chunk_byte(files, digest)
        report = manager.fsck()
        assert "corrupt_chunk" in kinds(report)
        assert report.unrepaired

    def test_corrupt_chunk_ignored_without_verify(self, setup):
        manager, _, files, _, _ = setup
        digest = files.chunks.chunk_ids()[0]
        flip_chunk_byte(files, digest)
        assert manager.fsck(verify_chunks=False).clean

    def test_orphan_environment_document_is_removed(self, setup):
        manager, service, *_ = setup
        service.documents.collection(ENVIRONMENTS).insert_one(
            {"_id": "env-orphan", "python_version": "9.9"}
        )
        report = manager.fsck()
        assert kinds(report) == {"orphan_document"}
        assert not report.unrepaired
        with pytest.raises(KeyError):
            service.documents.collection(ENVIRONMENTS).get("env-orphan")

    def test_missing_environment_document_is_reported(self, setup):
        manager, service, _, model_id, _ = setup
        document = service.documents.collection("models").get(model_id)
        service.documents.collection(ENVIRONMENTS).delete_one(
            document["environment_id"]
        )
        report = manager.fsck()
        assert "missing_document" in kinds(report)
        assert report.unrepaired

    def test_edited_environment_document_fails_its_digest(self, setup):
        """A content-addressed environment vouches for every model that
        shares it; a silent edit is visible without ``check_env``."""
        manager, service, _, model_id, _ = setup
        environments = service.documents.collection(ENVIRONMENTS)
        env_id = service.documents.collection("models").get(model_id)["environment_id"]
        env = environments.get(env_id)
        env["framework_version"] = "0.0.0-other"
        environments.replace_one(env_id, env)
        report = manager.fsck()
        assert kinds(report) == {"environment_digest"}
        assert report.unrepaired  # audit only: nothing is rewritten
        assert environments.get(env_id)["framework_version"] == "0.0.0-other"

    def test_legacy_environment_ids_are_not_digest_checked(self, setup):
        manager, service, _, model_id, _ = setup
        models = service.documents.collection("models")
        environments = service.documents.collection(ENVIRONMENTS)
        document = models.get(model_id)
        legacy = environments.get(document["environment_id"])
        environments.delete_one(legacy["_id"])
        legacy["_id"] = "65f0c0ffee0123456789abcd"  # a pre-sharing random id
        legacy["framework_version"] = "0.0.0-other"
        environments.insert_one(legacy)
        document["environment_id"] = legacy["_id"]
        models.replace_one(model_id, document)
        assert manager.fsck().clean
        manager.delete_model(model_id)  # legacy documents delete as before
        assert environments.count() == 0

    def test_repair_false_reports_without_touching(self, setup):
        manager, _, files, _, _ = setup
        orphan = files.save_bytes(b"leave me for the report")
        report = manager.fsck(repair=False)
        assert kinds(report) == {"orphan_file"}
        assert report.unrepaired
        assert files.exists(orphan)  # nothing was touched

    def test_model_survives_repair(self, setup):
        manager, service, files, model_id, model = setup
        files.save_bytes(b"orphan one")
        files.chunks.put("cafebabe" * 4, b"orphan two")
        assert not manager.fsck().unrepaired
        recovered = service.recover_model(model_id)
        for key, value in model.state_dict().items():
            assert np.array_equal(value, recovered.model.state_dict()[key]), key


class TestFsckCli:
    @pytest.fixture
    def disk_setup(self, tmp_path):
        docs_dir = str(tmp_path / "docs")
        files_dir = str(tmp_path / "files")
        files = FileStore(files_dir)
        service = BaselineSaveService(DocumentStore(docs_dir), files)
        model_id = service.save_model(
            ModelSaveInfo(make_tiny_cnn(seed=2), tiny_arch(), use_case="U_1")
        )
        return docs_dir, files_dir, files, model_id

    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_clean_store_exits_zero(self, disk_setup, capsys):
        docs_dir, files_dir, _, _ = disk_setup
        assert self.run_cli("--docs", docs_dir, "--files", files_dir, "fsck") == 0
        assert "no issues" in capsys.readouterr().out

    def test_repairable_damage_exits_zero(self, disk_setup, capsys):
        docs_dir, files_dir, files, _ = disk_setup
        files.save_bytes(b"orphan blob")
        assert self.run_cli("--docs", docs_dir, "--files", files_dir, "fsck") == 0
        out = capsys.readouterr().out
        assert "[repaired] orphan_file" in out

    def test_data_loss_exits_nonzero(self, disk_setup, capsys):
        docs_dir, files_dir, files, _ = disk_setup
        digest = next(d for d in files.chunks.chunk_ids() if not is_file_id(d))
        destroy_chunk(files, digest)
        assert self.run_cli("--docs", docs_dir, "--files", files_dir, "fsck") == 1
        assert "[UNREPAIRED] missing_chunk" in capsys.readouterr().out

    def test_no_repair_flag_leaves_damage(self, disk_setup, capsys):
        docs_dir, files_dir, files, _ = disk_setup
        orphan = files.save_bytes(b"orphan blob")
        code = self.run_cli(
            "--docs", docs_dir, "--files", files_dir, "fsck", "--no-repair"
        )
        assert code == 1
        assert files.exists(orphan)


class TestCatalogTornTail:
    """A crash mid-append is visible: the engine drops the torn record when
    it opens the log, fsck says so once."""

    def _crashed_catalog(self, tmp_path, file_store):
        docs = tmp_path / "docs"
        service = BaselineSaveService(DocumentStore(docs), file_store)
        model_id = service.save_model(
            ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch(), use_case="U_1"))
        with (docs / "models.jsonl").open("ab") as handle:
            handle.write(b'{"_id": "model-never-acked", "approach": "base')
        return docs, model_id

    def test_reported_once_as_repaired_then_clean(self, tmp_path, file_store):
        docs, model_id = self._crashed_catalog(tmp_path, file_store)
        reopened = BaselineSaveService(DocumentStore(docs), file_store)
        manager = ModelManager(reopened)
        assert manager.stats()["catalog"]["models"]["torn_tail_bytes"] == 46

        report = manager.fsck()
        assert [(i.kind, i.repaired) for i in report.issues] == [("catalog_torn_tail", True)]
        assert "46 bytes" in report.issues[0].detail
        assert manager.fsck().clean
        assert [r.model_id for r in manager.list_models()] == [model_id]
        assert reopened.recover_model(model_id).verified is True
        assert ModelManager(
            BaselineSaveService(DocumentStore(docs), file_store)).fsck().clean

    def test_cli_json_names_the_kind_and_stats_has_the_catalog_section(
        self, tmp_path, file_store, capsys
    ):
        import json

        docs, _ = self._crashed_catalog(tmp_path, file_store)
        argv = ["--docs", str(docs), "--files", str(file_store.root)]
        assert cli.main([*argv, "fsck", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [issue["kind"] for issue in payload["issues"]] == ["catalog_torn_tail"]
        assert payload["repaired"] == 1 and payload["unrepaired"] == 0

        assert cli.main([*argv, "stats"]) == 0
        catalog = json.loads(capsys.readouterr().out)["catalog"]
        assert set(catalog) == {"models", "environments", "train_info", "wrappers"}
        assert catalog["models"] == {
            "docs": 1, "live_bytes": (docs / "models.jsonl").stat().st_size,
            "dead_bytes": 0, "checkpoints": 0, "indexed_fields": ["environment_id"],
            "torn_tail_bytes": 0,
        }


class TestDamagedIntentLog:
    """A flipped byte in a crashed instance's intent log: fsck reports it
    and deletes the log without rolling back any save in it (the damage may
    hide a commit); the refcount reconcile reclaims the crashed saves'."""

    def test_reported_and_repaired_then_clean(self, tmp_path, mem_doc_store):
        from repro.filestore.recordlog import RecordLog

        dead = FileStore(tmp_path / "files")
        service = BaselineSaveService(mem_doc_store, dead)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch(), use_case="U_1"))
        crashed = ["c1" * 32, "c2" * 32]
        for digest in crashed:
            journal = dead.begin_journal()
            dead.chunks.put(digest, digest.encode())
            dead.chunks.add_refs([digest])
            journal.record_many([{"op": "chunk", "digest": digest},
                                 {"op": "refs", "digests": [digest]}])
            dead.abandon_journal()  # the process dies mid-save
        path = dead._intents.path
        records = RecordLog(path).replay(sized=True)
        commit = next(index for index, (record, _size) in enumerate(records)
                      if record["entries"] == [{"op": "commit"}])
        damaged = bytearray(path.read_bytes())
        damaged[sum(size for _record, size in records[:commit + 1]) - 3] ^= 0x01
        path.write_bytes(bytes(damaged))  # the saved model's commit, unreadable

        files = FileStore(tmp_path / "files")
        manager = ModelManager(BaselineSaveService(mem_doc_store, files))
        report = manager.fsck(repair=False)
        assert "damaged_journal" in kinds(report)
        assert "incomplete_save" not in kinds(report)
        assert path.exists() and all(map(files.chunks.has, crashed))  # untouched

        report = manager.fsck()
        assert "damaged_journal" in kinds(report) and not report.unrepaired
        assert not path.exists()
        assert not any(map(files.chunks.has, crashed))
        assert manager.fsck().clean
        recovered = BaselineSaveService(mem_doc_store, files).recover_model(model_id)
        for key, value in model.state_dict().items():
            assert np.array_equal(value, recovered.model.state_dict()[key]), key
