"""A save's intent journal is one open descriptor.

``SaveJournal.create`` opens the file once (``O_CREAT|O_EXCL|O_APPEND``),
every append is one ``os.write`` through that descriptor, and every way a
save ends — commit, rollback, a simulated crash — closes it.  The bytes on
disk are the same JSON lines as ever, so ``SaveJournal.load`` (and
``HintLog``, which borrows its parse: ``tests/cluster/test_selfheal.py``)
read them unchanged.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo, ParameterUpdateSaveService
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from repro.filestore.journal import SaveJournal
from tests.conftest import make_tiny_cnn


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def save_info(seed, base_model_id=None):
    arch = ArchitectureRef.from_factory(
        "tests.filestore.test_save_journal", "build_probe_model", {"num_classes": 10})
    return ModelSaveInfo(make_tiny_cnn(seed=seed), arch, base_model_id=base_model_id)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestFormat:
    def test_descriptor_writes_round_trip_with_a_torn_tail(self, tmp_path):
        journal = SaveJournal.create(tmp_path / "journal")
        journal.record("doc", collection="models", doc_id="m1")
        journal.record_many([{"op": "chunk", "digest": d} for d in ("a", "b")])
        journal.record("refs", digests=["a", "b"])
        expected = "".join(json.dumps(e, sort_keys=True) + "\n" for e in journal.entries)
        assert journal.path.read_text() == expected
        with open(journal.path, "a") as handle:
            handle.write('{"op": "refs", "dige')  # the crash hit the append itself
        loaded = SaveJournal.load(journal.path)
        assert loaded.entries == journal.entries
        assert not loaded.committed
        journal.discard()
        assert not journal.path.exists()

    def test_commit_writes_the_marker_before_the_unlink(self, tmp_path, monkeypatch):
        journal = SaveJournal.create(tmp_path / "journal")
        journal.record("refs", digests=["a"])
        on_disk = []
        real_unlink = Path.unlink

        def unlink(path, missing_ok=False):
            on_disk.append(SaveJournal.load(path))
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", unlink)
        journal.commit()
        [seen] = on_disk
        assert seen.committed and seen.entries == journal.entries
        assert not journal.path.exists()

    def test_create_refuses_an_existing_file(self, tmp_path, monkeypatch):
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "save-0000000000000000.jsonl").write_text("")
        monkeypatch.setattr(
            "repro.filestore.journal.uuid.uuid4",
            lambda: type("U", (), {"hex": "0" * 32})())
        with pytest.raises(FileExistsError):
            SaveJournal.create(tmp_path / "journal")


class TestOneOpenPerSave:
    def test_a_save_opens_its_journal_once(self, tmp_path, monkeypatch):
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        base = service.save_model(save_info(0))
        journal_opens, mkdirs = [], []
        real_open, real_mkdir = os.open, Path.mkdir

        def spy_open(path, *args, **kwargs):
            if Path(path).parent == files.journal_dir:
                journal_opens.append(path)
            return real_open(path, *args, **kwargs)

        def spy_mkdir(path, *args, **kwargs):
            if path == files.journal_dir:
                mkdirs.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(Path, "mkdir", spy_mkdir)
        service.save_model(save_info(1))
        assert len(journal_opens) == 1
        journal_opens.clear()
        service.save_model(save_info(2, base_model_id=base))
        assert len(journal_opens) == 1
        assert mkdirs == []  # journal/ exists after the first save
        assert list(files.journal_dir.iterdir()) == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestNoDescriptorLeak:
    def test_fifty_mixed_saves_hold_no_descriptor(self, tmp_path):
        """Committed, rolled-back and crash-killed saves alike leave the
        process's descriptor count where it was."""
        faults = FaultInjector(seed=0)
        docs = FaultyDocumentStore(DocumentStore(), faults)
        files = FileStore(tmp_path / "files", faults=faults)
        service = BaselineSaveService(docs, files)
        service.save_model(save_info(0))  # opens what the stores keep open
        before = open_fds()

        def refuse(document):
            raise OSError("catalog refused the model document")

        outcomes = {"committed": 0, "rolled_back": 0, "crashed": 0}
        for seed in range(50):
            kind = ("committed", "rolled_back", "crashed")[seed % 3]
            if kind == "rolled_back":
                service._insert_model_document = refuse
            elif kind == "crashed":
                faults.arm_crash(1, op="docs.insert_one")
            try:
                service.save_model(save_info(seed))
            except OSError:
                assert kind == "rolled_back"
            except CrashPoint:
                assert kind == "crashed"
            else:
                assert kind == "committed"
            finally:
                service.__dict__.pop("_insert_model_document", None)
            outcomes[kind] += 1
        assert open_fds() == before
        assert outcomes == {"committed": 17, "rolled_back": 17, "crashed": 16}
        assert len(files.incomplete_journals()) == outcomes["crashed"]
