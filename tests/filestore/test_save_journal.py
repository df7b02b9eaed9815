"""A save's intents are records in its store's one intent log.

The log is created by the store's first save and kept open: every later
save appends to it through that one descriptor (one ``os.write`` per
batch) and creates no file.  Every way a save ends — commit, rollback, a
simulated crash — leaves the descriptor count where it was.  The log's
framing and damage rule are ``RecordLog``'s (``test_record_log.py``).
"""

import os
import threading
from pathlib import Path

import pytest

from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo, ParameterUpdateSaveService
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from repro.filestore import journal as journal_module
from repro.filestore.journal import INTENT_DEAD_FLOOR, IntentLog
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


class TestIntentLog:
    def test_saves_share_one_log_and_an_end_closes_a_save(self, tmp_path):
        files = FileStore(tmp_path / "files")
        first, second = files._intents.begin(), files._intents.begin()
        first.record("doc", collection="models", doc_id="m1")
        second.record_many([{"op": "chunk", "digest": d} for d in ("a", "b")])
        first.record("refs", digests=["a"])
        [path] = files.journal_dir.iterdir()
        assert path == files._intents.path
        assert [j.save_id for j in IntentLog.load(path).open_saves()] == [
            first.save_id, second.save_id]
        first.commit()
        [left] = IntentLog.load(path).open_saves()
        assert (left.save_id, left.entries) == (second.save_id, second.entries)
        assert [j.save_id for j in files.incomplete_journals()] == [second.save_id]
        second.discard()
        assert files.incomplete_journals() == []
        silent = files._intents.begin()
        silent.commit()  # recorded nothing: writes nothing
        assert IntentLog.load(path).open_saves() == []

    def test_close_removes_the_log_only_when_no_save_is_open(self, tmp_path):
        files = FileStore(tmp_path / "files")
        crashed = files._intents.begin()
        crashed.record("refs", digests=["a"])
        files.close()  # the crashed save is still open: the log stays
        [path] = files.journal_dir.iterdir()
        reopened = FileStore(tmp_path / "files")
        [journal] = reopened.incomplete_journals()
        assert journal.save_id == crashed.save_id
        journal.discard()  # fsck's rollback ends it in the log it is in ...
        assert not path.exists()  # ... and a log with no open save goes
        done = reopened._intents.begin()
        done.record("refs", digests=["b"])
        done.commit()
        reopened.close()
        assert list(reopened.journal_dir.iterdir()) == []

    def test_finished_logs_of_other_instances_go_and_the_log_stays_small(
        self, tmp_path
    ):
        left = FileStore(tmp_path / "files")
        journal = left._intents.begin()
        journal.record("refs", digests=["a"])
        journal.commit()  # the process exited without close()
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        service.save_model(save_info(0))
        assert files.incomplete_journals() == []  # ... and the left log is gone
        assert list(files.journal_dir.iterdir()) == [files._intents.path]
        sizes = []
        for seed in range(1, 60):
            service.save_model(save_info(seed))
            sizes.append(files._intents.path.stat().st_size)
        assert max(sizes) <= 2 * INTENT_DEAD_FLOOR
        assert min(sizes[sizes.index(max(sizes)):]) < max(sizes)  # rewritten
        assert files.incomplete_journals() == []


    def test_a_rewrite_racing_a_batch_records_it_once(self, tmp_path, monkeypatch):
        """Another save's end rewrites the log from the open saves' entries
        while a batch is on its way in: the batch lands in the log once."""
        monkeypatch.setattr(journal_module, "INTENT_DEAD_FLOOR", 0)  # every end rewrites
        files = FileStore(tmp_path / "files")
        intents = files._intents
        racing, ending = intents.begin(), intents.begin()
        racing.record("refs", digests=["x"])
        ending.record("refs", digests=["y"])
        append = intents.append

        def end_the_other_first(journal, entries):
            if journal is racing:
                ender = threading.Thread(target=ending.commit)
                ender.start()
                ender.join()
            append(journal, entries)

        monkeypatch.setattr(intents, "append", end_the_other_first)
        racing.record("refs", digests=["z"])
        [loaded] = IntentLog.load(intents.path).open_saves()
        assert loaded.entries == racing.entries == [
            {"op": "refs", "digests": ["x"]}, {"op": "refs", "digests": ["z"]}]
        racing.commit()
        files.close()  # no descriptor is left for a later test to count


class TestOneOpenPerSave:
    def test_a_save_opens_its_journal_once(self, tmp_path, monkeypatch):
        """The store's first save opens the intent log; a warm save opens
        nothing under ``journal/`` and creates no directory."""
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
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
        base = service.save_model(save_info(0))
        assert set(journal_opens) == {files._intents.path}  # mkdir, then again
        journal_opens.clear()
        mkdirs.clear()
        service.save_model(save_info(1))
        service.save_model(save_info(2, base_model_id=base))
        assert journal_opens == []
        assert mkdirs == []
        assert list(files.journal_dir.iterdir()) == [files._intents.path]


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
                # dies at the model document, after the files' intents
                faults.arm_crash(2, op="docs.insert_one")
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
