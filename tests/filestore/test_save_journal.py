"""A save holds its store's lock and writes no log of its own.

It commits by its model document's insert; what a failed or crashed save
leaves is reclaimed by gc and fsck (``test_crash_consistency.py``).  Every
way a save ends — commit, a refused insert, a simulated crash — leaves the
descriptor count where it was: the lock's file is closed with its hold.
"""

import os

import pytest

from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestNoDescriptorLeak:
    def test_fifty_mixed_saves_hold_no_descriptor(self, tmp_path):
        """Committed, refused and crash-killed saves alike leave the
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
                # dies at the model document, after the files' steps
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
