"""Older formats come in through one door (DESIGN.md §11 "One import door").

Only :mod:`repro.importer` reads what older releases wrote.  Every other
open reads one format: a marked root opens, an absent or empty one is
created marked — its marker made durable by one fsync of the root — and
anything else raises :class:`~repro.errors.OlderFormatError` with nothing
written.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import OlderFormatError
from repro.filestore import FileStore
from repro.filestore.store import FORMAT_MARKER
from tests.filestore.older_release import as_older_release, tree_hash

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Names that only code reading a retired format has a use for.
RETIRED_NAMES = (
    "FRAME_MAGIC", "MANIFEST_FORMAT_V1", "MANIFEST_FORMAT_V2", "BLOB_SUFFIXES",
    "PARENT_LOGS", "PARENT_GRAVES", ".one-format", "_scan_older", "retired_keys",
    "one_format", "import_files",
)


def without_import_handler(source: str) -> str:
    """The CLI's source less its ``import`` handler."""
    lines = source.splitlines()
    [handler] = [node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "cmd_import"]
    return "\n".join(lines[:handler.lineno - 1] + lines[handler.end_lineno:])


def test_no_retired_format_name_outside_the_importer():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "importer.py":
            continue
        source = path.read_text()
        if path == SRC / "cli.py":
            source = without_import_handler(source)
        found += [f"{path.relative_to(SRC)}: {name}"
                  for name in RETIRED_NAMES if name in source]
    assert found == []


def saved(root: Path, cluster: bool) -> SharedStores:
    """A deployment with one file stored, closed."""
    stores = (SharedStores.cluster_at(root, shards=3, replicas=2) if cluster
              else SharedStores.at(root))
    stores.files.save_bytes(b"def build(): ...", suffix=".py")
    stores.documents.collection("models").insert_one({"_id": "m"})
    for member in getattr(stores.files, "members", {}).values() or [stores.files]:
        member.chunks.close()
    return stores


class TestAnOlderRootIsRefused:
    def test_a_single_store(self, tmp_path):
        saved(tmp_path, cluster=False)
        as_older_release(tmp_path)
        before = tree_hash(tmp_path)
        with pytest.raises(OlderFormatError, match="mmlib import"):
            FileStore(tmp_path / "files")
        assert tree_hash(tmp_path) == before

    def test_a_3x2_member(self, tmp_path):
        saved(tmp_path, cluster=True)
        (tmp_path / "shard-1" / "files" / FORMAT_MARKER).unlink()
        before = tree_hash(tmp_path)
        with pytest.raises(OlderFormatError, match="shard-1"):
            SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        assert tree_hash(tmp_path) == before

    def test_the_metadata_root(self, tmp_path):
        stores = saved(tmp_path, cluster=True)
        with stores.files.hold():  # the cluster's lock file
            pass
        (tmp_path / "cluster-meta" / FORMAT_MARKER).unlink()
        before = tree_hash(tmp_path)
        with pytest.raises(OlderFormatError, match="cluster-meta"):
            SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        assert tree_hash(tmp_path) == before

    def test_a_catalog_log_in_the_older_framing(self, tmp_path):
        (tmp_path / "models.jsonl").write_text(json.dumps({"_id": "m"}) + "\n")
        before = tree_hash(tmp_path)
        with pytest.raises(OlderFormatError, match="models.jsonl"):
            DocumentStore(tmp_path)
        assert tree_hash(tmp_path) == before


@pytest.fixture
def directory_fsyncs(monkeypatch) -> list:
    """The fsyncs of a descriptor opened ``O_DIRECTORY``, as they happen."""
    directories, synced = set(), []
    real_open, real_close, real_fsync = os.open, os.close, os.fsync

    def opening(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if flags & os.O_DIRECTORY:
            directories.add(fd)
        return fd

    def closing(fd):
        directories.discard(fd)
        return real_close(fd)

    def syncing(fd):
        if fd in directories:
            synced.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "close", closing)
    monkeypatch.setattr(os, "fsync", syncing)
    return synced


class TestTheMarkerIsDurable:
    @pytest.mark.parametrize("cluster", [False, True], ids=["single", "cluster-3x2"])
    def test_one_directory_barrier_per_created_root_and_none_on_reopen(
        self, tmp_path, directory_fsyncs, cluster
    ):
        def open_deployment():
            if cluster:
                return SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
            return SharedStores.at(tmp_path)

        stores = open_deployment()
        roots = [*(m.root for m in getattr(stores.files, "members", {}).values()),
                 stores.files.root]
        assert len(directory_fsyncs) == len(roots) == (4 if cluster else 1)
        assert all((root / FORMAT_MARKER).exists() for root in roots)
        stores.files.save_bytes(b"a record", suffix=".py")
        stores.files.chunks.flush()
        assert len(directory_fsyncs) == len(roots)  # a save adds none
        open_deployment()
        assert len(directory_fsyncs) == len(roots)
