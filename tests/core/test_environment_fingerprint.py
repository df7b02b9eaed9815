"""The distribution fingerprint: one stat per ``sys.path`` entry.

An install, uninstall or upgrade creates, removes or renames a
``*.dist-info`` child, which moves its ``sys.path`` entry's own mtime, so
a settled entry is fingerprinted by ``(st_ino, st_mtime_ns)`` alone.  An
entry modified within the racy window of the call may change again in
the same mtime tick, so it is still scanned child by child.  These tests
control ``sys.path`` completely, so no ambient directory can be racy.
"""

import importlib.metadata
import os
import time
import zipfile

import pytest

from repro.core import BaselineSaveService, ModelSaveInfo, environment
from repro.core.environment import collect_environment, environment_id
from repro.core.schema import ENVIRONMENTS, MODELS
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import tiny_arch

#: Far outside the racy window, and a second, different such time.
OLD_S = time.time() - 3600
OLDER_S = OLD_S - 3600


def metadata(site, name="foo", version="1.0"):
    dist_info = site / f"{name}-{version}.dist-info"
    dist_info.mkdir()
    (dist_info / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {name}\nVersion: {version}\n")
    return dist_info


def back_date(path, seconds=OLD_S):
    os.utime(path, (seconds, seconds))


@pytest.fixture
def site(tmp_path, monkeypatch):
    """A back-dated directory that is the whole of ``sys.path``, and a
    forgotten snapshot."""
    site = tmp_path / "site"
    site.mkdir()
    back_date(site)
    monkeypatch.setattr(environment.sys, "path", [str(site)])
    monkeypatch.setattr(environment, "_installed", None)
    return site


@pytest.fixture
def scandirs(monkeypatch):
    """Paths ``os.scandir`` is called on from here."""
    calls = []
    real = os.scandir

    def counting(path="."):
        calls.append(str(path))
        return real(path)

    monkeypatch.setattr(environment.os, "scandir", counting)
    return calls


@pytest.fixture
def enumerations(monkeypatch):
    calls = []
    real = importlib.metadata.distributions

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(importlib.metadata, "distributions", counting)
    return calls


class TestASettledEntryIsOneStat:
    """ROADMAP 6 (a)'s gate: with the entry outside the racy window,
    creating, removing or renaming a dist-info shows in the next snapshot,
    seen by the entry's stat alone (re-dated outside the window, so no
    scan could have seen it)."""

    def test_create_remove_and_rename_are_each_seen(self, site, scandirs):
        before = collect_environment()  # warms the memo
        assert "foo" not in before.libraries

        dist_info = metadata(site)
        back_date(site, OLDER_S)
        scandirs.clear()
        installed = collect_environment()
        assert installed.libraries["foo"] == "1.0"
        assert scandirs == []
        assert environment_id(installed.to_dict()) != environment_id(before.to_dict())

        renamed = dist_info.rename(site / "foo-1.1.dist-info")
        (renamed / "METADATA").write_text("Metadata-Version: 2.1\nName: foo\nVersion: 1.1\n")
        back_date(site, OLD_S)
        scandirs.clear()
        assert collect_environment().libraries["foo"] == "1.1"
        assert scandirs == []

        (renamed / "METADATA").unlink()
        renamed.rmdir()
        back_date(site, OLDER_S)
        scandirs.clear()
        removed = collect_environment()
        assert "foo" not in removed.libraries
        assert scandirs == []
        assert environment_id(removed.to_dict()) == environment_id(before.to_dict())

    def test_create_remove_and_rename_are_seen_undated(self, site):
        """The same changes without re-dating: the entry is then racy."""
        collect_environment()
        dist_info = metadata(site)
        assert collect_environment().libraries["foo"] == "1.0"
        dist_info.rename(site / "foo-1.1.dist-info")
        (site / "foo-1.1.dist-info" / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: foo\nVersion: 1.1\n")
        assert collect_environment().libraries["foo"] == "1.1"
        (site / "foo-1.1.dist-info" / "METADATA").unlink()
        (site / "foo-1.1.dist-info").rmdir()
        assert "foo" not in collect_environment().libraries

    def test_steady_state_scans_nothing_and_enumerates_once(
        self, site, tmp_path, monkeypatch, scandirs, enumerations
    ):
        metadata(site)
        back_date(site)
        archive = tmp_path / "dists.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("bar-2.0.dist-info/METADATA",
                        "Metadata-Version: 2.1\nName: bar\nVersion: 2.0\n")
        back_date(archive)
        monkeypatch.setattr(
            environment.sys, "path", [str(site), str(archive), str(tmp_path / "missing")])
        assert collect_environment().libraries == {"bar": "2.0", "foo": "1.0"}
        scandirs.clear()
        for _ in range(20):
            assert collect_environment().libraries == {"bar": "2.0", "foo": "1.0"}
        assert scandirs == []
        assert len(enumerations) == 1

    def test_fingerprint_forms(self, site, tmp_path, monkeypatch):
        archive = tmp_path / "dists.zip"
        zipfile.ZipFile(archive, "w").close()
        monkeypatch.setattr(
            environment.sys, "path", [str(site), str(archive), str(tmp_path / "missing")])
        stat, zip_stat = os.stat(site), os.stat(archive)
        assert environment._distributions_fingerprint() == (
            (str(site), (stat.st_ino, stat.st_mtime_ns)),
            (str(archive), (zip_stat.st_mtime_ns, zip_stat.st_size)),
            (str(tmp_path / "missing"), None),
        )


class TestARacyEntryIsScanned:
    def test_an_entry_modified_inside_the_window_is_scanned(self, site, scandirs):
        metadata(site)  # site's mtime is now
        fingerprint = environment._distributions_fingerprint()
        assert scandirs == [str(site)]
        (_, (_, _, children)), = fingerprint
        assert [name for name, _ in children] == ["foo-1.0.dist-info"]

    def test_a_change_in_the_same_mtime_tick_is_seen(self, site):
        """The racy-clean case: a second change leaves the entry's mtime
        where the snapshot saw it.  Only the children show it."""
        metadata(site)
        tick = os.stat(site).st_mtime_ns
        assert collect_environment().libraries == {"foo": "1.0"}
        metadata(site, "baz", "3.0")
        os.utime(site, ns=(tick, tick))
        assert collect_environment().libraries == {"baz": "3.0", "foo": "1.0"}

    def test_leaving_the_window_costs_no_enumeration(
        self, site, monkeypatch, scandirs, enumerations
    ):
        """A snapshot taken while an entry was racy is checked against its
        children once more after the entry settles, then by stat only."""
        metadata(site)
        collect_environment()
        monkeypatch.setattr(environment, "RACY_WINDOW_NS", 0)  # time passes
        scandirs.clear()
        assert collect_environment().libraries == {"foo": "1.0"}
        assert scandirs == [str(site)]  # compared like for like, then settled
        scandirs.clear()
        assert collect_environment().libraries == {"foo": "1.0"}
        assert scandirs == []
        assert len(enumerations) == 1


class TestTheIdIsHashedOncePerEnumeration:
    def test_saves_over_an_unchanged_environment_hash_it_once(
        self, site, tmp_path, monkeypatch
    ):
        """N saves insert the environment document each time (fsck may
        have swept it) but hash its id once; a new dist-info in a
        ``sys.path`` directory between two saves gives a new id."""
        hashed = []
        real_id = environment.environment_id
        monkeypatch.setattr(
            environment, "environment_id", lambda fields: hashed.append(1) or real_id(fields))
        monkeypatch.setattr(environment, "_document", None)
        documents = DocumentStore()
        service = BaselineSaveService(documents, FileStore(tmp_path / "files"))
        inserts = []
        environments = documents.collection(ENVIRONMENTS)
        insert = environments.insert_one
        monkeypatch.setattr(
            environments, "insert_one", lambda doc: inserts.append(doc["_id"]) or insert(doc))
        ids = [service.save_model(ModelSaveInfo(make_tiny_cnn(seed=s), tiny_arch()))
               for s in range(5)]
        assert len(hashed) == 1 and len(inserts) == 5
        before = {documents.collection(MODELS).get(i)["environment_id"] for i in ids}
        assert len(before) == 1

        metadata(site, name="newdist")
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(seed=9), tiny_arch()))
        after = documents.collection(MODELS).get(model_id)["environment_id"]
        assert after not in before and len(hashed) == 2
        assert environments.get(after)["libraries"]["newdist"] == "1.0"
        assert environment_id(environments.get(after)) == after


def two_parse_reference() -> dict[str, str]:
    """What the enumeration returned when it parsed ``METADATA`` for the
    name and again for ``.version``."""
    libraries = {}
    for distribution in importlib.metadata.distributions():
        name = distribution.metadata.get("Name")
        if name:
            libraries[name.lower()] = distribution.version
    return dict(sorted(libraries.items()))


class TestOneParsePerDistribution:
    def test_each_metadata_is_read_once_per_enumeration(self, site, tmp_path, monkeypatch):
        metadata(site)
        metadata(site, "bar", "2.0")
        archive = tmp_path / "dists.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("baz-3.0.dist-info/METADATA",
                        "Metadata-Version: 2.1\nName: baz\nVersion: 3.0\n")
        monkeypatch.setattr(environment.sys, "path", [str(site), str(archive)])
        reads = []
        real = importlib.metadata.PathDistribution.read_text

        def counting(distribution, filename):
            if filename == "METADATA":
                reads.append(str(distribution._path))
            return real(distribution, filename)

        monkeypatch.setattr(importlib.metadata.PathDistribution, "read_text", counting)
        for _ in range(2):
            reads.clear()
            assert environment._installed_libraries() == {
                "bar": "2.0", "baz": "3.0", "foo": "1.0"}
            assert sorted(reads) == sorted(set(reads)) and len(reads) == 3

    def test_the_result_equals_the_two_parse_reference(self):
        """Over this interpreter's own distributions."""
        assert environment._installed_libraries() == two_parse_reference()
