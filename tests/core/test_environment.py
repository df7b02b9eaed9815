"""Environment capture and compatibility checks."""

import pytest

from repro.core import (
    EnvironmentInfo,
    EnvironmentMismatchError,
    check_environment,
    collect_environment,
)
from repro.core.environment import environment_id


class TestCollection:
    def test_collect_returns_populated_snapshot(self):
        info = collect_environment()
        assert info.numpy_version
        assert info.python_version.count(".") == 2
        assert info.cpu_count >= 1
        assert isinstance(info.libraries, dict) and info.libraries
        assert "numpy" in info.libraries

    def test_framework_version_present(self):
        info = collect_environment()
        assert info.framework_version != ""

    def test_round_trip_via_dict(self):
        info = collect_environment()
        restored = EnvironmentInfo.from_dict(info.to_dict())
        assert restored == info


class TestSnapshotIsNeverStale:
    """The distribution enumeration is kept per process and revalidated
    against ``sys.path`` and its ``*.dist-info`` entries on every call."""

    def test_install_and_uninstall_are_seen_by_the_next_snapshot(
        self, tmp_path, monkeypatch
    ):
        site = tmp_path / "site"
        site.mkdir()
        monkeypatch.syspath_prepend(str(site))
        before = collect_environment()  # warms the memo for this sys.path
        assert "foo" not in before.libraries

        dist_info = site / "foo-1.0.dist-info"
        dist_info.mkdir()
        (dist_info / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: foo\nVersion: 1.0\n"
        )
        installed = collect_environment()
        assert installed.libraries["foo"] == "1.0"
        assert environment_id(installed.to_dict()) != environment_id(before.to_dict())

        (dist_info / "METADATA").unlink()
        dist_info.rmdir()
        removed = collect_environment()
        assert "foo" not in removed.libraries
        assert environment_id(removed.to_dict()) == environment_id(before.to_dict())

    def test_upgrade_in_place_is_seen(self, tmp_path, monkeypatch):
        site = tmp_path / "site"
        old = site / "foo-1.0.dist-info"
        old.mkdir(parents=True)
        (old / "METADATA").write_text("Metadata-Version: 2.1\nName: foo\nVersion: 1.0\n")
        monkeypatch.syspath_prepend(str(site))
        assert collect_environment().libraries["foo"] == "1.0"
        new = site / "foo-1.1.dist-info"
        old.rename(new)
        (new / "METADATA").write_text("Metadata-Version: 2.1\nName: foo\nVersion: 1.1\n")
        assert collect_environment().libraries["foo"] == "1.1"

    def test_id_ignores_collection_time_only(self):
        first, second = collect_environment(), collect_environment()
        assert second.collected_at >= first.collected_at
        assert environment_id(first.to_dict()) == environment_id(second.to_dict())
        stored = {**first.to_dict(), "_id": environment_id(first.to_dict())}
        assert environment_id(stored) == stored["_id"]
        assert environment_id({**stored, "hostname": "elsewhere"}) != stored["_id"]

    def test_callers_cannot_mutate_the_kept_enumeration(self):
        collect_environment().libraries["intruder"] = "0"
        assert "intruder" not in collect_environment().libraries


class TestComparison:
    def test_same_environment_passes(self):
        info = collect_environment()
        check_environment(info)  # compares against a fresh snapshot

    def test_differences_empty_for_equal(self):
        info = collect_environment()
        assert info.differences(info) == {}

    def test_framework_version_mismatch_detected(self):
        saved = collect_environment()
        changed = EnvironmentInfo.from_dict({**saved.to_dict(), "framework_version": "0.0.1"})
        with pytest.raises(EnvironmentMismatchError, match="framework_version"):
            check_environment(changed)

    def test_library_set_mismatch_detected(self):
        saved = collect_environment()
        libraries = dict(saved.libraries)
        libraries["fictional-package"] = "9.9"
        changed = EnvironmentInfo.from_dict({**saved.to_dict(), "libraries": libraries})
        with pytest.raises(EnvironmentMismatchError):
            check_environment(changed)

    def test_hostname_difference_is_not_strict(self):
        saved = collect_environment()
        changed = EnvironmentInfo.from_dict({**saved.to_dict(), "hostname": "other-machine"})
        check_environment(changed)  # informational field only

    def test_custom_field_selection(self):
        saved = collect_environment()
        changed = EnvironmentInfo.from_dict({**saved.to_dict(), "hostname": "other"})
        mismatches = saved.differences(changed, fields=("hostname",))
        assert list(mismatches) == ["hostname"]


class TestLockfiles:
    """ReproZip-style environment pinning (the paper's future work)."""

    def test_write_read_round_trip(self, tmp_path):
        from repro.core import read_lockfile, write_lockfile

        path = tmp_path / "env.lock"
        written = write_lockfile(path)
        loaded = read_lockfile(path)
        assert loaded == written

    def test_check_passes_on_same_machine(self, tmp_path):
        from repro.core import check_lockfile, write_lockfile

        path = tmp_path / "env.lock"
        write_lockfile(path)
        check_lockfile(path)

    def test_check_detects_drift(self, tmp_path):
        import json

        from repro.core import check_lockfile, write_lockfile

        path = tmp_path / "env.lock"
        write_lockfile(path)
        payload = json.loads(path.read_text())
        payload["libraries"]["phantom-package"] = "1.0"
        path.write_text(json.dumps(payload))
        with pytest.raises(EnvironmentMismatchError):
            check_lockfile(path)
