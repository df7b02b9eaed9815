"""Cluster membership changes: minimal movement, a placement sweep, fsck heal."""

import numpy as np
import pytest

from repro.cluster import HashRing, ShardedDocumentStore, ShardedFileStore, antientropy
from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo
from repro.core.hashing import tensor_hash
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.filestore.store import is_file_id
from tests.conftest import make_tiny_cnn, replace_record


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
    )


def states_equal(model, other) -> bool:
    state, restored = model.state_dict(), other.state_dict()
    return all(np.array_equal(state[key], restored[key]) for key in state)


def make_cluster(tmp_path, n=4, replicas=2) -> ShardedFileStore:
    members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(n)}
    return ShardedFileStore(tmp_path / "meta", members, replicas=replicas)


def make_docs(n=4, replicas=2) -> ShardedDocumentStore:
    return ShardedDocumentStore(
        {f"d{index}": DocumentStore() for index in range(n)}, replicas=replicas
    )


def chunk_placement(store: ShardedFileStore) -> dict[str, set[str]]:
    """Holders of every record: chunks, and files under their file ids."""
    placement: dict[str, set[str]] = {}
    for name, member in store.members.items():
        for digest in member.chunks.chunk_ids():
            placement.setdefault(digest, set()).add(name)
    return placement


def assert_placement_matches_ring(store: ShardedFileStore) -> None:
    placement = chunk_placement(store)
    assert any(is_file_id(key) for key in placement)
    for key, holders in placement.items():
        assert holders == set(store.ring.owners(key)), key


@pytest.fixture
def populated(tmp_path):
    store = make_cluster(tmp_path)
    service = BaselineSaveService(make_docs(), store)
    model = make_tiny_cnn(seed=1)
    model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
    other = make_tiny_cnn(seed=2)
    service.save_model(ModelSaveInfo(other, tiny_arch()))
    return store, service, model, model_id


def ring_with(store: ShardedFileStore, add=()) -> HashRing:
    """A ring like ``store``'s, with ``add`` joined."""
    return HashRing([*store.ring.members(), *add],
                    replicas=store.ring.replicas, vnodes=store.ring.vnodes)


def owner_diff(old: HashRing, new: HashRing, keys) -> set[str]:
    """The keys whose owner set differs between ``old`` and ``new``."""
    return {key for key in keys if set(old.owners(key)) != set(new.owners(key))}


def break_copies(monkeypatch, fail=lambda digest: True) -> list[str]:
    """Make each copy onto a member raise where ``fail(digest)``; returns
    the digests whose copy failed."""
    failed, place = [], antientropy.place

    def flaky(member, digest, *args, **kwargs):
        if fail(digest):
            failed.append(digest)
            raise OSError("injected copy failure")
        return place(member, digest, *args, **kwargs)

    monkeypatch.setattr(antientropy, "place", flaky)
    return failed


class TestAddMember:
    def test_moves_only_keys_whose_ownership_changed(self, populated, tmp_path):
        store, service, model, model_id = populated
        old_ring = ring_with(store)
        before = chunk_placement(store)

        stats = store.add_member("m4", FileStore(tmp_path / "m4"))

        moved = owner_diff(old_ring, store.ring, before)
        assert stats["backlog"] == []
        assert stats["misplaced"] == len(moved) > 0
        assert len(stats["repaired"]) <= stats["misplaced"]
        # untouched keys kept their exact replica placement
        after = chunk_placement(store)
        for digest, placement in before.items():
            if digest not in moved:
                assert after[digest] == placement, digest
        assert_placement_matches_ring(store)

    def test_reads_only_the_keys_whose_owner_set_changed(self, populated, tmp_path, monkeypatch):
        # a healthy cluster's holders are its ring owners, so the sweep reads
        # (asks the heal source for) what moves and not the whole cluster
        store, *_ = populated
        old_ring = ring_with(store)
        keys = set(chunk_placement(store))
        read, source = [], antientropy.source

        def spy(cluster, digest, *args, **kwargs):
            read.append(digest)
            return source(cluster, digest, *args, **kwargs)

        monkeypatch.setattr(antientropy, "source", spy)
        store.add_member("m4", FileStore(tmp_path / "m4"))

        moved = owner_diff(old_ring, store.ring, keys)
        assert moved and len(moved) < len(keys)
        assert sorted(read) == sorted(moved)

    def test_recovery_is_bitwise_after_the_move(self, populated, tmp_path):
        store, service, model, model_id = populated
        store.add_member("m4", FileStore(tmp_path / "m4"))
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        assert states_equal(model, recovered.model)

    def test_cluster_is_fully_replicated_after_the_move(self, populated, tmp_path):
        store, *_ = populated
        store.add_member("m4", FileStore(tmp_path / "m4"))
        outcome = store.sweep(repair=False)
        assert outcome["under_replicated"] == []

    def test_a_corrupt_replica_is_never_the_move_source(self, populated, tmp_path):
        # a chunk whose new owners keep one old owner: that owner's copy is
        # rewritten under a valid record CRC, so only the content check sees
        # it; the other old owner holds the only intact copy and is dropped
        store, service, model, model_id = populated
        new_ring = ring_with(store, add=["m4"])
        moved = kept_owner = None
        for digest in sorted(tensor_hash(array) for array in model.state_dict().values()):
            kept = set(store.ring.owners(digest)) & set(new_ring.owners(digest))
            if len(kept) == 1:
                moved, (kept_owner,) = digest, kept
                break
        assert moved is not None
        intact = bytes(store.members[kept_owner].chunks.get(moved))
        corrupt = bytes([intact[0] ^ 0xFF]) + intact[1:]
        replace_record(store.members[kept_owner], moved, corrupt)

        stats = store.add_member("m4", FileStore(tmp_path / "m4"))

        assert stats["backlog"] == []
        assert_placement_matches_ring(store)
        for name in store.ring.owners(moved):
            assert bytes(store.members[name].chunks.get(moved)) == intact, name
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        assert states_equal(model, recovered.model)

    def test_every_record_a_joiner_received_is_synced(self, tmp_path):
        """The heal flushes the copies it placed before it retires the
        strays they replace: power loss cannot leave a key one replica
        short."""
        store = make_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        joiner = FileStore(tmp_path / "m4")

        report = store.add_member("m4", joiner)

        received = joiner.chunks.chunk_ids()
        assert received and report["strays_dropped"]
        assert [digest for digest in received if not joiner.chunks.synced(digest)] == []

    def test_duplicate_member_rejected(self, populated, tmp_path):
        store, *_ = populated
        with pytest.raises(ValueError):
            store.add_member("m0", FileStore(tmp_path / "dup"))


class TestRemoveMember:
    def test_drains_every_key_off_the_leaver(self, populated):
        store, service, model, model_id = populated
        stats = store.remove_member("m3")
        assert stats["backlog"] == []
        assert stats["drained"] is True
        assert "m3" not in store.members
        assert "m3" not in store.ring
        assert_placement_matches_ring(store)
        assert states_equal(model, service.recover_model(model_id).model)

    def test_unknown_member_rejected(self, populated):
        store, *_ = populated
        with pytest.raises(KeyError):
            store.remove_member("m9")

    def test_failed_drain_keeps_the_leaver_as_a_copy_source(self, populated, monkeypatch):
        # keys whose copy failed may exist only on the leaver; dropping
        # it anyway would orphan them unrecoverably
        store, service, model, model_id = populated
        failed = break_copies(monkeypatch)
        stats = store.remove_member("m3")
        assert len(stats["backlog"]) == len(failed) > 0
        assert stats["drained"] is False
        assert "m3" in store.members  # retained: may hold sole copies
        assert "m3" not in store.ring

        # heal the copy path and run the change again
        monkeypatch.undo()
        stats = store.remove_member("m3")
        assert stats["backlog"] == []
        assert stats["drained"] is True
        assert "m3" not in store.members
        assert_placement_matches_ring(store)
        assert states_equal(model, service.recover_model(model_id).model)


class TestResume:
    def test_interrupted_rebalance_resumes_from_the_journal(self, populated, tmp_path, monkeypatch):
        """Nothing is journaled: the placement itself says what is left,
        and fsck's replication step finishes a change two copies failed."""
        store, service, model, model_id = populated
        crashed: set[str] = set()

        def first_two(digest):
            if len(crashed) < 2 and digest not in crashed:
                crashed.add(digest)
                return True
            return False

        failed = break_copies(monkeypatch, first_two)
        stats = store.add_member("m4", FileStore(tmp_path / "m4"))
        assert len(stats["backlog"]) == len(failed) == 2
        assert stats["repaired"]

        monkeypatch.undo()
        finished = store.sweep(repair=True)
        assert {entry["key"] for entry in finished["repaired"]} == crashed
        assert finished["unrepairable"] == []
        assert_placement_matches_ring(store)
        assert states_equal(model, service.recover_model(model_id).model)

    def test_clean_rebalance_leaves_no_journal(self, populated, tmp_path):
        store, *_ = populated
        meta = tmp_path / "meta"
        before = sorted(meta.rglob("*"))
        stats = store.add_member("m4", FileStore(tmp_path / "m4"))
        store.remove_member("m0")
        assert stats["backlog"] == []
        assert sorted(meta.rglob("*")) == before  # a membership change writes no log
        assert not (meta / "rebalance").exists()


class TestReplicationFsck:
    def test_repairs_under_replicated_chunks(self, populated):
        store, service, model, model_id = populated
        victim = store.members["m0"]
        lost = list(victim.chunks.chunk_ids())
        for digest in lost:
            victim.chunks.drop(digest)
        assert lost

        outcome = store.sweep(repair=True)
        assert {entry["key"] for entry in outcome["repaired"]} >= set(lost)
        assert outcome["unrepairable"] == []
        assert_placement_matches_ring(store)

    def test_report_only_mode_leaves_damage_in_place(self, populated):
        store, *_ = populated
        victim = store.members["m0"]
        lost = list(victim.chunks.chunk_ids())
        for digest in lost:
            victim.chunks.drop(digest)

        outcome = store.sweep(repair=False)
        assert outcome["under_replicated"]
        assert outcome["repaired"] == []
        assert not victim.chunks.has(lost[0])

    def test_drops_stray_replicas_once_owners_are_whole(self, populated):
        store, *_ = populated
        placement = chunk_placement(store)
        digest = sorted(placement)[0]
        stray = next(
            name for name in sorted(store.members) if name not in placement[digest]
        )
        owners = store.ring.owners(digest)
        data = store.members[owners[0]].chunks.get(digest)
        store.members[stray].chunks.put(digest, data)

        outcome = store.sweep(repair=True)
        assert {"kind": "chunk", "key": digest, "member": stray} in outcome[
            "strays_dropped"
        ]
        assert not store.members[stray].chunks.has(digest)

    def test_audit_only_run_reports_blob_with_no_intact_copy(self, populated):
        # repair=False must still surface blobs that *cannot* be
        # repaired, or an audit exits clean on an unrecoverable cluster
        store, *_ = populated
        file_id = sorted(key for key in chunk_placement(store) if is_file_id(key))[0]
        owners = store.ring.owners(file_id)
        store.members[owners[0]].chunks.drop(file_id)  # under-replicate
        for name in owners[1:]:  # corrupt every surviving copy at rest
            if store.members[name].exists(file_id):
                replace_record(store.members[name], file_id, b"garbage")

        audit = store.sweep(repair=False)
        assert {"kind": "chunk", "key": file_id} in audit["unrepairable"]
        assert audit["repaired"] == []  # audit-only: nothing written

    def test_key_lost_everywhere_is_unrepairable(self, populated):
        store, *_ = populated
        digest = sorted(key for key in chunk_placement(store) if not is_file_id(key))[0]
        for member in store.members.values():
            member.chunks.drop(digest)

        # no member stores it; a stored manifest names it, which keeps it
        # in the sweep's universe, and the heal of that key can do nothing
        outcome = store.sweep(repair=True)
        assert {"kind": "chunk", "key": digest} in outcome["unrepairable"]
