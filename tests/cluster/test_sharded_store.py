"""Sharded file store: quorum writes, failover reads, read-repair."""

import threading

import numpy as np
import pytest

from repro.cluster import ShardedDocumentStore, ShardedFileStore
from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
)
from repro.docstore import DocumentStore
from repro.errors import QuorumWriteError
from repro.faults import FaultInjector
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
    )


def states_equal(model, other) -> bool:
    state, restored = model.state_dict(), other.state_dict()
    return set(state) == set(restored) and all(
        np.array_equal(state[key], restored[key]) for key in state
    )


def make_cluster(tmp_path, n=4, replicas=2, write_quorum=None) -> ShardedFileStore:
    members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(n)}
    return ShardedFileStore(
        tmp_path / "meta", members, replicas=replicas, write_quorum=write_quorum
    )


def make_docs(n=4, replicas=2) -> ShardedDocumentStore:
    return ShardedDocumentStore(
        {f"d{index}": DocumentStore() for index in range(n)}, replicas=replicas
    )


def chunk_universe(store: ShardedFileStore) -> set[str]:
    universe: set[str] = set()
    for member in store.members.values():
        universe.update(member.chunks.chunk_ids())
    return universe


def key_owned_by(store: ShardedFileStore, victim: str, prefix: str) -> str:
    """A synthetic key whose replica set includes ``victim``."""
    for index in range(10_000):
        key = f"{prefix}-{index}"
        if victim in store.ring.owners(key):
            return key
    raise AssertionError("no key landed on the victim")  # pragma: no cover


class TestRoundTrip:
    def test_save_recover_bitwise(self, tmp_path):
        store = make_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        assert states_equal(model, recovered.model)

    def test_chunks_land_exactly_on_ring_owners(self, tmp_path):
        store = make_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        digests = chunk_universe(store)
        assert digests
        for digest in digests:
            holders = {
                name
                for name, member in store.members.items()
                if member.chunks.has(digest)
            }
            assert holders == set(store.ring.owners(digest))

    def test_blobs_land_exactly_on_ring_owners(self, tmp_path):
        store = make_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        file_ids = set(store.file_ids())
        assert file_ids
        for file_id in file_ids:
            holders = {
                name
                for name, member in store.members.items()
                if member.exists(file_id)
            }
            assert holders == set(store.ring.owners(file_id))

    def test_total_bytes_counts_each_replica_once_per_member(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        assert store.total_bytes() == sum(
            member.total_bytes() for member in store.members.values()
        )


class TestQuorumWrites:
    def test_default_write_quorum_is_majority(self, tmp_path):
        assert make_cluster(tmp_path / "a", replicas=2).write_quorum == 2
        assert make_cluster(tmp_path / "b", replicas=3).write_quorum == 2

    def test_saves_succeed_degraded_with_one_replica_down(self, tmp_path):
        # R=3, W=2: a full outage of one member leaves every write a
        # functioning majority
        store = make_cluster(tmp_path, replicas=3)
        store.members["m0"].faults = FaultInjector(seed=7, error_rate=1.0)
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=2)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))

        assert store.cluster_stats["degraded_writes"] > 0
        assert store.degraded_keys
        # reads fail over around the dead member, bitwise
        recovered = service.recover_model(model_id, verify=False)
        assert states_equal(model, recovered.model)

    def test_replication_fsck_completes_degraded_writes(self, tmp_path):
        store = make_cluster(tmp_path, replicas=3)
        store.members["m0"].faults = FaultInjector(seed=7, error_rate=1.0)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=2), tiny_arch()))

        store.members["m0"].faults = None  # the member comes back
        outcome = store.replication_fsck(repair=True)
        assert outcome["repaired"]
        assert not outcome["unrepairable"]
        # second pass: the cluster is whole again
        clean = store.replication_fsck(repair=True)
        assert not clean["under_replicated"]
        assert not store.degraded_keys

    def test_quorum_error_when_acks_short(self, tmp_path):
        # R=2, W=2: a dead owner makes its keys unwritable
        store = make_cluster(tmp_path, replicas=2, write_quorum=2)
        store.members["m0"].faults = FaultInjector(seed=7, error_rate=1.0)

        file_id = key_owned_by(store, "m0", "0123456789abcdef")  # a file id's shape
        with pytest.raises(QuorumWriteError):
            store._put_chunk_data(file_id, b"payload")

        digest = key_owned_by(store, "m0", "digest")
        with pytest.raises(QuorumWriteError):
            store.put_chunk(digest, b"payload")

    def test_whole_quorum_retry_is_idempotent(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        digest = key_owned_by(store, "m1", "digest")
        assert store.put_chunk(digest, b"payload") is True
        assert store.put_chunk(digest, b"payload") is False  # dedup, no rewrite
        holders = [m for m in store.members.values() if m.chunks.has(digest)]
        assert len(holders) == 2


class TestFlushBarrier:
    def test_a_flush_waits_for_the_barrier_in_progress(self, tmp_path):
        # two saves' chunks on the same members: the second save's flush
        # finds the members already taken by the first and must not return
        # before the first save's fsyncs are done
        store = make_cluster(tmp_path, n=2, replicas=2)
        store.put_chunk("ab" * 32, b"save A")
        store.put_chunk("cd" * 32, b"save B")
        member = store.members["m0"].chunks
        inner_flush = member.flush
        entered, release = threading.Event(), threading.Event()
        order: list[str] = []

        def slow_flush():
            entered.set()
            release.wait(5)
            synced = inner_flush()
            order.append("m0 synced")
            return synced

        member.flush = slow_flush
        save_a = threading.Thread(target=store.chunks.flush)
        save_a.start()
        assert entered.wait(5)

        def flush_b():
            store.chunks.flush()
            order.append("save B acknowledged")

        save_b = threading.Thread(target=flush_b)
        save_b.start()
        save_b.join(0.5)
        release.set()
        save_a.join(5)
        save_b.join(5)
        assert order == ["m0 synced", "save B acknowledged"]

    def test_a_deduplicated_put_is_synced(self, tmp_path):
        # a read repair (or hint, or rebalance) writes a member's record
        # without a flush; a save that deduplicates against it must sync it
        store = make_cluster(tmp_path, n=2, replicas=2)
        digest = "ab" * 32
        for member in store.members.values():
            member.chunks.put(digest, b"repaired copy")
        assert store.put_chunk(digest, b"repaired copy") is False
        assert store.chunks.flush() == 2
        assert all(m.chunks.flush() == 0 for m in store.members.values())
        # once synced, a deduplicated put costs no fsync, even on a member
        # dirty with something else
        store.members["m0"].chunks.put("cd" * 32, b"unrelated record")
        assert store.put_chunk(digest, b"repaired copy") is False
        assert store.chunks.flush() == 0


class TestFailoverReads:
    def test_chunk_failover_read_repairs_the_missing_replica(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=3)
        service.save_model(ModelSaveInfo(model, tiny_arch()))

        digest = sorted(chunk_universe(store))[0]
        primary, secondary = store.ring.owners(digest)
        expected_refs = store.members[secondary].chunks.refcount(digest)
        store.members[primary].chunks.drop(digest)
        assert not store.members[primary].chunks.has(digest)

        data = store.get_chunk(digest)
        assert data == store.members[secondary].chunks.get(digest)
        assert store.cluster_stats["failover_reads"] >= 1
        assert store.cluster_stats["read_repairs"] >= 1
        # the primary holds the chunk again, refcount included
        assert store.members[primary].chunks.has(digest)
        assert store.members[primary].chunks.refcount(digest) == expected_refs

    def test_blob_failover_read_repairs_the_missing_replica(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=3), tiny_arch()))

        file_id = sorted(store.file_ids())[0]
        primary = store.ring.owners(file_id)[0]
        store.members[primary].chunks.drop(file_id)

        data = store.recover_bytes(file_id)
        assert data
        assert store.members[primary].exists(file_id)
        assert store.cluster_stats["read_repairs"] >= 1

    def test_read_fails_only_when_every_replica_is_gone(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=3), tiny_arch()))

        digest = sorted(chunk_universe(store))[0]
        for member in store.members.values():
            member.chunks.drop(digest)
        with pytest.raises(KeyError):
            store.get_chunk(digest)

    def test_full_recovery_with_one_member_dark(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = ParameterUpdateSaveService(make_docs(), store)
        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch()))
        derived = make_tiny_cnn(seed=2)
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id)
        )

        store.members["m2"].faults = FaultInjector(seed=5, error_rate=1.0)
        recovered = service.recover_model(derived_id, verify=False)
        assert states_equal(derived, recovered.model)


class TestManagerIntegration:
    def test_fsck_reports_and_repairs_under_replication(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = ParameterUpdateSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=4)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        manager = ModelManager(service)
        assert manager.fsck().clean

        # a member loses its chunk replicas (disk wipe)
        victim = store.members["m1"]
        for digest in list(victim.chunks.chunk_ids()):
            victim.chunks.drop(digest)

        report = manager.fsck()
        issues = [issue for issue in report.issues if issue.kind == "under_replicated"]
        assert issues
        assert all(issue.repaired for issue in issues)
        assert not report.unrepaired

        assert manager.fsck().clean
        recovered = service.recover_model(model_id, verify=False)
        assert states_equal(model, recovered.model)

    def test_fsck_preserves_sole_copy_stranded_on_a_non_owner(self, tmp_path):
        # interrupted rebalance: a chunk's only surviving copy sits on a
        # member the ring does not assign it to.  fsck's orphan sweep
        # must treat that stray as the repair source for the missing
        # owners — not delete it — or fsck itself loses data.
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=6)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        manager = ModelManager(service)

        digest = sorted(chunk_universe(store))[0]
        owners = store.ring.owners(digest)
        stray = next(n for n in sorted(store.members) if n not in owners)
        data = store.members[owners[0]].chunks.get(digest)
        refcount = store.members[owners[0]].chunks.refcount(digest)
        store.members[stray].chunks.put(digest, data)
        store.members[stray].chunks.import_refs({digest: refcount})
        for name in owners:
            store.members[name].chunks.drop(digest)
            store.members[name].chunks.forget_refs([digest])

        report = manager.fsck(repair=True)
        assert not report.unrepaired
        # the owners are whole again and only then was the stray retired
        for name in owners:
            assert store.members[name].chunks.has(digest)
        assert not store.members[stray].chunks.has(digest)
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        assert states_equal(model, recovered.model)

    def test_gc_runs_unmodified_over_the_cluster(self, tmp_path):
        store = make_cluster(tmp_path, replicas=2)
        service = BaselineSaveService(make_docs(), store)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(seed=5), tiny_arch()))
        manager = ModelManager(service)
        manager.delete_model(model_id)
        assert chunk_universe(store) == set()
