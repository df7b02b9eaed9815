"""Self-healing: hinted handoff, anti-entropy, heal()/fsck integration."""

import json
import os

import pytest

from repro.cluster import (
    AntiEntropyScanner,
    ClusterRebalancer,
    FailureDetector,
    HintDeliverer,
    HintLog,
    ShardedDocumentStore,
    ShardedFileStore,
)
from repro.core import ArchitectureRef, BaselineSaveService, ModelManager, ModelSaveInfo
from repro.docstore import DocumentStore, NotFoundError
from repro.faults import FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn, replace_record

from .test_sharded_store import make_docs, states_equal, tiny_arch


def written_bytes() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io") as handle:
        fields = dict(line.split(": ") for line in handle.read().splitlines())
    return int(fields["wchar"])


def make_selfheal_cluster(tmp_path, n=4, replicas=2, write_quorum=1):
    """Sharded file store with per-member fault injectors and the
    failure detector + hint log wired in (as ``cluster_at(self_heal=True)``
    does), but built by hand so tests can reach every part."""
    faults = {f"m{index}": FaultInjector(seed=100 + index) for index in range(n)}
    members = {
        f"m{index}": FileStore(tmp_path / f"m{index}", faults=faults[f"m{index}"])
        for index in range(n)
    }
    detector = FailureDetector(members=sorted(members))
    hints = HintLog(tmp_path / "hints")
    store = ShardedFileStore(
        tmp_path / "meta",
        members,
        replicas=replicas,
        write_quorum=write_quorum,
        detector=detector,
        hint_log=hints,
    )
    return store, faults, detector, hints


def recover_member(detector: FailureDetector, name: str) -> None:
    """What ``_probe_down_members`` does after a successful ping: enough
    consecutive successes to walk DOWN -> SUSPECT -> HEALTHY."""
    for _ in range(detector.recovery_threshold):
        detector.record_success(name)


class TestHintLog:
    def test_record_and_dedupe(self, tmp_path):
        log = HintLog(tmp_path / "hints")
        assert log.record("m0", "chunk", "abc123") is True
        assert log.record("m0", "chunk", "abc123") is False  # same IOU
        assert log.record("m0", "blob", "abc123") is True  # other kind
        assert log.total_pending() == 2
        assert log.pending_counts() == {"m0": 2}
        assert log.stats["recorded"] == 2
        assert log.stats["duplicates"] == 1

    def test_resolve_delivered_vs_stale(self, tmp_path):
        log = HintLog(tmp_path / "hints")
        log.record("m0", "chunk", "aa")
        log.record("m0", "chunk", "bb")
        first, second = log.pending("m0")
        log.resolve("m0", first)
        log.resolve("m0", second, stale=True)
        assert log.total_pending() == 0
        assert log.stats["delivered"] == 1
        assert log.stats["stale"] == 1

    def test_pending_survives_reopen(self, tmp_path):
        root = tmp_path / "hints"
        log = HintLog(root)
        log.record("m0", "chunk", "aa")
        log.record("m1", "doc", "model-1", collection="models")
        reopened = HintLog(root)
        assert reopened.total_pending() == 2
        assert reopened.pending_counts() == {"m0": 1, "m1": 1}
        doc_hint = reopened.pending("m1")[0]
        assert doc_hint["collection"] == "models"
        # a replayed IOU is still a duplicate after reopen
        assert reopened.record("m0", "chunk", "aa") is False

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        root = tmp_path / "hints"
        log = HintLog(root)
        log.record("m0", "chunk", "aa")
        log.record("m0", "chunk", "bb")
        path = root / "m0.jsonl"
        with open(path, "a") as handle:
            handle.write('{"op": "hint", "kind": "chunk", "key": "cc"')  # torn
        reopened = HintLog(root)
        assert [h["key"] for h in reopened.pending("m0")] == ["aa", "bb"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc")
    def test_draining_n_hints_writes_o_n_bytes(self, tmp_path):
        """A resolve appends a tombstone; the file is rewritten only past
        its dead-bytes threshold, so the drain's writes grow with n, not
        n squared (every byte written, as the kernel counts it)."""
        log = HintLog(tmp_path / "hints")
        n = 400
        for index in range(n):
            log.record("m0", "chunk", f"{index:064x}")
        path = tmp_path / "hints" / "m0.jsonl"
        record_bytes = path.stat().st_size / n
        before = written_bytes()
        for hint in log.pending("m0"):
            log.resolve("m0", hint)
        drained = written_bytes() - before
        assert log.total_pending() == 0 and not path.exists()
        assert drained < 6 * n * record_bytes

    def test_members_with_hints_and_bytes(self, tmp_path):
        log = HintLog(tmp_path / "hints")
        log.record("m2", "chunk", "aa")
        log.record("m0", "blob", "bb")
        assert log.members_with_hints() == ["m0", "m2"]
        assert log.pending_bytes() > 0


class TestHintedHandoff:
    def save_one(self, store, seed=1):
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=seed)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        return service, model, model_id

    def test_degraded_write_records_hints(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        assert hints.pending_counts().get("m1", 0) > 0
        assert set(hints.members_with_hints()) == {"m1"}
        assert store.degraded_keys  # writes acked below full replication

    def test_drain_after_restore_fills_missed_replicas(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service, model, model_id = self.save_one(store)
        owed = hints.pending("m1")
        assert owed
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        deliverer = HintDeliverer(hints, detector, store.hint_appliers())
        assert deliverer.drain() is True
        assert hints.total_pending() == 0
        member = store.members["m1"]
        for hint in owed:
            if hint["kind"] == "chunk":
                assert member.chunks.has(hint["key"])
            else:
                assert member.exists(hint["key"])
        assert not store.degraded_keys
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_deliverer_skips_members_held_down(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        for _ in range(detector.failure_threshold):
            detector.record_failure("m1")
        deliverer = HintDeliverer(hints, detector, store.hint_appliers())
        round_stats = deliverer.deliver_once()
        assert round_stats["skipped_down"] == 1
        assert round_stats["delivered"] == 0
        assert hints.total_pending() > 0  # nothing dropped, still owed

    def test_hints_race_rebalancer_resolve_stale(self, tmp_path):
        # The member a hint is owed to gets decommissioned before
        # delivery: the rebalancer re-replicates its keys, so the IOUs
        # must resolve as stale instead of failing forever.
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service, model, model_id = self.save_one(store)
        assert hints.pending_counts().get("m1", 0) > 0
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        ClusterRebalancer(store).remove_member("m1")
        deliverer = HintDeliverer(hints, detector, store.hint_appliers())
        assert deliverer.drain() is True
        assert hints.total_pending() == 0
        assert deliverer.stats["stale"] > 0
        assert deliverer.stats["delivered"] == 0
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_crash_between_apply_and_resolve_replays_as_noop(self, tmp_path):
        # Deliverer applied a hint, then died before resolving it.  The
        # hint survives on disk; replaying it must be a no-op delivery,
        # not a duplicate or an error.
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        appliers = store.hint_appliers()
        victim = hints.pending("m1")[0]
        assert appliers[victim["kind"]]("m1", victim) is True  # applied...
        pending_before = hints.total_pending()
        assert pending_before > 0  # ...but the crash left it unresolved
        reopened = HintLog(tmp_path / "hints")  # the restarted process
        deliverer = HintDeliverer(reopened, detector, appliers)
        assert deliverer.drain() is True
        assert reopened.total_pending() == 0
        assert deliverer.stats["failures"] == 0

    def test_flapping_member_breaker_skips_writes(self, tmp_path):
        # Once the detector trips, writes breaker-skip the member: the
        # save still acks (W=1) and leaves IOUs without touching the
        # dead member again.
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store, seed=1)
        assert detector.state("m1") == "down"  # outage tripped it
        calls_before = faults["m1"].stats.get("errors", 0)
        self.save_one(store, seed=2)
        assert hints.pending_counts()["m1"] > 0
        # breaker open: the second save never reached the member
        assert faults["m1"].stats.get("errors", 0) == calls_before


class TestDocHintsAndTombstones:
    def make_doc_cluster(self, n=3, replicas=2):
        faults = {f"d{index}": FaultInjector(seed=200 + index) for index in range(n)}
        members = {
            f"d{index}": FaultyDocumentStore(DocumentStore(), faults[f"d{index}"])
            for index in range(n)
        }
        detector = FailureDetector(members=sorted(members))
        hints = HintLog.__new__(HintLog)  # placeholder, replaced below
        return members, faults, detector

    def test_missed_delete_never_resurrects(self, tmp_path):
        members, faults, detector = self.make_doc_cluster()
        hints = HintLog(tmp_path / "hints")
        store = ShardedDocumentStore(
            members, replicas=2, write_quorum=1, detector=detector, hint_log=hints
        )
        collection = store.collection("models")
        doc_id = collection.insert_one({"_id": "model-1", "kind": "demo"})
        victim = store.ring.owners(f"models/{doc_id}")[0]
        faults[victim].set_down(True)  # this owner misses the delete
        assert collection.delete_one(doc_id) is True
        assert hints.pending_counts().get(victim, 0) > 0
        faults[victim].set_down(False)
        recover_member(detector, victim)
        deliverer = HintDeliverer(hints, detector, store.hint_appliers())
        assert deliverer.drain() is True
        # delivery consulted the tombstone: the stale copy is reaped,
        # never copied back over the quorum-acked delete
        with pytest.raises(NotFoundError):
            collection.get(doc_id)
        assert collection.find() == []

    def test_missed_insert_is_delivered(self, tmp_path):
        members, faults, detector = self.make_doc_cluster()
        hints = HintLog(tmp_path / "hints")
        store = ShardedDocumentStore(
            members, replicas=2, write_quorum=1, detector=detector, hint_log=hints
        )
        collection = store.collection("models")
        victim = store.ring.owners("models/model-1")[0]
        faults[victim].set_down(True)
        collection.insert_one({"_id": "model-1", "kind": "demo"})
        assert hints.pending_counts().get(victim, 0) > 0
        faults[victim].set_down(False)
        recover_member(detector, victim)
        deliverer = HintDeliverer(hints, detector, store.hint_appliers())
        assert deliverer.drain() is True
        raw = members[victim].collection("models").get("model-1")
        assert raw["kind"] == "demo"


class TestReadClassification:
    def test_corrupt_replica_repaired_without_tripping_detector(self, tmp_path):
        # A member that answers with bytes failing digest verification is
        # alive: the read fails over, the copy is overwritten, and the
        # failure detector is NOT fed (corrupt != unreachable).
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        file_id = sorted(store.file_ids())[0]
        primary = store.ring.owners(file_id)[0]
        replace_record(store.members[primary], file_id, b"garbage")
        data = store.recover_bytes(file_id)
        assert data != b"garbage"
        assert detector.state(primary) == "healthy"
        assert store.cluster_stats["read_repairs"] >= 1
        # the corrupt copy was overwritten in place
        assert store.members[primary].recover_bytes(file_id) == data

    def test_unreachable_replica_feeds_detector(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        file_id = sorted(store.file_ids())[0]
        primary = store.ring.owners(file_id)[0]
        faults[primary].set_down(True)
        assert store.recover_bytes(file_id)  # failover read still serves
        assert detector.snapshot()[primary]["failure_streak"] >= 1


class TestAntiEntropy:
    def test_down_member_keys_deferred_then_healed(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(
            tmp_path, write_quorum=1
        )
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        faults["m1"].set_down(True)
        for _ in range(detector.failure_threshold):
            detector.record_failure("m1")
        scanner = AntiEntropyScanner(store, detector=detector)
        summary = scanner.full_sweep(repair=True)
        assert summary["deferred"] > 0  # m1's keys wait, no writes at a corpse
        assert summary["backlog"] > 0
        assert scanner.backlog_size() == summary["backlog"]
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        healed = scanner.full_sweep(repair=True)
        assert healed["backlog"] == 0
        assert scanner.backlog_size() == 0
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_repairs_under_replicated_key(self, tmp_path):
        store, faults, detector, hints = make_selfheal_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        digest = sorted(
            digest
            for member in store.members.values()
            for digest in member.chunks.chunk_ids()
        )[0]
        victim = store.ring.owners(digest)[0]
        store.members[victim].chunks.drop(digest)
        summary = AntiEntropyScanner(store, detector=detector).full_sweep(repair=True)
        assert summary["repaired"] >= 1
        assert store.members[victim].chunks.has(digest)


class TestManagerSelfHeal:
    def make_manager(self, tmp_path, member_faults):
        from repro.distsim.environment import SharedStores, make_service

        stores = SharedStores.cluster_at(
            tmp_path / "deploy",
            shards=3,
            replicas=2,
            write_quorum=1,
            self_heal=True,
            member_faults=member_faults,
        )
        return stores, ModelManager(make_service("baseline", stores))

    def test_heal_converges_after_outage(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        model = make_tiny_cnn(seed=1)
        model_id = manager.service.save_model(ModelSaveInfo(model, tiny_arch()))
        assert stores.hints.total_pending() > 0
        injector.set_down(False)
        report = manager.heal(repair=True)
        assert report["cluster"] is True
        assert report["converged"] is True
        assert report["hints"]["pending_after"] == 0
        assert report["hints"]["delivered"] > 0
        assert report["anti_entropy"]["backlog"] == 0
        assert "shard-1" in report["health"]
        recovered = manager.recover(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_heal_audit_only_reports_without_writing(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        injector.set_down(False)
        pending = stores.hints.total_pending()
        report = manager.heal(repair=False)
        assert report["converged"] is False
        assert stores.hints.total_pending() == pending  # audit wrote nothing

    def test_heal_is_noop_on_single_store_deployment(self, tmp_path):
        from repro.distsim.environment import SharedStores, make_service

        stores = SharedStores.at(tmp_path / "solo")
        manager = ModelManager(make_service("baseline", stores))
        assert manager.heal() == {"cluster": False}

    def test_fsck_drains_pending_hints(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        injector.set_down(False)
        report = manager.fsck(repair=True)
        issues = {issue.kind: issue for issue in report.issues}
        assert "pending_hints" in issues
        assert issues["pending_hints"].repaired is True
        assert stores.hints.total_pending() == 0

    def test_shared_environment_returns_after_its_last_referent_was_deleted(
        self, tmp_path
    ):
        """Deleting the last model tombstones the shared environment
        document; the next save's put must supersede the tombstone."""
        from repro.cluster.sharded_docs import TOMBSTONES
        from repro.core.schema import ENVIRONMENTS

        stores, manager = self.make_manager(tmp_path, {})
        documents = stores.documents

        def env_holders(env_id):
            return {
                name
                for name, member in documents.members.items()
                if member.collection(ENVIRONMENTS).count({"_id": env_id})
            }

        first = manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        env_id = documents.collection("models").get(first)["environment_id"]
        owners = set(documents.ring.owners(f"{ENVIRONMENTS}/{env_id}"))
        assert env_holders(env_id) == owners and len(owners) == 2

        manager.delete_model(first)
        assert env_holders(env_id) == set()
        stone = f"{ENVIRONMENTS}/{env_id}"
        assert all(
            documents.members[name].collection(TOMBSTONES).count({"_id": stone})
            for name in owners
        )

        model = make_tiny_cnn(seed=2)
        second = manager.service.save_model(ModelSaveInfo(model, tiny_arch()))
        assert documents.collection("models").get(second)["environment_id"] == env_id
        assert env_holders(env_id) == owners
        assert manager.fsck().clean
        recovered = manager.recover(second, check_env=True)
        assert states_equal(model, recovered.model)

    def test_save_acks_with_a_member_down_and_shares_the_environment(self, tmp_path):
        """Insert-first put: a degraded cluster cannot prove the document
        absent, but its insert is idempotent per replica."""
        from repro.core.schema import ENVIRONMENTS

        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        first = manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        injector.set_down(True)
        model = make_tiny_cnn(seed=2)
        second = manager.service.save_model(ModelSaveInfo(model, tiny_arch()))
        models = stores.documents.collection("models")
        assert (
            models.get(first)["environment_id"] == models.get(second)["environment_id"]
        )
        injector.set_down(False)
        assert not manager.fsck(repair=True).unrepaired
        assert stores.documents.collection(ENVIRONMENTS).count() == 1
        assert states_equal(model, manager.recover(second, check_env=True).model)

    def test_stats_surface_health_and_hints(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        stats = manager.stats()
        assert set(stats["health"]) == {"shard-0", "shard-1", "shard-2"}
        assert stats["hints"]["total_pending"] > 0
        assert stats["hints"]["pending"].get("shard-1", 0) > 0
        json.dumps(stats)  # the whole report must stay JSON-serializable


class TestEnvironmentWiring:
    def test_cluster_at_self_heal_shares_detector_and_hints(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3, self_heal=True)
        assert stores.detector is not None
        assert stores.hints is not None
        assert stores.files.detector is stores.detector
        assert stores.documents.detector is stores.detector
        assert stores.files.hints is stores.hints
        assert stores.documents.hints is stores.hints

    def test_cluster_at_default_has_no_selfheal_plane(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3)
        assert stores.detector is None
        assert stores.hints is None

    def test_healers_wires_the_background_trio(self, tmp_path):
        from repro.cluster import HealthMonitor
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3, self_heal=True)
        deliverer, scanner, monitor = stores.healers()
        assert isinstance(deliverer, HintDeliverer)
        assert isinstance(scanner, AntiEntropyScanner)
        assert isinstance(monitor, HealthMonitor)
        assert set(monitor.probes) == {"shard-0", "shard-1", "shard-2"}
        # "chunk", "blob" from the file plane, "doc" from the documents
        assert set(deliverer.appliers) == {"chunk", "blob", "doc"}

    def test_healers_require_self_heal_stores(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3)
        with pytest.raises(ValueError):
            stores.healers()
