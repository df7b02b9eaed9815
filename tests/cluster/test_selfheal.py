"""Self-healing: the degraded-mark round, anti-entropy, heal()/fsck
integration — every repair through the one per-key heal, driven by one
loop."""

import json
import time

import pytest

from repro.cluster import (
    FailureDetector,
    SelfHealer,
    ShardedDocumentStore,
    ShardedFileStore,
)
from repro.core import ArchitectureRef, BaselineSaveService, ModelManager, ModelSaveInfo
from repro.core.schema import MODELS
from repro.docstore import DocumentStore, NotFoundError
from repro.faults import FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore
from tests.conftest import make_tiny_cnn, replace_record

from .test_sharded_store import make_docs, states_equal, tiny_arch


def make_selfheal_cluster(tmp_path, n=4, replicas=2, write_quorum=1):
    """Sharded file store with per-member fault injectors and the
    failure detector wired in (as ``cluster_at(self_heal=True)`` does),
    but built by hand so tests can reach every part."""
    faults = {f"m{index}": FaultInjector(seed=100 + index) for index in range(n)}
    members = {
        f"m{index}": FileStore(tmp_path / f"m{index}", faults=faults[f"m{index}"])
        for index in range(n)
    }
    detector = FailureDetector(members=sorted(members))
    store = ShardedFileStore(
        tmp_path / "meta",
        members,
        replicas=replicas,
        write_quorum=write_quorum,
        detector=detector,
    )
    return store, faults, detector


def recover_member(detector: FailureDetector, name: str) -> None:
    """What ``SelfHealer.probe_once(now=True)`` does after a successful
    ping: enough consecutive successes to walk DOWN -> SUSPECT -> HEALTHY."""
    for _ in range(detector.recovery_threshold):
        detector.record_success(name)


class TestHintedHandoff:
    """What a quorum write missed is handed off to the member once it is
    back: the ledger's degraded marks name the keys, and the loop's
    degraded round heals each through the one per-key heal."""

    def save_one(self, store, seed=1):
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=seed)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        return service, model, model_id

    def test_degraded_write_records_hints(self, tmp_path):
        """The marks are the record: every key a write acked below R."""
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        assert store.degraded_keys
        for kind, key in store.degraded_keys:
            assert kind == "chunk" and "m1" in store.ring.owners(key)
            assert not store.members["m1"].chunks.has(key)
        assert store.cluster_stats["degraded_writes"] >= len(store.degraded_keys)

    def test_drain_after_restore_fills_missed_replicas(self, tmp_path, monkeypatch):
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service, model, model_id = self.save_one(store)
        owed = set(store.degraded_keys)
        assert owed
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        healed = []
        heal_key = store.heal_key
        monkeypatch.setattr(store, "heal_key", lambda kind, key, *args, **kwargs: (
            healed.append((kind, key)) or heal_key(kind, key, *args, **kwargs)))
        round_stats = SelfHealer([store]).degraded_once()
        assert sorted(healed) == sorted(owed)  # the marked keys, not the universe
        assert len(healed) < len(store.universe())
        assert round_stats == {"healed": len(owed), "deferred": 0, "dropped": 0}
        assert not store.degraded_keys
        for _kind, key in owed:
            assert store.members["m1"].chunks.has(key)
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_deliverer_skips_members_held_down(self, tmp_path):
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        owed = set(store.degraded_keys)
        for _ in range(detector.failure_threshold):
            detector.record_failure("m1")
        writes = faults["m1"].stats.get("errors", 0)
        healer = SelfHealer([store])
        round_stats = healer.degraded_once()
        assert round_stats == {"healed": 0, "deferred": len(owed), "dropped": 0}
        assert store.degraded_keys == owed  # nothing dropped, still owed
        assert faults["m1"].stats.get("errors", 0) == writes  # no write reached it

    def test_hints_race_rebalancer_resolve_stale(self, tmp_path):
        """The member the marks are owed to is decommissioned first: its
        removal re-replicates its keys, and the round leaves no mark."""
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service, model, model_id = self.save_one(store)
        assert store.degraded_keys
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        assert store.remove_member("m1")["drained"] is True
        SelfHealer([store]).degraded_once()
        assert not store.degraded_keys
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_a_mark_on_a_key_gone_everywhere_is_dropped(self, tmp_path):
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store)
        kind, key = sorted(store.degraded_keys)[0]
        for member in store.members.values():
            if member.chunks.has(key):
                member.chunks.drop(key)  # deleted and swept since
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        round_stats = SelfHealer([store]).degraded_once()
        assert round_stats["dropped"] == 1
        assert (kind, key) not in store.degraded_keys and not store.degraded_keys

    def test_crash_between_apply_and_resolve_replays_as_noop(self, tmp_path):
        """The coordinator healed one key and died: the restarted one over
        the same members holds no mark, and ``converge`` finds the rest;
        the key already healed is an ok no-op."""
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service, model, model_id = self.save_one(store)
        faults["m1"].set_down(False)
        applied = sorted(store.degraded_keys)[0][1]
        store.heal_key("chunk", applied)
        assert store.members["m1"].chunks.has(applied)
        assert len(store.degraded_keys) > 0  # ...the others were still owed

        restarted = ShardedFileStore(tmp_path / "meta", store.members, replicas=2,
                                     write_quorum=1)
        assert not restarted.degraded_keys
        report = SelfHealer([restarted]).converge()
        assert report["converged"] is True
        repaired = {entry["key"] for entry in report["sweeps"]["files"]["repaired"]}
        assert repaired and applied not in repaired
        assert all(member_holds_its_keys(restarted))
        service = BaselineSaveService(service.documents, restarted)
        assert states_equal(model, service.recover_model(model_id, verify=True).model)

    def test_flapping_member_breaker_skips_writes(self, tmp_path):
        # Once the detector trips, writes breaker-skip the member: the
        # save still acks (W=1) and marks its keys without touching the
        # dead member again.
        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        self.save_one(store, seed=1)
        assert detector.state("m1") == "down"  # outage tripped it
        calls_before = faults["m1"].stats.get("errors", 0)
        marked = len(store.degraded_keys)
        self.save_one(store, seed=2)
        assert len(store.degraded_keys) > marked
        # breaker open: the second save never reached the member
        assert faults["m1"].stats.get("errors", 0) == calls_before


def member_holds_its_keys(store):
    """For every key of the universe, whether each owner holds it."""
    for _kind, key in store.universe():
        yield all(store.members[name].chunks.has(key) for name in store.ring.owners(key))


class TestDocHintsAndTombstones:
    """The document plane's marks, healed by the versioned read."""

    def make_doc_cluster(self, n=3, replicas=2):
        faults = {f"d{index}": FaultInjector(seed=200 + index) for index in range(n)}
        members = {
            f"d{index}": FaultyDocumentStore(DocumentStore(), faults[f"d{index}"])
            for index in range(n)
        }
        detector = FailureDetector(members=sorted(members))
        store = ShardedDocumentStore(
            members, replicas=replicas, write_quorum=1, detector=detector)
        return store, members, faults, detector

    def test_missed_delete_never_resurrects(self):
        store, members, faults, detector = self.make_doc_cluster()
        collection = store.collection("models")
        doc_id = collection.insert_one({"_id": "model-1", "kind": "demo"})
        victim = store.ring.owners(f"models/{doc_id}")[0]
        faults[victim].set_down(True)  # this owner misses the delete
        assert collection.delete_one(doc_id) is True
        assert store.degraded_keys == {("models", doc_id)}
        faults[victim].set_down(False)
        recover_member(detector, victim)
        SelfHealer([store]).degraded_once()
        assert not store.degraded_keys
        # the round landed the tombstone, which outranks the stale copy:
        # it is never copied back over the quorum-acked delete
        assert members[victim].collection("models").get(doc_id)["_deleted"] is True
        with pytest.raises(NotFoundError):
            collection.get(doc_id)
        assert collection.find() == []

    def test_missed_insert_is_delivered(self):
        store, members, faults, detector = self.make_doc_cluster()
        collection = store.collection("models")
        victim = store.ring.owners("models/model-1")[0]
        faults[victim].set_down(True)
        collection.insert_one({"_id": "model-1", "kind": "demo"})
        assert store.degraded_keys == {("models", "model-1")}
        faults[victim].set_down(False)
        recover_member(detector, victim)
        assert SelfHealer([store]).degraded_once()["healed"] == 1
        raw = members[victim].collection("models").get("model-1")
        assert raw["kind"] == "demo"
        assert not store.degraded_keys


class TestReadClassification:
    def test_corrupt_replica_repaired_without_tripping_detector(self, tmp_path):
        # A member that answers with bytes failing digest verification is
        # alive: the read fails over, the copy is overwritten, and the
        # failure detector is NOT fed (corrupt != unreachable).
        store, faults, detector = make_selfheal_cluster(tmp_path)
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
        store, faults, detector = make_selfheal_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        file_id = sorted(store.file_ids())[0]
        primary = store.ring.owners(file_id)[0]
        faults[primary].set_down(True)
        assert store.recover_bytes(file_id)  # failover read still serves
        assert detector.snapshot()[primary]["failure_streak"] >= 1


class TestAntiEntropy:
    def test_down_member_keys_deferred_then_healed(self, tmp_path):
        store, faults, detector = make_selfheal_cluster(
            tmp_path, write_quorum=1
        )
        service = BaselineSaveService(make_docs(), store)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        faults["m1"].set_down(True)
        for _ in range(detector.failure_threshold):
            detector.record_failure("m1")
        scanner = SelfHealer([store], batch_size=10_000)  # the universe in one batch
        summary = scanner.scan_once()
        assert summary["deferred"] > 0  # m1's keys wait, no writes at a corpse
        assert summary["backlog"] > 0
        assert scanner.backlog_size() == summary["backlog"]
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        healed = scanner.scan_once()
        assert healed["backlog"] == 0
        assert scanner.backlog_size() == 0
        recovered = service.recover_model(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_repairs_under_replicated_key(self, tmp_path):
        store, faults, detector = make_selfheal_cluster(tmp_path)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        digest = sorted(
            digest
            for member in store.members.values()
            for digest in member.chunks.chunk_ids()
        )[0]
        victim = store.ring.owners(digest)[0]
        store.members[victim].chunks.drop(digest)
        summary = SelfHealer([store], batch_size=10_000).scan_once()
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
        assert stores.files.degraded_keys and stores.documents.degraded_keys
        injector.set_down(False)
        report = manager.heal(repair=True)
        assert report["cluster"] is True
        assert report["converged"] is True
        assert report["anti_entropy"]["repaired"] > 0
        assert report["anti_entropy"]["backlog"] == 0
        assert not stores.files.degraded_keys and not stores.documents.degraded_keys
        assert "shard-1" in report["health"]
        recovered = manager.recover(model_id, verify=True)
        assert states_equal(model, recovered.model)

    def test_heal_audit_only_reports_without_writing(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        injector.set_down(False)
        marked = set(stores.files.degraded_keys)
        report = manager.heal(repair=False)
        assert report["converged"] is False
        assert report["anti_entropy"]["repaired"] == 0
        assert stores.files.degraded_keys == marked  # audit wrote nothing

    def test_heal_is_noop_on_single_store_deployment(self, tmp_path):
        from repro.distsim.environment import SharedStores, make_service

        stores = SharedStores.at(tmp_path / "solo")
        manager = ModelManager(make_service("baseline", stores))
        assert manager.heal() == {"cluster": False}

    def test_fsck_drains_pending_hints(self, tmp_path):
        """What an outage left owed — the keys marked degraded — fsck's
        replication step restores and reports, and the marks clear."""
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        owed = stores.files.degraded_keys | stores.documents.degraded_keys
        injector.set_down(False)
        report = manager.fsck(repair=True)
        restored = [issue for issue in report.issues if issue.kind == "under_replicated"]
        assert len(restored) == len(owed)
        assert all(issue.repaired and "shard-1" in issue.detail for issue in restored)
        assert not report.unrepaired
        assert not stores.files.degraded_keys and not stores.documents.degraded_keys

    def test_shared_environment_returns_after_its_last_referent_was_deleted(
        self, tmp_path
    ):
        """Deleting the last model leaves the shared environment document
        for fsck's orphan sweep (or gc), which tombstones it; the next
        save's put must supersede the tombstone."""
        from repro.core.schema import ENVIRONMENTS

        stores, manager = self.make_manager(tmp_path, {})
        documents = stores.documents

        def env_holders(env_id, deleted=False):
            """Members holding a live copy, or with ``deleted`` a tombstone."""
            mark = {"_deleted": True} if deleted else {"_deleted": {"$exists": False}}
            return {
                name
                for name, member in documents.members.items()
                if member.collection(ENVIRONMENTS).count({"_id": env_id, **mark})
            }

        first = manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        env_id = documents.collection("models").get(first)["environment_id"]
        owners = set(documents.ring.owners(f"{ENVIRONMENTS}/{env_id}"))
        assert env_holders(env_id) == owners and len(owners) == 2

        manager.delete_model(first)
        assert env_holders(env_id) == owners
        report = manager.fsck()  # its chunks and code file wait for the next gc
        assert {issue.kind for issue in report.issues} == {
            "orphan_document", "orphan_chunk", "orphan_file"}
        assert env_holders(env_id) == set()
        assert env_holders(env_id, deleted=True) == owners

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

    def drop_a_model_replica(self, stores, manager):
        """Save a model, then delete one owner's copy of its document by
        hand: no write missed it, so no mark names it."""
        model_id = manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        owner = stores.documents.ring.owners(f"{MODELS}/{model_id}")[0]
        stores.documents.members[owner].collection(MODELS).delete_one(model_id)
        assert not stores.documents.degraded_keys
        return model_id, owner

    def test_heal_restores_a_document_replica_no_hint_names(self, tmp_path):
        stores, manager = self.make_manager(tmp_path, {})
        model_id, owner = self.drop_a_model_replica(stores, manager)

        audit = manager.heal(repair=False)
        assert audit["converged"] is False
        assert audit["sweeps"]["docs"]["under_replicated"] == [{
            "kind": MODELS, "key": model_id, "have": 1, "want": 2, "missing": [owner]}]
        assert not stores.documents.members[owner].collection(MODELS).count({"_id": model_id})

        report = manager.heal()
        assert report["converged"] is True
        assert report["sweeps"]["docs"]["repaired"] == [{"kind": MODELS, "key": model_id}]
        assert stores.documents.members[owner].collection(MODELS).get(model_id)
        assert manager.heal()["anti_entropy"]["repaired"] == 0

    @pytest.mark.parametrize("repair", [False, True])
    def test_fsck_reports_what_its_own_reads_would_heal(self, tmp_path, repair):
        """The replication step runs before any step reads the catalog, so
        a missing document replica is reported, not quietly read-repaired."""
        stores, manager = self.make_manager(tmp_path, {})
        model_id, owner = self.drop_a_model_replica(stores, manager)
        report = manager.fsck(repair=repair)
        issues = [issue for issue in report.issues if issue.kind == "under_replicated"]
        assert len(issues) == 1, report.summary()
        assert model_id[:24] in issues[0].detail and owner in issues[0].detail
        assert issues[0].repaired is repair
        if not repair:  # an audit: the later steps' reads healed nothing either
            assert not stores.documents.members[owner].collection(MODELS).count(
                {"_id": model_id})
            assert stores.documents.cluster_stats["read_repairs"] == 0
            assert stores.files.cluster_stats["read_repairs"] == 0

    def test_stats_surface_health_and_degraded_writes(self, tmp_path):
        injector = FaultInjector(seed=9)
        stores, manager = self.make_manager(tmp_path, {"shard-1": injector})
        injector.set_down(True)
        manager.service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        stats = manager.stats()
        assert set(stats["health"]) == {"shard-0", "shard-1", "shard-2"}
        assert stats["health"]["shard-1"]["state"] != "healthy"
        assert stats["cluster_files"]["degraded_writes"] > 0
        assert stats["cluster_docs"]["degraded_writes"] > 0
        assert "hints" not in stats
        json.dumps(stats)  # the whole report must stay JSON-serializable


class TestSelfHealerLoop:
    def test_the_started_loop_converges_a_degraded_cluster(self, tmp_path):
        """No foreground call: the loop's own probes re-admit the member
        after its breaker cooldown, its degraded round clears every mark and
        its scan leaves no key of either plane divergent."""
        store, faults, detector = make_selfheal_cluster(tmp_path)
        docs = ShardedDocumentStore(
            {f"m{index}": FaultyDocumentStore(DocumentStore(), faults[f"m{index}"])
             for index in range(4)},
            replicas=2, write_quorum=1, detector=detector)
        service = BaselineSaveService(docs, store)
        faults["m1"].set_down(True)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        assert detector.state("m1") == "down" and (store.degraded_keys or docs.degraded_keys)
        faults["m1"].set_down(False)

        healer = SelfHealer([store, docs], interval_s=0.02, batch_size=16).start()
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if (not store.degraded_keys and not docs.degraded_keys
                        and healer.stats["cycles"] >= 2 and healer.backlog_size() == 0):
                    break
                time.sleep(0.02)
        finally:
            healer.close()
        assert not store.degraded_keys and not docs.degraded_keys
        assert healer.backlog_size() == 0
        assert healer.stats["probes"] > 0 and healer.stats["marks_healed"] > 0
        assert detector.state("m1") == "healthy"
        audit = SelfHealer([store, docs]).converge(repair=False)
        assert audit["converged"] is True, audit["anti_entropy"]
        assert states_equal(model, service.recover_model(model_id, verify=True).model)

    def test_a_tick_runs_each_round_once(self, tmp_path, monkeypatch):
        store, *_ = make_selfheal_cluster(tmp_path)
        healer = SelfHealer([store])
        ran = []
        for round_name in ("probe_once", "degraded_once", "scan_once"):
            monkeypatch.setattr(healer, round_name, lambda name=round_name: ran.append(name))
        healer.tick()
        assert ran == ["probe_once", "degraded_once", "scan_once"]
        assert healer.stats["ticks"] == 1

    def test_a_failed_tick_is_counted_and_the_loop_heals_on(self, tmp_path, monkeypatch):
        """A tick that raises is counted and reported by its error type;
        the loop keeps going and converges on the next tick."""
        from repro import obs

        store, faults, detector = make_selfheal_cluster(tmp_path)
        faults["m1"].set_down(True)
        service = BaselineSaveService(make_docs(), store)
        service.save_model(ModelSaveInfo(make_tiny_cnn(seed=1), tiny_arch()))
        faults["m1"].set_down(False)
        recover_member(detector, "m1")
        healer = SelfHealer([store], interval_s=0.02, batch_size=10_000)
        scan_once, failed = healer.scan_once, []

        def scan_failing_once():
            if not failed:
                failed.append(True)
                raise RuntimeError("a bug in a round")
            return scan_once()

        monkeypatch.setattr(healer, "scan_once", scan_failing_once)
        seen = obs.events().count("self_heal_tick_failed")
        healer.start()
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not healer.stats["ticks"]:
                time.sleep(0.02)
        finally:
            healer.close()
        assert healer.stats["tick_errors"] == 1 and healer.stats["ticks"] >= 1
        failures = obs.events().events(kind="self_heal_tick_failed")[seen:]
        assert [event.fields for event in failures] == [{"error": "RuntimeError"}]
        assert not store.degraded_keys and healer.backlog_size() == 0
        assert SelfHealer([store]).converge(repair=False)["converged"] is True


class TestEnvironmentWiring:
    def test_cluster_at_self_heal_shares_one_detector(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3, self_heal=True)
        assert stores.detector is not None
        assert stores.files.detector is stores.detector
        assert stores.documents.detector is stores.detector
        assert not (tmp_path / "cluster-meta" / "hints").exists()

    def test_cluster_at_default_has_no_selfheal_plane(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3)
        assert stores.detector is None
        assert stores.files.detector is None and stores.documents.detector is None

    def test_healers_is_one_loop_over_both_planes(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3, self_heal=True)
        healer = stores.healers(interval_s=0.5, batch_size=8)
        assert isinstance(healer, SelfHealer)
        assert healer.stores == {"files": stores.files, "docs": stores.documents}
        assert healer.detector is stores.detector
        assert (healer.interval_s, healer.batch_size) == (0.5, 8)
        assert set(healer.probe_once()) == {"shard-0", "shard-1", "shard-2"}

    def test_healers_require_self_heal_stores(self, tmp_path):
        from repro.distsim.environment import SharedStores

        stores = SharedStores.cluster_at(tmp_path, shards=3)
        with pytest.raises(ValueError):
            stores.healers()
