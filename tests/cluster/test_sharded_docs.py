"""Sharded document store: replication, scatter-gather queries, failover."""

import pytest

from repro.cluster import ShardedDocumentStore
from repro.cluster.sharded_docs import TOMBSTONES
from repro.docstore import DocumentStore, DuplicateKeyError, NotFoundError
from repro.errors import TransientStoreError


def make_store(n=4, replicas=2, write_quorum=None) -> ShardedDocumentStore:
    return ShardedDocumentStore(
        {f"d{index}": DocumentStore() for index in range(n)},
        replicas=replicas,
        write_quorum=write_quorum,
    )


class DownableStore:
    """Document-store member whose collections go dark on demand."""

    def __init__(self):
        self._inner = DocumentStore()
        self.down = False

    def collection(self, name):
        store, inner = self, self._inner.collection(name)

        class _Proxy:
            def __getattr__(self, attr):
                value = getattr(inner, attr)
                if not callable(value):
                    return value

                def guarded(*args, **kwargs):
                    if store.down:
                        raise OSError("member down")
                    return value(*args, **kwargs)

                return guarded

        return _Proxy()

    def collection_names(self):
        if self.down:
            raise OSError("member down")
        return self._inner.collection_names()

    def drop_collection(self, name):
        self._inner.drop_collection(name)

    def storage_bytes(self):
        return self._inner.storage_bytes()


def make_downable(n=4, replicas=2):
    members = {f"d{index}": DownableStore() for index in range(n)}
    return ShardedDocumentStore(members, replicas=replicas), members


def holders(store: ShardedDocumentStore, collection: str, doc_id: str) -> set[str]:
    found = set()
    for name, member in store.members.items():
        try:
            member.collection(collection).get(doc_id)
        except (KeyError, NotFoundError):
            continue
        found.add(name)
    return found


class TestReplicatedWrites:
    def test_insert_replicates_to_ring_owners(self):
        store = make_store()
        doc_id = store.collection("models").insert_one({"approach": "baseline"})
        owners = set(store.ring.owners(f"models/{doc_id}"))
        assert len(owners) == 2
        assert holders(store, "models", doc_id) == owners

    def test_every_replica_stores_the_same_document(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"epoch": 3})
        copies = [
            store.members[name].collection("models").get(doc_id)
            for name in store.ring.owners(f"models/{doc_id}")
        ]
        assert copies[0] == copies[1]
        assert copies[0]["_id"] == doc_id

    def test_duplicate_insert_raises(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": doc_id, "k": 2})

    def test_partially_acked_insert_retries_cleanly(self):
        # replaying an insert that reached only some replicas must count
        # the duplicates as acks, not as a conflict
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        store.members[owners[0]].collection("models").delete_one(doc_id)
        assert collection.insert_one({"_id": doc_id, "k": 1}) == doc_id
        assert holders(store, "models", doc_id) == set(owners)

    def test_update_one_converges_every_replica(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"epoch": 1, "tag": "keep"})
        assert collection.update_one({"_id": doc_id}, {"epoch": 2}) is True
        for name in store.ring.owners(f"models/{doc_id}"):
            copy = store.members[name].collection("models").get(doc_id)
            assert copy["epoch"] == 2 and copy["tag"] == "keep"

    def test_delete_one_removes_every_replica(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        assert collection.delete_one(doc_id) is True
        assert holders(store, "models", doc_id) == set()
        assert collection.delete_one(doc_id) is False


class TestScatterGatherQueries:
    def test_find_deduplicates_replicas(self):
        store = make_store()
        collection = store.collection("models")
        for index in range(10):
            collection.insert_one({"rank": index})
        assert collection.count() == 10  # not 20, despite R=2

    def test_global_sort_skip_limit(self):
        store = make_store()
        collection = store.collection("models")
        for index in range(10):
            collection.insert_one({"rank": index})
        page = collection.find({}, sort=[("rank", -1)], skip=2, limit=3)
        assert [document["rank"] for document in page] == [7, 6, 5]

    def test_find_with_query_filters_cluster_wide(self):
        store = make_store()
        collection = store.collection("models")
        for index in range(6):
            collection.insert_one({"rank": index, "even": index % 2 == 0})
        assert collection.count({"even": True}) == 3

    def test_get_many_preserves_request_order(self):
        store = make_store()
        collection = store.collection("models")
        ids = [collection.insert_one({"rank": index}) for index in range(5)]
        wanted = [ids[3], ids[0], ids[4]]
        results = collection.get_many(wanted)
        assert [document["_id"] for document in results] == wanted


class TestFailover:
    def test_get_fails_over_and_repairs_the_missing_replica(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        store.members[owners[0]].collection("models").delete_one(doc_id)

        document = collection.get(doc_id)
        assert document["k"] == 1
        assert holders(store, "models", doc_id) == set(owners)
        assert store.cluster_stats["read_repairs"] >= 1

    def test_get_missing_document_raises(self):
        store = make_store()
        with pytest.raises((KeyError, NotFoundError)):
            store.collection("models").get("no-such-id")

    def test_collection_names_union_across_members(self):
        store = make_store()
        store.collection("models").insert_one({"k": 1})
        store.collection("wrappers").insert_one({"k": 2})
        assert set(store.collection_names()) >= {"models", "wrappers"}


class TestTombstones:
    def test_stale_replica_does_not_resurrect_a_quorum_delete(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        assert collection.delete_one(doc_id) is True
        # a replica that somehow kept the document (missed delete)
        store.members[owners[0]].collection("models").insert_one(
            {"_id": doc_id, "k": 1}
        )

        with pytest.raises(NotFoundError):
            collection.get(doc_id)
        # the failover read finished the delete instead of repairing
        # the stale copy back onto the other owners
        assert holders(store, "models", doc_id) == set()

    def test_find_filters_tombstoned_documents(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        collection.delete_one(doc_id)
        store.members[owners[0]].collection("models").insert_one(
            {"_id": doc_id, "k": 1}
        )

        assert collection.find() == []
        assert collection.count() == 0

    def test_pushed_down_limit_is_not_used_up_by_shadowed_copies(self):
        """An unsorted ``limit`` is applied on the members; a stale copy
        under a tombstone must not take the place of a live match."""
        store = make_store(n=1, replicas=1)
        collection = store.collection("models")
        member = store.members["d0"].collection("models")
        stale = collection.insert_one({"k": 1})
        collection.delete_one(stale)
        member.insert_one({"_id": stale, "k": 1})  # first in the member's order
        live = collection.insert_one({"k": 1})

        assert [d["_id"] for d in collection.find({"k": 1}, limit=1)] == [live]

    def test_unsorted_limit_reaches_the_members(self, monkeypatch):
        store = make_store()
        collection = store.collection("models")
        for index in range(10):
            collection.insert_one({"rank": index})
        returned = []

        def recording(real):
            def find(*args, **kwargs):
                returned.append(real(*args, **kwargs))
                return returned[-1]
            return find

        for member in store.members.values():
            inner = member.collection("models")
            monkeypatch.setattr(inner, "find", recording(inner.find))
        assert len(collection.find({}, limit=1)) == 1
        assert [len(results) <= 1 for results in returned] == [True] * 4

    def test_delete_with_a_down_replica_stays_deleted_after_healing(self):
        store, members = make_downable(n=5, replicas=3)
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        members[owners[2]].down = True
        assert collection.delete_one(doc_id) is True  # quorum: 2 of 3
        assert ("models", doc_id) in store.degraded_keys

        members[owners[2]].down = False
        # the healed replica still holds the document, but the
        # tombstone wins: reads finish the delete, never resurrect
        with pytest.raises(NotFoundError):
            collection.get(doc_id)
        assert holders(store, "models", doc_id) == set()

    def test_rebalance_reaps_stale_copies_and_purges_dead_tombstones(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        owners = store.ring.owners(f"models/{doc_id}")
        collection.delete_one(doc_id)
        store.members[owners[0]].collection("models").insert_one(
            {"_id": doc_id, "k": 1}
        )

        stats = store.rebalance_documents()
        assert holders(store, "models", doc_id) == set()
        assert stats["tombstones_purged"] >= 1
        for member in store.members.values():
            assert member.collection(TOMBSTONES).find({}) == []

    def test_reinsert_under_a_deleted_id_supersedes_the_tombstone(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        collection.delete_one(doc_id)
        assert collection.insert_one({"_id": doc_id, "k": 2}) == doc_id
        assert collection.get(doc_id)["k"] == 2
        assert collection.count({"k": 2}) == 1

    def test_tombstone_collection_is_not_user_visible(self):
        store = make_store()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        collection.delete_one(doc_id)
        assert TOMBSTONES not in store.collection_names()


class TestTransientUnavailability:
    def test_get_with_all_owners_down_raises_transient_error(self):
        # an outage must not masquerade as absence: fsck would
        # garbage-collect blobs of documents it cannot see
        store, members = make_downable()
        collection = store.collection("models")
        doc_id = collection.insert_one({"k": 1})
        for name in store.ring.owners(f"models/{doc_id}"):
            members[name].down = True
        with pytest.raises(TransientStoreError):
            collection.get(doc_id)

    def test_get_with_one_owner_down_does_not_prove_absence(self):
        store, members = make_downable()
        collection = store.collection("models")
        doc_id = "no-such-id"
        owners = store.ring.owners(f"models/{doc_id}")
        members[owners[0]].down = True
        with pytest.raises(TransientStoreError):
            collection.get(doc_id)

    def test_find_tolerates_fewer_than_r_members_down(self):
        store, members = make_downable(n=4, replicas=2)
        collection = store.collection("models")
        for index in range(8):
            collection.insert_one({"rank": index})
        members["d0"].down = True
        # every document still has a reachable replica
        assert collection.count() == 8

    def test_find_raises_once_r_members_are_down(self):
        store, members = make_downable(n=4, replicas=2)
        collection = store.collection("models")
        for index in range(8):
            collection.insert_one({"rank": index})
        members["d0"].down = True
        members["d1"].down = True
        with pytest.raises(TransientStoreError):
            collection.find({})


class TestMembershipChanges:
    def test_rebalance_documents_after_adding_a_member(self):
        store = make_store(n=3)
        collection = store.collection("models")
        ids = [collection.insert_one({"rank": index}) for index in range(20)]

        stats = store.add_member("d9", DocumentStore())
        assert stats["documents_copied"] > 0
        for doc_id in ids:
            assert holders(store, "models", doc_id) == set(
                store.ring.owners(f"models/{doc_id}")
            )
        assert collection.count() == 20

    def test_remove_member_drains_its_documents(self):
        store = make_store(n=4)
        collection = store.collection("models")
        ids = [collection.insert_one({"rank": index}) for index in range(20)]

        store.remove_member("d0")
        assert "d0" not in store.members
        for doc_id in ids:
            owners = set(store.ring.owners(f"models/{doc_id}"))
            assert "d0" not in owners
            assert holders(store, "models", doc_id) == owners
        assert collection.count() == 20
