"""``projection=`` on the four collection classes: a projected read equals
the full read restricted to the projected fields."""

import pytest

from repro.distsim.environment import SharedStores
from repro.docstore import (
    DocumentStore,
    DocumentStoreClient,
    DocumentStoreServer,
    NamespacedDocumentStore,
    UnionDocumentStore,
)

DOCUMENTS = [
    {
        "_id": f"m{index:02d}",
        "use_case": f"uc-{index % 3}",
        "base_model": f"m{index - 1:02d}" if index % 4 else None,
        "rank": (index * 7) % 10,
        "layer_hashes": [[f"layer-{n}", f"{index * 31 + n:064x}"] for n in range(6)],
        "nested": {"saved_at": float(index)},
    }
    for index in range(12)
]
PROJECTIONS = [(), ("base_model",), ["use_case", "layer_hashes", "absent"], ("nested",)]


def restrict(document: dict, projection) -> dict:
    return {key: document[key] for key in ("_id", *projection) if key in document}


@pytest.fixture(params=["engine", "remote", "sharded", "union"])
def collection(request, tmp_path):
    """The same documents behind each collection class."""
    if request.param == "engine":
        store = DocumentStore(tmp_path)
        store["models"].insert_many(DOCUMENTS)
        yield store["models"]
    elif request.param == "remote":
        with DocumentStoreServer(DocumentStore(), port=0) as server:
            with DocumentStoreClient(server.host, server.port) as client:
                client["models"].insert_many(DOCUMENTS)
                yield client["models"]
    elif request.param == "sharded":
        stores = SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        stores.documents["models"].insert_many(DOCUMENTS)
        yield stores.documents["models"]
    else:
        shared = DocumentStore(tmp_path)
        for index, document in enumerate(DOCUMENTS):
            tenant = ("acme", "globex")[index % 2]
            NamespacedDocumentStore(shared, tenant)["models"].insert_one(document)
        yield UnionDocumentStore(shared, ["acme", "globex"])["models"]


def by_id(documents: list[dict]) -> list[dict]:
    return sorted(documents, key=lambda document: document["_id"])


@pytest.mark.parametrize("projection", PROJECTIONS)
class TestProjectedReadsEqualRestrictedFullReads:
    def test_get(self, collection, projection):
        assert collection.get("m05", projection=projection) == restrict(
            collection.get("m05"), projection)

    def test_get_many(self, collection, projection):
        ids = ["m07", "m00", "missing", "m03"]
        assert collection.get_many(ids, projection=projection) == [
            restrict(document, projection) for document in collection.get_many(ids)]

    def test_find(self, collection, projection):
        query = {"use_case": {"$in": ["uc-0", "uc-2"]}, "rank": {"$gte": 2}}
        full = collection.find(query)
        assert len(full) == 6
        assert by_id(collection.find(query, projection=projection)) == by_id(
            [restrict(document, projection) for document in full])

    def test_sorted_find_sorts_on_fields_it_does_not_return(self, collection, projection):
        sort = [["rank", -1], ["nested.saved_at", 1]]
        if type(collection).__name__ == "_UnionCollection":
            # the admin union concatenates its tenants' sorted results
            assert by_id(collection.find({}, sort=sort, projection=projection)) == [
                restrict(document, projection) for document in DOCUMENTS]
            return
        full = collection.find({}, sort=sort, skip=2, limit=7)
        assert [d["rank"] for d in full] == sorted((d["rank"] for d in DOCUMENTS), reverse=True)[2:9]
        assert collection.find({}, sort=sort, skip=2, limit=7, projection=projection) == [
            restrict(document, projection) for document in full]


def test_a_projected_copy_is_isolated(collection):
    fetched = collection.get("m01", projection=("layer_hashes", "nested"))
    fetched["layer_hashes"][0][1] = "edited"
    fetched["nested"]["saved_at"] = -1
    assert collection.get("m01") == DOCUMENTS[1]


def test_a_string_is_not_a_projection(tmp_path):
    models = DocumentStore(tmp_path)["models"]
    models.insert_one(DOCUMENTS[0])
    with pytest.raises(ValueError):
        models.get("m00", projection="base_model")


def test_a_projection_is_read_once_per_call(collection):
    """A one-shot iterator projects every document a call returns, not
    only the first one (or the first member's); a string is refused by
    every read, whether or not anything matches."""
    query = {"use_case": "uc-1"}
    expected = by_id([restrict(document, ("rank",)) for document in collection.find(query)])
    ids = [document["_id"] for document in expected]
    assert ids == ["m01", "m04", "m07", "m10"]
    assert by_id(collection.find(query, projection=iter(["rank"]))) == expected
    assert by_id(collection.get_many(ids, projection=iter(["rank"]))) == expected
    assert collection.get("m10", projection=iter(["rank"])) == expected[-1]
    for read in (lambda: collection.find(query, projection="rank"),
                 lambda: collection.find({"use_case": "none"}, projection="rank"),
                 lambda: collection.get_many(ids, projection="rank"),
                 lambda: collection.get("m10", projection="rank")):
        with pytest.raises(ValueError):
            read()


class TestShardedReadRepairUsesTheWholeDocument:
    def test_projected_get_repairs_the_replica_with_the_full_document(self, tmp_path):
        stores = SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        models = stores.documents["models"]
        models.insert_many(DOCUMENTS)
        first, second = stores.documents.ring.owners("models/m05")
        lagging = stores.documents.members[first].collection("models")
        stamp = lagging.get("m05")["_v"]
        assert lagging.delete_one("m05")  # the primary lost its copy

        assert models.get("m05", projection=("base_model",)) == restrict(
            DOCUMENTS[5], ("base_model",))
        assert stores.documents.cluster_stats["read_repairs"] == 1
        holder = stores.documents.members[second].collection("models")
        assert lagging.get("m05") == holder.get("m05") == {**DOCUMENTS[5], "_v": stamp}

    def test_projected_get_many_repairs_with_the_full_document(self, tmp_path):
        stores = SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        models = stores.documents["models"]
        models.insert_many(DOCUMENTS)
        primary = stores.documents.ring.primary("models/m09")
        lagging = stores.documents.members[primary].collection("models")
        stamp = lagging.get("m09")["_v"]
        lagging.delete_one("m09")

        assert models.get_many(["m09", "m02"], projection=()) == [
            {"_id": "m09"}, {"_id": "m02"}]
        assert lagging.get("m09") == {**DOCUMENTS[9], "_v": stamp}

    def test_count_and_tombstone_scan_copy_ids_only(self, tmp_path, monkeypatch):
        stores = SharedStores.cluster_at(tmp_path, shards=3, replicas=2)
        models = stores.documents["models"]
        models.insert_many(DOCUMENTS)
        models.delete_one("m00")
        from repro.docstore import engine

        copied = []
        real = engine._isolated

        def spy(document, projection=None):
            copied.append(projection)
            return real(document, projection)

        monkeypatch.setattr(engine, "_isolated", spy)
        assert models.count({"use_case": "uc-1"}) == 4
        assert copied and all(
            projection is not None and set(projection) <= {"_v", "_deleted"}
            for projection in copied)


def test_log_stats_reach_through_every_collection_class(collection):
    stats = collection.stats()
    copies = 2 if type(collection).__name__ == "_ShardedCollection" else 1
    assert stats["docs"] == copies * len(DOCUMENTS)  # replicas counted per copy
    assert stats["live_bytes"] == collection.storage_bytes() > 0
    assert stats["dead_bytes"] == stats["checkpoints"] == stats["torn_tail_bytes"] == 0
    collection.count({"use_case": "uc-1"})
    assert collection.stats()["indexed_fields"] == ["use_case"]
    assert collection.acknowledge_torn_tail() == 0
