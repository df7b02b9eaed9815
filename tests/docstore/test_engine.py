"""Document store engine: CRUD, persistence, concurrency."""

import threading

import pytest

from repro.docstore import (
    DocumentError,
    DocumentStore,
    DuplicateKeyError,
    NotFoundError,
)


class TestInsertAndGet:
    def test_insert_generates_id(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        doc_id = coll.insert_one({"name": "m"})
        assert coll.get(doc_id)["name"] == "m"

    def test_insert_honors_explicit_id(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        assert coll.insert_one({"_id": "custom-id", "x": 1}) == "custom-id"

    def test_duplicate_id_rejected(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        coll.insert_one({"_id": "a"})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"_id": "a"})

    def test_get_missing_raises(self, mem_doc_store):
        with pytest.raises(NotFoundError):
            mem_doc_store.collection("models").get("nope")

    def test_returned_documents_are_isolated_copies(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        doc_id = coll.insert_one({"nested": {"a": 1}})
        fetched = coll.get(doc_id)
        fetched["nested"]["a"] = 99
        assert coll.get(doc_id)["nested"]["a"] == 1

    def test_insert_many(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        ids = coll.insert_many([{"i": i} for i in range(5)])
        assert len(set(ids)) == 5
        assert coll.count() == 5


class TestFind:
    @pytest.fixture
    def filled(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        for i in range(10):
            coll.insert_one({"i": i, "even": i % 2 == 0})
        return coll

    def test_find_all(self, filled):
        assert len(filled.find()) == 10

    def test_find_with_query(self, filled):
        assert len(filled.find({"even": True})) == 5

    def test_find_one_returns_none_when_absent(self, filled):
        assert filled.find_one({"i": 99}) is None

    def test_find_one_returns_match(self, filled):
        assert filled.find_one({"i": 3})["i"] == 3

    def test_count_with_query(self, filled):
        assert filled.count({"i": {"$gte": 7}}) == 3

    def test_count_with_query_copies_no_document(self, filled, monkeypatch):
        from repro.docstore import engine

        def no_copy(*args, **kwargs):
            raise AssertionError("count() serialized a document")

        monkeypatch.setattr(engine.json, "dumps", no_copy)
        assert filled.count({"even": True}) == 5

    def test_unsorted_limit_stops_at_the_matches_it_needs(self, filled, monkeypatch):
        from repro.docstore import engine

        examined = []
        real = engine.matches

        def counting(document, query):
            examined.append(document["i"])
            return real(document, query)

        monkeypatch.setattr(engine, "matches", counting)
        assert [d["i"] for d in filled.find({"even": True}, limit=2)] == [0, 2]
        assert examined == [0, 1, 2]
        examined.clear()
        assert [d["i"] for d in filled.find({"even": True}, skip=1, limit=1)] == [2]
        assert examined == [0, 1, 2]


class TestUpdateDelete:
    def test_replace_one(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        doc_id = coll.insert_one({"v": 1})
        coll.replace_one(doc_id, {"v": 2})
        assert coll.get(doc_id)["v"] == 2

    def test_replace_missing_raises(self, mem_doc_store):
        with pytest.raises(NotFoundError):
            mem_doc_store.collection("models").replace_one("nope", {"v": 1})

    def test_update_one_sets_fields(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        doc_id = coll.insert_one({"v": 1, "keep": "yes"})
        assert coll.update_one({"v": 1}, {"v": 2})
        updated = coll.get(doc_id)
        assert updated["v"] == 2 and updated["keep"] == "yes"

    def test_update_one_no_match_returns_false(self, mem_doc_store):
        assert not mem_doc_store.collection("m").update_one({"v": 1}, {"v": 2})

    def test_delete_one(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        doc_id = coll.insert_one({"v": 1})
        assert coll.delete_one(doc_id)
        assert not coll.delete_one(doc_id)
        assert coll.count() == 0

    def test_delete_many(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        coll.insert_many([{"i": i} for i in range(6)])
        assert coll.delete_many({"i": {"$lt": 4}}) == 4
        assert coll.count() == 2


class TestPersistence:
    def test_documents_survive_reopen(self, tmp_path):
        store = DocumentStore(tmp_path / "db")
        doc_id = store.collection("models").insert_one({"name": "persisted"})
        reopened = DocumentStore(tmp_path / "db")
        assert reopened.collection("models").get(doc_id)["name"] == "persisted"

    def test_collections_discovered_on_open(self, tmp_path):
        store = DocumentStore(tmp_path / "db")
        store.collection("a").insert_one({"x": 1})
        store.collection("b").insert_one({"x": 2})
        reopened = DocumentStore(tmp_path / "db")
        assert reopened.collection_names() == ["a", "b"]

    def test_deletes_persisted(self, tmp_path):
        store = DocumentStore(tmp_path / "db")
        doc_id = store.collection("m").insert_one({"x": 1})
        store.collection("m").delete_one(doc_id)
        reopened = DocumentStore(tmp_path / "db")
        assert reopened.collection("m").count() == 0

    def test_drop_collection_removes_file(self, tmp_path):
        store = DocumentStore(tmp_path / "db")
        store.collection("gone").insert_one({"x": 1})
        store.drop_collection("gone")
        assert not (tmp_path / "db" / "gone.jsonl").exists()

    @pytest.mark.parametrize(
        "name", ["../escaped", "sub/dir", "a\\b", "nul\0", ".hidden", "", None, 5])
    def test_a_collection_name_is_one_plain_file_name(self, tmp_path, name):
        """The name becomes ``<root>/<name>.jsonl``: anything but one plain
        file-name component is refused and creates no file anywhere."""
        store = DocumentStore(tmp_path / "db")
        with pytest.raises(DocumentError):
            store.collection(name)
        assert [path.name for path in tmp_path.rglob("*")] == ["db"]
        names = ["__cluster_tombstones__", "models", "tenant--acme--models"]
        for good in names:
            store.collection(good).insert_one({"x": 1})
        assert DocumentStore(tmp_path / "db").collection_names() == names

    def test_in_memory_store_has_no_files(self, mem_doc_store, tmp_path):
        mem_doc_store.collection("m").insert_one({"x": 1})
        assert not list(tmp_path.iterdir())


class TestStorageAccounting:
    def test_storage_bytes_grows_with_documents(self, mem_doc_store):
        coll = mem_doc_store.collection("m")
        assert mem_doc_store.storage_bytes() == 0
        coll.insert_one({"payload": "x" * 100})
        first = mem_doc_store.storage_bytes()
        assert first > 100
        coll.insert_one({"payload": "y" * 100})
        assert mem_doc_store.storage_bytes() > first


class TestConcurrency:
    def test_parallel_inserts_all_land(self, mem_doc_store):
        coll = mem_doc_store.collection("m")

        def insert_many(offset):
            for i in range(50):
                coll.insert_one({"n": offset + i})

        threads = [threading.Thread(target=insert_many, args=(k * 50,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert coll.count() == 200


class TestSortLimit:
    @pytest.fixture
    def filled(self, mem_doc_store):
        coll = mem_doc_store.collection("models")
        for i, name in enumerate(["delta", "alpha", "charlie", "bravo"]):
            coll.insert_one({"name": name, "rank": 3 - i, "meta": {"n": i}})
        return coll

    def test_sort_ascending(self, filled):
        names = [d["name"] for d in filled.find(sort=[["name", 1]])]
        assert names == ["alpha", "bravo", "charlie", "delta"]

    def test_sort_descending(self, filled):
        ranks = [d["rank"] for d in filled.find(sort=[["rank", -1]])]
        assert ranks == [3, 2, 1, 0]

    def test_sort_by_nested_path(self, filled):
        ns = [d["meta"]["n"] for d in filled.find(sort=[["meta.n", 1]])]
        assert ns == [0, 1, 2, 3]

    def test_multi_key_sort(self, mem_doc_store):
        coll = mem_doc_store.collection("m")
        coll.insert_many(
            [{"g": 1, "v": 2}, {"g": 0, "v": 9}, {"g": 1, "v": 1}, {"g": 0, "v": 3}]
        )
        ordered = [(d["g"], d["v"]) for d in coll.find(sort=[["g", 1], ["v", 1]])]
        assert ordered == [(0, 3), (0, 9), (1, 1), (1, 2)]

    def test_missing_fields_sort_first(self, mem_doc_store):
        coll = mem_doc_store.collection("m")
        coll.insert_many([{"v": 1}, {"other": True}])
        ordered = coll.find(sort=[["v", 1]])
        assert "v" not in ordered[0]

    def test_limit(self, filled):
        assert len(filled.find(limit=2)) == 2
        assert filled.find(limit=0) == []

    def test_sort_with_limit_takes_smallest(self, filled):
        names = [d["name"] for d in filled.find(sort=[["name", 1]], limit=2)]
        assert names == ["alpha", "bravo"]

    def test_invalid_direction(self, filled):
        with pytest.raises(ValueError):
            filled.find(sort=[["name", 2]])

    def test_invalid_limit(self, filled):
        with pytest.raises(ValueError):
            filled.find(limit=-1)
