"""The collection file as an append-only log: cost, replay, damage, indexes."""

import json
import os
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.docstore import DocumentStore, NotFoundError, engine
from repro.docstore.engine import CHECKPOINT_DEAD_FLOOR, Collection
from repro.docstore.query import matches
from repro.errors import StoreCorruptionError
from repro.filestore.recordlog import record_header


def line(document: dict) -> bytes:
    """The log record of one put, framing included."""
    payload = json.dumps(document, sort_keys=True).encode()
    return record_header(b"", zlib.crc32(payload), len(payload)) + payload


def fill(collection, count: int, use_cases: int = 10) -> None:
    for index in range(count):
        collection.insert_one(
            {"_id": f"m{index}", "use_case": f"uc-{index % use_cases}", "n": index})


class TestCostIsWhatAnOperationTouches:
    """ROADMAP's "TTS flat as the catalog grows", as counts."""

    @pytest.mark.parametrize("size", [100, 5000])
    def test_insert_appends_exactly_its_own_line(self, tmp_path, size):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, size)
        path = tmp_path / "models.jsonl"
        before = path.read_bytes()
        document = {"_id": "new", "use_case": "uc-3", "layers": ["a" * 64] * 8}
        collection.insert_one(document)
        assert path.read_bytes() == before + line(document)

    @pytest.mark.parametrize("size", [100, 5000])
    def test_equality_find_matches_only_its_bucket(self, tmp_path, size, monkeypatch):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, size)
        examined = []

        def spy(document, query):
            examined.append(document["_id"])
            return matches(document, query)

        monkeypatch.setattr(engine, "matches", spy)
        found = collection.find({"use_case": "uc-3"})
        assert len(found) == size // 10
        assert examined == [d["_id"] for d in found]  # the bucket, in insertion order
        examined.clear()
        assert collection.count({"use_case": {"$in": ["uc-1", "uc-2"]}}) == size // 5
        assert len(examined) == size // 5
        examined.clear()
        assert collection.find({"_id": "m7", "n": 7}, projection=()) == [{"_id": "m7"}]
        assert examined == ["m7"]
        assert collection.stats()["indexed_fields"] == ["use_case"]

    def test_a_pure_insert_log_never_checkpoints(self, tmp_path):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 500)
        stats = collection.stats()
        assert stats["checkpoints"] == 0 and stats["dead_bytes"] == 0
        assert stats["live_bytes"] == (tmp_path / "models.jsonl").stat().st_size

    def test_storage_bytes_is_the_live_line_bytes(self, tmp_path):
        for store in (DocumentStore(tmp_path), DocumentStore()):
            collection = store.collection("models")
            fill(collection, 20)
            collection.replace_one("m3", {"use_case": "other", "n": [1, 2, 3]})
            collection.delete_one("m4")
            expected = sum(len(line(document)) for document in collection.find())
            assert collection.storage_bytes() == expected


class TestCheckpoint:
    def test_dead_bytes_are_bounded_by_rewriting_the_log(self, tmp_path):
        collection = DocumentStore(tmp_path).collection("models")
        collection.insert_one({"_id": "a", "payload": "x" * 1000, "v": 0})
        collection.insert_one({"_id": "b", "payload": "y" * 1000})
        for version in range(1, 40):
            collection.replace_one("a", {"payload": "x" * 1000, "v": version})
            stats = collection.stats()
            assert stats["dead_bytes"] <= max(
                CHECKPOINT_DEAD_FLOOR, 0.25 * stats["live_bytes"])
        assert collection.stats()["checkpoints"] >= 1
        reopened = DocumentStore(tmp_path).collection("models")
        assert reopened.find() == collection.find()
        assert reopened.get("a")["v"] == 39

    def test_crash_between_tmp_and_rename_leaves_the_old_log(self, tmp_path, monkeypatch):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 30)
        path = tmp_path / "models.jsonl"

        def die(self, target):
            raise KeyboardInterrupt("killed before the rename")

        monkeypatch.setattr(type(path), "replace", die)
        big = "z" * (2 * CHECKPOINT_DEAD_FLOOR)
        collection.replace_one("m0", {"blob": big, "v": 1})  # dead bytes still small
        with pytest.raises(KeyboardInterrupt):
            collection.replace_one("m0", {"blob": big, "v": 2})  # would checkpoint
        monkeypatch.undo()
        assert (tmp_path / "models.tmp").exists()
        reopened = DocumentStore(tmp_path).collection("models")
        assert reopened.count() == 30
        assert reopened.get("m0")["v"] == 2  # the append preceded the checkpoint
        assert reopened.stats()["torn_tail_bytes"] == 0


class TestParentFormat:
    def test_a_file_of_bare_documents_opens_and_accepts_appends(self, tmp_path):
        """What the whole-file rewrite of earlier versions left on disk."""
        documents = [
            {"_id": "b", "use_case": "U_1", "nested": {"k": [1, 2.5, None]}},
            {"_id": "a", "use_case": "U_2", "base_model": "b"},
        ]
        path = tmp_path / "models.jsonl"
        with path.open("w") as handle:
            for document in documents:
                handle.write(json.dumps(document, sort_keys=True) + "\n")
        collection = DocumentStore(tmp_path).collection("models")
        assert collection.find() == documents  # file order is insertion order
        collection.insert_one({"_id": "c", "base_model": "b"})
        collection.delete_one("a")
        # the first write rewrote it in the framing, its records first
        assert path.read_bytes().startswith(line(documents[0]) + line(documents[1]))
        reopened = DocumentStore(tmp_path).collection("models")
        assert [d["_id"] for d in reopened.find()] == ["b", "c"]

    def test_delete_then_reinsert_moves_to_the_end_after_replay(self, tmp_path):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 3)
        collection.delete_one("m0")
        collection.insert_one({"_id": "m0", "again": True})
        collection.replace_one("m1", {"replaced": True})
        order = [d["_id"] for d in collection.find()]
        assert order == ["m1", "m2", "m0"]
        assert [d["_id"] for d in DocumentStore(tmp_path)["models"].find()] == order


class TestDamagedLog:
    @pytest.mark.parametrize("tail", [b'{"_id": "half", "use_ca', b'{"_id": 7}\n', b"\x00\x00\n"])
    def test_torn_tail_is_dropped_and_the_file_cut_to_a_line_boundary(self, tmp_path, tail):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 5)
        path = tmp_path / "models.jsonl"
        acked = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(tail)
        reopened = DocumentStore(tmp_path).collection("models")
        assert [d["_id"] for d in reopened.find()] == [f"m{i}" for i in range(5)]
        assert path.read_bytes() == acked
        assert reopened.stats()["torn_tail_bytes"] == len(tail)
        reopened.insert_one({"_id": "after"})
        again = DocumentStore(tmp_path).collection("models")
        assert again.get("after") == {"_id": "after"}
        assert again.stats()["torn_tail_bytes"] == 0

    def test_garbage_before_good_records_is_corruption_and_untouched(self, tmp_path):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 5)
        path = tmp_path / "models.jsonl"
        lines = [line(collection.get(f"m{index}")) for index in range(5)]
        damaged = bytearray(path.read_bytes())
        damaged[len(lines[0]) + len(lines[1]) + len(lines[2]) - 2] ^= 0x20  # in m2
        damaged = bytes(damaged)
        path.write_bytes(damaged)
        with pytest.raises(StoreCorruptionError) as caught:
            DocumentStore(tmp_path)
        assert "'models'" in str(caught.value)
        assert f"byte {len(lines[0]) + len(lines[1])}" in str(caught.value)
        assert path.read_bytes() == damaged

    def test_failed_append_leaves_memory_and_file_as_they_were(self, tmp_path, monkeypatch):
        collection = DocumentStore(tmp_path).collection("models")
        fill(collection, 3)
        path = tmp_path / "models.jsonl"
        before = path.read_bytes()
        real_write = os.write

        def half_written(fd, data):
            real_write(fd, bytes(data)[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", half_written)
        with pytest.raises(OSError):
            collection.insert_one({"_id": "lost", "use_case": "uc-0"})
        monkeypatch.undo()
        assert path.read_bytes() == before
        with pytest.raises(NotFoundError):
            collection.get("lost")
        collection.insert_one({"_id": "kept"})
        assert DocumentStore(tmp_path)["models"].count() == 4


class TestDropCollection:
    def test_a_dropped_collection_cannot_write_to_the_unlinked_file(self, tmp_path):
        store = DocumentStore(tmp_path)
        held = store.collection("models")
        fill(held, 10)
        store.drop_collection("models")
        assert not (tmp_path / "models.jsonl").exists()
        assert held.count() == 0 and held.stats()["live_bytes"] == 0
        store.collection("models").insert_one({"_id": "fresh"})
        held.insert_one({"_id": "stale-holder"})
        assert {d["_id"] for d in DocumentStore(tmp_path)["models"].find()} == {
            "fresh", "stale-holder"}

    def test_a_stale_holder_writes_to_the_file_another_holder_checkpointed(self, tmp_path):
        store = DocumentStore(tmp_path)
        held = store.collection("models")
        held.insert_one({"_id": "early"})
        store.drop_collection("models")
        fresh = store.collection("models")
        big = "z" * (2 * CHECKPOINT_DEAD_FLOOR)
        fresh.insert_one({"_id": "m0", "blob": big})
        held.insert_one({"_id": "lost-to-the-checkpoint"})
        fresh.replace_one("m0", {"blob": big, "v": 2})
        assert fresh.stats()["checkpoints"] == 1  # renamed a new file in place
        held.insert_one({"_id": "stale-holder"})
        assert {d["_id"] for d in DocumentStore(tmp_path)["models"].find()} == {
            "m0", "stale-holder"}


# -- the engine against a plain dict ------------------------------------------

IDS = st.sampled_from([f"id{i}" for i in range(8)])
TAGS = st.sampled_from(["a", "b", "c"])
VALUES = st.one_of(
    TAGS,
    st.none(),
    st.integers(0, 3),
    st.lists(st.one_of(TAGS, st.integers(0, 3)), max_size=3),
)
BODIES = st.fixed_dictionaries(
    {"pad": st.sampled_from(["", "x" * 700])},  # large enough to reach a checkpoint
    optional={"tag": VALUES, "kind": VALUES},
)
QUERIES = st.one_of(
    st.fixed_dictionaries({"tag": VALUES}),
    st.fixed_dictionaries({"tag": st.fixed_dictionaries({"$in": st.lists(TAGS, max_size=3)})}),
    st.fixed_dictionaries({"kind": TAGS, "tag": VALUES}),
    st.fixed_dictionaries({"_id": IDS}),
    st.fixed_dictionaries({"_id": st.fixed_dictionaries({"$in": st.lists(IDS, max_size=3)})}),
    st.fixed_dictionaries({"tag": st.fixed_dictionaries({"$ne": TAGS}), "kind": TAGS}),
)


class CollectionAgainstDict(RuleBasedStateMachine):
    """insert / replace / update / delete / reopen agree with a dict model,
    and indexed queries with the brute-force ``matches`` filter."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.path = Path(self.directory.name) / "c.jsonl"
        self.collection = Collection("c", persist_path=self.path)
        self.model: dict[str, dict] = {}  # insertion-ordered, like the engine

    def teardown(self):
        self.directory.cleanup()

    def expected(self, query):
        return [document for document in self.model.values() if matches(document, query)]

    @rule(doc_id=IDS, body=BODIES)
    def insert(self, doc_id, body):
        document = {"_id": doc_id, **body}
        if doc_id in self.model:
            with pytest.raises(engine.DuplicateKeyError):
                self.collection.insert_one(document)
        else:
            self.collection.insert_one(document)
            self.model[doc_id] = document

    @rule(doc_id=IDS, body=BODIES)
    def replace(self, doc_id, body):
        if doc_id in self.model:
            self.collection.replace_one(doc_id, body)
            self.model[doc_id] = {"_id": doc_id, **body}
        else:
            with pytest.raises(NotFoundError):
                self.collection.replace_one(doc_id, body)

    @rule(query=QUERIES, tag=VALUES)
    def update_one(self, query, tag):
        expected = self.expected(query)
        assert self.collection.update_one(query, {"tag": tag}) == bool(expected)
        if expected:
            self.model[expected[0]["_id"]] = {**expected[0], "tag": tag}

    @rule(doc_id=IDS)
    def delete_one(self, doc_id):
        assert self.collection.delete_one(doc_id) == (doc_id in self.model)
        self.model.pop(doc_id, None)

    @rule(query=QUERIES)
    def delete_many(self, query):
        expected = self.expected(query)
        assert self.collection.delete_many(query) == len(expected)
        for document in expected:
            del self.model[document["_id"]]

    @rule()
    def reopen(self):
        self.collection = Collection("c", persist_path=self.path)

    @rule(query=QUERIES)
    def queries_agree(self, query):
        expected = self.expected(query)
        assert self.collection.find(query) == expected
        assert self.collection.count(query) == len(expected)
        assert self.collection.find(query, projection=("tag",)) == [
            {key: document[key] for key in ("_id", "tag") if key in document}
            for document in expected
        ]

    @invariant()
    def state_agrees(self):
        assert self.collection.find() == list(self.model.values())
        assert self.collection.count() == len(self.model)
        stats = self.collection.stats()
        assert stats["live_bytes"] == sum(len(line(d)) for d in self.model.values())
        on_disk = self.path.stat().st_size if self.path.exists() else 0
        assert stats["live_bytes"] + stats["dead_bytes"] == on_disk


TestCollectionAgainstDict = CollectionAgainstDict.TestCase
TestCollectionAgainstDict.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


def test_the_state_machine_crosses_a_checkpoint(tmp_path):
    """The rule-based run above may or may not reach one; this sequence,
    of the same operations, provably does — and replay agrees after it."""
    collection = Collection("c", persist_path=tmp_path / "c.jsonl")
    model = {}
    for step in range(30):
        doc_id = f"id{step % 4}"
        document = {"_id": doc_id, "tag": ["a", "b", "c"][step % 3], "pad": "x" * 700}
        if doc_id in model:
            collection.replace_one(doc_id, document)
        else:
            collection.insert_one(document)
        model[doc_id] = document
        if step % 7 == 6:
            collection.delete_one(doc_id)
            del model[doc_id]
    assert collection.stats()["checkpoints"] >= 1
    reopened = Collection("c", persist_path=tmp_path / "c.jsonl")
    assert reopened.find() == collection.find() == list(model.values())
    assert reopened.find({"tag": "a"}) == [d for d in model.values() if d["tag"] == "a"]
