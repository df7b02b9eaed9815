"""The docstore on the wire: response-id matching, batched reads, paging."""

import contextlib
import socket
import threading

import pytest

from repro import deadline
from repro.docstore import (
    DocumentStore,
    DocumentStoreClient,
    DocumentStoreServer,
    RemoteStoreError,
)
from repro.docstore.client import TransientRemoteError
from repro.wire import encode_frame, read_frame_blocking


@pytest.fixture
def served_store():
    store = DocumentStore()
    with DocumentStoreServer(store, port=0) as server:
        with DocumentStoreClient(server.host, server.port) as client:
            yield store, client


@contextlib.contextmanager
def one_connection_server(answer):
    """A fake server that answers each request frame of the first
    connection with the frame ``answer(header)``; yields its host, port
    and the request headers it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            try:
                while (frame := read_frame_blocking(reader)) is not None:
                    seen.append(frame.header)
                    conn.sendall(b"".join(encode_frame(answer(frame.header))))
            except OSError:
                pass

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield (*listener.getsockname(), seen)
    finally:
        listener.close()


def echo(header):
    return {"id": header["id"], "ok": True, "result": None}


@pytest.fixture
def rogue_server():
    """A fake server that answers every request with a wrong response id."""
    with one_connection_server(
        lambda header: {"id": 999_999, "ok": True, "result": None}
    ) as (host, port, _):
        yield host, port


class TestResponseIdMatching:
    def test_mismatched_response_id_raises(self, rogue_server):
        """Regression: a stale/reordered response must never be attributed
        to the wrong request — the client verifies every response id."""
        host, port = rogue_server
        client = DocumentStoreClient(host, port)
        with pytest.raises(RemoteStoreError, match="out of sync"):
            client.request("models", "count")

    def test_mismatch_poisons_the_connection(self, rogue_server):
        host, port = rogue_server
        client = DocumentStoreClient(host, port)
        with pytest.raises(RemoteStoreError):
            client.request("models", "count")
        # the desynchronized connection must not return to the pool
        assert client._idle == []

    def test_ids_strictly_increase_within_a_connection(self):
        with one_connection_server(echo) as (host, port, seen):
            with DocumentStoreClient(host, port, timeout=5) as client:
                for index in range(5):
                    client["m"].insert_one({"i": index})
                # all five requests reused the single pooled connection
                assert len(client._idle) == 1
        assert [header["id"] for header in seen] == [1, 2, 3, 4, 5]

    def test_a_request_carries_the_ambient_budget(self):
        with one_connection_server(echo) as (host, port, seen):
            with DocumentStoreClient(host, port, timeout=5) as client:
                client["m"].count()
                with deadline.scope(2.0):
                    client["m"].count()
        assert "deadline_s" not in seen[0]
        assert 0 < seen[1]["deadline_s"] <= 2.0
        assert {key: seen[1][key] for key in ("op", "collection", "args")} == {
            "op": "count", "collection": "m", "args": {"query": None}}


class TestGetMany:
    def test_order_matches_request_and_missing_are_skipped(self, served_store):
        _, client = served_store
        coll = client["m"]
        ids = coll.insert_many([{"i": i} for i in range(4)])
        wanted = [ids[3], "missing", ids[0], ids[2]]
        docs = coll.get_many(wanted)
        assert [d["i"] for d in docs] == [3, 0, 2]

    def test_empty_and_duplicate_ids(self, served_store):
        _, client = served_store
        coll = client["m"]
        assert coll.get_many([]) == []
        doc_id = coll.insert_one({"i": 7})
        docs = coll.get_many([doc_id, doc_id])
        assert [d["i"] for d in docs] == [7, 7]

    def test_engine_collection_get_many(self):
        coll = DocumentStore().collection("m")
        ids = [coll.insert_one({"i": i}) for i in range(3)]
        docs = coll.get_many([ids[2], ids[0]])
        assert [d["i"] for d in docs] == [2, 0]
        # returned documents are copies, not aliases into the store
        docs[0]["i"] = 99
        assert coll.get(ids[2])["i"] == 2


class TestFindPaging:
    def test_find_with_skip(self, served_store):
        _, client = served_store
        coll = client["m"]
        coll.insert_many([{"i": i} for i in range(10)])
        page = coll.find({}, sort=[("i", 1)], skip=4, limit=3)
        assert [d["i"] for d in page] == [4, 5, 6]

    def test_engine_skip_validation(self):
        coll = DocumentStore().collection("m")
        with pytest.raises(ValueError):
            coll.find({}, skip=-1)


class TestPoolBehaviour:
    def test_dead_endpoint_fails_fast_and_typed(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        with pytest.raises(TransientRemoteError):
            DocumentStoreClient("127.0.0.1", port, timeout=0.5)
