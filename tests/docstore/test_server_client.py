"""TCP document-store server and client."""

import threading

import pytest

from repro.docstore import (
    DocumentStore,
    DocumentStoreClient,
    DocumentStoreServer,
    DuplicateKeyError,
    NotFoundError,
)


@pytest.fixture
def served_store():
    store = DocumentStore()
    with DocumentStoreServer(store, port=0) as server:
        with DocumentStoreClient(server.host, server.port) as client:
            yield store, client


class TestBasicOps:
    def test_insert_and_get(self, served_store):
        _, client = served_store
        coll = client.collection("models")
        doc_id = coll.insert_one({"name": "remote"})
        assert coll.get(doc_id)["name"] == "remote"

    def test_writes_visible_in_backing_store(self, served_store):
        store, client = served_store
        doc_id = client["models"].insert_one({"x": 1})
        assert store.collection("models").get(doc_id)["x"] == 1

    def test_find_and_count(self, served_store):
        _, client = served_store
        coll = client["m"]
        coll.insert_many([{"i": i} for i in range(4)])
        assert coll.count() == 4
        assert len(coll.find({"i": {"$gte": 2}})) == 2
        assert coll.find_one({"i": 3})["i"] == 3

    def test_update_and_delete(self, served_store):
        _, client = served_store
        coll = client["m"]
        doc_id = coll.insert_one({"v": 1})
        assert coll.update_one({"v": 1}, {"v": 2})
        coll.replace_one(doc_id, {"v": 3})
        assert coll.get(doc_id)["v"] == 3
        assert coll.delete_one(doc_id)
        assert coll.delete_many({}) == 0

    def test_storage_bytes(self, served_store):
        _, client = served_store
        client["m"].insert_one({"payload": "x" * 50})
        assert client["m"].storage_bytes() > 50


class TestErrorMapping:
    def test_not_found_maps_to_exception(self, served_store):
        _, client = served_store
        with pytest.raises(NotFoundError):
            client["m"].get("missing")

    def test_duplicate_maps_to_exception(self, served_store):
        _, client = served_store
        client["m"].insert_one({"_id": "dup"})
        with pytest.raises(DuplicateKeyError):
            client["m"].insert_one({"_id": "dup"})

    def test_connection_survives_errors(self, served_store):
        _, client = served_store
        with pytest.raises(NotFoundError):
            client["m"].get("missing")
        assert client["m"].insert_one({"after": "error"})


class TestConcurrentClients:
    def test_multiple_clients_share_state(self):
        store = DocumentStore()
        with DocumentStoreServer(store, port=0) as server:
            clients = [
                DocumentStoreClient(server.host, server.port) for _ in range(4)
            ]
            try:
                errors = []

                def work(client, offset):
                    try:
                        for i in range(25):
                            client["m"].insert_one({"n": offset + i})
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=work, args=(c, k * 25))
                    for k, c in enumerate(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not errors
                assert clients[0]["m"].count() == 100
            finally:
                for client in clients:
                    client.close()


class TestRemoteSortLimit:
    def test_sort_and_limit_over_tcp(self, served_store):
        _, client = served_store
        coll = client["models"]
        coll.insert_many([{"i": i} for i in (3, 1, 2)])
        ordered = coll.find(sort=[["i", -1]], limit=2)
        assert [d["i"] for d in ordered] == [3, 2]


class TestServerRobustness:
    def test_server_survives_abrupt_client_disconnect(self):
        """A client dying mid-session must not take the handler thread down."""
        import socket

        store = DocumentStore()
        with DocumentStoreServer(store, port=0) as server:
            # half a request line, then a hard close
            raw = socket.create_connection((server.host, server.port), timeout=2)
            raw.sendall(b'{"id": 1, "collection": "m", "op"')
            raw.close()
            # a request sent and abandoned before reading the response
            raw = socket.create_connection((server.host, server.port), timeout=2)
            raw.sendall(
                b'{"id": 1, "collection": "m", "op": "insert_one",'
                b' "args": {"document": {"x": 1}}}\n'
            )
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),  # RST on close
            )
            raw.close()
            # the server must still accept and serve a well-behaved client
            with DocumentStoreClient(server.host, server.port) as client:
                doc_id = client["m"].insert_one({"survived": True})
                assert client["m"].get(doc_id)["survived"] is True

    def test_an_overlong_request_line_is_refused_and_closed(self, monkeypatch):
        """The header line is bounded by the wire's bound: past it, one
        ``invalid`` answer, then the connection is closed."""
        import socket

        from repro import wire

        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 256)
        store = DocumentStore()
        with DocumentStoreServer(store, port=0) as server:
            raw = socket.create_connection((server.host, server.port), timeout=5)
            with raw, raw.makefile("rb") as replies:
                raw.sendall(
                    b'{"id": 1, "collection": "m", "op": "insert_one", "args": '
                    b'{"document": {"pad": "' + b"x" * 1024 + b'"}}}\n')
                answer = wire.read_frame_blocking(replies).header
                assert answer["ok"] is False
                assert answer["error"]["kind"] == "invalid"
                assert "256" in answer["error"]["message"]
                assert replies.readline() == b""  # the server closed the socket
            assert store.collection("m").count() == 0
            # a request under the bound is still served
            with DocumentStoreClient(server.host, server.port) as client:
                doc_id = client["m"].insert_one({"pad": "x" * 64})
                assert client["m"].get(doc_id)["pad"] == "x" * 64

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", ".hidden", ""])
    def test_a_collection_name_from_the_wire_cannot_leave_the_root(self, tmp_path, name):
        """A client-chosen name is refused, typed, and writes no file anywhere."""
        from repro.docstore import DocumentError, RemoteStoreError

        root = tmp_path / "root" / "docs"
        with DocumentStoreServer(DocumentStore(root), port=0) as server:
            with DocumentStoreClient(server.host, server.port) as client:
                with pytest.raises(DocumentError) as excinfo:
                    client[name].insert_one({"x": 1})
                assert isinstance(excinfo.value, RemoteStoreError)
                assert client["models"].insert_one({"x": 1})
        assert sorted(path.relative_to(tmp_path).as_posix()
                      for path in tmp_path.rglob("*")) == [
            "root", "root/docs", "root/docs/models.jsonl"]

    def test_connect_to_dead_port_is_typed_and_retryable(self):
        import socket

        from repro.docstore.client import TransientRemoteError
        from repro.errors import TransientStoreError

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()  # nobody listens here any more
        with pytest.raises(TransientRemoteError) as excinfo:
            DocumentStoreClient("127.0.0.1", dead_port, connect_timeout=0.5)
        assert isinstance(excinfo.value, TransientStoreError)  # retryable

    def test_client_retries_through_injected_outages(self):
        from repro.faults import FaultInjector
        from repro.retry import RetryPolicy

        faults = FaultInjector(seed=2, outage_rate=0.4, max_consecutive_failures=2)
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.0, sleep=lambda s: None)
        store = DocumentStore()
        with DocumentStoreServer(store, port=0) as server:
            with DocumentStoreClient(
                server.host, server.port, retry=retry, faults=faults
            ) as client:
                coll = client["models"]
                ids = [coll.insert_one({"i": i}) for i in range(20)]
                for i, doc_id in enumerate(ids):
                    assert coll.get(doc_id)["i"] == i
        assert faults.stats["outages"] > 0
        assert retry.retries_taken >= faults.stats["outages"]

    def test_client_without_retry_surfaces_typed_outage(self):
        from repro.errors import TransientStoreError
        from repro.faults import FaultInjector

        faults = FaultInjector(seed=0, outage_rate=1.0)
        store = DocumentStore()
        with DocumentStoreServer(store, port=0) as server:
            with DocumentStoreClient(
                server.host, server.port, faults=faults
            ) as client:
                with pytest.raises(TransientStoreError):
                    client["m"].count()
