"""One wire, two servers: the gateway and the document store frame alike.

Every case drives a raw socket against both servers of
:class:`repro.wire.FrameServer`, each with a request it answers ``ok``.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import wire
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore, DocumentStoreServer
from repro.gateway import GatewayServer, TenantQuota, TenantRegistry
from repro.wire import encode_frame, encode_line, read_frame_blocking


def gateway(tmp_path):
    registry = TenantRegistry(SharedStores.at(tmp_path / "store"), {"acme": TenantQuota()})
    return GatewayServer(registry), {"op": "find", "tenant": "acme"}


def document_store(tmp_path):
    return DocumentStoreServer(DocumentStore()), {
        "op": "count", "collection": "models", "args": {}}


MAKERS, IDS = [gateway, document_store], ["GatewayServer", "DocumentStoreServer"]


@pytest.fixture(params=MAKERS, ids=IDS)
def served(request, tmp_path):
    """A raw connection to a started server, and a request it answers."""
    server, good = request.param(tmp_path)
    with server:
        with socket.create_connection(server.address, timeout=5) as sock:
            with sock.makefile("rb") as replies:
                yield sock, replies, good


def send(sock, *buffers) -> None:
    sock.sendall(b"".join(buffers))


def error_kind(header: dict) -> str:
    assert header["ok"] is False, header
    return header["error"]["kind"]


def test_a_junk_header_is_answered_invalid_and_the_connection_carries_on(served):
    sock, replies, good = served
    send(sock, b"{this is not json\n", *encode_frame({"id": 2, **good}))
    junk, answer = read_frame_blocking(replies).header, read_frame_blocking(replies).header
    assert junk["id"] is None and error_kind(junk) == "invalid"
    assert answer["id"] == 2 and answer["ok"] is True


@pytest.mark.parametrize("declared", [1.5, True, "64"])
def test_an_unusable_payload_length_is_answered_with_its_id_then_closed(served, declared):
    sock, replies, good = served
    # no payload follows: a server that tried to read one would neither
    # answer nor close, and the reads below would time out
    send(sock, encode_line({"id": 5, **good, "payload_bytes": declared}))
    answer = read_frame_blocking(replies).header
    assert answer["id"] == 5 and error_kind(answer) == "invalid"
    assert "payload_bytes" in answer["error"]["message"]
    assert read_frame_blocking(replies) is None  # EOF: the server gave the socket up


@pytest.fixture
def small_bound(monkeypatch):
    """A 256-byte line bound; requested before ``served``, since a server
    reads the bound when it binds."""
    monkeypatch.setattr(wire, "MAX_LINE_BYTES", 256)


def test_an_overlong_header_line_closes_the_connection(small_bound, served):
    sock, replies, good = served
    send(sock, json.dumps({"id": 1, **good, "pad": "x" * 1024}).encode() + b"\n")
    answer = read_frame_blocking(replies).header
    assert error_kind(answer) == "invalid" and "256" in answer["error"]["message"]
    assert read_frame_blocking(replies) is None


def test_a_payload_on_an_op_that_takes_none_is_invalid(served):
    sock, replies, good = served
    send(sock, *encode_frame({"id": 1, **good}, (b"tensor?",)),
         *encode_frame({"id": 2, **good}))
    answers = {header["id"]: header for header in (
        read_frame_blocking(replies).header, read_frame_blocking(replies).header)}
    assert error_kind(answers[1]) == "invalid"
    assert "payload" in answers[1]["error"]["message"]
    assert answers[2]["ok"] is True  # the payload was consumed, not parsed


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_stop_does_not_wait_for_an_idle_client(make, tmp_path):
    """From Python 3.12 a server's close waits for its connections: a
    pooled client's idle one must not hold ``stop()`` up."""
    server, good = make(tmp_path)
    with server, socket.create_connection(server.address, timeout=5) as idle:
        send(idle, *encode_frame({"id": 1, **good}))
        assert idle.recv(1)  # answered: the connection is open, and idle
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 5


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_stop_ends_an_idle_connection_without_an_error(make, tmp_path):
    """The idle connection's handler returns at the end of its stream
    instead of being cancelled: a cancelled one would reach the event
    loop's exception handler (and stderr) as a ``CancelledError``."""
    server, good = make(tmp_path)
    seen, installed = [], threading.Event()

    def install():
        server._loop.set_exception_handler(lambda loop, context: seen.append(context))
        installed.set()

    with server, socket.create_connection(server.address, timeout=5) as idle:
        server._loop.call_soon_threadsafe(install)
        assert installed.wait(timeout=5)
        send(idle, *encode_frame({"id": 1, **good}))
        assert idle.recv(1)  # answered: the connection is open, and idle
        server.stop()
    assert seen == []
