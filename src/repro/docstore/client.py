"""Client for :class:`repro.docstore.server.DocumentStoreServer`.

:class:`RemoteCollection` mirrors the :class:`~repro.docstore.engine.Collection`
API, so MMlib code can be pointed at either an in-process store or a remote
one without changes — the same way the paper swaps a local MongoDB for one
on a different machine.

The client is built for an unreliable link (the motivating fleet uplink):
connects and reads are bounded by timeouts, connection-level failures
surface as the retryable typed :class:`TransientRemoteError` (never a bare
``OSError``), a broken connection is re-established transparently, and an
optional :class:`~repro.retry.RetryPolicy` retries transient failures with
backoff.  A :class:`~repro.faults.FaultInjector` can be attached to
simulate outages before requests leave the client.

Retry caveat: a request whose *response* is lost may have executed on the
server.  All MMlib document ops are either idempotent (get/find/replace/
delete) or insert documents with client-generated ids (model documents),
so a duplicate insert surfaces as :class:`DuplicateKeyError` rather than
silent divergence.
"""

from __future__ import annotations

import json
import socket
import threading

from .. import deadline as deadline_mod, obs
from ..errors import MMLibError, TransientStoreError
from .documents import DocumentError
from .engine import DuplicateKeyError, NotFoundError

__all__ = [
    "DocumentStoreClient",
    "RemoteCollection",
    "RemoteStoreError",
    "TransientRemoteError",
]


class RemoteStoreError(MMLibError, RuntimeError):
    """Raised for protocol-level failures talking to the store server."""


class TransientRemoteError(TransientStoreError, RemoteStoreError):
    """A retryable connection-level failure (timeout, reset, outage)."""


_ERROR_KINDS = {
    "duplicate": DuplicateKeyError,
    "not_found": NotFoundError,
    "invalid": DocumentError,
    "protocol": RemoteStoreError,
}


class _Connection:
    """One TCP connection with its buffered reader and request-id counter."""

    __slots__ = ("sock", "reader", "next_id")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.next_id = 0

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class DocumentStoreClient:
    """Connection pool to a document-store server, handing out collections.

    ``timeout`` bounds reads on an established connection;
    ``connect_timeout`` (default: ``timeout``) bounds connection
    establishment.  Both are further capped by the ambient
    :mod:`repro.deadline` when one is in scope, so an op-level budget
    bounds even the first socket wait against a just-died server.
    ``retry`` retries transient failures, ``faults`` injects simulated
    outages (chaos testing).

    Requests no longer serialize behind one client-wide lock: up to
    ``max_connections`` TCP connections are pooled, each used by one
    thread at a time, so concurrent callers proceed in parallel.
    :meth:`request_many` pipelines a batch of operations over a single
    connection — up to ``pipeline_depth`` requests are written before the
    first response is read, collapsing N round-trips into
    ``ceil(N / pipeline_depth)``.  Every response's ``id`` is checked
    against the request it answers; a mismatch poisons (closes) that
    connection and surfaces as :class:`RemoteStoreError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        retry=None,
        faults=None,
        max_connections: int = 4,
        pipeline_depth: int = 32,
    ):
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connect_timeout = timeout if connect_timeout is None else connect_timeout
        self._retry = retry
        self._faults = faults
        self.pipeline_depth = int(pipeline_depth)
        self._pool_lock = threading.Lock()
        self._idle: list[_Connection] = []
        self._slots = threading.BoundedSemaphore(int(max_connections))
        registry = obs.registry()
        self._obs_tracer = obs.tracer()
        self._obs_requests = registry.counter(
            "mmlib_docstore_requests_total", "Document-store requests sent")
        self._obs_windows = registry.counter(
            "mmlib_docstore_pipeline_windows_total",
            "Pipelined request windows (round trips) paid")
        # eager first connection: constructing a client against a dead
        # endpoint must fail fast with a typed, retryable error
        self._idle.append(self._open())

    # -- connection management --------------------------------------------

    def _capped(self, timeout: float) -> float:
        """``timeout`` shrunk to the ambient deadline budget, if any.

        Floored at 1 ms so a nearly-spent deadline still yields a blocking
        socket (``settimeout(0)`` would flip it to non-blocking mode).
        """
        budget = deadline_mod.remaining()
        if budget is None:
            return timeout
        return max(min(timeout, budget), 0.001)

    def _open(self) -> _Connection:
        deadline_mod.check("docs.connect")
        try:
            sock = socket.create_connection(
                (self._host, self._port),
                timeout=self._capped(self._connect_timeout),
            )
            sock.settimeout(self._timeout)
            return _Connection(sock)
        except OSError as exc:
            raise TransientRemoteError(
                f"cannot connect to document store at "
                f"{self._host}:{self._port}: {exc}"
            ) from exc

    def close(self) -> None:
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "DocumentStoreClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def collection(self, name: str) -> "RemoteCollection":
        return RemoteCollection(self, name)

    def __getitem__(self, name: str) -> "RemoteCollection":
        return self.collection(name)

    # -- requests ----------------------------------------------------------

    def request(self, collection: str, op: str, **args):
        """Issue one request and return its result (or raise).

        Transient failures (injected outages, timeouts, resets, server
        gone) raise :class:`TransientRemoteError`; with a retry policy the
        request is retried over a fresh connection.
        """

        def attempt():
            responses = self._exchange(collection, [(op, args)], op_label=op)
            return self._unwrap(responses[0])

        if self._retry is not None:
            return self._retry.call(attempt, op=f"docs.{op}")
        return attempt()

    def request_many(self, collection: str, requests: list[tuple[str, dict]]):
        """Pipeline a batch of ``(op, args)`` requests over one connection.

        All requests in a window of ``pipeline_depth`` are written before
        the first response is read — one link round-trip per window rather
        than per request.  Results come back in request order; the first
        error response raises its mapped exception (the stream itself
        stays in sync, so the connection survives).  With a retry policy
        the whole batch retries as a unit on transient failure, so callers
        should batch idempotent reads, not writes.
        """
        ops = [(op, dict(args)) for op, args in requests]
        if not ops:
            return []

        def attempt():
            responses = self._exchange(collection, ops, op_label=ops[0][0])
            return [self._unwrap(response) for response in responses]

        if self._retry is not None:
            return self._retry.call(attempt, op=f"docs.{ops[0][0]}[{len(ops)}]")
        return attempt()

    def _exchange(
        self, collection: str, ops: list[tuple[str, dict]], op_label: str
    ) -> list[dict]:
        """Run ops over one pooled connection; returns raw responses.

        The connection returns to the pool only when every response was
        read cleanly — on transport or framing errors it is closed instead,
        since its stream state is no longer trustworthy.
        """
        deadline_mod.check(f"docs.{op_label}")
        if self._faults is not None:
            self._faults.fail_point(f"docs.{op_label}")
        self._slots.acquire()
        conn = None
        healthy = False
        try:
            with self._pool_lock:
                if self._idle:
                    conn = self._idle.pop()
            if conn is None:
                conn = self._open()
            # cap this exchange's socket waits by the op deadline; the pool
            # re-caps on every checkout, so no restore is needed on return
            conn.sock.settimeout(self._capped(self._timeout))
            responses: list[dict] = []
            windows = -(-len(ops) // self.pipeline_depth)
            with self._obs_tracer.span(
                "docs.request_many" if len(ops) > 1 else "docs.request",
                op=op_label, n=len(ops), windows=windows,
            ):
                for start in range(0, len(ops), self.pipeline_depth):
                    window = ops[start : start + self.pipeline_depth]
                    responses.extend(self._roundtrip(conn, collection, window))
            self._obs_requests.inc(len(ops))
            self._obs_windows.inc(windows)
            healthy = True
            return responses
        finally:
            if conn is not None:
                if healthy:
                    with self._pool_lock:
                        self._idle.append(conn)
                else:
                    conn.close()
            self._slots.release()

    def _roundtrip(
        self, conn: _Connection, collection: str, window: list[tuple[str, dict]]
    ) -> list[dict]:
        """Write one window of requests, then read and id-match responses."""
        ids = []
        lines = []
        for op, args in window:
            conn.next_id += 1
            ids.append(conn.next_id)
            lines.append(
                json.dumps(
                    {"id": conn.next_id, "collection": collection, "op": op, "args": args}
                )
            )
        try:
            conn.sock.sendall(("\n".join(lines) + "\n").encode())
            raws = [conn.reader.readline() for _ in ids]
        except OSError as exc:  # timeout, reset, broken pipe
            raise TransientRemoteError(
                f"document-store connection failed during {window[0][0]!r}: {exc}"
            ) from exc
        responses = []
        for expected_id, raw in zip(ids, raws):
            if not raw:
                raise TransientRemoteError(
                    "connection closed by document-store server"
                )
            try:
                response = json.loads(raw.decode())
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise RemoteStoreError(
                    f"malformed response from document-store server: {exc}"
                ) from exc
            received_id = response.get("id")
            # id None means the server could not even parse the request
            # line; responses arrive in order, so FIFO-attribute it
            if received_id is not None and received_id != expected_id:
                raise RemoteStoreError(
                    f"response id {received_id} does not match request id "
                    f"{expected_id}: pipelined stream out of sync"
                )
            responses.append(response)
        return responses

    @staticmethod
    def _unwrap(response: dict):
        if response.get("ok"):
            return response.get("result")
        error_type = _ERROR_KINDS.get(response.get("kind"), RemoteStoreError)
        raise error_type(response.get("error", "unknown remote error"))


def _wire(projection):
    """A projection as the JSON the request carries (``None`` stays ``None``)."""
    return None if projection is None else list(projection)


class RemoteCollection:
    """Remote counterpart of :class:`repro.docstore.engine.Collection`."""

    def __init__(self, client: DocumentStoreClient, name: str):
        self._client = client
        self.name = name

    def _call(self, op: str, **args):
        return self._client.request(self.name, op, **args)

    def insert_one(self, document: dict) -> str:
        return self._call("insert_one", document=document)

    def insert_many(self, documents: list[dict]) -> list[str]:
        return self._call("insert_many", documents=documents)

    def replace_one(self, doc_id: str, document: dict) -> None:
        self._call("replace_one", doc_id=doc_id, document=document)

    def update_one(self, query: dict, changes: dict) -> bool:
        return self._call("update_one", query=query, changes=changes)

    def delete_one(self, doc_id: str) -> bool:
        return self._call("delete_one", doc_id=doc_id)

    def delete_many(self, query: dict) -> int:
        return self._call("delete_many", query=query)

    def get(self, doc_id: str, projection=None) -> dict:
        return self._call("get", doc_id=doc_id, projection=_wire(projection))

    def get_many(self, doc_ids: list[str], projection=None) -> list[dict]:
        """Fetch many documents in one round-trip (missing ids skipped)."""
        return self._call(
            "get_many", doc_ids=list(doc_ids), projection=_wire(projection))

    def find_one(self, query: dict) -> dict | None:
        return self._call("find_one", query=query)

    def find(
        self,
        query: dict | None = None,
        sort: list | None = None,
        limit: int | None = None,
        skip: int = 0,
        projection=None,
    ) -> list[dict]:
        return self._call(
            "find", query=query, sort=sort, limit=limit, skip=skip,
            projection=_wire(projection))

    def find_pages(
        self,
        query: dict | None = None,
        sort: list | None = None,
        page_size: int = 256,
    ):
        """Iterate matching documents page by page (bounded responses).

        Each page is one ``find`` with ``skip``/``limit``, so arbitrarily
        large result sets never arrive as a single unbounded response
        line.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        skip = 0
        while True:
            page = self.find(query=query, sort=sort, limit=page_size, skip=skip)
            yield from page
            if len(page) < page_size:
                return
            skip += page_size

    def count(self, query: dict | None = None) -> int:
        return self._call("count", query=query)

    def storage_bytes(self) -> int:
        return self._call("storage_bytes")

    def stats(self) -> dict:
        return self._call("stats")

    def acknowledge_torn_tail(self) -> int:
        return self._call("acknowledge_torn_tail")
