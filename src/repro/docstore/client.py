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

import itertools
import socket
import threading

from .. import deadline as deadline_mod, obs
from ..errors import MMLibError, TransientStoreError
from ..wire import WireError, encode_line, error_payload, read_frame_blocking
from .documents import DocumentError
from .engine import DuplicateKeyError, NotFoundError, projected_fields

__all__ = [
    "DocumentStoreClient",
    "InvalidRequestError",
    "RemoteCollection",
    "RemoteStoreError",
    "TransientRemoteError",
]


class RemoteStoreError(MMLibError, RuntimeError):
    """Raised for protocol-level failures talking to the store server."""


class TransientRemoteError(TransientStoreError, RemoteStoreError):
    """A retryable failure: a dead link (timeout, reset, outage) or a retryable kind."""


class InvalidRequestError(RemoteStoreError, DocumentError):
    """Refused as ``invalid``: a bad document, query, collection name, argument or op."""


#: Wire error kind -> the engine's exception, for the non-retryable kinds.
_RAISED_AS = {
    "duplicate": DuplicateKeyError,
    "not_found": NotFoundError,
    "invalid": InvalidRequestError,
}


def _raise(error: dict):
    message = error.get("message", "unknown remote error")
    if error.get("retryable"):
        raise TransientRemoteError(message)
    raise _RAISED_AS.get(error.get("kind"), RemoteStoreError)(message)


def _close(link) -> None:
    for part in reversed(link):  # the reader, then its socket
        try:
            part.close()
        except OSError:
            pass


class DocumentStoreClient:
    """Connection pool to a document-store server, handing out collections.

    ``timeout`` bounds reads on an established connection;
    ``connect_timeout`` (default: ``timeout``) bounds connection
    establishment.  Both are further capped by the ambient
    :mod:`repro.deadline` when one is in scope, and each request carries
    what is left of it as ``deadline_s``, so an op-level budget bounds
    even the first socket wait against a just-died server and the
    server's work too.  ``retry`` retries transient failures, ``faults``
    injects simulated outages (chaos testing).

    Each request is one frame of :mod:`repro.wire` over a pooled
    connection one thread uses at a time.  An answer whose ``id`` is not
    the request's poisons (closes) the connection and raises
    :class:`RemoteStoreError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        retry=None,
        faults=None,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connect_timeout = timeout if connect_timeout is None else connect_timeout
        self._retry = retry
        self._faults = faults
        self._pool_lock = threading.Lock()
        self._idle: list[tuple] = []  # (socket, its reader), not in use
        self._ids = itertools.count(1)
        self._obs_tracer = obs.tracer()
        self._obs_requests = obs.registry().counter(
            "mmlib_docstore_requests_total", "Document-store requests sent")
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

    def _open(self) -> tuple:
        deadline_mod.check("docs.connect")
        try:
            sock = socket.create_connection(
                (self._host, self._port),
                timeout=self._capped(self._connect_timeout),
            )
        except OSError as exc:
            raise TransientRemoteError(
                f"cannot connect to document store at "
                f"{self._host}:{self._port}: {exc}"
            ) from exc
        return sock, sock.makefile("rb")

    def close(self) -> None:
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for link in idle:
            _close(link)

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
        gone, retryable error kinds) raise :class:`TransientRemoteError`;
        with a retry policy the request is retried over a fresh
        connection.
        """
        if self._retry is not None:
            return self._retry.call(
                lambda: self._exchange(collection, op, args), op=f"docs.{op}")
        return self._exchange(collection, op, args)

    def _exchange(self, collection: str, op: str, args: dict):
        """One request frame out over a pooled connection, its answer back.

        The connection returns to the pool only when the answer was read
        cleanly and names this request — after a transport or framing
        error its stream state is no longer trustworthy, so it is closed.
        """
        deadline_mod.check(f"docs.{op}")
        if self._faults is not None:
            self._faults.fail_point(f"docs.{op}")
        request_id = next(self._ids)
        header = {"id": request_id, "op": op, "collection": collection, "args": args}
        if deadline_mod.current() is not None:
            header["deadline_s"] = max(deadline_mod.remaining(), 0.001)
        try:
            line = encode_line(header)
        except WireError as exc:
            _raise(error_payload(exc))
        with self._pool_lock:
            link = self._idle.pop() if self._idle else None
        if link is None:
            link = self._open()
        sock, reader = link
        healthy = False
        try:
            # cap this exchange's socket waits by the op deadline; the pool
            # re-caps on every checkout, so no restore is needed on return
            sock.settimeout(self._capped(self._timeout))
            with self._obs_tracer.span("docs.request", op=op):
                try:
                    sock.sendall(line)
                    frame = read_frame_blocking(reader)
                except (OSError, EOFError) as exc:  # timeout, reset, broken pipe
                    raise TransientRemoteError(
                        f"document-store connection failed during {op!r}: {exc}"
                    ) from exc
                except WireError as exc:
                    raise RemoteStoreError(
                        f"malformed response from document-store server: {exc}"
                    ) from exc
            if frame is None:
                raise TransientRemoteError("connection closed by document-store server")
            answered = frame.header.get("id")
            # None: the server could not read the request's id, and may be
            # about to close the connection
            if answered is not None and answered != request_id:
                raise RemoteStoreError(
                    f"response id {answered} does not match request id "
                    f"{request_id}: stream out of sync"
                )
            self._obs_requests.inc()
            healthy = answered == request_id
        finally:
            if healthy:
                with self._pool_lock:
                    self._idle.append(link)
            else:
                _close(link)
        if not frame.header.get("ok"):
            _raise(frame.header.get("error") or {})
        return frame.header.get("result")


def _wire(projection):
    """A projection as the JSON the request carries (``None`` stays ``None``)."""
    fields = projected_fields(projection)
    return None if fields is None else list(fields)


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

    def replace_one(self, doc_id: str, document: dict) -> dict:
        return self._call("replace_one", doc_id=doc_id, document=document)

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

    def count(self, query: dict | None = None) -> int:
        return self._call("count", query=query)

    def storage_bytes(self) -> int:
        return self._call("storage_bytes")

    def stats(self) -> dict:
        return self._call("stats")

    def acknowledge_torn_tail(self) -> int:
        return self._call("acknowledge_torn_tail")
