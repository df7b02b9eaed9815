"""TCP server exposing a :class:`DocumentStore` on the one wire.

Plays the role of the paper's dedicated MongoDB machine: the evaluation
runs one store process that the server and every node connect to.  A
request is a header-only frame of :mod:`repro.wire` naming a collection
op and its keyword arguments; the answer carries the op's return value::

    -> {"id": 1, "op": "insert_one", "collection": "models", "args": {...}}
    <- {"id": 1, "ok": true, "result": "64ad..."}

A refusal is the wire's typed error: ``duplicate`` and ``not_found`` for
the engine's :class:`DuplicateKeyError` and :class:`NotFoundError`,
``invalid`` for a bad document, query, collection name or op.
"""

from __future__ import annotations

from ..wire import Frame, FrameServer, WireError, encode_frame
from .engine import DocumentStore

__all__ = ["DocumentStoreServer"]

#: Worker threads the collection ops run on.
WORKERS = 8

#: The collection ops a request may name.
_OPS = frozenset({
    "insert_one", "insert_many", "replace_one", "update_one", "delete_one", "delete_many",
    "get", "get_many", "find_one", "find", "count", "storage_bytes", "stats",
    "acknowledge_torn_tail",
})


class DocumentStoreServer(FrameServer):
    """TCP front-end for a document store.

    Use as a context manager::

        with DocumentStoreServer(store, port=0) as server:
            client = DocumentStoreClient(server.host, server.port)
    """

    def __init__(self, store: DocumentStore, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port, WORKERS, name="docstore")
        self.store = store

    async def _handle(self, frame: Frame) -> list:
        op = frame.header.get("op")
        if not isinstance(op, str) or op not in _OPS:
            raise WireError("invalid", f"unsupported op: {op!r}")
        if frame.payload:
            raise WireError("invalid", f"op {op!r} takes no payload")
        return await self._in_worker(self._execute, frame)

    def _execute(self, frame: Frame, _queue_wait_s: float) -> list:
        request = frame.header
        args = request.get("args", {})
        if not isinstance(args, dict):
            raise WireError("invalid", "'args' must be an object")
        collection = self.store.collection(request.get("collection"))
        result = getattr(collection, request["op"])(**args)
        return encode_frame({"id": request.get("id"), "ok": True, "result": result})
