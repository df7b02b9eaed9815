"""TCP server exposing a :class:`DocumentStore` over a JSON-line protocol.

Plays the role of the paper's dedicated MongoDB machine: the evaluation
runs one store process that the server and every node connect to.  The
protocol is one JSON object per line:

    -> {"id": 1, "collection": "models", "op": "insert_one", "args": {...}}
    <- {"id": 1, "ok": true, "result": "64ad..."}

Errors are returned with ``ok: false`` plus an error ``kind`` that the
client maps back to the engine's exception types.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading

from .documents import DocumentError
from .engine import DocumentStore, DuplicateKeyError, NotFoundError
from .query import QueryError

__all__ = ["DocumentStoreServer"]

_OPS = {
    "insert_one",
    "insert_many",
    "replace_one",
    "update_one",
    "delete_one",
    "delete_many",
    "get",
    "get_many",
    "find_one",
    "find",
    "count",
    "storage_bytes",
    "stats",
    "acknowledge_torn_tail",
}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        store: DocumentStore = self.server.store  # type: ignore[attr-defined]
        log = logging.getLogger(__name__)
        while True:
            try:
                raw = self.rfile.readline()
            except OSError as exc:  # client reset mid-read: drop this connection
                log.warning("docstore client %s read failed: %s", self.client_address, exc)
                return
            if not raw:
                return  # clean EOF: client closed its side
            raw = raw.strip()
            if not raw:
                continue
            request = None
            response = None
            try:
                request = json.loads(raw.decode())
            except Exception as exc:  # malformed request: report, keep serving
                response = {
                    "id": None,
                    "ok": False,
                    "kind": "protocol",
                    "error": str(exc),
                }
            if response is None:
                try:
                    response = self._dispatch(store, request)
                except Exception as exc:  # bad args etc.: keep the request id
                    # so pipelined clients can keep their streams in sync
                    request_id = (
                        request.get("id") if isinstance(request, dict) else None
                    )
                    response = {
                        "id": request_id,
                        "ok": False,
                        "kind": "protocol",
                        "error": str(exc),
                    }
            try:
                self.wfile.write((json.dumps(response) + "\n").encode())
                self.wfile.flush()
            except OSError as exc:  # client vanished mid-response (broken pipe)
                log.warning("docstore client %s write failed: %s", self.client_address, exc)
                return

    @staticmethod
    def _dispatch(store: DocumentStore, request: dict) -> dict:
        request_id = request.get("id")
        op = request.get("op")
        if op not in _OPS:
            return {
                "id": request_id,
                "ok": False,
                "kind": "protocol",
                "error": f"unsupported op: {op!r}",
            }
        collection = store.collection(request["collection"])
        args = request.get("args", {})
        try:
            result = getattr(collection, op)(**args)
        except DuplicateKeyError as exc:
            return {"id": request_id, "ok": False, "kind": "duplicate", "error": str(exc)}
        except NotFoundError as exc:
            return {"id": request_id, "ok": False, "kind": "not_found", "error": str(exc)}
        except (DocumentError, QueryError) as exc:
            return {"id": request_id, "ok": False, "kind": "invalid", "error": str(exc)}
        return {"id": request_id, "ok": True, "result": result}


class DocumentStoreServer:
    """Threaded TCP front-end for a document store.

    Use as a context manager::

        with DocumentStoreServer(store, port=0) as server:
            client = DocumentStoreClient("127.0.0.1", server.port)
    """

    def __init__(self, store: DocumentStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        self._server = socketserver.ThreadingTCPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.store = store  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "DocumentStoreServer":
        """Begin serving on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the listening socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "DocumentStoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
