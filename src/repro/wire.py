"""One wire: the frame, its typed errors and the server core under both sockets.

The serving gateway (:mod:`repro.gateway`) and the document store that
plays the paper's catalog machine (:mod:`repro.docstore.server`) speak it.
A **frame** is a JSON header line, optionally followed by raw payload
bytes::

    frame   = header payload
    header  = one JSON object, compact, UTF-8, terminated by "\\n"
    payload = exactly header["payload_bytes"] bytes (none when absent or 0)

Only the gateway's tensors travel as payload; every other request is a
header alone, so it can be typed into ``nc`` by hand.  A request carries
a client-assigned ``id`` (its answer carries the same, so answers can
come back out of order), an ``op``, optionally ``deadline_s`` (the
caller's remaining budget) and the service's own fields::

    {"id": 7, "op": "find", "collection": "models", "args": {}, "deadline_s": 2.5}
    {"id": 7, "ok": true, "result": [...]}
    {"id": 7, "ok": false, "error": {"kind": "overloaded",
     "message": "...", "retryable": true, "retry_after_s": 0.05}}

A header line and a payload are each at most :data:`MAX_LINE_BYTES`;
``payload_bytes`` must be a JSON integer in that range and is checked
before a byte of the payload is read.  A line over the limit or an
unusable ``payload_bytes`` ends the connection (:class:`FrameError`: the
next frame's start is unknowable; a server answers ``invalid`` first), as
does EOF inside a payload.  A header that is not a JSON object is
answered ``invalid`` and the connection carries on.

Error *kinds* (:data:`ERROR_KINDS`) are the stable contract: clients
dispatch on ``kind`` and ``retryable``, never on message text.  A
retryable kind means "not applied; back off and resend".
"""

from __future__ import annotations

import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NamedTuple, Sequence

from . import deadline, obs
from .errors import (
    DeadlineExceededError,
    MMLibError,
    StoreCorruptionError,
    TransientStoreError,
)

__all__ = [
    "ERROR_KINDS",
    "MAX_LINE_BYTES",
    "Frame",
    "FrameError",
    "FrameServer",
    "WireError",
    "decode_line",
    "encode_frame",
    "encode_line",
    "error_from_exception",
    "error_payload",
    "read_frame",
    "read_frame_blocking",
]

#: Upper bound on a header line and, separately, on a payload.  Large
#: enough for a multi-megabyte model state, small enough to stop a runaway
#: client from ballooning server memory.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: kind -> retryable.  Clients raise the retryable kinds as
#: :class:`~repro.errors.TransientStoreError` subclasses, so the existing
#: :class:`repro.retry.RetryPolicy` handles backoff unchanged.
ERROR_KINDS: dict[str, bool] = {
    "overloaded": True,  # tenant queue full — shed, back off
    "quota": True,  # token bucket empty — honor retry_after_s
    "deadline": True,  # budget expired before/while executing
    "unavailable": True,  # transient storage failure under the op
    "shutting_down": True,  # server draining; reconnect elsewhere
    "not_found": False,
    "duplicate": False,  # a document with that id already exists
    "invalid": False,  # malformed request / unknown op
    "forbidden": False,  # cross-tenant access attempt
    "corrupt": False,  # integrity check failed server-side
    "internal": False,
}


class WireError(MMLibError):
    """A typed rejection, serialized into a response's ``error``."""

    def __init__(self, kind: str, message: str, *, retry_after_s: float | None = None):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown wire error kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.retryable = ERROR_KINDS[kind]
        self.retry_after_s = retry_after_s


def error_payload(exc: WireError) -> dict[str, Any]:
    payload: dict[str, Any] = {"kind": exc.kind, "message": str(exc), "retryable": exc.retryable}
    if exc.retry_after_s is not None:
        payload["retry_after_s"] = round(exc.retry_after_s, 4)
    return payload


def error_from_exception(exc: BaseException) -> WireError:
    """Map an arbitrary worker-side exception onto a typed wire error."""
    if isinstance(exc, WireError):
        return exc
    # Local imports: repro.core pulls in the whole storage stack, and this
    # module must stay importable from the lightweight clients.
    from .core.errors import ModelNotFoundError, VerificationError
    from .docstore.engine import DuplicateKeyError, NotFoundError

    if isinstance(exc, DeadlineExceededError):
        return WireError("deadline", str(exc) or "deadline exceeded")
    if isinstance(exc, (ModelNotFoundError, NotFoundError)):
        return WireError("not_found", str(exc))
    if isinstance(exc, DuplicateKeyError):
        return WireError("duplicate", str(exc))
    if isinstance(exc, (StoreCorruptionError, VerificationError)):
        return WireError("corrupt", str(exc))
    if isinstance(exc, TransientStoreError):
        return WireError("unavailable", str(exc))
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return WireError("invalid", f"{type(exc).__name__}: {exc}")
    return WireError("internal", f"{type(exc).__name__}: {exc}")


def encode_line(message: dict[str, Any]) -> bytes:
    """Serialize one header to a newline-terminated compact JSON line."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_LINE_BYTES:
        raise WireError("invalid", f"message of {len(data)} bytes exceeds {MAX_LINE_BYTES}")
    return data + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received header line; raises ``WireError('invalid')`` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise WireError("invalid", f"frame of {len(line)} bytes exceeds {MAX_LINE_BYTES}")
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("invalid", f"malformed JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError("invalid", "frame must be a JSON object")
    return message


class FrameError(WireError):
    """A header line over the limit, or a ``payload_bytes`` that cannot be
    honoured.

    Always kind ``invalid``.  The stream is out of step after it — what
    follows may be payload or the next header — so the receiver ends the
    connection; ``request_id`` lets a server answer the sender first.
    """

    def __init__(self, message: str, request_id: Any = None):
        super().__init__("invalid", message)
        self.request_id = request_id


class Frame(NamedTuple):
    """One received frame; ``wire_bytes`` counts header line and payload."""

    header: dict[str, Any]
    payload: bytes
    wire_bytes: int


def _payload_length(header: dict[str, Any]) -> int:
    declared = header.get("payload_bytes", 0)
    # bool is an int subclass: `true` would otherwise read as one byte
    if type(declared) is not int or not 0 <= declared <= MAX_LINE_BYTES:
        raise FrameError(
            f"'payload_bytes' must be an integer in [0, {MAX_LINE_BYTES}], "
            f"got {declared!r}",
            request_id=header.get("id"),
        )
    return declared


def _overlong() -> FrameError:
    return FrameError(f"header line exceeds {MAX_LINE_BYTES} bytes")


def encode_frame(
    header: dict[str, Any], payload: Sequence[bytes | memoryview] = ()
) -> list[bytes | memoryview]:
    """Frame ``header`` and ``payload`` as buffers for ``writer.writelines``.

    ``payload`` is a sequence of bytes-like chunks (flat byte views, e.g.
    :func:`repro.nn.serialization.iter_serialized`); they are passed
    through uncopied behind a header line that declares their total
    length.  ``header`` is not modified.
    """
    nbytes = sum(len(chunk) for chunk in payload)
    if nbytes > MAX_LINE_BYTES:
        raise WireError("invalid", f"payload of {nbytes} bytes exceeds {MAX_LINE_BYTES}")
    if nbytes:
        header = {**header, "payload_bytes": nbytes}
    return [encode_line(header), *payload]


async def read_frame(reader) -> Frame | None:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` at EOF.

    Raises :class:`WireError` (``invalid``) for a header line that is not
    a JSON object — the stream is still in step, the caller may read on —
    and :class:`FrameError` for a header line over the reader's limit or
    an unusable ``payload_bytes``, raised before any of the payload is
    read.  EOF inside a payload raises ``asyncio.IncompleteReadError``.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # past the reader's limit
        raise _overlong() from exc
    if not line:
        return None
    header = decode_line(line)
    nbytes = _payload_length(header)
    payload = await reader.readexactly(nbytes) if nbytes else b""
    return Frame(header, payload, len(line) + nbytes)


def read_frame_blocking(stream) -> Frame | None:
    """:func:`read_frame` over a blocking binary stream, e.g. a socket's
    ``makefile("rb")``; EOF inside a payload raises ``EOFError``."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise _overlong()
    header = decode_line(line)
    nbytes = _payload_length(header)
    payload = stream.read(nbytes) if nbytes else b""
    if len(payload) < nbytes:
        raise EOFError(f"connection closed {len(payload)} bytes into a {nbytes}-byte payload")
    return Frame(header, payload, len(line) + nbytes)


def _error_frame(request_id, exc: WireError) -> list:
    return encode_frame({"id": request_id, "ok": False, "error": error_payload(exc)})


class FrameServer:
    """The asyncio server core both services run.

    An event loop in a background thread (so tests and the CLI drive it
    from synchronous code) reads each connection's frames; each frame is
    one task running the subclass's :meth:`_handle`, whose encoded
    response (or raised error, typed by :func:`error_from_exception`) is
    written under the connection's lock in completion order.  ``port=0``
    binds an ephemeral port, read :attr:`port` after :meth:`start`.
    ``name`` prefixes the threads and the ``mmlib_<name>_connections_total``
    and ``mmlib_<name>_wire_bytes_total`` counters.
    """

    def __init__(self, host: str, port: int, workers: int, name: str):
        self.host = host
        self.port = port
        self._name = name
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix=f"{name}-worker")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._connections: dict = {}  # each open connection's task -> its reader
        metrics = obs.registry()
        self._obs_connections = metrics.counter(
            f"mmlib_{name}_connections_total", f"Accepted {name} connections"
        )
        self._obs_wire_bytes = {
            direction: metrics.counter(
                f"mmlib_{name}_wire_bytes_total",
                f"Bytes of {name} frames (header line + payload)",
                direction=direction,
            )
            for direction in ("in", "out")
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind and begin serving; returns self.  A bind failure raises here."""
        if self._thread is not None:
            raise RuntimeError(f"{self._name} server already started")
        self._thread = threading.Thread(target=self._run, name=f"{self._name}-loop", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError(f"{self._name} event loop failed to start")
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def _run(self) -> None:
        # asyncio is imported where a server runs, not with this module:
        # every user of repro.docstore imports this module, and one that
        # serves nothing should not carry asyncio (~2.5 MB resident)
        import asyncio

        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                self._server = loop.run_until_complete(asyncio.start_server(
                    self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES))
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self.port = self._server.sockets[0].getsockname()[1]
            self._serving()
            self._started.set()
            loop.run_forever()
            loop.run_until_complete(self._shutdown())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def _serving(self) -> None:
        """Called on the loop once bound: start background tasks here."""

    async def _shutdown(self) -> None:
        import asyncio

        self._server.close()
        # a connection's read ends as if its client had closed, so its task
        # returns: a cancelled one would reach the loop's exception handler
        # through the stream's done callback
        connections = list(self._connections)
        for reader in self._connections.values():
            reader.feed_eof()
        pending = [task for task in asyncio.all_tasks()
                   if task is not asyncio.current_task() and task not in connections]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, *connections, return_exceptions=True)
        # after the connections' tasks: from Python 3.12 this waits for
        # every connection to close, an idle client's too
        await self._server.wait_closed()

    def stop(self) -> None:
        """Stop serving, release the port, and wait for the workers."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- connection handling (event loop) ----------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        import asyncio

        self._obs_connections.inc()
        self._connections[asyncio.current_task()] = reader
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        def spawn(coro) -> None:
            task = asyncio.create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        def refuse(request_id, exc: WireError) -> None:
            spawn(self._send(writer, write_lock, _error_frame(request_id, exc)))

        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError as exc:
                    # where the next frame starts is unknowable: say why,
                    # then give the socket up
                    refuse(exc.request_id, exc)
                    break
                except WireError as exc:  # junk line, stream still in step
                    refuse(None, exc)
                    continue
                except (ConnectionError, asyncio.IncompleteReadError):
                    break  # torn connection or torn payload: nobody to answer
                if frame is None:
                    break
                self._obs_wire_bytes["in"].inc(frame.wire_bytes)
                spawn(self._answer(frame, writer, write_lock))
        finally:
            self._connections.pop(asyncio.current_task(), None)
            # the client closed its write side; finish answering what was
            # already submitted before tearing the socket down
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer, write_lock, buffers: list) -> None:
        self._obs_wire_bytes["out"].inc(sum(len(buffer) for buffer in buffers))
        async with write_lock:
            writer.writelines(buffers)
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    async def _answer(self, frame: Frame, writer, write_lock) -> None:
        try:
            buffers = await self._handle(frame)
        except Exception as exc:  # never let a bug hang the socket
            buffers = _error_frame(frame.header.get("id"), error_from_exception(exc))
        await self._send(writer, write_lock, buffers)

    async def _handle(self, frame: Frame) -> list:
        """Answer one frame: its encoded response (see the class docstring)."""
        raise NotImplementedError

    # -- the worker hop ----------------------------------------------------

    async def _in_worker(self, run, frame: Frame, admitted_at: float | None = None):
        """``run(frame, queue_wait_s)`` on the worker pool, under the
        header's ``deadline_s`` less the time since ``admitted_at``
        (default: now).

        So storage retry loops and quorum paths see the *caller's* budget;
        one spent before a worker picked the request up fails at once with
        the typed ``deadline`` error — never a hung socket.
        """
        deadline_s = frame.header.get("deadline_s")
        if deadline_s is not None and not isinstance(deadline_s, (int, float)):
            raise WireError("invalid", "'deadline_s' must be a number")
        if admitted_at is None:
            admitted_at = obs.clock().perf()
        return await self._loop.run_in_executor(
            self._executor, _under_budget, run, frame, admitted_at, deadline_s)


def _under_budget(run, frame: Frame, admitted_at: float, deadline_s):
    queue_wait_s = obs.clock().perf() - admitted_at
    if deadline_s is None:
        return run(frame, queue_wait_s)
    remaining = float(deadline_s) - queue_wait_s
    if remaining <= 0:
        raise DeadlineExceededError(
            f"deadline budget of {float(deadline_s):.3f}s spent "
            "before execution started (queue wait)"
        )
    with deadline.scope(remaining):
        return run(frame, queue_wait_s)
