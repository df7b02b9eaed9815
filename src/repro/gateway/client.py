"""Async client for the serving gateway.

One :class:`AsyncGatewayClient` holds one TCP connection and pipelines
requests over it: each request gets a client-assigned id and an awaiting
future; a single reader task matches responses back by id, so any number
of coroutines can share the connection concurrently.  Model states cross
the socket as the raw payload of a frame (:mod:`repro.gateway.protocol`):
a save hands the arrays' own buffers to the transport, a recover decodes
the received buffer once.

Error handling mirrors the storage stack's retry contract:

* retryable rejections (``overloaded``, ``quota``, ``deadline``,
  ``unavailable``, ``shutting_down``) raise
  :class:`GatewayRetryableError` — a :class:`TransientStoreError`
  subclass, so the existing :class:`repro.retry.RetryPolicy` backs off
  and resends without new plumbing;
* permanent rejections raise :class:`GatewayRequestError`;
* a torn connection fails every in-flight request with
  :class:`GatewayConnectionError` (also retryable) — no caller is ever
  left awaiting a response that cannot arrive.

Deadlines propagate implicitly: inside a ``repro.deadline.scope`` the
client stamps the ambient remaining budget onto each request, and the
server re-enters that budget (minus queue wait) on its worker thread.

A derived save (``base=``) is digest-first: the client hashes the state,
sends every layer's digest, and ships only the layers that neither equal
the base's nor were already saved by this client under the same name
(those it names by the earlier model that holds them).  It remembers the
layer digests of its last :data:`REMEMBERED_SAVES` saves for this; a base
it did not save is asked for with the ``layers`` op.  If the server
cannot vouch for a layer it answers with the names it needs, and the
client sends the save once more with those layers shipped.

A verified recover is digest-first too.  The client keeps the layers of
its verified recovers by digest, up to :data:`CACHED_LAYER_BYTES`, and
sends as ``have`` those of the model's table it holds — the table it
remembers from saving or recovering that model.  The server answers with
the whole table and ships only the other layers; the client fills the rest
with copies of its cached ones and remembers the table for later saves.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass

from .. import deadline
from ..errors import MMLibError, TransientStoreError
from .protocol import MAX_LINE_BYTES, Frame, encode_frame, read_frame

__all__ = [
    "AsyncGatewayClient",
    "GatewayRequestError",
    "GatewayRetryableError",
    "GatewayConnectionError",
    "RecoveredState",
]


#: Saves whose layer digests a client remembers for its derived saves; the
#: oldest is forgotten first.
REMEMBERED_SAVES = 64

#: Bytes of verified layers a client keeps for its recovers; the least
#: recently used is dropped first.
CACHED_LAYER_BYTES = 32 << 20


class GatewayRequestError(MMLibError):
    """The gateway rejected a request permanently (not retryable)."""

    def __init__(self, kind: str, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.kind = kind
        self.retryable = False
        self.retry_after_s = retry_after_s


class GatewayRetryableError(TransientStoreError):
    """The gateway shed or failed a request in a retryable way."""

    def __init__(self, kind: str, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.kind = kind
        self.retryable = True
        self.retry_after_s = retry_after_s


class GatewayConnectionError(GatewayRetryableError):
    """The gateway connection died with requests in flight."""

    def __init__(self, message: str):
        super().__init__("unavailable", message)


def _raise_for_error(error: dict) -> None:
    kind = error.get("kind", "internal")
    message = error.get("message", "")
    retry_after = error.get("retry_after_s")
    if error.get("retryable", False):
        raise GatewayRetryableError(kind, message, retry_after)
    raise GatewayRequestError(kind, message, retry_after)


@dataclass
class RecoveredState:
    """Result of :meth:`AsyncGatewayClient.recover_model`."""

    model_id: str
    state: dict
    verified: bool | None
    recovery_depth: int
    base_model_id: str | None


class _SavedLayers:
    """The layer tables of a client's recent saves, and for each
    ``(name, digest)`` the newest of them whose own manifest holds it —
    one that shipped or referenced the layer rather than inheriting it
    from its base."""

    def __init__(self):
        self._tables: OrderedDict[str, dict[str, str]] = OrderedDict()
        self._sources: dict[tuple[str, str], str] = {}

    def table(self, model_id: str) -> dict[str, str] | None:
        table = self._tables.get(model_id)
        if table is not None:
            self._tables.move_to_end(model_id)
        return table

    def source(self, name: str, digest: str) -> str | None:
        return self._sources.get((name, digest))

    def remember(self, model_id: str, table: dict[str, str], own) -> None:
        self._tables[model_id] = table
        self._tables.move_to_end(model_id)
        for name in own:
            self._sources[(name, table[name])] = model_id
        while len(self._tables) > REMEMBERED_SAVES:
            self.forget(next(iter(self._tables)))

    def forget(self, model_id: str) -> None:
        for key in (self._tables.pop(model_id, None) or {}).items():
            if self._sources.get(key) == model_id:
                del self._sources[key]


class _LayerCache:
    """Layers of verified recovers by digest, at most
    :data:`CACHED_LAYER_BYTES`.  Each entry is a private read-only copy; a
    caller only ever gets copies of it."""

    def __init__(self):
        self._layers: OrderedDict[str, object] = OrderedDict()
        self._bytes = 0

    def held(self, digests) -> dict:
        """The cached arrays among ``digests``, as references the caller
        keeps: a later eviction does not take them from it."""
        held = {}
        for digest in digests:
            array = self._layers.get(digest)
            if array is not None:
                self._layers.move_to_end(digest)
                held[digest] = array
        return held

    def put(self, digest: str, array) -> None:
        if digest in self._layers or array.nbytes > CACHED_LAYER_BYTES:
            return
        entry = array.copy()
        entry.flags.writeable = False
        self._layers[digest] = entry
        self._bytes += entry.nbytes
        while self._bytes > CACHED_LAYER_BYTES:
            _, evicted = self._layers.popitem(last=False)
            self._bytes -= evicted.nbytes


class AsyncGatewayClient:
    """One tenant's pipelined connection to a :class:`GatewayServer`."""

    #: Slack added to ``deadline_s`` before the client gives up waiting for
    #: any response at all (the hung-server guard).  Class-level so tests
    #: can shrink it without patching live requests.
    grace_s = 5.0

    def __init__(self, host: str, port: int, tenant: str):
        self.host = host
        self.port = port
        self.tenant = tenant
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._saved = _SavedLayers()
        self._layers = _LayerCache()

    # -- lifecycle ---------------------------------------------------------

    async def connect(self) -> "AsyncGatewayClient":
        if self._writer is not None:
            raise RuntimeError("client already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_responses())
        return self

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
        self._fail_pending(GatewayConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncGatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_responses(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                future = self._pending.pop(frame.header.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(
                GatewayConnectionError(f"gateway connection failed: {exc}")
            )
            return
        self._fail_pending(GatewayConnectionError("gateway closed the connection"))

    # -- core request ------------------------------------------------------

    async def request(self, op: str, deadline_s: float | None = None, **fields) -> dict:
        """Send one request; return the response body or raise typed errors.

        ``deadline_s`` defaults to the ambient :mod:`repro.deadline`
        budget when one is active.  The response future is additionally
        bounded client-side (budget + a grace period) so even a
        misbehaving server cannot hang the caller.
        """
        return (await self._exchange(op, deadline_s, fields)).header

    async def _exchange(
        self, op: str, deadline_s: float | None, fields: dict, payload=()
    ) -> Frame:
        """One request frame out, its response frame back."""
        if self._writer is None:
            raise GatewayConnectionError("client is not connected")
        if deadline_s is None and deadline.current() is not None:
            deadline_s = max(deadline.remaining(), 0.001)
        request_id = next(self._ids)
        message: dict = {"id": request_id, "op": op, "tenant": self.tenant}
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        message.update(fields)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            buffers = encode_frame(message, payload)
            async with self._write_lock:
                self._writer.writelines(buffers)
                await self._writer.drain()
            if deadline_s is not None:
                frame = await asyncio.wait_for(future, deadline_s + self.grace_s)
            else:
                frame = await future
        except asyncio.TimeoutError:
            # distinct from the server's typed "deadline" rejection: here NO
            # response arrived at all — the hung-socket case the bench gates on
            self._pending.pop(request_id, None)
            raise GatewayRetryableError(
                "timeout", f"no response to {op!r} within budget + grace"
            ) from None
        except ConnectionError as exc:
            self._pending.pop(request_id, None)
            raise GatewayConnectionError(str(exc)) from exc
        finally:
            self._pending.pop(request_id, None)
        if not frame.header.get("ok", False):
            _raise_for_error(frame.header.get("error", {}))
        return frame

    # -- convenience ops ---------------------------------------------------

    async def ping(self) -> dict:
        return await self.request("ping")

    async def save_model(
        self,
        factory: str,
        state: dict | None = None,
        factory_kwargs: dict | None = None,
        base: str | None = None,
        use_case: str | None = None,
        deadline_s: float | None = None,
    ) -> str:
        """Save a model built by ``factory`` (``"module:callable"``).

        ``state`` is a state dict (arrays) loaded into the freshly built
        module server-side; omit it to save the factory's initial state.
        Its arrays are sent from their own memory, so leave them unchanged
        until this call returns.  With ``base`` only the layers the store
        cannot already vouch for are sent (see the module docstring).
        Returns the qualified model id (``<tenant>/<id>``).
        """
        from ..core.hashing import state_dict_hashes
        from ..nn import serialization

        module, _, name = factory.partition(":")
        if not module or not name:
            raise ValueError(f"factory must be 'module:callable', got {factory!r}")
        fields: dict = {
            "factory_module": module,
            "factory_name": name,
            "factory_kwargs": factory_kwargs or {},
        }
        if use_case is not None:
            fields["use_case"] = use_case
        if state is None or base is None:
            if base is not None:
                fields["base"] = base
            # preamble + the arrays' own memoryviews: no joined copy, no armour
            payload = list(serialization.iter_serialized(state)) if state is not None else ()
            frame = await self._exchange("save", deadline_s, fields, payload)
            model_id = frame.header["model_id"]
            if state is not None:
                digests = state_dict_hashes(state)
                self._saved.remember(model_id, digests, own=digests)
            return model_id
        fields["base"] = base
        budget = deadline.scope(deadline_s) if deadline_s is not None else contextlib.nullcontext()
        with budget:
            digests = state_dict_hashes(state)
            base_digests = await self._base_layers(base)
            changed = [n for n, d in digests.items() if base_digests.get(n) != d]
            sources = {}
            for name in changed:
                source = self._saved.source(name, digests[name])
                if source is not None:
                    sources[name] = source
            shipped = [name for name in changed if name not in sources]
            response = await self._send_layers(fields, digests, sources, shipped, state)
            if "needs" in response:
                needs = set(response["needs"])
                sources = {n: s for n, s in sources.items() if n not in needs}
                shipped = [n for n in digests if n in needs or n in shipped]
                response = await self._send_layers(fields, digests, sources, shipped, state)
            if "needs" in response:
                raise GatewayRequestError(
                    "internal", f"the gateway still needs layers {response['needs']}")
        model_id = response["model_id"]
        self._saved.remember(model_id, digests, own=changed)
        return model_id

    async def _base_layers(self, base: str) -> dict[str, str]:
        """The base's layer digests: remembered, else the ``layers`` op."""
        table = self._saved.table(base)
        if table is None:
            try:
                response = await self.request("layers", model_id=base)
            except GatewayRequestError as exc:
                if exc.kind != "not_found":
                    raise
                return {}  # the save itself reports the base, as it always has
            table = dict(response["layers"])
            self._saved.remember(base, table, own=())
        return table

    async def _send_layers(self, fields, digests, sources, shipped, state) -> dict:
        """One digest-first save frame: every layer's digest (and source,
        for a reference), then the bytes of the ``shipped`` ones."""
        from ..nn import serialization

        table = [
            [name, digest, sources[name]] if name in sources else [name, digest]
            for name, digest in digests.items()
        ]
        payload = (
            list(serialization.iter_serialized({n: state[n] for n in shipped}))
            if shipped else ()
        )
        frame = await self._exchange("save", None, {**fields, "layers": table}, payload)
        return frame.header

    async def recover_model(
        self,
        model_id: str,
        verify: bool = True,
        deadline_s: float | None = None,
    ) -> RecoveredState:
        from ..nn import serialization

        fields: dict = {"model_id": model_id, "verify": verify}
        table = self._saved.table(model_id) if verify else None
        # taken now: a pipelined recover may evict them before this answer
        held = self._layers.held(table.values()) if table else {}
        if held:
            fields["have"] = list(held)
        frame = await self._exchange("recover", deadline_s, fields)
        response = frame.header
        try:
            shipped = serialization.loads(frame.payload)
        except ValueError as exc:
            # acked, but no usable state came with it (e.g. a peer that
            # predates payload framing): refuse rather than hand back junk
            raise GatewayRequestError(
                "internal", f"recover response carried no valid state: {exc}"
            ) from exc
        state = shipped
        layers = response.get("layers")
        if layers is not None:  # the answer of a digest-first server
            verified = verify and response.get("verified") is True
            state = self._assemble(layers, shipped, held, verified)
            self._saved.remember(response["model_id"], dict(layers), own=())
        return RecoveredState(
            model_id=response["model_id"],
            state=state,
            verified=response.get("verified"),
            recovery_depth=response.get("recovery_depth", 0),
            base_model_id=response.get("base_model_id"),
        )

    def _assemble(self, layers, shipped: dict, held: dict, verified: bool) -> dict:
        """The state a recover's table names: the shipped layers (cached,
        when ``verified``) and copies of the held ones."""
        state = {}
        for name, digest in layers:
            if name in shipped:
                state[name] = shipped[name]
                if verified:
                    self._layers.put(digest, shipped[name])
            elif digest in held:
                state[name] = held[digest].copy()
            else:
                raise GatewayRequestError(
                    "internal", f"recover response lacks layer {name!r}")
        return state

    async def find(
        self, use_case: str | None = None, deadline_s: float | None = None
    ) -> list[dict]:
        fields = {"use_case": use_case} if use_case is not None else {}
        response = await self.request("find", deadline_s=deadline_s, **fields)
        return response["models"]

    async def delete_model(
        self, model_id: str, force: bool = False, deadline_s: float | None = None
    ) -> None:
        await self.request(
            "delete", deadline_s=deadline_s, model_id=model_id, force=force
        )
        self._saved.forget(model_id)

    async def stats(self, deadline_s: float | None = None) -> dict:
        response = await self.request("stats", deadline_s=deadline_s)
        return response["stats"]
