"""The asyncio serving gateway: the deployment's multi-tenant front door.

One :class:`GatewayServer` runs an asyncio event loop (in a background
thread, so tests and the CLI can drive it from synchronous code) and
accepts TCP connections speaking the frames of
:mod:`repro.gateway.protocol` (a JSON header line, then the raw bytes it
declares).  The split of work is strict:

* **Event loop**: reading frames, admission control, response writing.
  Nothing here blocks — a rejected request never touches the thread pool,
  which is what keeps the gateway responsive while shedding under
  overload.
* **Worker pool**: everything that talks to storage, and encoding the
  response frame.  The synchronous stack (save transactions, quorum
  writes, chain recovery, retries) runs unchanged on pool threads;
  per-thread write-ahead journals make concurrent saves from different
  workers safe.

Requests pipeline per connection — each incoming frame becomes its own
task, responses are written under a lock in completion order, and the
client matches them back by ``id``.

Deadlines: a client sends its remaining budget as ``deadline_s``.  The
gateway stamps admission time; when a worker thread finally picks the
request up it subtracts the queue wait and enters
:func:`repro.deadline.scope` with what is left, so storage-layer retry
loops and quorum paths see the *client's* budget.  A request whose
budget died in the queue fails immediately with the typed ``deadline``
error — never a hung socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Sequence

import numpy as np

from .. import deadline, obs
from ..errors import DeadlineExceededError, LayersNeededError
from .admission import AdmissionController
from .protocol import (
    MAX_LINE_BYTES,
    Frame,
    FrameError,
    GatewayError,
    encode_frame,
    error_from_exception,
    error_payload,
    read_frame,
)
from .tenancy import TenantRegistry

__all__ = ["GatewayServer"]

#: Factory modules a save request may reference.  ``ArchitectureRef``
#: imports the named module server-side; an open prefix list would make
#: ``save`` an arbitrary-import primitive.
ALLOWED_FACTORY_PREFIXES = ("repro.", "tests.")

#: Every header field a ``save`` reads.  Anything else is refused: a field
#: the server would ignore may be the model's weights in a framing it no
#: longer speaks (base64 inside the header, from a pre-payload client), and
#: acking that save would store the factory's *initial* state under the
#: client's name.  ``layers`` is a derived save's layer table: with it the
#: payload carries only the layers the table does not vouch for by digest
#: (:mod:`repro.gateway.protocol`, "Digest-first saves").
SAVE_FIELDS = frozenset({
    "id", "op", "tenant", "deadline_s", "payload_bytes",
    "factory_module", "factory_name", "factory_kwargs", "base", "use_case",
    "layers",
})

#: Every header field a ``recover`` reads; anything else is ``invalid``.
#: ``have`` lists the digests of layers the client already holds
#: (:mod:`repro.gateway.protocol`, "Digest-first recovers").
RECOVER_FIELDS = frozenset({
    "id", "op", "tenant", "deadline_s", "payload_bytes", "model_id", "verify", "have",
})

#: A layer digest: a tensor hash (:func:`repro.core.tensor_hash`).
_DIGEST = re.compile(r"[0-9a-f]{64}")


class Reply(NamedTuple):
    """What an op handler returns: response fields and payload chunks."""

    body: dict
    payload: Sequence[bytes | memoryview] = ()


class GatewayServer:
    """Serve save/recover/find/stats for every tenant in ``registry``.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  ``maintenance`` is an optional
    :class:`~repro.gateway.maintenance.IdleMaintenance`; when set, an
    idle-loop task runs it whenever no request is in flight.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        maintenance=None,
        idle_poll_s: float = 0.05,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.admission = AdmissionController(
            {t.name: t.quota for t in registry.tenants()}
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="gateway-worker"
        )
        # per-tenant execution slots: admission bounds how much a tenant may
        # *queue*; these bound how much it may *run*, so a saturated tenant
        # cannot occupy the whole pool and head-of-line-block the others
        # (asyncio primitives bind to the gateway loop on first acquire)
        self._exec_slots = {
            t.name: asyncio.Semaphore(t.quota.max_concurrency)
            for t in registry.tenants()
        }
        self._maintenance = maintenance
        self._idle_poll_s = idle_poll_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._draining = False
        metrics = obs.registry()
        self._metrics = metrics
        self._obs_connections = metrics.counter(
            "mmlib_gateway_connections_total", "Accepted gateway connections"
        )
        self._obs_wire_bytes = {
            direction: metrics.counter(
                "mmlib_gateway_wire_bytes_total",
                "Bytes of gateway frames (header line + payload)",
                direction=direction,
            )
            for direction in ("in", "out")
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GatewayServer":
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("gateway event loop failed to start")
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(
                        self._serve_connection,
                        self.host,
                        self.port,
                        limit=MAX_LINE_BYTES,
                    )
                )
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._server = server
            self.port = server.sockets[0].getsockname()[1]
            idle_task = None
            if self._maintenance is not None:
                idle_task = loop.create_task(self._idle_loop())
            self._started.set()
            loop.run_forever()
            loop.run_until_complete(self._shutdown(idle_task))
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _shutdown(self, idle_task) -> None:
        if idle_task is not None:
            idle_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await idle_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [
            task
            for task in asyncio.all_tasks(self._loop)
            if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    def stop(self) -> None:
        if self._thread is None:
            return
        self._draining = True
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def serve_forever(self, duration_s: float | None = None) -> None:
        """Blocking serve (for ``mmlib serve``); Ctrl-C or timeout stops."""
        import time

        self.start()
        try:
            if duration_s is None:
                while True:
                    time.sleep(1.0)
            else:
                time.sleep(duration_s)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- connection handling (event loop) ----------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self._obs_connections.inc()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        def spawn(coro) -> None:
            task = asyncio.create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        def refuse(request_id, exc: GatewayError) -> None:
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
                except GatewayError as exc:  # junk line, stream still in step
                    refuse(None, exc)
                    continue
                except (ValueError, ConnectionError, asyncio.IncompleteReadError):
                    # oversized header, torn connection or torn payload —
                    # nothing sane to answer on this socket anymore
                    break
                if frame is None:
                    break
                self._obs_wire_bytes["in"].inc(frame.wire_bytes)
                spawn(self._handle_frame(frame, writer, write_lock))
        finally:
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

    async def _handle_frame(self, frame: Frame, writer, write_lock) -> None:
        request_id = frame.header.get("id")
        try:
            buffers = await self._handle_request(frame)
        except Exception as exc:  # never let a bug hang the socket
            buffers = _error_frame(request_id, error_from_exception(exc))
        await self._send(writer, write_lock, buffers)

    async def _handle_request(self, frame: Frame) -> list:
        """Admit and run one request; returns its encoded response frame."""
        request = frame.header
        op = request.get("op")
        if not isinstance(op, str):
            raise GatewayError("invalid", "request needs a string 'op'")
        if op == "ping":  # health probe: no tenant, no admission
            return encode_frame(
                {"id": request.get("id"), "ok": True, "pong": True,
                 "draining": self._draining}
            )
        if self._draining:
            raise GatewayError("shutting_down", "gateway is draining")
        tenant_name = request.get("tenant")
        if not isinstance(tenant_name, str):
            raise GatewayError("invalid", f"op {op!r} needs a string 'tenant'")
        tenant = self.registry.tenant(tenant_name)
        ticket = self.admission.admit(tenant_name, frame.wire_bytes)
        admitted_at = obs.clock().perf()
        deadline_s = request.get("deadline_s")
        if deadline_s is not None and not isinstance(deadline_s, (int, float)):
            ticket.release()
            raise GatewayError("invalid", "'deadline_s' must be a number")
        status = "error"
        try:
            assert self._loop is not None
            async with self._exec_slots[tenant_name]:
                buffers = await self._loop.run_in_executor(
                    self._executor,
                    self._execute,
                    frame,
                    tenant,
                    admitted_at,
                    deadline_s,
                )
            status = "ok"
            return buffers
        except GatewayError as exc:
            status = exc.kind
            raise
        except Exception as exc:
            mapped = error_from_exception(exc)
            status = mapped.kind
            raise mapped from exc
        finally:
            ticket.release()
            elapsed = obs.clock().perf() - admitted_at
            self._metrics.histogram(
                "mmlib_gateway_request_seconds",
                op=op, tenant=tenant_name,
            ).observe(elapsed)
            self._metrics.counter(
                "mmlib_gateway_requests_total",
                op=op, tenant=tenant_name, status=status,
            ).inc()

    # -- request execution (worker threads) --------------------------------

    def _execute(self, frame: Frame, tenant, admitted_at: float, deadline_s) -> list:
        """Run one admitted request on a pool thread under its deadline.

        Returns the encoded response frame, so the storage spans of the op
        nest under one ``gateway.request`` span that also knows both frame
        sizes, and the event loop is left only the socket write.
        """
        request = frame.header
        queue_wait_s = obs.clock().perf() - admitted_at
        with obs.span(
            "gateway.request",
            op=request["op"],
            tenant=tenant.name,
            queue_wait_s=queue_wait_s,
            request_bytes=frame.wire_bytes,
        ) as span:
            if deadline_s is None:
                reply = self._dispatch(frame, tenant)
            else:
                remaining = float(deadline_s) - queue_wait_s
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"deadline budget of {float(deadline_s):.3f}s spent "
                        "before execution started (queue wait)"
                    )
                with deadline.scope(remaining):
                    reply = self._dispatch(frame, tenant)
            buffers = encode_frame(
                {"id": request.get("id"), "ok": True, **reply.body}, reply.payload
            )
            span.set(response_bytes=sum(len(buffer) for buffer in buffers))
            return buffers

    def _dispatch(self, frame: Frame, tenant) -> Reply:
        op = frame.header["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise GatewayError("invalid", f"unknown op {op!r}")
        if op == "save":
            return handler(frame.header, frame.payload, tenant)
        if frame.payload:
            raise GatewayError("invalid", f"op {op!r} takes no payload")
        return handler(frame.header, tenant)

    def _op_save(self, request: dict, payload: bytes, tenant) -> Reply:
        from ..core.save_info import ArchitectureRef
        from ..nn import serialization

        unread = sorted(set(request) - SAVE_FIELDS)
        if unread:
            raise GatewayError(
                "invalid",
                f"save does not take {unread}; the state to save is the "
                "frame's payload ('payload_bytes' raw bytes after the header)",
            )
        module = request.get("factory_module")
        factory = request.get("factory_name")
        if not isinstance(module, str) or not isinstance(factory, str):
            raise GatewayError(
                "invalid", "save needs 'factory_module' and 'factory_name'"
            )
        if not module.startswith(ALLOWED_FACTORY_PREFIXES):
            raise GatewayError(
                "forbidden",
                f"factory module {module!r} outside allowed prefixes "
                f"{ALLOWED_FACTORY_PREFIXES}",
            )
        kwargs = request.get("factory_kwargs") or {}
        architecture = ArchitectureRef.from_factory(module, factory, kwargs)
        base = request.get("base")
        if base is not None:
            base = tenant.resolve(base)
        # decoded for this request alone, so the model adopts it
        shipped = serialization.loads(payload) if payload else None
        if "layers" in request:
            return self._save_layer_table(
                request, shipped or {}, architecture, base, tenant)
        if shipped is None:
            model = architecture.build()
        else:
            model = architecture.build_from(shipped, assign=True)
        return self._save_model(request, architecture, model, base, tenant)

    def _save_model(self, request: dict, architecture, model, base, tenant) -> Reply:
        from ..core.save_info import ModelSaveInfo

        deadline.check("gateway.save")
        model_id = tenant.service.save_model(
            ModelSaveInfo(
                model=model,
                architecture=architecture,
                base_model_id=base,
                use_case=request.get("use_case"),
            )
        )
        return Reply({"model_id": tenant.qualify(model_id)})

    def _save_layer_table(self, request: dict, shipped: dict, architecture, base,
                          tenant) -> Reply:
        """A digest-first save: ``layers`` names every layer by digest, the
        payload carries the ones no earlier save vouches for.

        Checked against the factory's cached skeleton
        (``ArchitectureRef.skeleton().spec``) before anything is stored:
        the table's names, the dtype and shape of every shipped layer and of
        every referenced one, and each shipped layer's digest (the only
        layers hashed here).  References resolve in the tenant's own
        catalog — never through a store-wide lookup, which would let any
        known digest read another tenant's bytes.  What the store cannot
        vouch for is answered ``needs``; nothing is stored then.
        """
        from ..core import ParameterUpdateSaveService
        from ..core.hashing import state_dict_hashes

        if base is None:
            raise GatewayError("invalid", "a save with 'layers' needs a 'base'")
        if not isinstance(shipped, dict):
            raise GatewayError("invalid", "the payload of a save is a state dict")
        skeleton = architecture.skeleton().spec
        digests, references = _layer_table(request["layers"], skeleton, tenant)
        for name, array in shipped.items():
            if name not in digests or name in references:
                raise GatewayError(
                    "invalid", f"shipped layer {name!r} is not listed bare in 'layers'")
            _check_layer(name, getattr(array, "dtype", None),
                         getattr(array, "shape", None), skeleton)
        forged = [
            name for name, digest in state_dict_hashes(shipped).items()
            if digest != digests[name]
        ]
        if forged:
            raise GatewayError(
                "invalid", f"shipped layers {forged} do not hash to their digests")
        service = tenant.service
        if not isinstance(service, ParameterUpdateSaveService):
            # a snapshot approach keeps no per-layer references
            needs = [name for name in digests if name not in shipped]
            if needs:
                return Reply({"needs": needs})
            model = architecture.build_from(shipped, assign=True)
            return self._save_model(request, architecture, model, base, tenant)
        try:
            held = service.held_layers(references)
            for name, meta in held.items():
                _check_layer(name, np.dtype(meta["dtype"]), tuple(meta["shape"]), skeleton)
            deadline.check("gateway.save")
            model_id = service.save_layers(
                base, digests, shipped, held, request.get("use_case"))
        except LayersNeededError as exc:
            return Reply({"needs": exc.layers})
        return Reply({"model_id": tenant.qualify(model_id)})

    def _op_layers(self, request: dict, tenant) -> Reply:
        model_id = request.get("model_id")
        if not isinstance(model_id, str):
            raise GatewayError("invalid", "layers needs a string 'model_id'")
        return Reply({"layers": tenant.service.layer_hashes(tenant.resolve(model_id))})

    def _op_recover(self, request: dict, tenant) -> Reply:
        """Answer from the verified plan: the whole layer table, and the
        bytes of the layers whose digest is not in ``have``.  No model is
        built; the payload is the fetched arrays' own memory."""
        from ..nn import serialization

        unread = sorted(set(request) - RECOVER_FIELDS)
        if unread:
            raise GatewayError("invalid", f"recover does not take {unread}")
        model_id = request.get("model_id")
        if not isinstance(model_id, str):
            raise GatewayError("invalid", "recover needs a string 'model_id'")
        verify = request.get("verify", True)
        if type(verify) is not bool:
            raise GatewayError("invalid", "'verify' must be a JSON bool")
        have = request.get("have", [])
        if not (isinstance(have, list) and all(map(_is_digest, have))):
            raise GatewayError("invalid", "'have' must be a list of 64-hex digests")
        recovered = tenant.service.recover_layers(
            tenant.resolve(model_id), verify=verify, have=have)
        table = recovered.layers
        if len(have) > len(table if table is not None else recovered.state):
            raise GatewayError("invalid", "'have' is longer than the model's layer table")
        body = {
            "model_id": tenant.qualify(recovered.model_id),
            "verified": recovered.verified,
            "recovery_depth": recovered.recovery_depth,
            "base_model_id": (
                tenant.qualify(recovered.base_model_id)
                if recovered.base_model_id
                else None
            ),
        }
        state = recovered.state
        if table is not None:
            body["layers"] = table
            # a layer the store did not fetch by digest (a monolithic level,
            # an MPA replay) was read whole: the client still need not get it
            held = set(have)
            state = {name: state[name] for name, digest in table
                     if name in state and digest not in held}
        return Reply(body, list(serialization.iter_serialized(state)))

    def _op_find(self, request: dict, tenant) -> Reply:
        use_case = request.get("use_case")
        if use_case is not None:
            records = tenant.manager.find_by_use_case(use_case)
        else:
            records = tenant.manager.list_models()
        return Reply({
            "models": [
                {
                    "model_id": tenant.qualify(record.model_id),
                    "approach": record.approach,
                    "base_model_id": (
                        tenant.qualify(record.base_model_id)
                        if record.base_model_id
                        else None
                    ),
                    "use_case": record.use_case,
                    "saved_at": record.saved_at,
                }
                for record in records
            ]
        })

    def _op_delete(self, request: dict, tenant) -> Reply:
        model_id = request.get("model_id")
        if not isinstance(model_id, str):
            raise GatewayError("invalid", "delete needs a string 'model_id'")
        tenant.manager.delete_model(
            tenant.resolve(model_id), force=bool(request.get("force", False))
        )
        return Reply({"deleted": True})

    def _op_stats(self, request: dict, tenant) -> Reply:
        stats = self.registry.admin_manager().stats()
        stats["tenant"] = {
            "name": tenant.name,
            "models": tenant.manager.documents.collection("models").count(),
            "inflight": self.admission.inflight(tenant.name),
        }
        return Reply({"stats": stats})

    # -- idle maintenance --------------------------------------------------

    async def _idle_loop(self) -> None:
        """Run background maintenance whenever the gateway has slack."""
        assert self._loop is not None
        while True:
            await asyncio.sleep(self._idle_poll_s)
            if self.admission.total_inflight() > 0:
                continue
            if not self._maintenance.due():
                continue
            # compaction runs on the pool like any other storage work so
            # the event loop keeps accepting (and shedding) during it
            await self._loop.run_in_executor(
                self._executor, self._maintenance.maybe_run
            )


def _layer_table(table, skeleton: dict, tenant) -> tuple[dict, dict]:
    """A save's ``layers`` as (name → digest in the skeleton's layer order,
    name → (digest, source id) for the references)."""
    if not isinstance(table, list):
        raise GatewayError("invalid", "'layers' must be a list")
    digests: dict[str, str] = {}
    references: dict[str, tuple[str, str]] = {}
    for entry in table:
        if not (
            isinstance(entry, list) and len(entry) in (2, 3)
            and all(isinstance(field, str) for field in entry)
        ):
            raise GatewayError(
                "invalid", "each layer is [name, digest] or [name, digest, source]")
        name, digest = entry[0], entry[1]
        if name in digests:
            raise GatewayError("invalid", f"layer {name!r} is listed twice")
        digests[name] = digest
        if len(entry) == 3:
            references[name] = (digest, tenant.resolve(entry[2]))
    if digests.keys() != skeleton.keys():
        raise GatewayError(
            "invalid",
            f"'layers' does not fit the factory: missing "
            f"{sorted(skeleton.keys() - digests.keys())}, unexpected "
            f"{sorted(digests.keys() - skeleton.keys())}",
        )
    return {name: digests[name] for name in skeleton}, references


def _is_digest(value) -> bool:
    return isinstance(value, str) and _DIGEST.fullmatch(value) is not None


def _check_layer(name: str, dtype, shape, skeleton: dict) -> None:
    expected = skeleton[name]
    if dtype != expected.dtype or shape != expected.shape:
        raise GatewayError(
            "invalid",
            f"layer {name!r} is {dtype}{shape}; the factory's is "
            f"{expected.dtype}{expected.shape}",
        )


def _error_frame(request_id, exc: GatewayError) -> list:
    return encode_frame({"id": request_id, "ok": False, "error": error_payload(exc)})
