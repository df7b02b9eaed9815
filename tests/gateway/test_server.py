"""End-to-end gateway tests over real sockets.

Each test starts a :class:`GatewayServer` on an ephemeral port (its
event loop runs in a background thread) and drives it with the async
client via ``asyncio.run`` — the same path ``mmlib serve`` and the
serving benchmark use.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import deadline, obs
from repro.distsim.environment import SharedStores
from repro.faults import FaultInjector
from repro.gateway import (
    AsyncGatewayClient,
    GatewayConnectionError,
    GatewayRequestError,
    GatewayRetryableError,
    GatewayServer,
    IdleMaintenance,
    TenantQuota,
    TenantRegistry,
)
from repro.gateway.admission import AdmissionController
from repro.gateway.maintenance import RECOVERY_DEPTH_GAUGE
from repro.gateway.protocol import (
    MAX_LINE_BYTES,
    encode_frame,
    encode_line,
    read_frame,
)
from repro.nn import serialization
from repro.retry import RetryPolicy
from repro.workloads.serving import serving_mlp

from tests.gateway.conftest import FakeClock

FACTORY = "repro.workloads.serving:serving_mlp"
FACTORY_FIELDS = {
    "factory_module": "repro.workloads.serving",
    "factory_name": "serving_mlp",
    "factory_kwargs": {},
}


def run(coro):
    return asyncio.run(coro)


def make_registry(tmp_path, tenants=None, **stores_kwargs):
    stores = SharedStores.at(tmp_path / "store", **stores_kwargs)
    if tenants is None:
        tenants = {"acme": TenantQuota(), "globex": TenantQuota()}
    return TenantRegistry(stores, tenants)


def mlp_state(step: int = 0) -> dict:
    """A distinguishable, bit-exact state dict for the serving MLP."""
    state = serving_mlp().state_dict()
    if step:
        state = {
            key: (value + np.float32(0.001 * step)).astype(value.dtype)
            for key, value in state.items()
        }
    return state


def assert_states_bitwise_equal(actual: dict, expected: dict) -> None:
    assert sorted(actual) == sorted(expected)
    for key, value in expected.items():
        got = actual[key]
        assert got.dtype == value.dtype and got.shape == value.shape
        assert got.tobytes() == value.tobytes(), f"mismatch at {key}"


def server_tasks(server: GatewayServer) -> int:
    """Tasks alive on the gateway's event loop (connections, requests)."""
    async def count():
        return len(asyncio.all_tasks()) - 1  # not this probe itself

    return asyncio.run_coroutine_threadsafe(count(), server._loop).result(5)


def wait_until(condition, timeout_s: float = 5.0) -> bool:
    deadline_at = time.perf_counter() + timeout_s
    while not condition():
        if time.perf_counter() > deadline_at:
            return False
        time.sleep(0.01)
    return True


def counter_value(family: str, **labels) -> float:
    return obs.registry().counter(family, **labels).value


class TestRequestPlane:
    def test_ping_save_recover_find_delete(self, tmp_path):
        registry = make_registry(tmp_path)
        state = mlp_state(step=3)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    pong = await client.ping()
                    assert pong["pong"] and not pong["draining"]

                    model_id = await client.save_model(
                        FACTORY, state=state, use_case="U_1"
                    )
                    assert model_id.startswith("acme/")

                    recovered = await client.recover_model(model_id)
                    assert recovered.verified
                    assert recovered.recovery_depth == 0
                    assert_states_bitwise_equal(recovered.state, state)

                    models = await client.find(use_case="U_1")
                    assert [m["model_id"] for m in models] == [model_id]

                    stats = await client.stats()
                    assert stats["tenant"]["name"] == "acme"
                    assert stats["tenants"] == {"acme": 1, "globex": 0}

                    await client.delete_model(model_id, force=True)
                    assert await client.find() == []
            run(scenario())

    def test_delta_chain_roundtrips_through_gateway(self, tmp_path):
        registry = make_registry(tmp_path)
        states = [mlp_state(step) for step in range(3)]
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    base = None
                    ids = []
                    for state in states:
                        base = await client.save_model(
                            FACTORY, state=state, base=base
                        )
                        ids.append(base)
                    tip = await client.recover_model(ids[-1])
                    assert tip.recovery_depth == 0  # its own manifest
                    assert tip.base_model_id == ids[-2]
                    assert_states_bitwise_equal(tip.state, states[-1])
            run(scenario())

    def test_cross_tenant_access_is_forbidden_not_data(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as acme:
                    model_id = await acme.save_model(FACTORY, state=mlp_state(1))
                async with AsyncGatewayClient(*server.address, "globex") as globex:
                    # the catalog does not leak
                    assert await globex.find() == []
                    # a stolen qualified id is a name, not a capability
                    with pytest.raises(GatewayRequestError) as excinfo:
                        await globex.recover_model(model_id)
                    assert excinfo.value.kind == "forbidden"
                    assert excinfo.value.retryable is False
            run(scenario())

    def test_unknown_tenant_and_unknown_op_rejected(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "mallory") as client:
                    with pytest.raises(GatewayRequestError) as forbidden:
                        await client.find()
                    assert forbidden.value.kind == "forbidden"
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    with pytest.raises(GatewayRequestError) as invalid:
                        await client.request("frobnicate")
                    assert invalid.value.kind == "invalid"
            run(scenario())

    def test_factory_outside_allowlist_is_forbidden(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    with pytest.raises(GatewayRequestError) as excinfo:
                        await client.save_model("os.path:join")
                    assert excinfo.value.kind == "forbidden"
            run(scenario())


class TestFindIsOneQuery:
    """A gateway ``find`` answers from one catalog query: on a 3x2 cluster,
    one sharded ``find`` call, whatever the models derive from."""

    def test_one_sharded_find_and_the_reply_a_record_list_gives(
        self, tmp_path, monkeypatch, request
    ):
        from repro.cluster.sharded_docs import _ShardedCollection

        stores = SharedStores.cluster_at(tmp_path / "cluster", shards=3, replicas=2)
        request.addfinalizer(stores.files.close)
        registry = TenantRegistry(stores, {"acme": TenantQuota()})
        manager = registry.tenant("acme").manager
        finds = []
        find = _ShardedCollection.find

        def counting_find(self, *args, **kwargs):
            finds.append(args[0] if args else kwargs.get("query"))
            return find(self, *args, **kwargs)

        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root = await client.save_model(FACTORY, state=mlp_state(1), use_case="U_1")
                    await client.save_model(FACTORY, state=mlp_state(2), base=root,
                                            use_case="U_1")
                    await client.save_model(FACTORY, state=mlp_state(3), use_case="U_2")
                    monkeypatch.setattr(_ShardedCollection, "find", counting_find)
                    return {use_case: await client.find(use_case=use_case)
                            for use_case in ("U_1", "U_2", None)}

            replies = run(scenario())
        assert len(finds) == 3  # one per find: no second query for children
        monkeypatch.setattr(_ShardedCollection, "find", find)
        tenant = registry.tenant("acme")
        for use_case, models in replies.items():
            records = (manager.list_models() if use_case is None
                       else manager.find_by_use_case(use_case))
            assert models == [
                {
                    "model_id": tenant.qualify(record.model_id),
                    "approach": record.approach,
                    "base_model_id": (tenant.qualify(record.base_model_id)
                                      if record.base_model_id else None),
                    "use_case": record.use_case,
                    "saved_at": record.saved_at,
                }
                for record in records
            ]
        assert [len(replies[key]) for key in ("U_1", "U_2", None)] == [2, 1, 3]
        assert replies["U_1"][1]["base_model_id"] == replies["U_1"][0]["model_id"]


class TestWireFrames:
    def test_base64_save_is_refused_not_acked_with_initial_weights(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    with pytest.raises(GatewayRequestError) as excinfo:
                        await client.request("save", **FACTORY_FIELDS, state_b64="UkVQ")
                    assert await client.find() == []  # nothing was stored
                    return excinfo.value
            error = run(scenario())
        assert error.kind == "invalid"
        assert "state_b64" in str(error)

    def test_recover_ack_without_a_state_raises_typed_not_keyerror(self):
        async def scenario():
            async def handle(reader, writer):
                request = (await read_frame(reader)).header
                writer.writelines(encode_frame(
                    {"id": request["id"], "ok": True, "model_id": "acme/m",
                     "state_b64": "UkVQ", "verified": True}
                ))
                await writer.drain()

            fake = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            async with fake:
                async with AsyncGatewayClient("127.0.0.1", port, "acme") as client:
                    with pytest.raises(GatewayRequestError) as excinfo:
                        await client.recover_model("acme/m")
            return excinfo.value

        error = run(scenario())
        assert error.kind == "internal" and not error.retryable

    @pytest.mark.parametrize(
        "declared", [-1, 1.5, True, "64", MAX_LINE_BYTES + 1]
    )
    def test_unusable_payload_length_is_answered_then_the_connection_ends(
        self, tmp_path, declared
    ):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                reader, writer = await asyncio.open_connection(*server.address)
                # no payload follows: a server that tried to read one would
                # neither answer nor close, and the waits below would time out
                writer.write(encode_line(
                    {"id": 5, "op": "save", "tenant": "acme", **FACTORY_FIELDS,
                     "payload_bytes": declared}
                ))
                await writer.drain()
                response = json.loads(await asyncio.wait_for(reader.readline(), 5))
                rest = await asyncio.wait_for(reader.read(), 5)
                writer.close()
                await writer.wait_closed()
                return response, rest
            response, rest = run(scenario())
            assert wait_until(lambda: server_tasks(server) == 0)
        assert response["id"] == 5 and response["ok"] is False
        assert response["error"]["kind"] == "invalid"
        assert "payload_bytes" in response["error"]["message"]
        assert rest == b""  # EOF: the server gave the socket up
        assert registry.tenant("acme").manager.list_models() == []

    def test_connection_dropped_mid_payload_leaves_no_task_behind(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                reader, writer = await asyncio.open_connection(*server.address)
                header, *_ = encode_frame(
                    {"id": 1, "op": "save", "tenant": "acme", **FACTORY_FIELDS},
                    (b"x" * 4096,),
                )
                writer.write(header + b"x" * 100)
                await writer.drain()
                await asyncio.sleep(0.05)  # the server is now inside the payload
                writer.close()
                await writer.wait_closed()

                async with AsyncGatewayClient(*server.address, "acme") as client:
                    return await client.find()
            assert run(scenario()) == []  # the torn save stored nothing
            assert wait_until(lambda: server_tasks(server) == 0)

    def test_torn_response_payload_fails_every_inflight_request(self):
        async def scenario():
            async def handle(reader, writer):
                first = (await read_frame(reader)).header
                await read_frame(reader)
                header, *_ = encode_frame(
                    {"id": first["id"], "ok": True}, (b"x" * 4096,)
                )
                writer.write(header + b"x" * 100)
                await writer.drain()
                writer.close()

            fake = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            async with fake:
                async with AsyncGatewayClient("127.0.0.1", port, "acme") as client:
                    return await asyncio.wait_for(
                        asyncio.gather(
                            client.recover_model("acme/m"),
                            client.find(),
                            return_exceptions=True,
                        ),
                        5,
                    )

        results = run(scenario())
        assert [type(result) for result in results] == [GatewayConnectionError] * 2

    def test_pipelined_payload_frames_come_back_matched_by_id(self, tmp_path):
        registry = make_registry(tmp_path)
        states = [mlp_state(step) for step in range(1, 6)]
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    ids = await asyncio.gather(*(
                        client.save_model(FACTORY, state=state, use_case=f"U_{n}")
                        for n, state in enumerate(states)
                    ))
                    # recovers (payload back), finds (none) and a save
                    # (payload out) interleaved on the one connection
                    extra_state = mlp_state(9)
                    *answers, extra_id = await asyncio.gather(
                        *(client.recover_model(model_id) for model_id in reversed(ids)),
                        *(client.find(use_case=f"U_{n}") for n in range(len(ids))),
                        client.save_model(FACTORY, state=extra_state),
                    )
                    extra = await client.recover_model(extra_id)
                    return ids, answers, extra, extra_state
            ids, answers, extra, extra_state = run(scenario())
        recovered, found = answers[:len(ids)], answers[len(ids):]
        for model_id, state, got in zip(reversed(ids), reversed(states), recovered):
            assert got.model_id == model_id and got.verified is True
            assert_states_bitwise_equal(got.state, state)
        assert [[m["model_id"] for m in models] for models in found] == [
            [model_id] for model_id in ids
        ]
        assert_states_bitwise_equal(extra.state, extra_state)

    def test_save_without_a_payload_saves_the_initial_state(self, tmp_path):
        registry = make_registry(tmp_path)
        initial = serving_mlp().state_dict()
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    absent = await client.save_model(FACTORY)
                    zero = await client.request(
                        "save", **FACTORY_FIELDS, payload_bytes=0
                    )
                    return [
                        await client.recover_model(model_id)
                        for model_id in (absent, zero["model_id"])
                    ]
            for recovered in run(scenario()):
                assert recovered.verified is True
                assert_states_bitwise_equal(recovered.state, initial)


def _awkward_arrays():
    """0-d, empty, mixed-dtype and non-contiguous arrays."""
    dtypes = st.sampled_from(
        [np.float32, np.float64, np.float16, np.int64, np.int8, np.uint8, np.bool_]
    )
    arrays = dtypes.flatmap(lambda dtype: hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        elements=hnp.from_dtype(np.dtype(dtype), allow_nan=False),
    ))

    def maybe_strided(array, mode):
        if mode == "transposed":
            return array.T
        if mode == "every_other" and array.ndim:
            return array[::2]
        return array

    return st.builds(
        maybe_strided, arrays, st.sampled_from(["as_is", "transposed", "every_other"])
    )


class TestStateRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=8), _awkward_arrays(),
                           max_size=6))
    def test_any_state_dict_is_bitwise_through_a_real_socket(self, state):
        """The client's save and recover paths against a loopback peer that
        keeps the payload bytes it was sent and sends them back."""
        async def scenario():
            stored = {}

            async def handle(reader, writer):
                while (frame := await read_frame(reader)) is not None:
                    request = frame.header
                    if request["op"] == "save":
                        stored["m"] = frame.payload
                        reply = encode_frame(
                            {"id": request["id"], "ok": True, "model_id": "m"}
                        )
                    else:
                        reply = encode_frame(
                            {"id": request["id"], "ok": True, "model_id": "m"},
                            (memoryview(stored["m"]),),
                        )
                    writer.writelines(reply)
                    await writer.drain()

            loopback = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = loopback.sockets[0].getsockname()[1]
            async with loopback:
                async with AsyncGatewayClient("127.0.0.1", port, "acme") as client:
                    await client.save_model(FACTORY, state=state)
                    return (await client.recover_model("m")).state, stored["m"]

        recovered, wire = run(scenario())
        assert wire == serialization.dumps(state)
        assert list(recovered) == list(state)
        for key, value in state.items():
            got = recovered[key]
            assert got.dtype == value.dtype and got.shape == value.shape
            assert got.tobytes() == value.tobytes()


class TestWireVisibility:
    def test_requests_run_under_one_span_that_knows_both_frame_sizes(self, tmp_path):
        registry = make_registry(tmp_path)
        state = mlp_state(2)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    model_id = await client.save_model(FACTORY, state=state)
                    await client.recover_model(model_id)
                    await client.find()
            run(scenario())
        spans = obs.tracer().spans()
        requests = {
            span.attrs["op"]: span for span in spans if span.name == "gateway.request"
        }
        assert sorted(requests) == ["find", "recover", "save"]
        payload = len(serialization.dumps(state))
        save, recover, find = (requests[op] for op in ("save", "recover", "find"))
        assert payload < save.attrs["request_bytes"] < payload + 512
        assert payload < recover.attrs["response_bytes"] < payload + 512
        assert save.attrs["response_bytes"] < 512 > recover.attrs["request_bytes"]
        for span in requests.values():
            assert span.attrs["tenant"] == "acme"
            assert span.attrs["queue_wait_s"] >= 0.0
        # the storage work of an op nests under its request span
        by_name = {span.name: span for span in spans}
        assert by_name["service.save_model"].parent_id == save.span_id
        assert by_name["service.recover_model"].parent_id == recover.span_id
        # and the counters saw the same frames (ping-free connection)
        assert counter_value(
            "mmlib_gateway_wire_bytes_total", direction="in"
        ) == sum(span.attrs["request_bytes"] for span in requests.values())
        assert counter_value(
            "mmlib_gateway_wire_bytes_total", direction="out"
        ) == sum(span.attrs["response_bytes"] for span in requests.values())

    def test_wire_bytes_per_state_byte_of_the_bench_model(self, tmp_path):
        """ROADMAP's ``gateway.wire_bytes_per_state_byte`` gate (<= 1.02),
        on the model ``bench/gateway.py`` drives, both directions."""
        registry = make_registry(tmp_path)
        kwargs = {"in_features": 256, "hidden": 1024}
        state = serving_mlp(**kwargs).state_dict()
        state_bytes = sum(array.nbytes for array in state.values())

        def wire(direction):
            return counter_value("mmlib_gateway_wire_bytes_total", direction=direction)

        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    model_id = await client.save_model(
                        FACTORY, state=state, factory_kwargs=kwargs
                    )
                    saved = wire("in"), wire("out")
                    recovered = await client.recover_model(model_id)
                    return saved, recovered
            (save_in, save_out), recovered = run(scenario())
            recover_out = wire("out") - save_out
        assert_states_bitwise_equal(recovered.state, state)
        assert 1.0 <= save_in / state_bytes <= 1.02
        assert 1.0 <= recover_out / state_bytes <= 1.02

    def test_wire_bytes_of_a_derived_save_that_changes_the_last_layer(self, tmp_path):
        """A derived save of the bench model ships its changed 40 KB last
        layer and the digests of the rest: under a tenth of the state."""
        registry = make_registry(tmp_path)
        kwargs = {"in_features": 256, "hidden": 1024}
        state = serving_mlp(**kwargs).state_dict()
        state_bytes = sum(array.nbytes for array in state.values())
        last = list(state)[-2:]
        derived = {
            key: value + np.float32(1e-3) if key in last else value
            for key, value in state.items()
        }

        def wire_in():
            return counter_value("mmlib_gateway_wire_bytes_total", direction="in")

        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    base = await client.save_model(
                        FACTORY, state=state, factory_kwargs=kwargs
                    )
                    before = wire_in()
                    model_id = await client.save_model(
                        FACTORY, state=derived, factory_kwargs=kwargs, base=base
                    )
                    sent = wire_in() - before
                    return sent, await client.recover_model(model_id)
            sent, recovered = run(scenario())
        assert_states_bitwise_equal(recovered.state, derived)
        assert sent < 0.1 * state_bytes


class TestAdmissionPlane:
    def test_overload_sheds_typed_retryable_and_answers_everything(self, tmp_path):
        registry = make_registry(
            tmp_path,
            tenants={
                "acme": TenantQuota(
                    requests_per_s=10_000.0,
                    burst_requests=1_000.0,
                    max_inflight=2,
                    max_concurrency=1,
                )
            },
        )
        # "one wave" by construction: no save finishes before admission has
        # ruled on all 16 (the base64 transport was slow enough that this
        # held by accident; raw frames reach the workers sooner)
        def rulings() -> float:
            return sum(
                counter_value(
                    "mmlib_gateway_admission_total", tenant="acme", outcome=outcome
                )
                for outcome in ("admitted", "shed_overloaded", "shed_quota")
            )

        service = registry.tenant("acme").service
        save_model = service.save_model

        def save_after_the_wave(info):
            assert wait_until(lambda: rulings() == 16)
            return save_model(info)

        service.save_model = save_after_the_wave
        with GatewayServer(registry, workers=2) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    results = await asyncio.gather(
                        *(
                            client.save_model(FACTORY, state=mlp_state(i))
                            for i in range(16)
                        ),
                        return_exceptions=True,
                    )
                    return results
            results = run(scenario())
        saved = [r for r in results if isinstance(r, str)]
        shed = [r for r in results if isinstance(r, GatewayRetryableError)]
        unexpected = [
            r for r in results if not isinstance(r, (str, GatewayRetryableError))
        ]
        # every request answered: acked, or shed with a typed retryable error
        assert unexpected == []
        assert len(saved) + len(shed) == 16
        assert saved and shed  # both regimes exercised
        assert {error.kind for error in shed} == {"overloaded"}
        assert all(error.retry_after_s is not None for error in shed)
        # the queue bound held: at most max_inflight acked per wave
        assert len(saved) <= 2

    def test_rate_quota_sheds_with_honest_retry_after(self, tmp_path):
        registry = make_registry(
            tmp_path,
            tenants={"acme": TenantQuota(requests_per_s=1.0, burst_requests=2.0)},
        )
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    await client.find()
                    await client.find()
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.find()
                    assert excinfo.value.kind == "quota"
                    assert 0 < excinfo.value.retry_after_s <= 1.0
            run(scenario())

    def test_byte_quota_charges_a_save_its_size_on_the_wire(self, tmp_path):
        rate, burst = 50_000.0, 20_000.0
        quota = TenantQuota(bytes_per_s=rate, burst_bytes=burst)
        registry = make_registry(tmp_path, tenants={"acme": quota})
        state = mlp_state(1)
        payload = len(serialization.dumps(state))
        assert burst / 2 < payload < burst * 3 / 4  # one save fits, two do not
        server = GatewayServer(registry)
        # a stopped clock: no refill, so the bucket shows exactly what was charged
        server.admission = AdmissionController({"acme": quota}, clock=FakeClock())
        bucket = server.admission._byte_buckets["acme"]
        with server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    first = await client.save_model(FACTORY, state=state)
                    left = bucket.tokens
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.save_model(FACTORY, state=mlp_state(2))
                    # the shed save's payload was read off the socket, so the
                    # connection is still in step for what follows
                    models = await client.find()
                    recovered = await client.recover_model(first)
                    return first, left, excinfo.value, models, recovered
            first, left, shed, models, recovered = run(scenario())
        save_span = next(
            span for span in obs.tracer().spans()
            if span.name == "gateway.request" and span.attrs["op"] == "save"
        )
        charged = burst - left
        assert charged == save_span.attrs["request_bytes"]  # header + payload
        assert payload < charged < payload + 512  # ... and not 4/3 of it
        assert shed.kind == "quota"
        # same-sized frame (only the id differs): the wait is the deficit / rate
        assert shed.retry_after_s == pytest.approx((charged - left) / rate, abs=1e-3)
        assert [m["model_id"] for m in models] == [first]
        assert_states_bitwise_equal(recovered.state, state)
        assert counter_value(
            "mmlib_gateway_admission_total", tenant="acme", outcome="shed_quota"
        ) == 1

    def test_draining_gateway_sheds_with_shutting_down(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            server._draining = True  # what stop() sets before loop teardown
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    pong = await client.ping()  # health probes still answer
                    assert pong["draining"] is True
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.find()
                    assert excinfo.value.kind == "shutting_down"
            run(scenario())
            server._draining = False


class TestDeadlinePlane:
    def test_budget_spent_in_queue_fails_typed_not_hung(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.find(deadline_s=0.000001)
                    assert excinfo.value.kind == "deadline"
            run(scenario())

    def test_deadline_propagates_into_storage_retry_loop(self, tmp_path):
        # every storage op fails transiently; the retry policy would grind
        # through 10k attempts — unless the ambient deadline entered on the
        # worker thread stops it.  A typed 'deadline' response well before
        # the retries exhaust proves the client budget reached storage.
        registry = make_registry(
            tmp_path,
            faults=FaultInjector(error_rate=1.0, seed=7),
            retry=RetryPolicy(max_attempts=10_000, base_delay_s=0.002),
        )
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    start = time.perf_counter()
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.save_model(
                            FACTORY, state=mlp_state(1), deadline_s=0.5
                        )
                    elapsed = time.perf_counter() - start
                    assert excinfo.value.kind == "deadline"
                    assert elapsed < 5.0  # bounded by the budget, not retries
            run(scenario())

    def test_ambient_scope_stamps_budget_onto_requests(self):
        captured = {}

        async def scenario():
            async def handle(reader, writer):
                message = json.loads(await reader.readline())
                captured.update(message)
                writer.write(
                    json.dumps({"id": message["id"], "ok": True, "pong": True}).encode()
                    + b"\n"
                )
                await writer.drain()

            fake = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            async with fake:
                async with AsyncGatewayClient("127.0.0.1", port, "acme") as client:
                    with deadline.scope(2.0):
                        await client.ping()

        run(scenario())
        assert 0 < captured["deadline_s"] <= 2.0

    def test_silent_server_raises_typed_timeout_never_hangs(self):
        async def scenario():
            async def handle(reader, writer):
                await reader.readline()
                await asyncio.sleep(30)  # never answer

            fake = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            async with fake:
                client = AsyncGatewayClient("127.0.0.1", port, "acme")
                client.grace_s = 0.2
                async with client:
                    with pytest.raises(GatewayRetryableError) as excinfo:
                        await client.request("ping", deadline_s=0.1)
                    assert excinfo.value.kind == "timeout"

        run(scenario())


class TestIdleMaintenance:
    def test_deep_chain_recovery_triggers_idle_compaction(self, tmp_path):
        """A recover through the gateway replays a five-level MPA chain (a
        PUA model replays nothing): the depth mark arms the trigger, and
        the idle sweep compacts the chain."""
        from repro.core import ProvenanceSaveInfo, ProvenanceSaveService, TrainRunSpec
        from repro.nn import rng
        from tests.core.test_recovery_plan import ShiftTrainService

        registry = make_registry(tmp_path, tenants={"acme": TenantQuota()})
        maintenance = IdleMaintenance(registry, max_depth=3, min_interval_s=0.0)
        # the idle sweep resets the depth mark the moment the server has
        # slack; hold it back until the armed mark has been observed
        sweep_allowed = threading.Event()
        trigger_due = maintenance.due
        maintenance.due = lambda: sweep_allowed.is_set() and trigger_due()
        gauge = obs.registry().gauge(RECOVERY_DEPTH_GAUGE)
        tenant = registry.tenant("acme")
        mpa = ProvenanceSaveService(
            tenant.service.documents, tenant.service.files, scratch_dir=tmp_path / "s")
        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / "sample.bin").write_bytes(b"replay needs a dataset to unpack")
        states = [mlp_state(0)]
        server = GatewayServer(
            registry, maintenance=maintenance, idle_poll_s=0.01
        )
        with server:
            async def save_root():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    return await client.save_model(FACTORY, state=states[0])

            tip = tenant.resolve(run(save_root()))
            for _ in range(5):
                state = {k: v.copy() for k, v in states[-1].items()}
                state["2.bias"] = state["2.bias"] + np.float32(1.0)
                states.append(state)
                expected = serving_mlp()
                expected.load_state_dict(state)
                tip = mpa.save_model(ProvenanceSaveInfo(
                    base_model_id=tip,
                    train_service=ShiftTrainService(["2.bias"], 1.0),
                    train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=0),
                    rng_state=rng.get_rng_state(),
                    dataset_dir=dataset,
                    expected_model=expected,
                ))
            tip_id = tenant.qualify(tip)

            async def recover():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    return await client.recover_model(tip_id)

            before = run(recover())
            assert before.recovery_depth == 5
            assert gauge.value == 5  # the high-water mark armed the trigger
            assert maintenance.runs == 0
            sweep_allowed.set()

            deadline_at = time.perf_counter() + 15.0
            while maintenance.runs == 0 and time.perf_counter() < deadline_at:
                time.sleep(0.02)
            assert maintenance.runs >= 1
            assert maintenance.compacted_models >= 1
            assert gauge.value == 0  # mark reset after a successful sweep

            after = run(recover())
            assert after.recovery_depth < before.recovery_depth
            assert_states_bitwise_equal(after.state, states[-1])
