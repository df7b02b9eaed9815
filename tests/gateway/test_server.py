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

from repro import deadline, obs
from repro.distsim.environment import SharedStores
from repro.faults import FaultInjector
from repro.gateway import (
    AsyncGatewayClient,
    GatewayRequestError,
    GatewayRetryableError,
    GatewayServer,
    IdleMaintenance,
    TenantQuota,
    TenantRegistry,
)
from repro.gateway.maintenance import RECOVERY_DEPTH_GAUGE
from repro.retry import RetryPolicy
from repro.workloads.serving import serving_mlp

FACTORY = "repro.workloads.serving:serving_mlp"


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
        assert np.array_equal(got, value), f"mismatch at {key}"


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
                    assert tip.recovery_depth == 2
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

    def test_malformed_frame_gets_typed_error_not_a_hang(self, tmp_path):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"{this is not json\n")
                await writer.drain()
                response = json.loads(await asyncio.wait_for(reader.readline(), 5))
                assert response["ok"] is False
                assert response["error"]["kind"] == "invalid"
                writer.close()
                await writer.wait_closed()
            run(scenario())


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
        registry = make_registry(tmp_path, tenants={"acme": TenantQuota()})
        maintenance = IdleMaintenance(registry, max_depth=3, min_interval_s=0.0)
        # the idle sweep resets the depth mark the moment the server has
        # slack; hold it back until the armed mark has been observed
        sweep_allowed = threading.Event()
        trigger_due = maintenance.due
        maintenance.due = lambda: sweep_allowed.is_set() and trigger_due()
        states = [mlp_state(step) for step in range(6)]
        gauge = obs.registry().gauge(RECOVERY_DEPTH_GAUGE)
        server = GatewayServer(
            registry, maintenance=maintenance, idle_poll_s=0.01
        )
        with server:
            async def build_and_recover():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    base = None
                    for state in states:
                        base = await client.save_model(FACTORY, state=state, base=base)
                    return base, await client.recover_model(base)

            tip_id, before = run(build_and_recover())
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

            async def recover_again():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    return await client.recover_model(tip_id)

            after = run(recover_again())
            assert after.recovery_depth < before.recovery_depth
            assert_states_bitwise_equal(after.state, states[-1])
