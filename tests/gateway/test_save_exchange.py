"""The digest-first save exchange: a derived save ships only what the
store cannot already vouch for, and every way of naming a layer the caller
may not have is refused before anything is stored."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.core.hashing import state_dict_hashes
from repro.distsim.environment import SharedStores
from repro.gateway import (
    AsyncGatewayClient,
    GatewayRequestError,
    GatewayServer,
    TenantRegistry,
)
from repro.nn import serialization
from repro.workloads.serving import serving_mlp

FACTORY = "repro.workloads.serving:serving_mlp"
KWARGS = {"in_features": 256, "hidden": 1024}  # bench/gateway.py's model
FIELDS = {
    "factory_module": "repro.workloads.serving",
    "factory_name": "serving_mlp",
    "factory_kwargs": KWARGS,
}


def run(coro):
    return asyncio.run(coro)


def make_registry(tmp_path, approach="param_update"):
    stores = SharedStores.at(tmp_path / "store")
    return TenantRegistry(stores, ["acme", "globex"], approach=approach)


def bench_state() -> dict:
    return serving_mlp(**KWARGS).state_dict()


def changed(state: dict, names, amount: float = 1e-3) -> dict:
    return {
        name: (array + np.float32(amount)).astype(array.dtype) if name in names else array
        for name, array in state.items()
    }


def first_layer(state):
    return list(state)[:2]


def last_layer(state):
    return list(state)[-2:]


def wire_in() -> float:
    return obs.registry().counter("mmlib_gateway_wire_bytes_total", direction="in").value


def save_requests(tenant="acme") -> float:
    return obs.registry().counter(
        "mmlib_gateway_requests_total", op="save", tenant=tenant, status="ok").value


def assert_bitwise(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype and actual[name].shape == array.shape
        assert actual[name].tobytes() == array.tobytes(), name


def store_snapshot(registry) -> list:
    return sorted(registry.stores.files.chunks.chunk_ids())


async def raw_save(client, base: str, table: list, shipped: dict | None = None) -> dict:
    """A digest-first save frame exactly as given (what a forging client sends)."""
    payload = list(serialization.iter_serialized(shipped)) if shipped else ()
    fields = {**FIELDS, "base": base, "layers": table}
    return (await client._exchange("save", None, fields, payload)).header


class TestWhatTheClientShips:
    def test_a_layer_saved_before_is_named_by_its_source_not_sent(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        moved = changed(root, first_layer(root) + last_layer(root))
        again = changed(moved, last_layer(root), 2e-3)  # the first layer as `moved`'s
        state_bytes = sum(a.nbytes for a in root.values())
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    await client.save_model(FACTORY, moved, KWARGS, base=root_id)
                    before = wire_in()
                    tip = await client.save_model(FACTORY, again, KWARGS, base=root_id)
                    sent = wire_in() - before
                    return sent, await client.recover_model(tip)
            sent, recovered = run(scenario())
        assert sent < 0.1 * state_bytes
        assert recovered.verified is True and recovered.recovery_depth == 0
        assert_bitwise(recovered.state, again)
        assert not registry.admin_manager().fsck(repair=False).unrepaired

    def test_a_base_the_client_did_not_save_is_asked_for_its_layers(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        tip_state = changed(root, last_layer(root))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as first:
                    root_id = await first.save_model(FACTORY, root, KWARGS)
                async with AsyncGatewayClient(*server.address, "acme") as second:
                    before = wire_in()
                    tip = await second.save_model(FACTORY, tip_state, KWARGS, base=root_id)
                    sent = wire_in() - before
                    return sent, await second.recover_model(tip)
            sent, recovered = run(scenario())
        assert sent < 0.1 * sum(a.nbytes for a in root.values())
        assert_bitwise(recovered.state, tip_state)


class TestRefusals:
    def test_a_forged_shipped_digest_is_invalid_and_stores_nothing(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        forged = changed(root, last_layer(root))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    before = store_snapshot(registry)
                    # the shipped bytes are `forged`, the digests the root's
                    table = [[n, d] for n, d in state_dict_hashes(root).items()]
                    shipped = {n: forged[n] for n in last_layer(root)}
                    with pytest.raises(GatewayRequestError) as refused:
                        await raw_save(client, root_id, table, shipped)
                    return before, refused.value, await client.find()
            before, refused, models = run(scenario())
        assert refused.kind == "invalid" and "do not hash" in str(refused)
        assert store_snapshot(registry) == before
        assert len(models) == 1
        assert registry.admin_manager().fsck(repair=False).clean

    def test_a_source_of_another_tenant_is_forbidden(self, tmp_path):
        registry = make_registry(tmp_path)
        theirs = bench_state()
        ours = changed(theirs, first_layer(theirs) + last_layer(theirs))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "globex") as globex:
                    their_id = await globex.save_model(FACTORY, theirs, KWARGS)
                async with AsyncGatewayClient(*server.address, "acme") as acme:
                    our_id = await acme.save_model(FACTORY, ours, KWARGS)
                    before = store_snapshot(registry)
                    # acme names globex's model as holding the layers it lacks
                    table = [
                        [n, d, their_id] for n, d in state_dict_hashes(theirs).items()
                    ]
                    with pytest.raises(GatewayRequestError) as refused:
                        await raw_save(acme, our_id, table)
                    return before, refused.value
            before, refused = run(scenario())
        assert refused.kind == "forbidden"
        assert store_snapshot(registry) == before

    @pytest.mark.parametrize("mismatch", ["digest", "name"])
    def test_a_source_without_that_layer_is_invalid(self, tmp_path, mismatch):
        registry = make_registry(tmp_path)
        root = bench_state()
        moved = changed(root, first_layer(root))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    digests = state_dict_hashes(moved)
                    weight, bias = first_layer(root)
                    table = [[n, d] for n, d in digests.items()]
                    if mismatch == "digest":
                        # the root holds this name, but not with this digest
                        table[0] = [weight, digests[weight], root_id]
                    else:
                        # the root holds this digest, but under another name
                        own = state_dict_hashes(root)[weight]
                        table = [[n, own if n == bias else d] for n, d in digests.items()]
                        table[1] = [bias, own, root_id]
                    shipped = {n: moved[n] for n, *source in table if not source}
                    before = store_snapshot(registry)
                    with pytest.raises(GatewayRequestError) as refused:
                        await raw_save(client, root_id, table, shipped)
                    return before, refused.value
            before, refused = run(scenario())
        assert refused.kind == "invalid"
        assert store_snapshot(registry) == before

    def test_a_collected_source_is_resent_and_recovers_bitwise(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        moved = changed(root, first_layer(root) + last_layer(root))
        again = changed(moved, last_layer(root), 2e-3)
        tenant = registry.tenant("acme")
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    moved_id = await client.save_model(FACTORY, moved, KWARGS, base=root_id)
                    # deleted behind the client's back, its chunks collected:
                    # the client still names it as the first layer's source
                    tenant.manager.delete_model(tenant.resolve(moved_id))
                    registry.admin_manager().garbage_collect()
                    digest = state_dict_hashes(moved)[first_layer(root)[0]]
                    assert not registry.stores.files.chunks.has(digest)
                    saves = save_requests()
                    tip = await client.save_model(FACTORY, again, KWARGS, base=root_id)
                    return save_requests() - saves, await client.recover_model(tip)
            resaves, recovered = run(scenario())
        assert resaves == 2  # answered "needs", then sent with those layers
        assert recovered.verified is True
        assert_bitwise(recovered.state, again)
        assert registry.admin_manager().fsck(repair=False).clean

    def test_a_chunk_gone_under_a_live_source_is_resent(self, tmp_path):
        # the source still names the layer, but its chunk is gone: the save
        # finds no chunk under its hold and asks for it
        registry = make_registry(tmp_path)
        root = bench_state()
        moved = changed(root, first_layer(root) + last_layer(root))
        again = changed(moved, last_layer(root), 2e-3)
        files = registry.stores.files
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    moved_id = await client.save_model(FACTORY, moved, KWARGS, base=root_id)
                    weight = first_layer(root)[0]
                    digest = state_dict_hashes(moved)[weight]
                    files.chunks.drop(digest)
                    saves = save_requests()
                    tip = await client.save_model(FACTORY, again, KWARGS, base=root_id)
                    assert files.chunks.has(digest)  # the resent layer's chunk
                    return (save_requests() - saves, await client.recover_model(tip),
                            await client.recover_model(moved_id))
            resaves, recovered, healed = run(scenario())
        assert resaves == 2
        assert_bitwise(recovered.state, again)
        assert_bitwise(healed.state, moved)  # the resent bytes are its chunk again
        assert registry.admin_manager().fsck(repair=False).clean

    def test_a_derived_save_to_a_baseline_tenant_round_trips(self, tmp_path):
        registry = make_registry(tmp_path, approach="baseline")
        root = bench_state()
        moved = changed(root, first_layer(root) + last_layer(root))
        again = changed(moved, last_layer(root), 2e-3)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    await client.save_model(FACTORY, moved, KWARGS, base=root_id)
                    tip = await client.save_model(FACTORY, again, KWARGS, base=root_id)
                    return await client.recover_model(tip)
            recovered = run(scenario())
        assert recovered.verified is True and recovered.recovery_depth == 0
        assert_bitwise(recovered.state, again)
        assert registry.admin_manager().fsck(repair=False).clean
