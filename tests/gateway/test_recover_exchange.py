"""The digest-first recover exchange: a warm client receives only the layers
it lacks, the server answers from the verified plan without building a
model, and nothing unverified or foreign ever reaches the client's cache."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ArchitectureRef,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    VerificationError,
)
from repro.core.hashing import state_dict_hashes
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.gateway import (
    AsyncGatewayClient,
    GatewayRequestError,
    GatewayServer,
    TenantRegistry,
)
from repro.gateway import client as client_module
from repro.gateway.client import _SavedLayers
from repro.gateway.protocol import encode_frame, read_frame
from repro.nn import serialization
from repro.nn.modules import Module
from repro.workloads.serving import serving_mlp

from tests.conftest import replace_record

FACTORY = "repro.workloads.serving:serving_mlp"
KWARGS = {"in_features": 256, "hidden": 1024}  # bench/gateway.py's model


def run(coro):
    return asyncio.run(coro)


def make_registry(tmp_path):
    stores = SharedStores.at(tmp_path / "store")
    return TenantRegistry(stores, ["acme", "globex"], approach="param_update")


def bench_state(seed: int = 0) -> dict:
    return serving_mlp(**KWARGS, seed=seed).state_dict()


def state_bytes(state: dict) -> int:
    return sum(array.nbytes for array in state.values())


def changed(state: dict, names, amount: float = 1e-3) -> dict:
    return {
        name: (array + np.float32(amount)).astype(array.dtype) if name in names else array
        for name, array in state.items()
    }


def first_layer(state):
    return list(state)[:2]


def last_layer(state):
    return list(state)[-2:]


def wire_out() -> float:
    return obs.registry().counter("mmlib_gateway_wire_bytes_total", direction="out").value


def requests(op: str, tenant: str = "acme") -> float:
    return obs.registry().counter(
        "mmlib_gateway_requests_total", op=op, tenant=tenant, status="ok").value


def cached(client) -> set:
    return set(client._layers._layers)


def assert_bitwise(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    for name, array in expected.items():
        assert actual[name].dtype == array.dtype and actual[name].shape == array.shape
        assert actual[name].tobytes() == array.tobytes(), name


async def raw_recover(client, fields: dict):
    """A recover frame exactly as given: (header, decoded payload)."""
    frame = await client._exchange("recover", None, fields)
    return frame.header, serialization.loads(frame.payload)


class TestTheRecoverCore:
    """``recover_layers`` directly: what ``have`` spares, and what it cannot."""

    def save_root_and_tip(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        arch = ArchitectureRef.from_factory(
            "repro.workloads.serving", "serving_mlp", KWARGS)
        model = serving_mlp(**KWARGS)
        root_id = service.save_model(ModelSaveInfo(model, arch))
        for name in last_layer(model.state_dict()):
            model.state_dict()[name] += np.float32(1e-3)
        tip_id = service.save_model(ModelSaveInfo(model, arch, base_model_id=root_id))
        return files, service, tip_id, model.state_dict()

    def test_a_held_layer_is_not_fetched_and_the_root_still_covers_it(self, tmp_path):
        files, service, tip_id, tip = self.save_root_and_tip(tmp_path)
        digests = state_dict_hashes(tip)
        weight = first_layer(tip)[0]
        fetched = []
        read_chunk = files._read_chunk
        files._read_chunk = lambda digest, *read: (
            fetched.append(digest), read_chunk(digest, *read))[1]
        recovered = service.recover_layers(tip_id, have={digests[weight]})
        assert recovered.verified is True and recovered.recovery_depth == 1
        assert recovered.layers == list(digests.items())
        assert list(recovered.state) == [n for n in tip if n != weight]
        assert_bitwise(recovered.state, {n: a for n, a in tip.items() if n != weight})
        assert digests[weight] not in fetched

    def test_a_manifest_naming_a_held_digest_it_does_not_hold_fails_the_root(
        self, tmp_path
    ):
        files, service, tip_id, tip = self.save_root_and_tip(tmp_path)
        weight = first_layer(tip)[0]
        forged = "ab" * 32  # what the caller holds; not the saved layer
        read_manifest = files.read_manifest

        def misnamed(file_id):
            manifest = read_manifest(file_id)
            layers = dict(manifest["layers"])
            if weight in layers:
                layers[weight] = {**layers[weight], "chunk": forged}
            return {**manifest, "layers": list(layers.items())}

        files.read_manifest = misnamed
        with pytest.raises(VerificationError):
            service.recover_layers(tip_id, have={forged})


class TestWarmRecovers:
    def test_a_shared_layer_the_client_holds_is_not_sent_again(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        tip = changed(root, last_layer(root))  # shares the 1 MB first layer
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    tip_id = await client.save_model(FACTORY, tip, KWARGS, base=root_id)
                    before = wire_out()
                    cold = await client.recover_model(root_id)
                    cold_out = wire_out() - before
                    before = wire_out()
                    warm = await client.recover_model(tip_id)
                    return cold, cold_out, warm, wire_out() - before
            cold, cold_out, warm, warm_out = run(scenario())
        assert_bitwise(cold.state, root)
        assert_bitwise(warm.state, tip)
        assert warm.verified is True and warm.recovery_depth == 1
        assert cold_out >= state_bytes(root)
        assert warm_out <= 0.05 * state_bytes(root)

    def test_mutating_a_returned_state_leaves_the_next_recover_bitwise(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        tip = changed(root, last_layer(root))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    tip_id = await client.save_model(FACTORY, tip, KWARGS, base=root_id)
                    first = await client.recover_model(root_id)
                    for array in first.state.values():
                        array[...] = 7
                    again = await client.recover_model(root_id)  # every layer held
                    for array in again.state.values():
                        array[...] = 9
                    return (again, await client.recover_model(root_id),
                            await client.recover_model(tip_id))
            again, third, derived = run(scenario())
        assert_bitwise(third.state, root)
        assert_bitwise(derived.state, tip)
        assert all(not np.shares_memory(again.state[n], third.state[n]) for n in root)

    def test_pipelined_recovers_that_evict_each_others_layers_stay_bitwise(
        self, tmp_path, monkeypatch
    ):
        # room for about one first layer: every answer evicts what the
        # recovers still in flight named in their `have`
        monkeypatch.setattr(client_module, "CACHED_LAYER_BYTES", 1_100_000)
        registry = make_registry(tmp_path)
        roots = [bench_state(seed) for seed in range(3)]
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    ids = [await client.save_model(FACTORY, s, KWARGS) for s in roots]
                    for model_id in ids:
                        await client.recover_model(model_id)
                    order = [ids[i % 3] for i in range(12)]
                    return order, ids, await asyncio.gather(
                        *(client.recover_model(model_id) for model_id in order))
            order, ids, recovered = run(scenario())
        for model_id, result in zip(order, recovered):
            assert result.verified is True
            assert_bitwise(result.state, roots[ids.index(model_id)])


class TestWhatTheCacheAdmits:
    def test_a_corrupt_layer_the_client_lacks_is_refused_and_caches_nothing(
        self, tmp_path
    ):
        registry = make_registry(tmp_path)
        root = bench_state()
        moved = changed(root, first_layer(root) + last_layer(root))
        weight = first_layer(root)[0]
        digest = state_dict_hashes(moved)[weight]
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    moved_id = await client.save_model(FACTORY, moved, KWARGS, base=root_id)
                    await client.recover_model(root_id)
                    before = cached(client)
                    flipped = bytearray(moved[weight].tobytes())
                    flipped[len(flipped) // 2] ^= 0x01
                    replace_record(registry.stores.files, digest, bytes(flipped))
                    with pytest.raises(GatewayRequestError) as refused:
                        await client.recover_model(moved_id)
                    return before, cached(client), refused.value
            before, after, refused = run(scenario())
        assert refused.kind == "corrupt"
        assert after == before and digest not in after

    def test_an_unverified_recover_is_the_old_exchange_and_caches_nothing(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    unverified = await client.recover_model(root_id, verify=False)
                    after_unverified = cached(client)
                    await client.recover_model(root_id)  # fills the cache
                    before = wire_out()
                    again = await client.recover_model(root_id, verify=False)
                    return unverified, after_unverified, again, wire_out() - before
            unverified, after_unverified, again, out = run(scenario())
        assert unverified.verified is None and after_unverified == set()
        assert_bitwise(unverified.state, root)
        assert_bitwise(again.state, root)
        assert out >= state_bytes(root)  # nothing held back from it

    def test_another_tenants_digests_in_have_get_nothing_extra(self, tmp_path):
        registry = make_registry(tmp_path)
        ours, theirs = bench_state(seed=1), bench_state(seed=2)
        their_digests = list(state_dict_hashes(theirs).values())
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "globex") as globex:
                    their_id = await globex.save_model(FACTORY, theirs, KWARGS)
                async with AsyncGatewayClient(*server.address, "acme") as acme:
                    our_id = await acme.save_model(FACTORY, ours, KWARGS)
                    answer = await raw_recover(
                        acme, {"model_id": our_id, "have": their_digests})
                    with pytest.raises(GatewayRequestError) as refused:
                        await raw_recover(
                            acme, {"model_id": their_id, "have": their_digests})
                    return answer, refused.value
            (header, shipped), refused = run(scenario())
        assert header["layers"] == [[n, d] for n, d in state_dict_hashes(ours).items()]
        assert_bitwise(shipped, ours)
        assert refused.kind == "forbidden"


class TestTheServerBuildsNoModel:
    def test_no_build_or_module_on_the_recover_path(self, tmp_path, monkeypatch):
        registry = make_registry(tmp_path)
        root = bench_state()
        tip = changed(root, last_layer(root))
        built = []

        def spy(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)

        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    tip_id = await client.save_model(FACTORY, tip, KWARGS, base=root_id)
                    for owner, name in ((ArchitectureRef, "build_from"),
                                        (ArchitectureRef, "build"), (Module, "__init__")):
                        spy(owner, name)
                    # cold, warm, unverified and through a chain
                    return [await client.recover_model(model_id, verify=verify)
                            for model_id, verify in ((root_id, True), (tip_id, True),
                                                     (root_id, False), (tip_id, False))]
            recovered = run(scenario())
        assert built == []
        for result, expected in zip(recovered, (root, tip, root, tip)):
            assert_bitwise(result.state, expected)


class TestColdAndOldPeers:
    def test_a_request_without_have_gets_the_whole_state_and_the_table(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    await client.recover_model(root_id)  # the cache cannot matter
                    return await raw_recover(client, {"model_id": root_id})
            header, shipped = run(scenario())
        assert header["verified"] is True
        assert header["layers"] == [[n, d] for n, d in state_dict_hashes(root).items()]
        assert_bitwise(shipped, root)

    def test_a_response_without_layers_is_the_state(self):
        """A server that predates the exchange ignores ``have`` and answers
        with the whole state and no table: the client returns it as is and
        caches nothing it could not name by digest."""
        state = serving_mlp().state_dict()
        requests_seen = []

        async def scenario():
            async def handle(reader, writer):
                while (frame := await read_frame(reader)) is not None:
                    requests_seen.append(frame.header)
                    reply = {"id": frame.header["id"], "ok": True, "model_id": "acme/m",
                             "verified": True, "recovery_depth": 0, "base_model_id": None}
                    writer.writelines(encode_frame(
                        reply, list(serialization.iter_serialized(state))))
                    await writer.drain()
                writer.close()

            old = await asyncio.start_server(handle, "127.0.0.1", 0)
            async with old:
                port = old.sockets[0].getsockname()[1]
                async with AsyncGatewayClient("127.0.0.1", port, "acme") as client:
                    client._saved.remember("acme/m", state_dict_hashes(state), own=())
                    results = [await client.recover_model("acme/m") for _ in range(2)]
                    return results, cached(client)

        results, held = run(scenario())
        for result in results:
            assert result.verified is True
            assert_bitwise(result.state, state)
        assert held == set()
        assert all("have" not in header for header in requests_seen)


class TestStrictRecoverHeader:
    @pytest.mark.parametrize("fields", [
        {"verify": "false"},
        {"verify": 0},
        {"verify": None},
        {"have": "ab" * 32},
        {"have": ["ab" * 31]},
        {"have": ["AB" * 32]},
        {"have": [7]},
        {"have": ["ab" * 32] * 5},  # the model's table has four layers
        {"state_b64": "UkVQ"},
    ], ids=["verify-string", "verify-int", "verify-null", "have-not-a-list",
            "have-short-digest", "have-upper-hex", "have-not-a-string",
            "have-longer-than-the-table", "unknown-field"])
    def test_a_malformed_recover_header_is_invalid(self, tmp_path, fields):
        registry = make_registry(tmp_path)
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    model_id = await client.save_model(FACTORY, serving_mlp().state_dict())
                    with pytest.raises(GatewayRequestError) as refused:
                        await raw_recover(client, {"model_id": model_id, **fields})
                    return refused.value
            refused = run(scenario())
        assert refused.kind == "invalid"


class TestARecoverTeachesTheTable:
    def test_a_derived_save_on_a_recovered_base_skips_the_layers_op(self, tmp_path):
        registry = make_registry(tmp_path)
        root = bench_state()
        tip = changed(root, last_layer(root))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as first:
                    root_id = await first.save_model(FACTORY, root, KWARGS)
                async with AsyncGatewayClient(*server.address, "acme") as second:
                    await second.recover_model(root_id)
                    asked = requests("layers")
                    tip_id = await second.save_model(FACTORY, tip, KWARGS, base=root_id)
                    return requests("layers") - asked, await second.recover_model(tip_id)
            asked, recovered = run(scenario())
        assert asked == 0
        assert_bitwise(recovered.state, tip)

    def test_a_table_remembered_again_moves_to_the_end(self, monkeypatch):
        monkeypatch.setattr(client_module, "REMEMBERED_SAVES", 2)
        saved = _SavedLayers()
        saved.remember("a", {"w": "1"}, own=())
        saved.remember("b", {"w": "2"}, own=())
        saved.remember("a", {"w": "1"}, own=())  # a recover of `a`
        saved.remember("c", {"w": "3"}, own=())
        assert saved.table("b") is None
        assert saved.table("a") is not None and saved.table("c") is not None
