"""Skeleton assembly: a recover builds its model from a cached, byte-free
skeleton of the architecture, never by running its constructors
(DESIGN.md §14 "Skeleton assembly").

Identities, counts and bitwise equality, not timings.
"""

import gc
import importlib
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import repro.nn as nn
from repro.core import ArchitectureRef, save_info
from repro.core.abstract import _check_adopted
from repro.core.errors import VerificationError
from repro.core.hashing import state_dict_hashes
from repro.gateway import AsyncGatewayClient, GatewayServer
from repro.nn import modules, rng
from repro.nn.models import MODEL_REGISTRY
from repro.nn.modules import Module, Skeleton
from tests.gateway.test_save_exchange import (
    FACTORY,
    KWARGS,
    bench_state,
    changed,
    last_layer,
    make_registry,
    run,
)

SMALL = {"num_classes": 10, "scale": 0.125}
ARCHITECTURES = [("repro.nn.models", name, SMALL) for name in MODEL_REGISTRY] + [
    ("repro.workloads.serving", "serving_mlp", {"in_features": 16, "hidden": 24}),
]
IDS = [factory for _, factory, _ in ARCHITECTURES]


class Configured(Module):
    """A factory holding mutable plain attributes, one of them naming a
    registered child."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(3, 2)
        self.widths = [3, 2]
        self.options = {"tags": ["a"]}
        self.order = [self.fc]
        self.name = "configured"
        self.shape = (3, (2, 1))

    def forward(self, x):
        return self.fc(x)


def configured():
    return Configured()


def arch_of(module, factory, kwargs):
    return ArchitectureRef.from_factory(module, factory, kwargs)


def source_state(arch, seed):
    rng.manual_seed(seed)
    return {key: value.copy() for key, value in arch.build().state_dict().items()}


def reference(arch, state):
    model = arch.build()
    model.load_state_dict(state)
    return model


def assert_bitwise(model, state):
    built = model.state_dict()
    assert list(built) == list(state)
    for key, array in state.items():
        assert built[key].dtype == array.dtype and built[key].shape == array.shape, key
        assert built[key].tobytes() == array.tobytes(), key


def assert_state_bitwise(actual, expected):
    assert list(actual) == list(expected)
    for key, array in expected.items():
        assert actual[key].dtype == array.dtype and actual[key].tobytes() == array.tobytes(), key


def arrays_of(model):
    return list(model.state_dict().values())


def skeleton_bytes(skeleton):
    """The memory behind the skeleton's arrays, not their logical size."""
    buffers = {np.lib.array_utils.byte_bounds(array) for array in skeleton.spec.values()}
    return sum(high - low for low, high in buffers)


def sample_input(factory):
    generator = np.random.default_rng(3)
    if factory == "serving_mlp":
        return nn.Tensor(generator.standard_normal((2, 16)).astype(np.float32))
    return nn.Tensor(generator.standard_normal((2, 3, 32, 32)).astype(np.float32))


@pytest.fixture
def empty_cache():
    save_info._skeletons.clear()
    yield
    save_info._skeletons.clear()


class TestSameModelAsABuild:
    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=IDS)
    def test_types_names_order_and_repr(self, architecture):
        arch = arch_of(*architecture)
        state = source_state(arch, seed=4)
        assembled = arch.build_from(state)
        built = reference(arch, state)
        assert [(name, type(module)) for name, module in assembled.named_modules()] == [
            (name, type(module)) for name, module in built.named_modules()]
        assert repr(assembled) == repr(built)
        assert_bitwise(assembled, state)
        assert [p.requires_grad for p in assembled.parameters()] == [
            p.requires_grad for p in built.parameters()]
        assert all(type(p) is nn.Parameter for p in assembled.parameters())
        for (_, mine), (_, theirs) in zip(assembled.named_modules(), built.named_modules()):
            assert set(vars(mine)) == set(vars(theirs))
            assert list(mine._parameters) == list(theirs._parameters)
            assert mine.training == theirs.training

    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=IDS)
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_forward_equals_build_then_load(self, architecture, training):
        arch = arch_of(*architecture)
        state = source_state(arch, seed=5)
        assembled = arch.build_from(state).train(training)
        built = reference(arch, state).train(training)
        x = sample_input(architecture[1])
        with rng.deterministic_mode(True):
            rng.manual_seed(9)
            expected = built(x).data
            rng.manual_seed(9)
            actual = assembled(x).data
        assert actual.tobytes() == expected.tobytes()
        assert_bitwise(assembled, built.state_dict())  # BN statistics moved alike


class TestIsolation:
    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=IDS)
    def test_two_assemblies_share_nothing_mutable(self, architecture):
        arch = arch_of(*architecture)
        state = source_state(arch, seed=6)
        first, second = arch.build_from(state), arch.build_from(state)
        for (_, a), (_, b) in zip(first.named_modules(), second.named_modules()):
            assert a is not b
            for registry in ("_parameters", "_buffers", "_modules", "_forward_hooks"):
                assert getattr(a, registry) is not getattr(b, registry)
            for name, value in vars(a).items():
                if not isinstance(value, (str, int, float, bool, tuple, type(None))):
                    assert value is not vars(b)[name], name
        for x, y in zip(arrays_of(first), arrays_of(second)):
            assert not np.shares_memory(x, y)
        for p, q in zip(first.parameters(), second.parameters()):
            assert p is not q

    def test_mutating_one_model_leaves_the_other_and_the_skeleton(self):
        arch = arch_of("repro.nn.models", "mobilenetv2", SMALL)
        state = source_state(arch, seed=7)
        first, second = arch.build_from(state), arch.build_from(state)
        built_repr = repr(second)
        first.features.note = "mine"
        first.classifier.register_forward_hook(lambda *args: None)
        first.train(False)
        next(iter(first.parameters())).data[...] = 42.0
        first.load_state_dict(source_state(arch, seed=8))
        third = arch.build_from(state)  # what the skeleton makes now
        for other in (second, third):
            assert "note" not in vars(other.features)
            assert not other.classifier._forward_hooks
            assert all(module.training for _, module in other.named_modules())
            assert repr(other) == built_repr
            assert_bitwise(other, state)
        assert all(not any(array.strides) for array in arch.skeleton().spec.values())

    def test_a_mutable_attribute_is_copied_per_model(self):
        arch = arch_of("tests.core.test_assembly", "configured", {})
        state = source_state(arch, seed=2)
        first, second = arch.build_from(state), arch.build_from(state)
        first.widths.append(9)
        first.options["tags"].append("b")
        third = arch.build_from(state)  # what the skeleton makes now
        for other in (second, third):
            assert other.widths == [3, 2] and other.options == {"tags": ["a"]}
        # a copied attribute naming a registered child names the model's own
        assert first.order[0] is first.fc and second.order[0] is second.fc
        # immutable values are the skeleton's own objects
        assert first.name is second.name and first.shape is second.shape


class TestTheCachedSkeleton:
    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=IDS)
    def test_it_holds_no_parameter_bytes(self, architecture):
        skeleton = arch_of(*architecture).skeleton()
        for array in skeleton.spec.values():
            assert not any(array.strides) and not array.flags.writeable
        assert skeleton_bytes(skeleton) < 64 << 10

    def test_the_model_it_was_made_from_is_let_go(self):
        model = nn.Sequential(nn.Conv2d(3, 4, 3, bias=False), nn.BatchNorm2d(4))
        refs = [weakref.ref(module) for _, module in model.named_modules()]
        refs += [weakref.ref(param) for param in model.parameters()]
        skeleton = Skeleton(model)
        del model
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert list(skeleton.spec) == [
            "0.weight", "1.weight", "1.bias",
            "1.running_mean", "1.running_var", "1.num_batches_tracked"]

    def test_the_full_size_model_holds_no_more(self):
        arch = arch_of("repro.nn.models", "resnet152", {"num_classes": 1000})
        skeleton = arch.skeleton()
        logical = sum(array.nbytes for array in skeleton.spec.values())
        assert logical > 200 << 20
        assert skeleton_bytes(skeleton) < 64 << 10

    @pytest.mark.parametrize("architecture", ARCHITECTURES, ids=IDS)
    def test_the_generator_is_untouched_on_a_miss_and_a_hit(self, architecture, empty_cache):
        arch = arch_of(*architecture)
        state = source_state(arch, seed=9)
        rng.manual_seed(13)
        before = rng.get_rng_state()
        arch.build_from(state)  # a miss: builds the skeleton
        assert rng.get_rng_state() == before
        arch.build_from(state)  # a hit
        assert rng.get_rng_state() == before

    def test_a_hit_runs_no_constructor(self, monkeypatch):
        arch = arch_of("repro.nn.models", "resnet18", SMALL)
        state = source_state(arch, seed=10)
        arch.build_from(state)
        calls = []
        original = Module.__init__

        def counting(self, *args, **kwargs):
            calls.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(Module, "__init__", counting)
        monkeypatch.setattr(Module, "load_state_dict", None)
        assert_bitwise(arch.build_from(state), state)
        assert calls == []

    def test_one_skeleton_per_architecture_and_kwargs(self, monkeypatch, empty_cache):
        builds = []
        original = ArchitectureRef.build
        monkeypatch.setattr(
            ArchitectureRef, "build", lambda self: builds.append(self.kwargs) or original(self))
        small = arch_of("repro.nn.models", "resnet18", SMALL)
        wider = arch_of("repro.nn.models", "resnet18", {"num_classes": 10, "scale": 0.25})
        same = ArchitectureRef.from_dict(small.to_dict())  # as a document stores it
        assert small.skeleton() is same.skeleton()
        assert wider.skeleton() is not small.skeleton()
        assert builds == [SMALL, wider.kwargs]

    def test_the_cache_is_bounded_least_recently_used_first(self, monkeypatch, empty_cache):
        monkeypatch.setattr(save_info, "SKELETON_CACHE_ENTRIES", 2)
        archs = [arch_of("repro.workloads.serving", "serving_mlp", {"hidden": width})
                 for width in (4, 5, 6)]
        first = archs[0].skeleton()
        archs[1].skeleton()
        assert archs[0].skeleton() is first  # now the most recently used
        archs[2].skeleton()  # evicts archs[1]
        assert len(save_info._skeletons) == 2
        assert archs[0].skeleton() is first
        assert {key[2] for key in save_info._skeletons} == {'{"hidden": 4}', '{"hidden": 6}'}

    def test_a_reloaded_factory_builds_a_new_skeleton(self, tmp_path, monkeypatch):
        module_path = tmp_path / "reloaded_factory.py"
        module_path.write_text(
            "import repro.nn as nn\n"
            "def model():\n"
            "    return nn.Sequential(nn.Linear(3, 2))\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "reloaded_factory", raising=False)
        arch = arch_of("reloaded_factory", "model", {})
        first = arch.skeleton()
        assert arch.skeleton() is first
        module_path.write_text(
            "import repro.nn as nn\n"
            "def model():\n"
            "    return nn.Sequential(nn.Linear(3, 2), nn.ReLU(), nn.Linear(2, 2))\n")
        importlib.reload(sys.modules["reloaded_factory"])
        second = arch.skeleton()
        assert second is not first
        assert list(second.spec) == ["0.weight", "0.bias", "2.weight", "2.bias"]
        monkeypatch.delitem(sys.modules, "reloaded_factory")

    def test_two_threads_assemble_distinct_bitwise_models(self, empty_cache):
        arch = arch_of("repro.nn.models", "googlenet", SMALL)
        states = [source_state(arch, seed=seed) for seed in (11, 12)]
        barrier = threading.Barrier(2)
        results = [[], []]
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    results[index].append(arch.build_from(states[index], assign=False))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors and not any(thread.is_alive() for thread in threads)
        models = [model for result in results for model in result]
        assert len({id(model) for model in models}) == 10
        for index, result in enumerate(results):
            for model in result:
                assert_bitwise(model, states[index])
        for a in models[:5]:
            for b in models[5:]:
                assert not any(np.shares_memory(x, y) for x, y in zip(arrays_of(a), arrays_of(b)))


class TestStrictLoad:
    def test_a_wrong_key_set_raises_before_any_layer_is_loaded(self, monkeypatch):
        arch = arch_of("repro.nn.models", "mobilenetv2", SMALL)
        state = source_state(arch, seed=14)
        skeleton = arch.skeleton()
        loaded = []
        load = modules._loaded
        monkeypatch.setattr(modules, "_loaded", lambda *args: loaded.append(args) or load(*args))
        missing = dict(state)
        missing.pop(next(reversed(state)))
        with pytest.raises(KeyError, match="missing"):
            skeleton.assemble(missing)
        extra = dict(state, **{"not.a.layer": np.zeros(1, dtype=np.float32)})
        with pytest.raises(KeyError, match="unexpected"):
            skeleton.assemble(extra)
        assert loaded == []
        skeleton.assemble(state)
        assert len(loaded) == len(state)

    @pytest.mark.parametrize("key", ["features.0.0.weight", "features.0.1.running_mean"])
    def test_a_wrong_shape_raises(self, key):
        arch = arch_of("repro.nn.models", "mobilenetv2", SMALL)
        state = source_state(arch, seed=15)
        state[key] = np.zeros(7, dtype=state[key].dtype)
        with pytest.raises(ValueError, match=f"shape mismatch for {key}"):
            arch.build_from(state)

    def test_a_buffer_is_cast_to_its_dtype(self):
        arch = arch_of("repro.nn.models", "mobilenetv2", SMALL)
        state = source_state(arch, seed=16)
        key = "features.0.1.running_var"
        state[key] = state[key].astype(np.float64)
        model, copies = arch.skeleton().assemble(state, assign=True)
        held = model.state_dict()[key]
        assert held.dtype == np.float32 and np.array_equal(held, state[key])
        assert list(copies) == [key] and copies[key] is held

    def test_assign_adopts_and_reports_exactly_what_it_copied(self):
        arch = arch_of("repro.nn.models", "resnet18", SMALL)
        state = source_state(arch, seed=17)
        frozen, cast, strided = "conv1.weight", "fc.weight", "bn1.running_mean"
        state[frozen].flags.writeable = False
        state[cast] = state[cast].astype(np.float64)
        state[strided] = np.repeat(state[strided], 2)[::2]
        model, copies = arch.skeleton().assemble(state, assign=True)
        built = model.state_dict()
        assert list(copies) == [frozen, strided, cast]  # state-dict order
        for key, array in state.items():
            if key in copies:
                assert copies[key] is built[key] and not np.shares_memory(built[key], array)
            else:
                assert built[key] is array, key
        _, every = arch.skeleton().assemble(state)
        assert list(every) == list(state)  # without assign, every layer is a copy

    def test_a_cast_layer_is_hashed_against_its_digest(self):
        arch = arch_of("repro.workloads.serving", "serving_mlp", {})
        state = source_state(arch, seed=18)
        digests = state_dict_hashes(state)
        recovered = SimpleNamespace(layers=list(digests.items()), state=state)
        exact = dict(state, **{"2.bias": state["2.bias"].astype(np.float64)})
        _, copies = arch.skeleton().assemble(exact, assign=True)
        assert list(copies) == ["2.bias"]
        _check_adopted("m", copies, recovered)  # the cast kept every value
        lossy = dict(exact, **{"2.bias": exact["2.bias"] + 1e-3})
        _, copies = arch.skeleton().assemble(lossy, assign=True)
        with pytest.raises(VerificationError, match="2.bias"):
            _check_adopted("m", copies, recovered)


class TestTheGatewaySave:
    def test_saves_of_one_architecture_build_it_at_most_once(self, tmp_path, monkeypatch):
        registry = make_registry(tmp_path)
        root = bench_state()
        tips = [changed(root, last_layer(root), 1e-3 * (step + 1)) for step in range(4)]
        builds = []
        original = ArchitectureRef.build
        monkeypatch.setattr(
            ArchitectureRef, "build", lambda self: builds.append(self.factory) or original(self))
        with GatewayServer(registry) as server:
            async def scenario():
                async with AsyncGatewayClient(*server.address, "acme") as client:
                    root_id = await client.save_model(FACTORY, root, KWARGS)
                    tip_ids = [await client.save_model(FACTORY, tip, KWARGS, base=root_id)
                               for tip in tips]
                    return [await client.recover_model(model_id) for model_id in tip_ids]
            recovered = run(scenario())
        assert len(builds) <= 1
        for result, state in zip(recovered, tips):
            assert result.verified is True
            assert_state_bitwise(result.state, state)
