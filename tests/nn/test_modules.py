"""Module system: registration, traversal, state dicts, hooks, freezing."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Tensor
from tests.conftest import make_tiny_cnn


class TestRegistration:
    def test_parameters_registered_via_setattr(self):
        layer = nn.Linear(4, 2)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_child_modules_registered(self):
        model = make_tiny_cnn()
        assert len(list(model.children())) == 6

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            nn.Linear(2, 2).not_an_attribute

    def test_bias_false_registers_none(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert [name for name, _ in layer.named_parameters()] == ["weight"]

    def test_named_modules_dotted_paths(self):
        model = make_tiny_cnn()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "0" in names and "5" in names

    def test_buffers_in_named_buffers(self):
        model = make_tiny_cnn()
        buffer_names = [name for name, _ in model.named_buffers()]
        assert "1.running_mean" in buffer_names
        assert "1.num_batches_tracked" in buffer_names


class TestStateDict:
    def test_contains_parameters_and_buffers(self):
        state = make_tiny_cnn().state_dict()
        assert "0.weight" in state
        assert "1.running_var" in state
        assert "5.bias" in state

    def test_round_trip_exact(self):
        a = make_tiny_cnn(seed=1)
        b = make_tiny_cnn(seed=2)
        b.load_state_dict(a.state_dict())
        for key, value in a.state_dict().items():
            assert np.array_equal(value, b.state_dict()[key]), key

    def test_strict_load_rejects_missing_keys(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        state.pop("5.bias")
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_strict_load_rejects_unexpected_keys(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_non_strict_load_ignores_extras(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        model.load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        state["5.bias"] = np.zeros(99, dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_buffer_shape_mismatch_raises(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        state["running_mean"] = np.zeros(7, dtype=np.float64)
        with pytest.raises(ValueError, match="shape mismatch for running_mean"):
            bn.load_state_dict(state)

    def test_buffer_is_cast_to_its_dtype(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        state["running_mean"] = np.arange(4, dtype=np.float64)
        state["num_batches_tracked"] = np.float32(3)
        bn.load_state_dict(state, assign=True)
        loaded = bn.state_dict()
        assert loaded["running_mean"].dtype == np.float32
        assert np.array_equal(loaded["running_mean"], np.arange(4))
        assert loaded["num_batches_tracked"].dtype == np.int64
        assert int(loaded["num_batches_tracked"]) == 3

    def test_load_copies_rather_than_aliases(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        external = {k: v.copy() for k, v in state.items()}
        model.load_state_dict(external)
        external["5.bias"][...] = 123.0
        assert not np.any(model.state_dict()["5.bias"] == 123.0)

    def test_assign_adopts_arrays_whose_layout_allows(self):
        model = make_tiny_cnn()
        external = {k: v.copy() for k, v in model.state_dict().items()}
        model.load_state_dict(external, assign=True)
        for key, array in external.items():
            assert model.state_dict()[key] is array, key

    def test_assign_copies_what_it_cannot_adopt(self):
        model = make_tiny_cnn()
        state = model.state_dict()
        external = {k: v.copy() for k, v in state.items()}
        external["5.bias"].flags.writeable = False  # e.g. a view of ``bytes``
        external["0.weight"] = external["0.weight"].astype(np.float64)  # other dtype
        external["5.weight"] = np.asfortranarray(external["5.weight"])
        external["1.running_mean"] = external["1.running_mean"].tolist()
        unaligned = np.zeros(4 * 4 + 1, dtype=np.uint8)[1:].view(np.float32)
        unaligned[...] = external["1.weight"]
        external["1.weight"] = unaligned
        assert not unaligned.flags.aligned
        model.load_state_dict(external, assign=True)
        loaded = model.state_dict()
        for key in ("5.bias", "0.weight", "5.weight", "1.running_mean", "1.weight"):
            assert np.array_equal(loaded[key], np.asarray(external[key])), key
            assert loaded[key] is not external[key]
            flags = loaded[key].flags
            assert flags.writeable and flags.c_contiguous and flags.aligned, key
        assert loaded["0.weight"].dtype == np.float32
        assert loaded["1.running_var"] is external["1.running_var"]


class TestModesAndFreezing:
    def test_train_eval_propagate(self):
        model = make_tiny_cnn()
        model.eval()
        assert all(not m.training for _, m in model.named_modules())
        model.train()
        assert all(m.training for _, m in model.named_modules())

    def test_freeze_marks_not_trainable(self):
        model = make_tiny_cnn()
        model.freeze()
        assert model.num_parameters(trainable_only=True) == 0
        assert model.num_parameters() > 0

    def test_zero_grad_clears(self):
        model = make_tiny_cnn()
        x = nn.randn(2, 3, 8, 8)
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_frozen_parameters_receive_no_grad(self):
        model = make_tiny_cnn()
        model.freeze()
        model[5].requires_grad_(True)
        model(nn.randn(2, 3, 8, 8)).sum().backward()
        grads = {name: p.grad is not None for name, p in model.named_parameters()}
        assert grads["5.weight"] and grads["5.bias"]
        assert not grads["0.weight"]


class TestHooks:
    def test_forward_hook_fires_and_removes(self):
        layer = nn.ReLU()
        seen = []
        handle = layer.register_forward_hook(lambda m, args, out: seen.append(out.shape))
        layer(nn.randn(2, 3))
        assert seen == [(2, 3)]
        handle.remove()
        layer(nn.randn(2, 3))
        assert len(seen) == 1


class TestContainers:
    def test_sequential_indexing_and_iteration(self):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert len(list(iter(model))) == 2

    def test_module_list(self):
        blocks = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(blocks) == 3
        names = [n for n, _ in blocks.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_identity_passthrough(self):
        x = nn.randn(3, 3)
        assert np.array_equal(nn.Identity()(x).data, x.data)

    def test_flatten_module(self):
        assert nn.Flatten()(nn.randn(2, 3, 4)).shape == (2, 12)


class TestLayers:
    def test_linear_shapes(self):
        layer = nn.Linear(8, 3)
        assert layer(nn.randn(5, 8)).shape == (5, 3)

    def test_conv2d_output_shape(self):
        layer = nn.Conv2d(3, 6, kernel_size=3, stride=2, padding=1)
        assert layer(nn.randn(2, 3, 8, 8)).shape == (2, 6, 4, 4)

    def test_batchnorm_tracks_batches(self):
        bn = nn.BatchNorm2d(4)
        bn(nn.randn(2, 4, 3, 3))
        bn(nn.randn(2, 4, 3, 3))
        assert int(bn._buffers["num_batches_tracked"]) == 2
        bn.eval()
        bn(nn.randn(2, 4, 3, 3))
        assert int(bn._buffers["num_batches_tracked"]) == 2

    def test_dropout_respects_training_flag(self):
        drop = nn.Dropout(0.9)
        drop.eval()
        x = nn.randn(10, 10)
        assert np.array_equal(drop(x).data, x.data)

    def test_legacy_dropout_ignores_seed(self):
        drop = nn.LegacyDropout(0.5)
        x = Tensor(np.ones((64, 64), dtype=np.float32))
        nn.manual_seed(0)
        first = drop(x).data.copy()
        nn.manual_seed(0)
        second = drop(x).data.copy()
        assert not np.array_equal(first, second)

    def test_num_parameters_counts(self):
        layer = nn.Linear(10, 5)
        assert layer.num_parameters() == 55

    def test_repr_is_informative(self):
        text = repr(make_tiny_cnn())
        assert "Conv2d" in text and "Linear" in text
