"""Tensor and state-dict hashing."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import state_dict_hashes, state_dict_root_hash, tensor_hash
from repro.core.hashing import _PARALLEL_THRESHOLD_BYTES, combine_hashes
from tests.conftest import make_tiny_cnn


class TestTensorHash:
    def test_equal_arrays_equal_hashes(self):
        a = np.arange(10, dtype=np.float32)
        assert tensor_hash(a) == tensor_hash(a.copy())

    def test_single_element_change_changes_hash(self):
        a = np.zeros(100, dtype=np.float32)
        b = a.copy()
        b[50] = 1e-30
        assert tensor_hash(a) != tensor_hash(b)

    def test_dtype_matters(self):
        a = np.zeros(4, dtype=np.float32)
        assert tensor_hash(a) != tensor_hash(a.astype(np.float64))

    def test_shape_matters(self):
        a = np.zeros(6, dtype=np.float32)
        assert tensor_hash(a) != tensor_hash(a.reshape(2, 3))

    def test_non_contiguous_equals_contiguous(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert tensor_hash(a[:, ::2]) == tensor_hash(np.ascontiguousarray(a[:, ::2]))


class TestStateDictHashes:
    def test_order_and_keys_preserved(self):
        state = make_tiny_cnn().state_dict()
        hashes = state_dict_hashes(state)
        assert list(hashes) == list(state)

    def test_root_hash_stable_and_sensitive(self):
        model = make_tiny_cnn(seed=0)
        root = state_dict_root_hash(model.state_dict())
        assert root == state_dict_root_hash(model.state_dict())
        state = model.state_dict()
        state["5.bias"] = state["5.bias"] + 1
        assert state_dict_root_hash(state) != root


class TestCombine:
    def test_combine_order_sensitive(self):
        assert combine_hashes("a", "b") != combine_hashes("b", "a")

    def test_combine_is_pure(self):
        assert combine_hashes("x", "y") == combine_hashes("x", "y")


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        st.integers(1, 32),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
def test_property_hash_deterministic(array):
    assert tensor_hash(array) == tensor_hash(array.copy())


class TestBatchedParallelHashing:
    """Above the threshold the layer list is hashed as at most
    ``_MAX_WORKERS`` byte-balanced runs: same digests as the plain loop,
    at most ``_MAX_WORKERS - 1`` submissions whatever the layer count."""

    WORKERS = 4

    @pytest.fixture
    def submissions(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import hashing

        calls = []

        class SpyExecutor(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                calls.append(args)
                return super().submit(fn, *args, **kwargs)

        pool = SpyExecutor(max_workers=self.WORKERS)
        monkeypatch.setattr(hashing, "_MAX_WORKERS", self.WORKERS)
        monkeypatch.setattr(hashing, "_executor", lambda: pool)
        yield calls
        pool.shutdown()

    @staticmethod
    def states():
        big = 2 * _PARALLEL_THRESHOLD_BYTES
        rng = np.random.default_rng(0)
        wide = rng.standard_normal((64, big // 64 // 4)).astype(np.float32)
        return {
            "one_giant_layer": OrderedDict(
                [("tiny", np.ones(3, dtype=np.float32)),
                 ("giant", rng.integers(0, 255, big, dtype=np.uint8)),
                 ("tail", np.zeros(5, dtype=np.int64))]),
            "all_tiny": OrderedDict(
                (f"l{i}", rng.standard_normal(700).astype(np.float32))
                for i in range(600)),
            "zero_size_and_0d": OrderedDict(
                [("empty", np.zeros((0, 4), dtype=np.float32)),
                 ("scalar", np.array(7, dtype=np.int64)),
                 ("body", rng.integers(0, 255, big, dtype=np.uint8)),
                 ("empty_tail", np.zeros(0, dtype=np.float64)),
                 ("scalar_tail", np.array(1.5, dtype=np.float32))]),
            "non_contiguous": OrderedDict(
                [("strided", wide[:, ::2]), ("transposed", wide.T),
                 ("plain", wide.copy())]),
        }

    @pytest.mark.parametrize(
        "case", ["one_giant_layer", "all_tiny", "zero_size_and_0d", "non_contiguous"])
    def test_digests_equal_the_sequential_loop(self, case, submissions):
        state = self.states()[case]
        assert sum(a.nbytes for a in state.values()) >= _PARALLEL_THRESHOLD_BYTES
        expected = OrderedDict((name, tensor_hash(a)) for name, a in state.items())
        actual = state_dict_hashes(state)
        assert list(actual.items()) == list(expected.items())
        assert 1 <= len(submissions) <= self.WORKERS - 1

    def test_runs_are_contiguous_balanced_and_cover_every_layer(self):
        from repro.core.hashing import _byte_balanced_runs

        sizes = [700] * 600
        runs = _byte_balanced_runs(sizes, 4)
        assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]]
        assert runs[0][0] == 0 and runs[-1][1] == len(sizes) and len(runs) == 4
        weights = [sum(sizes[a:b]) for a, b in runs]
        assert max(weights) - min(weights) <= 700
        # a giant layer closes one run, never more than ``parts`` in all
        assert _byte_balanced_runs([1, 10**6, 1, 1], 4) == [(0, 2), (2, 4)]
        assert _byte_balanced_runs([5], 4) == [(0, 1)]
        assert all(a < b for a, b in _byte_balanced_runs([0, 0, 9, 0, 0], 8))

    def test_below_the_threshold_nothing_is_submitted(self, submissions):
        state = make_tiny_cnn().state_dict()
        expected = OrderedDict((name, tensor_hash(a)) for name, a in state.items())
        assert state_dict_hashes(state) == expected
        assert submissions == []
