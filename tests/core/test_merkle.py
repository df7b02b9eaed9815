"""Merkle tree: construction, diffing, the paper's comparison-count claims."""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MerkleTree
from repro.core.merkle import root_of
from tests.conftest import make_tiny_cnn


def leaf(i: int, version: int = 0) -> str:
    return hashlib.sha256(f"layer-{i}-v{version}".encode()).hexdigest()


def tree_with(num_layers: int, changed: set[int] = frozenset()) -> MerkleTree:
    names = [f"layer{i}" for i in range(num_layers)]
    hashes = [leaf(i, 1 if i in changed else 0) for i in range(num_layers)]
    return MerkleTree(names, hashes)


class TestConstruction:
    def test_single_leaf(self):
        tree = tree_with(1)
        assert tree.root_hash == leaf(0)
        assert len(tree) == 1

    def test_root_differs_from_leaves(self):
        tree = tree_with(4)
        assert tree.root_hash not in tree.leaf_hashes

    def test_equal_leaves_equal_roots(self):
        assert tree_with(8) == tree_with(8)

    def test_any_leaf_change_changes_root(self):
        for i in range(8):
            assert tree_with(8).root_hash != tree_with(8, {i}).root_hash

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([], [])

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree(["a"], [])

    def test_from_state_dict(self):
        tree = MerkleTree.from_state_dict(make_tiny_cnn().state_dict())
        assert len(tree) == len(make_tiny_cnn().state_dict())

    def test_non_power_of_two_sizes(self):
        for n in (3, 5, 7, 9, 13):
            tree = tree_with(n)
            assert len(tree) == n
            assert tree.diff(tree).changed_layers == []


class TestDiff:
    def test_identical_trees_single_comparison(self):
        result = tree_with(64).diff(tree_with(64))
        assert result.changed_layers == []
        assert result.comparisons == 1

    def test_finds_changed_layers(self):
        result = tree_with(16).diff(tree_with(16, {3, 10}))
        assert result.changed_layers == ["layer3", "layer10"]

    def test_paper_example_8_layers_last_two_changed(self):
        """Figure 4: 8 layers, last two changed -> 7 comparisons."""
        result = tree_with(8).diff(tree_with(8, {6, 7}))
        assert result.changed_layers == ["layer6", "layer7"]
        assert result.comparisons == 7

    def test_paper_example_64_layers(self):
        """Section 3.2: 64 layers, trailing two changed -> 13 comparisons."""
        result = tree_with(64).diff(tree_with(64, {62, 63}))
        assert result.comparisons == 13

    def test_paper_example_128_layers(self):
        """Section 3.2: 128 layers, trailing two changed -> 15 comparisons."""
        result = tree_with(128).diff(tree_with(128, {126, 127}))
        assert result.comparisons == 15

    def test_all_changed_costs_more_than_flat(self):
        a, b = tree_with(32), tree_with(32, set(range(32)))
        assert a.diff(b).comparisons > 32  # inner nodes also compared

    def test_flat_diff_always_touches_every_leaf(self):
        a, b = tree_with(32), tree_with(32, {0})
        flat = a.flat_diff(b)
        assert flat.comparisons == 32
        assert flat.changed_layers == ["layer0"]

    def test_structure_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tree_with(4).diff(tree_with(5))
        with pytest.raises(ValueError):
            tree_with(4).flat_diff(tree_with(5))


class TestSerialization:
    def test_round_trip(self):
        tree = tree_with(10, {2})
        restored = MerkleTree.from_dict(tree.to_dict())
        assert restored.root_hash == tree.root_hash
        assert restored.layer_names == tree.layer_names

    def test_tampered_payload_rejected(self):
        payload = tree_with(4).to_dict()
        payload["hashes"][0] = leaf(99)
        with pytest.raises(ValueError, match="inconsistent"):
            MerkleTree.from_dict(payload)

    def test_from_layer_hashes_ordered(self):
        hashes = OrderedDict([("b", leaf(1)), ("a", leaf(2))])
        tree = MerkleTree.from_layer_hashes(hashes)
        assert tree.layer_names == ["b", "a"]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    changed=st.sets(st.integers(0, 39), max_size=10),
)
def test_property_merkle_diff_matches_flat_diff(n, changed):
    changed = {c for c in changed if c < n}
    a, b = tree_with(n), tree_with(n, changed)
    merkle = a.diff(b)
    flat = a.flat_diff(b)
    assert merkle.changed_layers == flat.changed_layers
    assert set(merkle.changed_layers) == {f"layer{i}" for i in changed}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), changed=st.sets(st.integers(0, 63), min_size=1, max_size=2))
def test_property_sparse_changes_beat_flat_scan_for_wide_trees(n, changed):
    """With <=2 changed layers the Merkle walk visits O(log n) per change."""
    changed = {c % n for c in changed}
    a, b = tree_with(n), tree_with(n, changed)
    comparisons = a.diff(b).comparisons
    import math

    bound = 1 + 2 * len(changed) * (math.ceil(math.log2(n)) + 1)
    assert comparisons <= bound


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30))
def test_property_root_equality_iff_leaves_equal(n):
    assert tree_with(n) == tree_with(n)
    if n >= 1:
        assert tree_with(n) != tree_with(n, {n - 1})


class TestRootOf:
    def test_every_length_folds_to_the_trees_root(self):
        # every length from 1 to 300: each split of _build, unbalanced ones too
        leaves = [leaf(i) for i in range(300)]
        for n in range(1, 301):
            names = [f"layer{i}" for i in range(n)]
            assert root_of(leaves[:n]) == MerkleTree(names, leaves[:n]).root_hash, n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            root_of([])
