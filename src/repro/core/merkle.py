"""Merkle tree over per-layer parameter hashes (paper Section 3.2, Fig. 4).

Every model layer is a leaf holding that layer's parameter hash; inner
nodes combine their children's hashes.  Two uses:

* equal-weights check by comparing only the two root hashes;
* finding the changed layers between a model and its base with far fewer
  hash comparisons than a flat scan when few layers changed (7 instead of
  8 comparisons for an 8-layer model with two trailing changed layers; 13
  instead of 64 for a 64-layer model — the paper's example numbers).

A derived model's tree need not be built from scratch: :meth:`MerkleTree.derive`
shares every subtree of its base's tree whose leaves did not change and
hashes only the ancestors of the changed ones.

``diff`` counts the comparisons it performs so the Merkle-vs-flat ablation
bench can report them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .hashing import combine_hashes, state_dict_hashes

__all__ = ["MerkleNode", "MerkleTree", "DiffResult", "root_of"]


def root_of(leaves: Sequence[str]) -> str:
    """The root hash of a :class:`MerkleTree` over ``leaves``, folded
    without building its nodes: the same split as :meth:`MerkleTree._build`,
    for callers that need only the root."""
    if not leaves:
        raise ValueError("cannot build a Merkle tree over zero layers")

    def fold(start: int, stop: int) -> str:
        if stop - start == 1:
            return leaves[start]
        mid = (start + stop + 1) // 2
        return combine_hashes(fold(start, mid), fold(mid, stop))

    return fold(0, len(leaves))


@dataclass(slots=True)
class MerkleNode:
    """A node covering leaves ``[start, stop)`` of the layer list."""

    hash: str
    start: int
    stop: int
    left: "MerkleNode | None" = None
    right: "MerkleNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class DiffResult:
    """Outcome of comparing two trees."""

    changed_layers: list[str]
    comparisons: int


class MerkleTree:
    """Balanced binary Merkle tree over an ordered list of layer hashes."""

    def __init__(self, layer_names: Sequence[str], leaf_hashes: Sequence[str]):
        if len(layer_names) != len(leaf_hashes):
            raise ValueError("layer_names and leaf_hashes must align")
        if not layer_names:
            raise ValueError("cannot build a Merkle tree over zero layers")
        self.layer_names = list(layer_names)
        self.leaf_hashes = list(leaf_hashes)
        self.root = self._build(0, len(leaf_hashes))

    @classmethod
    def from_state_dict(cls, state_dict: Mapping) -> "MerkleTree":
        hashes = state_dict_hashes(state_dict)
        return cls(list(hashes.keys()), list(hashes.values()))

    @classmethod
    def from_layer_hashes(cls, layer_hashes: Mapping[str, str]) -> "MerkleTree":
        return cls(list(layer_hashes.keys()), list(layer_hashes.values()))

    def derive(self, layer_names: Sequence[str], leaf_hashes: Sequence[str]) -> "MerkleTree":
        """``MerkleTree(layer_names, leaf_hashes)``, built from this tree.

        Equal to the fresh tree node for node, but every subtree whose
        leaves are unchanged is this tree's own node, so only the ancestors
        of changed leaves are hashed: at most ``k * ceil(log2 n)`` combines
        for ``k`` changed leaves, instead of ``n - 1``.  The new tree keeps
        this tree's layer-name list and, for unchanged layers, its leaf
        strings.  Nothing of this tree is mutated, so both stay valid.
        Over another layer list nothing can be shared: the tree is built
        from scratch.
        """
        if len(layer_names) != len(leaf_hashes):
            raise ValueError("layer_names and leaf_hashes must align")
        if layer_names != self.layer_names:
            return MerkleTree(layer_names, leaf_hashes)
        ours = self.leaf_hashes
        leaves = [old if old == new else new for old, new in zip(ours, leaf_hashes)]
        changed = [index for index, (old, new) in enumerate(zip(ours, leaves)) if old is not new]
        tree = MerkleTree.__new__(MerkleTree)
        tree.layer_names = self.layer_names
        tree.leaf_hashes = leaves
        tree.root = self._rehash(self.root, leaves, changed, 0, len(changed))
        return tree

    @classmethod
    def _rehash(cls, node: MerkleNode, leaves, changed, lo: int, hi: int) -> MerkleNode:
        """``node``'s counterpart over ``leaves``; ``changed[lo:hi]`` are the
        changed leaf indices it covers."""
        if lo == hi:
            return node
        if node.left is None:
            return MerkleNode(leaves[node.start], node.start, node.stop)
        mid = bisect_left(changed, node.left.stop, lo, hi)
        left = cls._rehash(node.left, leaves, changed, lo, mid)
        right = cls._rehash(node.right, leaves, changed, mid, hi)
        return MerkleNode(combine_hashes(left.hash, right.hash), node.start, node.stop, left, right)

    def _build(self, start: int, stop: int) -> MerkleNode:
        if stop - start == 1:
            return MerkleNode(self.leaf_hashes[start], start, stop)
        mid = (start + stop + 1) // 2
        left = self._build(start, mid)
        right = self._build(mid, stop)
        return MerkleNode(combine_hashes(left.hash, right.hash), start, stop, left, right)

    @property
    def root_hash(self) -> str:
        return self.root.hash

    def __len__(self) -> int:
        return len(self.leaf_hashes)

    def __eq__(self, other) -> bool:
        return isinstance(other, MerkleTree) and self.root_hash == other.root_hash

    # -- diffing ------------------------------------------------------------

    def diff(self, other: "MerkleTree") -> DiffResult:
        """Layers whose hashes differ between ``self`` and ``other``.

        Both trees must cover the same ordered layer list (the PUA's
        fully/partially updated model relations keep the architecture
        fixed).  Subtrees with equal hashes are skipped entirely.
        """
        if self.layer_names != other.layer_names:
            raise ValueError(
                "Merkle diff requires identical layer structure; "
                "got differing layer name lists"
            )
        changed: list[str] = []
        comparisons = 0

        def walk(a: MerkleNode, b: MerkleNode) -> None:
            nonlocal comparisons
            comparisons += 1
            if a.hash == b.hash:
                return
            if a.is_leaf:
                changed.append(self.layer_names[a.start])
                return
            walk(a.left, b.left)
            walk(a.right, b.right)

        walk(self.root, other.root)
        return DiffResult(changed_layers=changed, comparisons=comparisons)

    def flat_diff(self, other: "MerkleTree") -> DiffResult:
        """Baseline comparison touching every leaf (for the ablation)."""
        if self.layer_names != other.layer_names:
            raise ValueError("flat diff requires identical layer structure")
        changed = [
            name
            for name, a, b in zip(self.layer_names, self.leaf_hashes, other.leaf_hashes)
            if a != b
        ]
        return DiffResult(changed_layers=changed, comparisons=len(self.leaf_hashes))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation (leaves only; tree is rebuilt)."""
        return {
            "layers": self.layer_names,
            "hashes": self.leaf_hashes,
            "root": self.root_hash,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MerkleTree":
        """Rebuild from :meth:`to_dict`, validating the stored root."""
        tree = cls(payload["layers"], payload["hashes"])
        if payload.get("root") and tree.root_hash != payload["root"]:
            raise ValueError("Merkle tree payload is inconsistent with its root hash")
        return tree
