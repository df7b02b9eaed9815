"""Parameter update approach (PUA): save only what changed (§3.2).

The first model in a chain is saved exactly like the baseline.  A derived
model stores the bytes of the layers whose parameters differ from its
base's only.  Changed layers are found by comparing per-layer hash Merkle
trees — only the base model's layer table (its manifest,
:meth:`~AbstractSaveService.layer_table`) is loaded, never its parameters,
so saving stays cheap regardless of chain depth.  Its manifest is still a
full one: every layer by digest, the unchanged ones naming the chunks its
base's save stored, and its document names that manifest and its base's
architecture.  So every PUA model is its own recovery base — a recover
reads one document and one manifest at any lineage depth — while lineage
stays in ``base_model``.  Over a base with no manifest (an MPA model)
every layer is stored.

A derived save works on digests: :meth:`ParameterUpdateSaveService.save_layers`
takes the layer hashes, the arrays of the layers it has, and manifest
entries for changed layers whose chunks an earlier model of this catalog
already holds (:meth:`~ParameterUpdateSaveService.held_layers`).  A
:class:`ModelSaveInfo` save hashes its model and calls the same core with
every array; the serving gateway calls it with only the layers a client
shipped (DESIGN.md §15.1).

Each service keeps the Merkle trees of the models it saved, by model id, in
a small LRU.  A derived save whose base tree is there derives its own tree
from it (:meth:`~repro.core.merkle.MerkleTree.derive`), hashing only the
paths of the changed layers, and reads only the base's ``merkle_root``,
``parameters_file`` and ``architecture``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping

from .. import obs
from .abstract import _TABLE_FIELDS, AbstractSaveService
from .errors import LayersNeededError, ModelNotFoundError, SaveError
from .hashing import state_dict_hashes
from .merkle import DiffResult, MerkleTree
from .save_info import ModelSaveInfo
from .schema import APPROACH_PARAM_UPDATE

__all__ = ["ParameterUpdateSaveService", "extract_parameter_update"]

#: What a derived save reads of its base's document, once: its Merkle root
#: and layer table (for the tree) and its manifest and architecture (which
#: the derived model's document and unchanged layers name).
BASE_FIELDS = ("merkle_root", "parameters_file", "architecture", "layer_hashes")

#: Merkle trees a service keeps: those of the models its latest saves wrote
#: or derived from.  A derived tree shares all but ~k log2(n) nodes with its
#: base's, so a chain of cached trees costs little more than its first
#: (DESIGN.md §14).
TREE_CACHE_ENTRIES = 32


def extract_parameter_update(
    state_dict: Mapping,
    current_tree: MerkleTree,
    base_tree: MerkleTree,
    use_merkle: bool = True,
) -> tuple["OrderedDict", DiffResult]:
    """Prune unchanged layers from ``state_dict``.

    Returns the parameter update (changed layers only, in state-dict order)
    and the diff result with its comparison count.  ``use_merkle=False``
    falls back to the flat per-layer scan (ablation baseline).
    """
    diff = current_tree.diff(base_tree) if use_merkle else current_tree.flat_diff(base_tree)
    changed = set(diff.changed_layers)
    update = OrderedDict(
        (name, array) for name, array in state_dict.items() if name in changed
    )
    return update, diff


class ParameterUpdateSaveService(AbstractSaveService):
    """Save/recover service implementing the parameter update approach."""

    approach = APPROACH_PARAM_UPDATE

    def __init__(
        self,
        document_store,
        file_store,
        scratch_dir=None,
        dataset_codec=None,
        use_merkle: bool = True,
        retry=None,
    ):
        super().__init__(
            document_store, file_store, scratch_dir, dataset_codec, retry=retry)
        self.use_merkle = use_merkle
        #: hash comparisons performed by the most recent save (ablation metric)
        self.last_diff: DiffResult | None = None
        # model id -> MerkleTree, least recently used first; the gateway's
        # workers share one service, so lookups and inserts hold the lock
        self._trees: OrderedDict[str, MerkleTree] = OrderedDict()
        self._trees_lock = threading.Lock()
        # the trees a running save will cache once it commits, per thread
        self._saving = threading.local()
        registry = obs.registry()
        self._obs_tree_hits = registry.counter(
            "mmlib_merkle_tree_cache_total", "Base trees of derived saves", result="hit")
        self._obs_tree_misses = registry.counter(
            "mmlib_merkle_tree_cache_total", "Base trees of derived saves", result="miss")

    def _run_save(self, save, *args) -> str:
        """Run the save, then cache the trees it built: a save that rolls
        back caches nothing."""
        self._saving.trees = trees = []
        try:
            model_id = super()._run_save(save, *args)
        finally:
            self._saving.trees = None
        with self._trees_lock:
            for tree_id, tree in trees:
                self._trees[tree_id] = tree
                self._trees.move_to_end(tree_id)
            while len(self._trees) > TREE_CACHE_ENTRIES:
                self._trees.popitem(last=False)
        return model_id

    def _trees_for(self, base_model_id: str, hashes: Mapping[str, str]):
        """``(base document, base tree, tree over hashes)`` for a save
        derived from ``base_model_id``.

        The base's cached tree serves if it covers the same layer names and
        its root is the base document's ``merkle_root``.  Otherwise the
        tree is built from the base's :meth:`layer_table` (:class:`SaveError`
        if it has none: it stores no Merkle root).  Either way the new tree
        is derived from the base's, sharing its unchanged subtrees.  A
        missing base raises :class:`~repro.errors.ModelNotFoundError`.
        """
        names = list(hashes)
        document = self._get_model_document(base_model_id, projection=BASE_FIELDS)
        with self._trees_lock:
            cached = self._trees.get(base_model_id)
            if cached is not None:
                self._trees.move_to_end(base_model_id)
        if (cached is not None and cached.layer_names == names
                and document.get("merkle_root") == cached.root_hash):
            self._obs_tree_hits.inc()
            base_tree = cached
        else:
            self._obs_tree_misses.inc()
            base_table = self._table_of(document)
            if not base_table:
                raise SaveError(
                    f"base model {base_model_id} has no layer hashes: "
                    "it was saved without a Merkle root"
                )
            base_tree = MerkleTree.from_layer_hashes(base_table)
            self._keep_tree(base_model_id, base_tree)
        return document, base_tree, base_tree.derive(names, list(hashes.values()))

    def _keep_tree(self, model_id: str, tree: MerkleTree) -> None:
        """Cache ``tree`` for ``model_id`` once the running save commits."""
        trees = getattr(self._saving, "trees", None)
        if trees is not None:
            trees.append((model_id, tree))

    def _save_model(self, save_info: ModelSaveInfo) -> str:
        """Save a model; full snapshot for initial models, update otherwise."""
        save_info.validate()
        if save_info.base_model_id is None:
            return self._save_initial(save_info)
        return self._save_update(save_info)

    def _save_initial(self, save_info: ModelSaveInfo) -> str:
        # the PUA *always* stores the root, so derived saves can diff
        # against this model's layer table without recovering it (§3.2)
        return self._save_snapshot(save_info, checksums=True)

    def _save_update(self, save_info: ModelSaveInfo) -> str:
        state = save_info.model.state_dict()
        return self._save_layers(
            save_info.base_model_id, state_dict_hashes(state), state, {}, save_info.use_case)

    def save_layers(
        self,
        base_model_id: str,
        layer_hashes: Mapping[str, str],
        arrays: Mapping,
        held: Mapping[str, Mapping] | None = None,
        use_case: str | None = None,
    ) -> str:
        """Save a model derived from ``base_model_id`` from its layer digests.

        ``layer_hashes`` is the model's whole layer table (name → tensor
        hash, in state-dict order) and must already be checked against the
        arrays it names: nothing here hashes them again.  ``arrays`` holds
        the layers whose bytes the caller has; ``held`` the manifest
        entries :meth:`held_layers` resolved for others.  A layer that
        differs from the base and is in neither raises
        :class:`~repro.errors.LayersNeededError`, as does a held chunk
        that is gone once the save holds its reference; either way nothing
        is stored.  Runs in one save transaction, like :meth:`save_model`.
        """
        return self._run_save(
            self._save_layers, base_model_id, layer_hashes, arrays, held or {}, use_case)

    def held_layers(self, references: Mapping[str, tuple[str, str]]) -> dict[str, dict]:
        """Manifest entries for layers a save names by reference.

        ``references`` maps a layer name to ``(digest, source model id)``.
        A source is looked up in this service's own catalog — a model of
        another tenant's catalog is not found, whatever the shared file
        store holds — and must hold ``digest`` under that name in its
        :meth:`layer_table`, else ``ValueError``.  The entry (dtype, shape)
        is the one in the source's own manifest, so it is the one the
        digest covers; one document and one manifest are read per source.
        A source that is gone or has no manifest and Merkle root cannot
        vouch for its layers: those layers are raised together as
        :class:`~repro.errors.LayersNeededError`.
        """
        by_source: dict[str, list[tuple[str, str]]] = {}
        for name, (digest, source) in references.items():
            by_source.setdefault(source, []).append((name, digest))
        held: dict[str, dict] = {}
        needed: list[str] = []
        for source, layers in by_source.items():
            try:
                document = self._get_model_document(source, projection=_TABLE_FIELDS)
            except ModelNotFoundError:
                needed.extend(name for name, _ in layers)
                continue
            if document.get("merkle_root") is None or not document.get("parameters_file"):
                needed.extend(name for name, _ in layers)
                continue
            entries = dict(self.files.read_manifest(document["parameters_file"])["layers"])
            for name, digest in layers:
                meta = entries.get(name)
                if meta is None or meta["chunk"] != digest:
                    raise ValueError(
                        f"model {source!r} holds no layer {name!r} with digest {digest}")
                held[name] = {
                    "chunk": digest, "dtype": meta["dtype"], "shape": list(meta["shape"])}
        if needed:
            raise LayersNeededError(needed)
        return held

    def _save_layers(self, base_model_id, hashes, arrays, held, use_case) -> str:
        base, base_tree, current_tree = self._trees_for(base_model_id, hashes)
        update, diff = extract_parameter_update(
            arrays, current_tree, base_tree, use_merkle=self.use_merkle
        )
        missing = [n for n in diff.changed_layers if n not in update and n not in held]
        if missing:
            raise LayersNeededError(missing)
        self.last_diff = diff
        listed = {n: held[n] for n in diff.changed_layers if n not in update}
        changed = set(diff.changed_layers)
        unchanged = [n for n in hashes if n not in changed]
        stored = {n for n in unchanged if n in arrays}
        if base.get("parameters_file"):
            # an unchanged layer names the chunk its base's save stored
            if len(stored) < len(unchanged):
                entries = dict(self.files.read_manifest(base["parameters_file"])["layers"])
                listed.update((n, entries[n]) for n in unchanged if n not in stored)
        else:  # a base with no manifest (an MPA model) stored no chunk
            gone = [n for n in unchanged if n not in stored]
            if gone:
                raise LayersNeededError(gone)
            stored = set()

        environment_id = self._save_environment()
        # the per-layer hashes above are the chunk ids — no re-hashing here
        parameters_file = self._save_state(
            arrays, hashes, kind="params", held=listed, stored=stored,
            root=current_tree.root_hash)
        document = {
            "base_model": base_model_id,
            "use_case": use_case,
            "environment_id": environment_id,
            "architecture": base.get("architecture") or self._chain_architecture(base_model_id),
            "parameters_file": parameters_file,
            "merkle_root": current_tree.root_hash,
        }
        model_id = self._insert_model_document(document)
        self._keep_tree(model_id, current_tree)
        return model_id
