"""Parameter update approach (PUA): save only what changed (§3.2).

The first model in a chain is saved exactly like the baseline.  A derived
model is represented by a reference to its base plus the *parameter
update*: the layers whose parameters differ from the base.  Changed layers
are found by comparing per-layer hash Merkle trees — only the base model's
*document* (which always carries the layer hashes) is loaded, never its
parameters, so saving stays cheap regardless of chain depth.

A derived save works on digests: :meth:`ParameterUpdateSaveService.save_layers`
takes the layer hashes, the arrays of the layers it has, and manifest
entries for changed layers whose chunks an earlier model of this catalog
already holds (:meth:`~ParameterUpdateSaveService.held_layers`).  A
:class:`ModelSaveInfo` save hashes its model and calls the same core with
every array; the serving gateway calls it with only the layers a client
shipped (DESIGN.md §15.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

from .abstract import AbstractSaveService
from .errors import LayersNeededError, ModelNotFoundError, SaveError
from .hashing import state_dict_hashes
from .merkle import DiffResult, MerkleTree
from .save_info import ModelSaveInfo
from .schema import APPROACH_PARAM_UPDATE

__all__ = ["ParameterUpdateSaveService", "extract_parameter_update"]


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

    def _save_model(self, save_info: ModelSaveInfo) -> str:
        """Save a model; full snapshot for initial models, update otherwise."""
        save_info.validate()
        if save_info.base_model_id is None:
            return self._save_initial(save_info)
        return self._save_update(save_info)

    def _save_initial(self, save_info: ModelSaveInfo) -> str:
        environment_id = self._save_environment()
        architecture = self._save_architecture(save_info.architecture)
        parameters_file, layer_hashes, root = self._save_parameters(save_info.model)
        document = {
            "base_model": None,
            "use_case": save_info.use_case,
            "environment_id": environment_id,
            "architecture": architecture,
            "parameters_file": parameters_file,
            # the PUA *always* stores per-layer hashes so derived saves can
            # diff against this model without recovering it (Section 3.2)
            "layer_hashes": [[k, v] for k, v in layer_hashes.items()],
            "merkle_root": root,
        }
        return self._insert_model_document(document)

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
        ``layer_hashes``, else ``ValueError``.  The entry (dtype, shape) is
        the one in the source's own manifest, so it is the one the digest
        covers.  A source that is gone, keeps no layer hashes, or holds the
        layer only through its base cannot vouch for it: those layers are
        raised together as :class:`~repro.errors.LayersNeededError`.
        """
        by_source: dict[str, list[tuple[str, str]]] = {}
        for name, (digest, source) in references.items():
            by_source.setdefault(source, []).append((name, digest))
        held: dict[str, dict] = {}
        needed: list[str] = []
        for source, layers in by_source.items():
            try:
                document = self._get_model_document(
                    source, projection=("layer_hashes", "parameters_file", "update_file"))
            except ModelNotFoundError:
                needed.extend(name for name, _ in layers)
                continue
            hashes = dict(document.get("layer_hashes") or ())
            if not hashes:
                needed.extend(name for name, _ in layers)
                continue
            for name, digest in layers:
                if hashes.get(name) != digest:
                    raise ValueError(
                        f"model {source!r} holds no layer {name!r} with digest {digest}")
            own = document.get("update_file") or document.get("parameters_file")
            entries = (
                dict(self.files.read_manifest(own)["layers"])
                if own and self._is_chunked_file(own) else {}
            )
            for name, digest in layers:
                meta = entries.get(name)
                if meta is None or meta.get("chunk") != digest:
                    needed.append(name)
                else:
                    held[name] = {
                        "chunk": digest, "dtype": meta["dtype"], "shape": list(meta["shape"])}
        if needed:
            raise LayersNeededError(needed)
        return held

    def _save_layers(self, base_model_id, hashes, arrays, held, use_case) -> str:
        base_document = self._get_model_document(base_model_id, projection=("layer_hashes",))
        base_hash_list = base_document.get("layer_hashes")
        if not base_hash_list:
            raise SaveError(
                f"base model {base_model_id} has no layer hashes; "
                "it was not saved by the parameter update approach"
            )
        base_tree = MerkleTree.from_layer_hashes(OrderedDict(base_hash_list))
        current_tree = MerkleTree.from_layer_hashes(hashes)
        update, diff = extract_parameter_update(
            arrays, current_tree, base_tree, use_merkle=self.use_merkle
        )
        missing = [n for n in diff.changed_layers if n not in update and n not in held]
        if missing:
            raise LayersNeededError(missing)
        self.last_diff = diff

        environment_id = self._save_environment()
        # the per-layer hashes above are the chunk ids — no re-hashing here
        update_file = self._save_state(
            update, hashes, kind="update",
            held={n: held[n] for n in diff.changed_layers if n not in update})

        document = {
            "base_model": base_model_id,
            "use_case": use_case,
            "environment_id": environment_id,
            # no architecture entry: across fully/partially updated versions
            # it is unchanged and defined by the base-model reference
            "update_file": update_file,
            "updated_layers": diff.changed_layers,
            "layer_hashes": [[k, v] for k, v in hashes.items()],
            "merkle_root": current_tree.root_hash,
        }
        return self._insert_model_document(document)
