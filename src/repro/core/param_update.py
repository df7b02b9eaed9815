"""Parameter update approach (PUA): save only what changed (§3.2).

The first model in a chain is saved exactly like the baseline.  A derived
model is represented by a reference to its base plus the *parameter
update*: the layers whose parameters differ from the base.  Changed layers
are found by comparing per-layer hash Merkle trees — only the base model's
*document* (which always carries the layer hashes) is loaded, never its
parameters, so saving stays cheap regardless of chain depth.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping

from .abstract import AbstractSaveService
from .errors import SaveError
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
        prefetcher=None,
    ):
        super().__init__(
            document_store, file_store, scratch_dir, dataset_codec,
            retry=retry, prefetcher=prefetcher,
        )
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
        base_document = self._get_model_document(save_info.base_model_id)
        base_hash_list = base_document.get("layer_hashes")
        if not base_hash_list:
            raise SaveError(
                f"base model {save_info.base_model_id} has no layer hashes; "
                "it was not saved by the parameter update approach"
            )
        base_tree = MerkleTree.from_layer_hashes(OrderedDict(base_hash_list))

        state = save_info.model.state_dict()
        hashes = state_dict_hashes(state)
        current_tree = MerkleTree.from_layer_hashes(hashes)
        update, diff = extract_parameter_update(
            state, current_tree, base_tree, use_merkle=self.use_merkle
        )
        self.last_diff = diff

        environment_id = self._save_environment()
        # the per-layer hashes above are the chunk ids — no re-hashing here
        update_file = self._save_state(update, hashes, kind="update")

        document = {
            "base_model": save_info.base_model_id,
            "use_case": save_info.use_case,
            "environment_id": environment_id,
            # no architecture entry: across fully/partially updated versions
            # it is unchanged and defined by the base-model reference
            "update_file": update_file,
            "updated_layers": diff.changed_layers,
            "layer_hashes": [[k, v] for k, v in hashes.items()],
            "merkle_root": current_tree.root_hash,
        }
        return self._insert_model_document(document)
