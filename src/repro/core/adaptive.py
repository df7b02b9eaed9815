"""Adaptive save service: pick the best approach per model (paper §4.7).

The paper's discussion proposes "a heuristic that decides which is the most
suitable approach (BA, PUA, or the MPA) for every model", driven by the
fact that BA/PUA costs scale with the model parameters while MPA costs
scale with the dataset — optionally combined with hard constraints such as
a maximum storage consumption or TTR.

:class:`AdaptiveSaveService` implements that: each ``save_model`` call
profiles the concrete save (model bytes, changed-parameter fraction
estimated from the base model's stored layer hashes, dataset bytes) and
delegates to the cheapest feasible approach.  Recovery is inherited — the
shared engine dispatches on what each document contains, so mixed-approach
chains recover transparently.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from .abstract import AbstractSaveService
from .baseline import BaselineSaveService
from .errors import SaveError
from .hashing import state_dict_hashes
from .heuristics import CostEstimate, CostModel, ScenarioProfile
from .param_update import ParameterUpdateSaveService
from .provenance import ProvenanceSaveService
from .save_info import ArchitectureRef, ModelSaveInfo, ProvenanceSaveInfo
from .schema import (
    APPROACH_BASELINE,
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
)

__all__ = ["AdaptiveSaveService"]


def _directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class AdaptiveSaveService(AbstractSaveService):
    """Routes each save to the BA, PUA, or MPA by predicted cost.

    ``max_storage_bytes`` / ``max_recover_seconds`` impose the paper's hard
    constraints; ``train_seconds_estimate`` is the expected cost of
    replaying one training run (used to price MPA recovery);
    ``recovers_per_save`` weights recovery cost by how often it happens
    (the paper assumes U_4 is rare).
    """

    approach = "adaptive"

    def __init__(
        self,
        document_store,
        file_store,
        scratch_dir: str | Path | None = None,
        dataset_codec: str | None = None,
        cost_model: CostModel | None = None,
        max_storage_bytes: float | None = None,
        max_recover_seconds: float | None = None,
        train_seconds_estimate: float = 60.0,
        recovers_per_save: float = 0.01,
        retry=None,
    ):
        super().__init__(
            document_store, file_store, scratch_dir, dataset_codec, retry=retry)
        self.cost_model = cost_model or CostModel()
        self.max_storage_bytes = max_storage_bytes
        self.max_recover_seconds = max_recover_seconds
        self.train_seconds_estimate = train_seconds_estimate
        self.recovers_per_save = recovers_per_save
        self._services = {
            APPROACH_BASELINE: BaselineSaveService(
                document_store, file_store, scratch_dir, dataset_codec, retry=retry,
            ),
            APPROACH_PARAM_UPDATE: ParameterUpdateSaveService(
                document_store, file_store, scratch_dir, dataset_codec, retry=retry,
            ),
            APPROACH_PROVENANCE: ProvenanceSaveService(
                document_store, file_store, scratch_dir, dataset_codec, retry=retry,
            ),
        }
        #: the estimate behind the most recent save (for inspection/benches)
        self.last_choice: CostEstimate | None = None

    # -- profiling ---------------------------------------------------------

    def _updated_fraction(self, save_info: ModelSaveInfo, state: "OrderedDict") -> float:
        """Fraction of parameter bytes changed vs. the base (1.0 if unknown)."""
        if save_info.base_model_id is None:
            return 1.0
        try:
            # through the PUA service's tree cache: a hit reads the base's root only
            _base, base_tree, current_tree = self._services[
                APPROACH_PARAM_UPDATE]._trees_for(save_info.base_model_id, state_dict_hashes(state))
            changed = set(current_tree.diff(base_tree).changed_layers)
        except (SaveError, ValueError):
            # no layer hashes on the base, or another architecture:
            # treat as fully updated
            return 1.0
        total = sum(array.nbytes for array in state.values())
        if total == 0:
            return 1.0
        changed_bytes = sum(
            array.nbytes for name, array in state.items() if name in changed
        )
        return changed_bytes / total

    def _profile(self, save_info) -> tuple[ScenarioProfile, int]:
        if isinstance(save_info, ProvenanceSaveInfo):
            if save_info.expected_model is None:
                raise SaveError(
                    "the adaptive service profiles saves against the trained "
                    "model; provide ProvenanceSaveInfo.expected_model"
                )
            state = save_info.expected_model.state_dict()
            dataset_bytes = (
                _directory_bytes(save_info.dataset_dir)
                if save_info.dataset_dir is not None
                else 0
            )
            externally_managed = save_info.dataset_reference is not None
            pseudo_info = ModelSaveInfo(
                model=save_info.expected_model,
                architecture=None,  # unused by _updated_fraction
                base_model_id=save_info.base_model_id,
            )
            updated_fraction = self._updated_fraction(pseudo_info, state)
        else:
            state = save_info.model.state_dict()
            dataset_bytes = 0
            externally_managed = False
            updated_fraction = self._updated_fraction(save_info, state)
        model_bytes = sum(array.nbytes for array in state.values())
        depth = (
            len(self.base_chain(save_info.base_model_id))
            if save_info.base_model_id
            else 0
        )
        profile = ScenarioProfile(
            model_bytes=model_bytes,
            dataset_bytes=dataset_bytes,
            updated_fraction=updated_fraction,
            train_seconds=self.train_seconds_estimate,
            recovers_per_save=self.recovers_per_save,
            dataset_externally_managed=externally_managed,
        )
        return profile, depth + 1

    def _feasible_approaches(self, save_info) -> set[str]:
        if isinstance(save_info, ProvenanceSaveInfo):
            # with a recorded training run everything is possible; a missing
            # base or snapshot handled in _profile validation
            return {APPROACH_BASELINE, APPROACH_PARAM_UPDATE, APPROACH_PROVENANCE}
        # plain snapshots cannot be saved as provenance (no training record)
        approaches = {APPROACH_BASELINE}
        if save_info.base_model_id is not None and self._has_table(self._get_model_document(
                save_info.base_model_id,
                projection=("layer_hashes", "merkle_root", "parameters_file", "approach"))):
            approaches.add(APPROACH_PARAM_UPDATE)
        return approaches

    # -- saving -----------------------------------------------------------------

    def _save_model(self, save_info) -> str:
        """Profile the save, pick the cheapest feasible approach, delegate."""
        profile, chain_depth = self._profile(save_info)
        feasible = self._feasible_approaches(save_info)

        candidates = [
            estimate
            for estimate in self.cost_model.estimate(profile, chain_depth=chain_depth)
            if estimate.approach in feasible
        ]
        feasible_candidates = [
            estimate
            for estimate in candidates
            if (
                self.max_storage_bytes is None
                or estimate.storage_bytes <= self.max_storage_bytes
            )
            and (
                self.max_recover_seconds is None
                or estimate.recover_seconds <= self.max_recover_seconds
            )
        ]
        if not feasible_candidates:
            raise SaveError(
                "no approach satisfies the configured storage/TTR constraints "
                f"for this save; candidates: "
                f"{[(c.approach, int(c.storage_bytes), round(c.recover_seconds, 1)) for c in candidates]}"
            )
        choice = min(
            feasible_candidates,
            key=lambda c: c.weighted(1.0, 0.0, self.recovers_per_save),
        )
        self.last_choice = choice
        return self._delegate(choice.approach, save_info)

    def _delegate(self, approach: str, save_info) -> str:
        service = self._services[approach]
        if approach == APPROACH_PROVENANCE:
            return service.save_model(save_info)
        if isinstance(save_info, ProvenanceSaveInfo):
            # snapshot route for a recorded run: persist the trained model
            payload = self._chain_architecture(save_info.base_model_id)
            source = self.files.recover_bytes(payload["code_file_id"]).decode()
            snapshot = ModelSaveInfo(
                model=save_info.expected_model,
                architecture=ArchitectureRef.from_dict(payload, source=source),
                base_model_id=save_info.base_model_id,
                use_case=save_info.use_case,
                store_checksums=save_info.store_checksums,
            )
            return service.save_model(snapshot)
        return service.save_model(save_info)
