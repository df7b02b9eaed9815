"""Model provenance approach (MPA): save the recipe, not the weights (§3.3).

The first model in a chain is saved with the baseline's logic.  Every
derived model is represented by its provenance: (1) the training process
(train service + wrapped objects + pre-training RNG state), (2) the
environment, (3) the training data (compressed archive or external
reference), and (4) the base-model reference.  Recovery reproduces the
training deterministically.

:class:`ProvenanceRecorder` is the node-side helper that pins everything
that must be captured *before* training starts (seed, RNG state, stateful
object snapshots), so that replaying later walks through the exact same
pseudorandom choices and optimizer trajectories.
"""

from __future__ import annotations

from pathlib import Path

from ..nn import rng
from ..nn.modules import Module
from .abstract import AbstractSaveService
from .errors import SaveError
from .hashing import state_dict_hashes
from .merkle import root_of
from .save_info import ModelSaveInfo, ProvenanceSaveInfo, TrainRunSpec
from .schema import APPROACH_PROVENANCE, TRAIN_INFO
from .train_service import TrainService
from .wrappers import StateFileRestorableObjectWrapper

__all__ = ["ProvenanceSaveService", "ProvenanceRecorder"]


class ProvenanceSaveService(AbstractSaveService):
    """Save/recover service implementing the model provenance approach."""

    approach = APPROACH_PROVENANCE

    def _save_model(self, save_info) -> str:
        """Save either an initial snapshot or a provenance record."""
        if isinstance(save_info, ProvenanceSaveInfo):
            return self._save_provenance(save_info)
        if isinstance(save_info, ModelSaveInfo):
            return self._save_initial(save_info)
        raise SaveError(
            f"expected ModelSaveInfo or ProvenanceSaveInfo, got {type(save_info).__name__}"
        )

    def _save_initial(self, save_info: ModelSaveInfo) -> str:
        save_info.validate()
        environment_id = self._save_environment()
        architecture = self._save_architecture(save_info.architecture)
        parameters_file, layer_hashes, root = self._save_parameters(save_info.model)
        document = {
            "base_model": save_info.base_model_id,
            "use_case": save_info.use_case,
            "environment_id": environment_id,
            "architecture": architecture,
            "parameters_file": parameters_file,
        }
        if save_info.store_checksums:
            document["layer_hashes"] = [[k, v] for k, v in layer_hashes.items()]
            document["merkle_root"] = root
        return self._insert_model_document(document)

    def save_provenance(self, save_info: ProvenanceSaveInfo) -> str:
        """Persist a derived model as provenance data; returns the model id."""
        with self._save_transaction():
            return self._save_provenance(save_info)

    def _save_provenance(self, save_info: ProvenanceSaveInfo) -> str:
        save_info.validate()
        if not self.model_exists(save_info.base_model_id):
            raise SaveError(f"base model {save_info.base_model_id!r} is not saved")

        environment_id = self._save_environment()
        train_info_id = save_info.train_service.save(self.documents, self.files)
        self._journal("doc", collection=TRAIN_INFO, doc_id=train_info_id)

        provenance = {
            "train_spec": save_info.train_spec.to_dict(),
            "rng_state": save_info.rng_state,
            "dataset_file_id": None,
            "dataset_reference": None,
        }
        if save_info.dataset_dir is not None:
            provenance["dataset_file_id"] = self.dataset_manager.save_dataset(
                save_info.dataset_dir
            )
        else:
            provenance["dataset_reference"] = save_info.dataset_reference

        document = {
            "base_model": save_info.base_model_id,
            "use_case": save_info.use_case,
            "environment_id": environment_id,
            "train_info_id": train_info_id,
            "provenance": provenance,
        }
        if save_info.store_checksums and save_info.expected_model is not None:
            hashes = state_dict_hashes(save_info.expected_model.state_dict())
            document["layer_hashes"] = [[k, v] for k, v in hashes.items()]
            document["merkle_root"] = root_of(list(hashes.values()))
        return self._insert_model_document(document)


class ProvenanceRecorder:
    """Capture provenance around a node-side training run.

    Usage::

        recorder = ProvenanceRecorder(base_model_id, train_service,
                                      dataset_dir=..., seed=...)
        recorder.start()                       # pins RNG + object state
        train_service.train(model, epochs)     # the actual training
        info = recorder.finish(model, use_case="U_3-1-1")
        model_id = provenance_service.save_model(info)
    """

    def __init__(
        self,
        base_model_id: str,
        train_service: TrainService,
        *,
        number_epochs: int,
        number_batches: int | None = None,
        seed: int | None = None,
        deterministic: bool = True,
        dataset_dir: str | Path | None = None,
        dataset_reference: str | None = None,
    ):
        self.base_model_id = base_model_id
        self.train_service = train_service
        self.number_epochs = number_epochs
        self.number_batches = number_batches
        self.seed = seed
        self.deterministic = deterministic
        self.dataset_dir = Path(dataset_dir) if dataset_dir else None
        self.dataset_reference = dataset_reference
        self._rng_state: dict | None = None

    def start(self) -> None:
        """Pin the RNG and snapshot stateful objects; call before training."""
        if self.seed is not None:
            rng.manual_seed(self.seed)
        else:
            self.seed = rng.initial_seed()
        rng.use_deterministic_algorithms(self.deterministic)
        self._rng_state = rng.get_rng_state()
        for wrapper in self._stateful_wrappers():
            wrapper.snapshot_state()

    def _stateful_wrappers(self) -> list[StateFileRestorableObjectWrapper]:
        wrappers = []
        for value in vars(self.train_service).values():
            if isinstance(value, StateFileRestorableObjectWrapper):
                wrappers.append(value)
        return wrappers

    def finish(self, trained_model: Module | None = None, use_case: str | None = None) -> ProvenanceSaveInfo:
        """Build the save info after training completed."""
        if self._rng_state is None:
            raise SaveError("ProvenanceRecorder.finish called before start")
        spec = TrainRunSpec(
            number_epochs=self.number_epochs,
            number_batches=self.number_batches,
            seed=self.seed,
            deterministic=self.deterministic,
        )
        return ProvenanceSaveInfo(
            base_model_id=self.base_model_id,
            train_service=self.train_service,
            train_spec=spec,
            rng_state=self._rng_state,
            dataset_dir=self.dataset_dir,
            dataset_reference=self.dataset_reference,
            use_case=use_case,
            expected_model=trained_model,
        )
