"""``repro.core`` — MMlib: the paper's model-management library.

Three approaches for saving and recovering exact deep-learning model
representations (baseline snapshots, parameter updates, model provenance),
plus the reproducibility probing tool and an adaptive approach selector.
"""

from .abstract import AbstractSaveService
from .adaptive import AdaptiveSaveService
from .baseline import BaselineSaveService
from .cache import RecoveryCache
from .compaction import ChainCompactor
from .dataset_manager import CODEC_DEFLATE, CODEC_STORED, DatasetManager
from .environment import (
    EnvironmentInfo,
    check_environment,
    check_lockfile,
    collect_environment,
    read_lockfile,
    write_lockfile,
)
from .errors import (
    EnvironmentMismatchError,
    MMLibError,
    ModelNotFoundError,
    RecoveryError,
    SaveError,
    StoreCorruptionError,
    TransientStoreError,
    VerificationError,
)
from .hashing import state_dict_hashes, state_dict_root_hash, tensor_hash
from .heuristics import (
    CostEstimate,
    CostModel,
    ScenarioProfile,
    recommend_approach,
    select_approach,
)
from .ids import is_model_id, new_model_id
from .manager import (
    DependentModelsError,
    FsckIssue,
    FsckReport,
    ModelManager,
    ModelRecord,
)
from .merkle import DiffResult, MerkleNode, MerkleTree
from .param_update import ParameterUpdateSaveService, extract_parameter_update
from .probe import (
    LayerRecord,
    ProbeComparison,
    ProbeSummary,
    probe_inference,
    probe_reproducibility,
    probe_training,
)
from .provenance import ProvenanceRecorder, ProvenanceSaveService
from .recover import RecoveredLayers, RecoveredModelInfo, StorageBreakdown
from .save_info import ArchitectureRef, ModelSaveInfo, ProvenanceSaveInfo, TrainRunSpec
from .schema import (
    APPROACH_BASELINE,
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
    APPROACHES,
)
from .train_service import ImageClassificationTrainService, TrainService
from .wrappers import RestorableObjectWrapper, StateFileRestorableObjectWrapper

__all__ = [
    "AbstractSaveService",
    "AdaptiveSaveService",
    "DependentModelsError",
    "FsckIssue",
    "ChainCompactor",
    "FsckReport",
    "ModelManager",
    "ModelRecord",
    "BaselineSaveService",
    "RecoveryCache",
    "CODEC_DEFLATE",
    "CODEC_STORED",
    "DatasetManager",
    "EnvironmentInfo",
    "check_environment",
    "check_lockfile",
    "collect_environment",
    "read_lockfile",
    "write_lockfile",
    "EnvironmentMismatchError",
    "MMLibError",
    "ModelNotFoundError",
    "RecoveryError",
    "SaveError",
    "StoreCorruptionError",
    "TransientStoreError",
    "VerificationError",
    "state_dict_hashes",
    "state_dict_root_hash",
    "tensor_hash",
    "CostEstimate",
    "CostModel",
    "ScenarioProfile",
    "recommend_approach",
    "select_approach",
    "is_model_id",
    "new_model_id",
    "DiffResult",
    "MerkleNode",
    "MerkleTree",
    "ParameterUpdateSaveService",
    "extract_parameter_update",
    "LayerRecord",
    "ProbeComparison",
    "ProbeSummary",
    "probe_inference",
    "probe_reproducibility",
    "probe_training",
    "ProvenanceRecorder",
    "ProvenanceSaveService",
    "RecoveredLayers",
    "RecoveredModelInfo",
    "StorageBreakdown",
    "ArchitectureRef",
    "ModelSaveInfo",
    "ProvenanceSaveInfo",
    "TrainRunSpec",
    "APPROACH_BASELINE",
    "APPROACH_PARAM_UPDATE",
    "APPROACH_PROVENANCE",
    "APPROACHES",
    "ImageClassificationTrainService",
    "TrainService",
    "RestorableObjectWrapper",
    "StateFileRestorableObjectWrapper",
]
