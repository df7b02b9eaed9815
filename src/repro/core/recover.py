"""Recovery results: the model plus how it was recovered and verified."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nn.modules import Module
from .save_info import ArchitectureRef

__all__ = ["RecoveredLayers", "RecoveredModelInfo", "StorageBreakdown"]


@dataclass
class RecoveredModelInfo:
    """Result of :meth:`AbstractSaveService.recover_model`.

    ``timings`` records the recovery phases measured by the paper's
    Figure 12: ``load`` (documents + files), ``recover`` (rebuild model and
    apply parameters/updates/training), ``check_env``, and ``check_hash``.
    ``verified`` is ``None`` when checksum verification was skipped.
    """

    model_id: str
    model: Module
    approach: str
    base_model_id: str | None
    use_case: str | None
    timings: dict[str, float] = field(default_factory=dict)
    verified: bool | None = None
    recovery_depth: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


@dataclass
class RecoveredLayers:
    """Result of :meth:`AbstractSaveService.recover_layers`: a model's
    parameters as a flat state, no model built.

    ``layers`` is the verified layer table — every layer's
    ``(name, digest)`` in state-dict order, the leaves of the stored
    Merkle root — or ``None`` when the recover was not verified.
    ``state`` holds every layer but those the caller said it holds.
    ``architecture()`` reads the architecture (its code file), for a caller
    that builds the model.
    """

    model_id: str
    state: "OrderedDict[str, np.ndarray]"
    layers: list[tuple[str, str]] | None
    verified: bool | None
    recovery_depth: int
    approach: str
    base_model_id: str | None
    use_case: str | None
    timings: dict[str, float]
    architecture: Callable[[], ArchitectureRef] = field(repr=False)


@dataclass
class StorageBreakdown:
    """Bytes consumed to save one model (excluding its base models).

    ``documents`` covers the model/environment/train-info/wrapper JSON
    documents; ``files`` maps file role (``parameters``, ``code``,
    ``dataset``, ``state``) to stored bytes.
    """

    model_id: str
    approach: str
    documents: int
    files: dict[str, int] = field(default_factory=dict)

    @property
    def file_bytes(self) -> int:
        return sum(self.files.values())

    @property
    def total(self) -> int:
        return self.documents + self.file_bytes
