"""Baseline approach (BA): complete, independent model snapshots (§3.1).

Every model is saved with its metadata (environment, base reference,
optional checksums), its architecture (code file + factory reference), and
a full serialization of its parameters.  Recovery never touches base-model
documents.
"""

from __future__ import annotations

from .abstract import AbstractSaveService
from .save_info import ModelSaveInfo
from .schema import APPROACH_BASELINE

__all__ = ["BaselineSaveService"]


class BaselineSaveService(AbstractSaveService):
    """Save/recover service implementing the baseline approach."""

    approach = APPROACH_BASELINE

    def _save_model(self, save_info: ModelSaveInfo) -> str:
        """Save a complete snapshot; returns the new model id."""
        save_info.validate()
        return self._save_snapshot(save_info, checksums=save_info.store_checksums)
