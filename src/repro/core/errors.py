"""Exception hierarchy for MMlib.

The root :class:`MMLibError` and the storage-level errors live in the
package-leaf :mod:`repro.errors` (the file store cannot import this
module without a cycle); they are re-exported here so MMlib callers keep
one import site for the whole hierarchy.
"""

from __future__ import annotations

from ..errors import (
    LayersNeededError,
    MMLibError,
    QuorumWriteError,
    StoreCorruptionError,
    TransientStoreError,
)

__all__ = [
    "MMLibError",
    "TransientStoreError",
    "StoreCorruptionError",
    "QuorumWriteError",
    "LayersNeededError",
    "ModelNotFoundError",
    "EnvironmentMismatchError",
    "VerificationError",
    "RecoveryError",
    "SaveError",
]


class ModelNotFoundError(MMLibError):
    """Raised when a requested model id is unknown to the save service."""


class EnvironmentMismatchError(MMLibError):
    """Raised when the current environment differs from the saved one.

    Recovering a model in a different environment cannot guarantee exact
    reproduction (paper Section 2.3: floating-point behaviour may differ
    across software/hardware stacks).
    """


class VerificationError(MMLibError):
    """Raised when a recovered model fails its checksum verification."""


class RecoveryError(MMLibError):
    """Raised when model recovery fails structurally (bad refs, cycles)."""


class SaveError(MMLibError):
    """Raised when a model cannot be saved (bad save info, missing base)."""
