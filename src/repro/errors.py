"""Base exception types shared by every repro subsystem.

This module is intentionally a leaf (no intra-package imports): the
storage substrates (:mod:`repro.filestore`, :mod:`repro.docstore`) need
the typed error hierarchy, but :mod:`repro.core` imports the file store,
so the common types must live below both.  :mod:`repro.core.errors`
re-exports everything here and adds the MMlib-level error types.

The two store errors split failures along the axis that matters for
callers: :class:`TransientStoreError` is *retryable* (the operation may
succeed if repeated), :class:`StoreCorruptionError` is not (the stored
bytes are wrong; retrying a read may help only when the corruption
happened in transit).  Both derive from :class:`OSError` as well, so
pre-existing handlers written against bare I/O errors keep working.
"""

from __future__ import annotations

__all__ = [
    "MMLibError",
    "TransientStoreError",
    "StoreCorruptionError",
    "QuorumWriteError",
    "DeadlineExceededError",
    "LayersNeededError",
    "OlderFormatError",
]


class MMLibError(Exception):
    """Base class for all MMlib errors."""


class TransientStoreError(MMLibError, OSError):
    """A storage operation failed in a way that a retry may fix.

    Raised for injected chaos faults (transient I/O errors, torn writes,
    document-store outages) and for real connection-level failures in the
    document-store client.  Retry policies treat this type as retryable.
    """


class QuorumWriteError(TransientStoreError):
    """A replicated write reached fewer members than its write quorum.

    Retryable: replicated chunk and blob writes are content-addressed or
    target a fixed id, so repeating the whole quorum write is idempotent —
    members that already hold the payload simply acknowledge again.
    """


class DeadlineExceededError(MMLibError, OSError):
    """An operation's deadline expired before it could complete.

    Deliberately *not* a :class:`TransientStoreError`: once the deadline
    is gone there is no time left to retry in, so retry policies must
    propagate this immediately instead of burning the remaining attempt
    budget.  The ``__cause__`` chain carries the last underlying failure
    (if any) for diagnosis.
    """


class StoreCorruptionError(MMLibError, OSError):
    """Stored or transferred bytes fail an integrity check.

    Raised when a blob's content digest, a chunk's content hash, or a
    manifest's structure does not match what was recorded at save time.
    Corruption *at rest* cannot be retried away; corruption *in transit*
    (a bad read) can, so read paths may re-fetch on this error.
    """


class LayersNeededError(MMLibError):
    """A save named layers by digest that the store cannot prove it holds.

    Raised by a digest-first save (a layer sent as its digest, its bytes
    left out) when a layer's chunk is gone, its source no longer names it,
    or the approach keeps no per-layer references.  Nothing was stored;
    ``layers`` lists the layer names whose bytes the caller must send.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        super().__init__(f"the store needs the bytes of layers {self.layers}")


class OlderFormatError(MMLibError):
    """``path`` — a store root or a log — holds a format an older release
    wrote; the open refused it before writing a byte.  ``mmlib import``
    converts a copy (DESIGN.md §11 "One import door")."""

    def __init__(self, path):
        self.path = path
        super().__init__(
            f"{path} holds a format an older release wrote; convert the "
            "deployment with `mmlib import NEW` and open NEW")
