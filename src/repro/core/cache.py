"""MPA recovery cache: reuse replayed models across recoveries.

Recovering every model of an MPA chain — the server's U_4 "monitor every
model" role, or an integrity sweep — re-runs every training along the
shared prefix for every model.  A :class:`RecoveryCache` passed to
``recover_model`` turns the sweep into one replay per level.  The
contract (DESIGN.md §16):

* **only an MPA replay is cached**: a recover consults the cache for a
  ``provenance`` document and, on a miss, inserts the model its replay
  produced (with the architecture its base was built from);
* snapshots and PUA chains are neither consulted nor inserted — their
  recover is one merged read, which a private copy would not speed up.

The cache stores copied state dicts, so recovered models never alias each
other.  Entries are keyed by model id and capped by ``max_entries``; a
cold id arriving at a full cache is rejected before anything is copied.
Sweeps recover bases before the models derived from them, so the first
entries are exactly the prefix later recoveries need.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..nn.modules import Module
from .save_info import ArchitectureRef

__all__ = ["RecoveryCache"]


class RecoveryCache:
    """Memoized MPA replays for chain-sweep recoveries."""

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._states: dict[str, tuple[dict, ArchitectureRef, int]] = {}
        self.hits = 0
        self.misses = 0
        #: at-capacity cold inserts rejected without copying
        self.skipped_inserts = 0
        registry = obs.registry()
        self._obs_hits = registry.counter(
            "mmlib_recovery_cache_hits_total", "Recovery-cache model hits")
        self._obs_misses = registry.counter(
            "mmlib_recovery_cache_misses_total", "Recovery-cache model misses")

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._states

    def __len__(self) -> int:
        return len(self._states)

    def get(self, model_id: str) -> tuple[Module, int, ArchitectureRef] | None:
        """Materialize a cached model (fresh instance, copied parameters):
        ``(model, depth, architecture)``."""
        entry = self._states.get(model_id)
        if entry is None:
            self.misses += 1
            self._obs_misses.inc()
            return None
        self.hits += 1
        self._obs_hits.inc()
        state, architecture, depth = entry
        return architecture.build_from(state), depth, architecture

    def put(self, model_id: str, model: Module, architecture: ArchitectureRef, depth: int) -> None:
        """Store a recovered model's parameters for later reuse.

        The admission decision is made *before* any copying, so an insert
        the cache rejects (a cold id at capacity) costs nothing.
        """
        if model_id not in self._states and len(self._states) >= self.max_entries:
            self.skipped_inserts += 1
            return
        state = {key: _snapshot(value) for key, value in model.state_dict().items()}
        self._states[model_id] = (state, architecture, depth)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._states.clear()
        self.hits = 0
        self.misses = 0
        self.skipped_inserts = 0

    def stats(self) -> dict:
        return {"entries": len(self._states), "hits": self.hits, "misses": self.misses}


def _snapshot(value):
    """Private anti-aliasing copy of one array.

    Already-contiguous arrays are copied with a single memcpy; everything
    else is normalized to C order in the same pass, so cached states are
    always contiguous and cache hits never pay a layout conversion.
    """
    if value.flags.c_contiguous:
        return value.copy()
    return np.ascontiguousarray(value)
