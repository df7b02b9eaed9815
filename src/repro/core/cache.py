"""Chain recovery cache: reuse recovered models across recoveries.

Recovering every model of a chain — the server's U_4 "monitor every
model" role, or an integrity sweep — re-resolves the shared prefix for
every model, and for the MPA re-runs every training along it.  A
:class:`RecoveryCache` passed to ``recover_model`` turns the sweep into
O(n) work.  The contract (DESIGN.md §16):

* a cached id **ends the chain walk**: the recover materialises the cached
  model and lays only the levels above it over it;
* the **recovered model is inserted** (with the chain's architecture
  reference), so the next model of the sweep ends on it;
* levels the walk merely passes through are never materialised, hence
  never inserted.

The cache stores copied state dicts, so recovered models never alias each
other; entries are keyed by model id and capped by ``max_entries`` (FIFO
eviction — chain sweeps touch ids in order, so FIFO keeps the hot prefix).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import obs
from ..nn.modules import Module
from .save_info import ArchitectureRef

__all__ = ["RecoveryCache"]


class RecoveryCache:
    """Memoized recovered models for chain-sweep recoveries.

    ``protect_prefix=True`` switches the at-capacity policy from
    evict-oldest to reject-new: a cold id arriving at a full cache is not
    admitted (and, crucially, its state dict is never deep-copied — the
    copy is the expensive part of a wasted insert).  Chain sweeps recover
    bases before derived models, so the oldest entries are exactly the
    prefix future recoveries need; protecting them keeps the sweep O(n)
    even when the catalog outgrows the cache.
    """

    def __init__(
        self,
        max_entries: int = 64,
        protect_prefix: bool = False,
        chunk_cache=None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.protect_prefix = protect_prefix
        #: optional :class:`~repro.filestore.store.ChunkCache` shared with
        #: the file store: model-level and chunk-level caching then form
        #: one recovery plane that :meth:`clear`/:meth:`stats` treat as a
        #: unit (a chain sweep that misses here still hits hot chunks)
        self.chunk_cache = chunk_cache
        self._states: "OrderedDict[str, tuple[dict, ArchitectureRef, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: at-capacity cold inserts skipped without copying (protect_prefix)
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

    def get(self, model_id: str) -> tuple[Module, int] | None:
        """Materialize a cached model (fresh instance, copied parameters)."""
        entry = self._states.get(model_id)
        if entry is None:
            self.misses += 1
            self._obs_misses.inc()
            return None
        self.hits += 1
        self._obs_hits.inc()
        state, architecture, depth = entry
        return architecture.build_from(state), depth

    def put(self, model_id: str, model: Module, architecture: ArchitectureRef, depth: int) -> None:
        """Store a recovered model's parameters for later reuse.

        The admission decision is made *before* any copying, so an insert
        the cache rejects (``protect_prefix`` at capacity) costs nothing.
        """
        if (
            self.protect_prefix
            and model_id not in self._states
            and len(self._states) >= self.max_entries
        ):
            self.skipped_inserts += 1
            return
        state = {key: _snapshot(value) for key, value in model.state_dict().items()}
        self._states[model_id] = (state, architecture, depth)
        while len(self._states) > self.max_entries:
            self._states.popitem(last=False)

    def architecture_of(self, model_id: str) -> ArchitectureRef | None:
        entry = self._states.get(model_id)
        return entry[1] if entry else None

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._states.clear()
        self.hits = 0
        self.misses = 0
        self.skipped_inserts = 0
        if self.chunk_cache is not None:
            self.chunk_cache.clear()

    def stats(self) -> dict:
        stats = {"entries": len(self._states), "hits": self.hits, "misses": self.misses}
        if self.chunk_cache is not None:
            stats["chunk_cache"] = self.chunk_cache.stats()
        return stats


def _snapshot(value):
    """Private anti-aliasing copy of one array.

    Already-contiguous arrays are copied with a single memcpy; everything
    else is normalized to C order in the same pass, so cached states are
    always contiguous and cache hits never pay a layout conversion.
    """
    if value.flags.c_contiguous:
        return value.copy()
    return np.ascontiguousarray(value)
