"""Idle-loop background maintenance for the gateway.

First step toward the ROADMAP's TTR-driven compaction scheduler: instead
of a cron-style fixed cadence, the gateway compacts *when the obs plane
says recovery is getting expensive and the serving plane says it has
slack*.  Only MPA levels replay (a BA or PUA model is its own recovery
base).  The recovery path publishes the deepest chain it has replayed
(``mmlib_recovery_depth_max``, set in
:meth:`repro.core.abstract.AbstractSaveService.recover_model`); when that
high-water mark crosses the compaction threshold K and no requests are
in flight, the idle loop runs :class:`~repro.core.compaction.ChainCompactor`
over every tenant and resets the mark.

The hook runs on the gateway's worker pool (never the event loop), and
``min_interval_s`` stops a hot gauge from triggering back-to-back sweeps.
"""

from __future__ import annotations

import threading

from .. import obs
from ..core.compaction import DEFAULT_MAX_DEPTH, ChainCompactor

__all__ = ["IdleMaintenance", "RECOVERY_DEPTH_GAUGE"]

#: Family name of the recovery-depth high-water mark gauge.
RECOVERY_DEPTH_GAUGE = "mmlib_recovery_depth_max"


class IdleMaintenance:
    """Run chain compaction across tenants when the gateway goes idle.

    ``registry`` is a :class:`~repro.gateway.tenancy.TenantRegistry`;
    ``max_depth`` is the K threshold — both the trigger level for the
    depth gauge and the bound passed to the compactor.
    """

    def __init__(
        self,
        registry,
        max_depth: int = DEFAULT_MAX_DEPTH,
        min_interval_s: float = 5.0,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.registry = registry
        self.max_depth = max_depth
        self.min_interval_s = min_interval_s
        self._lock = threading.Lock()
        self._last_run: float | None = None
        metrics = obs.registry()
        self._depth_gauge = metrics.gauge(
            RECOVERY_DEPTH_GAUGE, "Deepest delta chain replayed by a recover"
        )
        self._obs_runs = metrics.counter(
            "mmlib_gateway_maintenance_total",
            "Idle-loop maintenance sweeps",
            kind="compaction",
        )
        self.runs = 0
        self.compacted_models = 0

    def due(self) -> bool:
        """True when the depth mark crossed K and the cooldown elapsed."""
        if self._depth_gauge.value < self.max_depth:
            return False
        if self._last_run is None:
            return True
        return obs.clock().perf() - self._last_run >= self.min_interval_s

    def maybe_run(self) -> int:
        """Compact if :meth:`due`; returns models compacted this sweep.

        Serialized by an internal lock — concurrent idle polls collapse
        to one sweep.  The depth mark is reset *after* a successful
        sweep, so a failure leaves the trigger armed for the next idle
        window.
        """
        if not self.due():
            return 0
        with self._lock:
            if not self.due():  # lost the race to a concurrent sweep
                return 0
            compacted = 0
            for tenant in self.registry.tenants():
                compactor = ChainCompactor(
                    tenant.service, max_depth=self.max_depth
                )
                report = compactor.run()
                compacted += len(report["materialized"])
            self._depth_gauge.set(0)
            self._last_run = obs.clock().perf()
            self.runs += 1
            self.compacted_models += compacted
            self._obs_runs.inc()
            obs.events().emit(
                "gateway.maintenance.compacted",
                models=compacted,
                max_depth=self.max_depth,
            )
            return compacted
