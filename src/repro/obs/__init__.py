"""repro.obs — unified observability plane (metrics, traces, events).

Three primitives share one injectable clock:

* :class:`~repro.obs.metrics.Registry` — labeled counters / gauges /
  histograms with JSON and Prometheus-text exporters.
* :class:`~repro.obs.trace.Tracer` — hierarchical spans over the full
  save/recover request paths, ring-buffered, JSON-lines export.
* :class:`~repro.obs.events.EventLog` — structured records of notable
  transitions (retries, faults, evictions, degraded writes, repairs).

The module holds process-wide defaults; instrumented components read
them at construction (``obs.registry().counter(...)``) and cache the
handles, so per-operation cost is one attribute access plus one locked
increment.  Setting ``REPRO_OBS=off`` in the environment (or calling
:func:`set_enabled` with ``False``) swaps the defaults for shared null
objects whose methods are no-ops — instrumentation compiles down to
near-zero cost.

This package is a leaf: it imports nothing from the rest of ``repro``,
so any module may depend on it without cycles.
"""

from __future__ import annotations

import os

from .clock import Clock, FakeClock, SystemClock
from .events import Event, EventLog, NullEventLog
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
)
from .trace import NullTracer, Span, Tracer

__all__ = [
    "Clock", "SystemClock", "FakeClock",
    "Counter", "Gauge", "Histogram", "Registry", "NullRegistry", "DEFAULT_BUCKETS",
    "Span", "Tracer", "NullTracer",
    "Event", "EventLog", "NullEventLog",
    "enabled", "set_enabled", "configure",
    "registry", "tracer", "events", "clock",
    "counter", "gauge", "histogram", "span", "event",
    "reset", "preregister_default_families",
]

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "on").strip().lower() not in _OFF_VALUES


_clock: Clock = SystemClock()
_enabled: bool = _env_enabled()
if _enabled:
    _registry: Registry = Registry()
    _tracer: Tracer = Tracer(clock=_clock)
    _events: EventLog = EventLog(clock=_clock)
else:
    _registry = Registry.disabled()
    _tracer = NullTracer(clock=_clock)
    _events = NullEventLog(clock=_clock)


def enabled() -> bool:
    """Whether the process-wide defaults are live (vs null objects)."""
    return _enabled


_stashed: tuple | None = None


def set_enabled(value: bool) -> None:
    """Swap the process defaults between live and null implementations.

    Components cache instrument/tracer handles at construction, so this
    only affects components constructed afterwards — benchmarks that
    compare enabled vs disabled cost build their services inside each
    scope.  Disabling stashes the live instances; re-enabling restores
    them, so a disable/enable round trip does not lose accumulated
    metrics.
    """
    global _enabled, _registry, _tracer, _events, _stashed
    if value == _enabled:
        return
    _enabled = bool(value)
    if _enabled:
        if _stashed is not None:
            _registry, _tracer, _events = _stashed
            _stashed = None
        else:
            _registry = Registry()
            _tracer = Tracer(clock=_clock)
            _events = EventLog(clock=_clock)
    else:
        _stashed = (_registry, _tracer, _events)
        _registry = Registry.disabled()
        _tracer = NullTracer(clock=_clock)
        _events = NullEventLog(clock=_clock)


def configure(clock: Clock | None = None,
              max_spans: int = 2048,
              max_events: int = 4096) -> None:
    """Rebuild the live defaults (fresh, empty) around a given clock.

    Used by tests to install a :class:`FakeClock` behind every span and
    event timestamp.  No-op for the null defaults except the clock swap.
    """
    global _clock, _registry, _tracer, _events
    if clock is not None:
        _clock = clock
    if _enabled:
        _registry = Registry()
        _tracer = Tracer(clock=_clock, max_spans=max_spans)
        _events = EventLog(clock=_clock, max_events=max_events)
    else:
        _tracer = NullTracer(clock=_clock)
        _events = NullEventLog(clock=_clock)


def registry() -> Registry:
    return _registry


def tracer() -> Tracer:
    return _tracer


def events() -> EventLog:
    return _events


def clock() -> Clock:
    return _clock


# -- convenience pass-throughs (module-default instances) -------------------

def counter(name: str, help: str = "", **labels) -> Counter:
    return _registry.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels) -> Gauge:
    return _registry.gauge(name, help, **labels)


def histogram(name: str, help: str = "", buckets=None, **labels) -> Histogram:
    return _registry.histogram(name, help, buckets=buckets, **labels)


def span(name: str, **attrs):
    return _tracer.span(name, **attrs)


def event(kind: str, /, **fields) -> None:
    _events.emit(kind, **fields)


def reset() -> None:
    """Zero metrics in place and clear span/event buffers.

    Metric handles cached by live components stay valid (values are
    zeroed, not replaced), so tests can reset between cases without
    rebuilding the object graph.
    """
    _registry.reset()
    _tracer.reset()
    _events.reset()


# -- default family pre-registration ---------------------------------------

def preregister_default_families(reg: Registry | None = None) -> None:
    """Ensure the core metric families exist (with zero values).

    ``mmlib stats`` calls this so the exposition output always covers the
    cache, retry, network, and quorum families even before any traffic.
    """
    reg = reg or _registry
    reg.counter("mmlib_chunk_cache_hits_total", "Chunk cache hits")
    reg.counter("mmlib_chunk_cache_misses_total", "Chunk cache misses")
    reg.counter("mmlib_chunk_cache_evictions_total", "Chunk cache LRU evictions")
    reg.counter("mmlib_chunk_cache_coalesced_total",
                "Chunk fetches coalesced by single-flight")
    reg.counter("mmlib_retry_attempts_total", "Retry attempts after failure", op="all")
    reg.counter("mmlib_retry_exhausted_total", "Calls that exhausted retries", op="all")
    reg.counter("mmlib_network_round_trips_total", "Simulated network round trips")
    reg.counter("mmlib_network_round_trips_saved_total",
                "Round trips avoided by request pipelining")
    reg.counter("mmlib_network_bytes_total", "Simulated bytes moved", direction="sent")
    reg.counter("mmlib_network_bytes_total", "Simulated bytes moved", direction="received")
    reg.counter("mmlib_cluster_quorum_write_failures_total",
                "Writes that missed quorum", plane="files")
    reg.counter("mmlib_cluster_degraded_writes_total",
                "Writes acked below full replication", plane="files")
    reg.counter("mmlib_cluster_failover_reads_total",
                "Reads served by a non-primary replica", plane="files")
    reg.counter("mmlib_cluster_read_repairs_total",
                "Replica copies healed during reads", plane="files")
    reg.gauge("mmlib_antientropy_backlog",
              "Keys known divergent and not yet healed")
    reg.counter("mmlib_antientropy_repairs_total",
                "Replica sets healed by the anti-entropy scanner")
    reg.counter("mmlib_gateway_connections_total", "Accepted gateway connections")
    for direction in ("in", "out"):
        reg.counter("mmlib_gateway_wire_bytes_total",
                    "Bytes of gateway frames (header line + payload)",
                    direction=direction)
    reg.counter("mmlib_gateway_requests_total",
                "Gateway requests by op, tenant, and outcome status",
                op="all", tenant="all", status="ok")
    reg.histogram("mmlib_gateway_request_seconds",
                  "Gateway request latency from admission to response",
                  op="all", tenant="all")
    reg.gauge("mmlib_gateway_queue_depth",
              "Admitted-but-unfinished gateway requests", tenant="all")
    reg.counter("mmlib_gateway_admission_total", "Gateway admission decisions",
                tenant="all", outcome="admitted")
    reg.counter("mmlib_gateway_maintenance_total",
                "Idle-loop maintenance sweeps", kind="compaction")
    reg.gauge("mmlib_recovery_depth_max",
              "Deepest delta chain replayed by a recover")
