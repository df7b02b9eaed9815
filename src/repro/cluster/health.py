"""Per-member failure detection: scoreboard, flap damping, circuit breaker.

The sharded stores learn about member health twice over: every quorum
write and failover read reports its per-replica outcome here, and the
self-heal loop (:meth:`SelfHealer.probe_once
<repro.cluster.antientropy.SelfHealer.probe_once>`) adds cheap periodic
probes so an idle cluster still notices a death.  The detector turns that stream into one of three
states per member:

``healthy``
    No recent failures; requests flow normally.
``suspect``
    Mixed signals — some failures since the last full recovery.  Requests
    still flow (the member may only be slow), but the scoreboard shows
    the streaks.
``down``
    ``failure_threshold`` failures accumulated without a full recovery.
    The member's circuit breaker opens: :meth:`FailureDetector.allow`
    fast-fails requests for ``breaker_cooldown_s``, then admits a single
    half-open trial.  A trial success moves the member back through
    ``suspect`` (``recovery_threshold`` consecutive successes reach
    ``healthy``); a trial failure re-trips the breaker.

Flap damping: each re-trip within ``flap_window_s`` of the previous one
doubles the cooldown (capped at ``max_cooldown_s``), so a member cycling
up and down pays exponentially growing quiet periods instead of dragging
every quorum write through its death throes.  A trip after a long stable
stretch resets the cooldown to its base value.

The scoreboard is exposed as obs gauges (``mmlib_member_state``, plus
fast-fail and trip counters) and as :meth:`FailureDetector.snapshot` for
``mmlib stats``.
"""

from __future__ import annotations

import threading

from .. import obs

__all__ = [
    "STATE_HEALTHY",
    "STATE_SUSPECT",
    "STATE_DOWN",
    "FailureDetector",
]

STATE_HEALTHY = "healthy"
STATE_SUSPECT = "suspect"
STATE_DOWN = "down"

#: Gauge encoding for the member-state metric.
_STATE_VALUES = {STATE_HEALTHY: 0, STATE_SUSPECT: 1, STATE_DOWN: 2}


class _Member:
    """Mutable scoreboard entry for one member (guarded by the detector)."""

    __slots__ = (
        "state", "failure_streak", "success_streak", "trips",
        "open_until", "cooldown_s", "last_trip_at", "probing",
        "last_failure_at", "last_success_at",
    )

    def __init__(self) -> None:
        self.state = STATE_HEALTHY
        self.failure_streak = 0
        self.success_streak = 0
        self.trips = 0
        self.open_until = 0.0
        self.cooldown_s = 0.0  # set on first trip
        self.last_trip_at: float | None = None
        self.probing = False  # a half-open trial is in flight
        self.last_failure_at: float | None = None
        self.last_success_at: float | None = None


class FailureDetector:
    """Health scoreboard + circuit breaker over named cluster members.

    Outcome feeding is push-based (:meth:`record_success` /
    :meth:`record_failure`) so the detector needs no knowledge of what a
    member *is* — file store, document store, or both report into the
    same entry, keyed by member name.  One detector instance is meant to
    be shared by every sharded layer of a deployment.
    """

    def __init__(
        self,
        members=(),
        failure_threshold: int = 3,
        recovery_threshold: int = 2,
        breaker_cooldown_s: float = 0.5,
        max_cooldown_s: float = 30.0,
        flap_window_s: float = 60.0,
        clock=None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_threshold < 1:
            raise ValueError("recovery_threshold must be >= 1")
        if breaker_cooldown_s < 0 or max_cooldown_s < breaker_cooldown_s:
            raise ValueError(
                "need 0 <= breaker_cooldown_s <= max_cooldown_s, got "
                f"{breaker_cooldown_s}/{max_cooldown_s}"
            )
        self.failure_threshold = int(failure_threshold)
        self.recovery_threshold = int(recovery_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.max_cooldown_s = float(max_cooldown_s)
        self.flap_window_s = float(flap_window_s)
        self._clock = clock or obs.clock()
        self._lock = threading.RLock()
        self._members: dict[str, _Member] = {}
        self._registry = obs.registry()
        self._events = obs.events()
        for name in members:
            self.add_member(name)

    # -- membership ----------------------------------------------------------

    def add_member(self, name: str) -> None:
        with self._lock:
            if name not in self._members:
                self._members[name] = _Member()
                self._gauge(name).set(_STATE_VALUES[STATE_HEALTHY])

    def remove_member(self, name: str) -> None:
        with self._lock:
            self._members.pop(name, None)

    def members(self) -> list[str]:
        with self._lock:
            return sorted(self._members)

    def _entry(self, name: str) -> _Member:
        entry = self._members.get(name)
        if entry is None:
            entry = self._members[name] = _Member()
            self._gauge(name).set(_STATE_VALUES[STATE_HEALTHY])
        return entry

    # -- obs helpers ---------------------------------------------------------

    def _gauge(self, name: str):
        return self._registry.gauge(
            "mmlib_member_state",
            "Member health (0 healthy, 1 suspect, 2 down)", member=name)

    def _set_state(self, name: str, entry: _Member, state: str) -> None:
        if entry.state == state:
            return
        entry.state = state
        self._gauge(name).set(_STATE_VALUES[state])
        self._events.emit("member_state", member=name, state=state)

    # -- outcome feed --------------------------------------------------------

    def record_success(self, name: str) -> None:
        """One operation against ``name`` succeeded."""
        with self._lock:
            entry = self._entry(name)
            now = self._clock.perf()
            entry.last_success_at = now
            entry.probing = False
            entry.success_streak += 1
            if entry.state == STATE_DOWN:
                # half-open trial succeeded: tentatively re-admit traffic
                self._set_state(name, entry, STATE_SUSPECT)
            if (
                entry.state == STATE_SUSPECT
                and entry.success_streak >= self.recovery_threshold
            ):
                entry.failure_streak = 0
                self._set_state(name, entry, STATE_HEALTHY)

    def record_failure(self, name: str) -> None:
        """One operation against ``name`` failed member-unreachably.

        Only *unreachability* belongs here — a member that answered with
        corrupt bytes is alive, and marking it down would hide the copy
        that anti-entropy must overwrite.
        """
        with self._lock:
            entry = self._entry(name)
            now = self._clock.perf()
            entry.last_failure_at = now
            entry.success_streak = 0
            entry.failure_streak += 1
            probing = entry.probing
            entry.probing = False
            if entry.state == STATE_HEALTHY:
                self._set_state(name, entry, STATE_SUSPECT)
            if entry.state == STATE_DOWN or (
                entry.failure_streak >= self.failure_threshold or probing
            ):
                self._trip(name, entry, now)

    def _trip(self, name: str, entry: _Member, now: float) -> None:
        """Open (or re-open) the breaker, doubling the cooldown on flaps."""
        if (
            entry.last_trip_at is not None
            and now - entry.last_trip_at <= self.flap_window_s
            and entry.cooldown_s > 0
        ):
            entry.cooldown_s = min(self.max_cooldown_s, entry.cooldown_s * 2)
        else:
            entry.cooldown_s = self.breaker_cooldown_s
        entry.last_trip_at = now
        entry.open_until = now + entry.cooldown_s
        entry.trips += 1
        first_trip = entry.state != STATE_DOWN
        self._set_state(name, entry, STATE_DOWN)
        if first_trip:
            self._registry.counter(
                "mmlib_member_breaker_trips_total",
                "Circuit-breaker trips", member=name).inc()

    # -- breaker gate --------------------------------------------------------

    def allow(self, name: str) -> bool:
        """Whether a request should be sent to ``name`` right now.

        ``healthy``/``suspect`` members always admit.  A ``down``
        member fast-fails until its cooldown elapses, then admits exactly
        one half-open trial (concurrent callers keep fast-failing while
        the trial is in flight); the trial's recorded outcome closes or
        re-opens the breaker.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.state != STATE_DOWN:
                return True
            now = self._clock.perf()
            if now < entry.open_until or entry.probing:
                self._registry.counter(
                    "mmlib_member_fast_fails_total",
                    "Requests fast-failed by an open breaker",
                    member=name).inc()
                return False
            entry.probing = True  # half-open: admit one trial
            return True

    def state(self, name: str) -> str:
        with self._lock:
            return self._entry(name).state

    def is_healthy(self, name: str) -> bool:
        return self.state(name) == STATE_HEALTHY

    def down_members(self) -> list[str]:
        with self._lock:
            return sorted(
                name for name, entry in self._members.items()
                if entry.state == STATE_DOWN
            )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able scoreboard for ``mmlib stats`` / bench reports."""
        with self._lock:
            now = self._clock.perf()
            return {
                name: {
                    "state": entry.state,
                    "failure_streak": entry.failure_streak,
                    "success_streak": entry.success_streak,
                    "breaker_trips": entry.trips,
                    "breaker_open_for_s": max(0.0, entry.open_until - now)
                    if entry.state == STATE_DOWN
                    else 0.0,
                    "cooldown_s": entry.cooldown_s,
                }
                for name, entry in sorted(self._members.items())
            }
