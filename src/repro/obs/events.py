"""Structured event log for notable state transitions.

Metrics answer "how many / how long"; the event log answers "what
happened, in order, with what context".  Components emit flat records —
a ``kind`` plus keyword fields — for transitions worth replaying later:
retry attempts with their cause, fault injections, cache evictions,
degraded writes, quorum failures, fsck repairs, anti-entropy repairs.

Events are held in a bounded ring buffer (oldest evicted first) and
export as JSON-lines.  Timestamps come from the injectable clock so
fake-clock tests get deterministic event times too.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque

from .clock import Clock, SystemClock

__all__ = ["Event", "EventLog", "NullEventLog"]


class Event:
    """One structured record: kind, sequence number, timestamp, fields."""

    __slots__ = ("kind", "seq", "wall", "fields")

    def __init__(self, kind: str, seq: int, wall: float, fields: dict):
        self.kind = kind
        self.seq = seq
        self.wall = wall
        self.fields = fields

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seq": self.seq, "wall": self.wall, **self.fields}

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Event({self.kind!r}, seq={self.seq}, {self.fields})"


class EventLog:
    """Thread-safe bounded log of :class:`Event` records."""

    def __init__(self, clock: Clock | None = None, max_events: int = 4096):
        self.clock = clock or SystemClock()
        self._events: deque[Event] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    @property
    def enabled(self) -> bool:
        return True

    def emit(self, kind: str, /, **fields) -> None:
        event = Event(kind, 0, self.clock.now(), fields)
        with self._lock:
            event.seq = next(self._seq)
            self._events.append(event)

    def events(self, kind: str | None = None, last: int | None = None) -> list[Event]:
        """Recorded events oldest first; optionally one kind / the last N."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if last is not None:
            out = out[-last:]
        return out

    def count(self, kind: str) -> int:
        return len(self.events(kind=kind))

    def to_jsonl(self, kind: str | None = None, last: int | None = None) -> str:
        return "\n".join(json.dumps(e.to_dict(), sort_keys=True)
                         for e in self.events(kind=kind, last=last))

    def reset(self) -> None:
        with self._lock:
            self._events.clear()


class NullEventLog(EventLog):
    """Disabled event log: emit() is a no-op."""

    def __init__(self, clock: Clock | None = None):
        super().__init__(clock=clock, max_events=1)

    @property
    def enabled(self) -> bool:
        return False

    def emit(self, kind: str, /, **fields) -> None:
        pass

    def events(self, kind=None, last=None):
        return []
