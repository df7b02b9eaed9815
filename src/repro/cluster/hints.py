"""Hinted handoff: durable IOUs for replicas missed by quorum writes.

A quorum write that reaches W-but-not-all owners used to leave only a
``degraded_keys`` breadcrumb — convergence then depended on someone
eventually running ``fsck --repair``.  Hinted handoff closes the loop
online: the coordinator records a durable *hint* for each missed
(member, key) pair, and the self-heal loop
(:meth:`SelfHealer.deliver_once
<repro.cluster.antientropy.SelfHealer.deliver_once>`) heals each hinted
key once the failure detector lets traffic through to that member again.

Each member's hints are one :class:`~repro.filestore.recordlog.RecordLog`,
``<root>/<member>.jsonl`` (DESIGN.md §18): a hint is a record, resolving
it appends a ``{"op": "resolved", ...}`` record, and the file is rewritten
with the pending hints only once it outgrows :data:`HINT_DEAD_FLOOR`
(:meth:`~repro.filestore.recordlog.RecordLog.outgrown`; deleted when
nothing is pending), so draining n hints writes O(n) bytes.  Appends are not fsynced — a lost tail
is re-created by the next degraded write or swept up by anti-entropy.
Records carry no payload — chunks are content-addressed, file ids embed
their digest, and documents live on the other owners — so delivery
re-reads verified bytes from a surviving replica at replay time.  That
makes hints tiny, idempotent, and safely replayable: a crash mid-delivery
just replays the hint, and re-applying an already-applied hint is a no-op.

No resurrection: document hints never carry the document body.  Delivery
is the versioned read of the document, which lands the highest-stamped
record of its owners, so replaying a hint for a document deleted
meanwhile lands its *tombstone* record rather than resurrecting the
document.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Mapping

from .. import obs
from ..filestore.recordlog import RecordLog

__all__ = ["HintLog", "hint_key"]

HINT_SUFFIX = ".jsonl"

#: A member's hint log is rewritten with its pending hints once it is past
#: this size and twice what it held after its last rewrite.
HINT_DEAD_FLOOR = 4096

#: Hint kinds and what ``key`` means for each.
KIND_CHUNK = "chunk"  # key = record key: chunk digest or file id
KIND_DOC = "doc"  # key = document ring key "<collection>/<doc_id>"


def hint_key(hint: Mapping) -> tuple:
    """Identity of a hint for dedup: same miss recorded twice is one IOU."""
    return (hint["kind"], hint["key"], hint.get("collection"))


def _encode(entry: Mapping) -> bytes:
    return json.dumps(entry, sort_keys=True).encode()


class HintLog:
    """Durable, deduplicated per-member hint files.

    Thread-safe; the write paths of both sharded stores append here from
    request threads while the self-heal loop drains concurrently.  The log is
    loaded from disk on construction, so hints survive coordinator
    restarts — delivery needs no memory of the write that created them.
    """

    def __init__(self, root: Path, clock=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock or obs.clock()
        self._lock = threading.RLock()
        self._hints: dict[str, dict[tuple, dict]] = {}  # member -> key -> hint
        self._logs: dict[str, RecordLog] = {}
        self._registry = obs.registry()
        self._events = obs.events()
        self.stats = {"recorded": 0, "duplicates": 0, "delivered": 0, "stale": 0}
        self._load()

    # -- persistence ---------------------------------------------------------

    def _log(self, member: str) -> RecordLog:
        return self._logs.setdefault(member, RecordLog(self.root / f"{member}{HINT_SUFFIX}"))

    def _load(self) -> None:
        for path in sorted(self.root.glob(f"*{HINT_SUFFIX}")):
            member = path.stem
            hints = self._hints.setdefault(member, {})
            for entry in self._log(member).replay():
                if entry.get("op") == "hint":
                    hints.setdefault(hint_key(entry), entry)
                elif entry.get("op") == "resolved":
                    hints.pop(hint_key(entry), None)
        for member, hints in self._hints.items():
            # prime the gauges so a reopened log exports its backlog
            self._gauge(member).set(len(hints))

    def _gauge(self, member: str):
        return self._registry.gauge(
            "mmlib_hints_pending",
            "Undelivered handoff hints per member", member=member)

    # -- recording -----------------------------------------------------------

    def record(self, member: str, kind: str, key: str,
               collection: str | None = None) -> bool:
        """Append one hint; returns ``False`` if the same IOU is pending."""
        hint = {"op": "hint", "kind": kind, "key": key,
                "recorded_at": self._clock.now()}
        if collection is not None:
            hint["collection"] = collection
        with self._lock:
            hints = self._hints.setdefault(member, {})
            if hint_key(hint) in hints:
                self.stats["duplicates"] += 1
                return False
            self.stats["recorded"] += 1
            self._log(member).append([_encode(hint)])
            hints[hint_key(hint)] = hint
            self._gauge(member).set(len(hints))
        self._registry.counter(
            "mmlib_hints_recorded_total", "Handoff hints recorded",
            kind=kind).inc()
        self._events.emit("hint_recorded", member=member, kind=kind, key=key)
        return True

    def resolve(self, member: str, hint: Mapping, stale: bool = False) -> None:
        """Drop one delivered (or stale) hint: one tombstone appended."""
        with self._lock:
            hints = self._hints.get(member, {})
            resolved = hints.pop(hint_key(hint), None)
            if resolved is None:
                return
            self.stats["stale" if stale else "delivered"] += 1
            log = self._log(member)
            if not hints:
                log.remove()
            else:
                log.append([_encode({**resolved, "op": "resolved"})])
                if log.outgrown(HINT_DEAD_FLOOR):
                    log.rewrite([_encode(h) for h in hints.values()])
            self._gauge(member).set(len(hints))
        self._registry.counter(
            "mmlib_hints_delivered_total", "Handoff hints resolved",
            outcome="stale" if stale else "delivered").inc()

    # -- queries -------------------------------------------------------------

    def pending(self, member: str | None = None) -> list[dict]:
        with self._lock:
            if member is not None:
                return [dict(h) for h in self._hints.get(member, {}).values()]
            return [
                dict(h) for name in sorted(self._hints)
                for h in self._hints[name].values()
            ]

    def pending_counts(self) -> dict[str, int]:
        with self._lock:
            return {
                name: len(hints)
                for name, hints in sorted(self._hints.items())
                if hints
            }

    def total_pending(self) -> int:
        with self._lock:
            return sum(len(hints) for hints in self._hints.values())

    def pending_bytes(self) -> int:
        """On-disk footprint of undelivered hints (stats surface)."""
        total = 0
        with self._lock:
            members = [m for m, hints in self._hints.items() if hints]
        for member in members:
            try:
                total += (self.root / f"{member}{HINT_SUFFIX}").stat().st_size
            except OSError:
                pass
        return total

    def members_with_hints(self) -> list[str]:
        with self._lock:
            return sorted(m for m, hints in self._hints.items() if hints)
