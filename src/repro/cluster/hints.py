"""Hinted handoff: durable IOUs for replicas missed by quorum writes.

A quorum write that reaches W-but-not-all owners used to leave only a
``degraded_keys`` breadcrumb — convergence then depended on someone
eventually running ``fsck --repair``.  Hinted handoff closes the loop
online: the coordinator records a durable *hint* for each missed
(member, key) pair, and a background :class:`HintDeliverer` replays the
hints once the failure detector lets traffic through to that member
again.

Hints reuse the intent-journal idiom (:mod:`repro.filestore.journal`):
one JSON object per line, appends flushed, a torn final line parsed as
"skip the tail".  One file per target member under ``<root>/<member>.jsonl``
keeps "what does m2 still owe?" a single-file read.  Records carry no
payload — chunks are content-addressed, file ids embed their digest, and
documents live on the other owners — so delivery re-reads verified bytes
from a surviving replica at replay time.  That makes hints tiny,
idempotent, and safely replayable: a crash mid-delivery just replays the
hint, and re-applying an already-applied hint is a no-op.

Tombstone safety: document hints never carry the document body.  The
delivery applier consults the tombstone collection first, so replaying a
hint for a document that was deleted meanwhile propagates the *tombstone*
rather than resurrecting the document.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Mapping

from .. import obs
from ..errors import TransientStoreError
from ..filestore.journal import SaveJournal

__all__ = ["HintLog", "HintDeliverer", "hint_key"]

HINT_SUFFIX = ".jsonl"

#: Hint kinds and what ``key`` means for each.
KIND_CHUNK = "chunk"  # key = record key: chunk digest or file id
KIND_DOC = "doc"  # key = document ring key "<collection>/<doc_id>"


def hint_key(hint: Mapping) -> tuple:
    """Identity of a hint for dedup: same miss recorded twice is one IOU."""
    return (hint["kind"], hint["key"], hint.get("collection"))


class HintLog:
    """Durable, deduplicated per-member hint files.

    Thread-safe; the write paths of both sharded stores append here from
    request threads while the deliverer drains concurrently.  The log is
    loaded from disk on construction, so hints survive coordinator
    restarts — delivery needs no memory of the write that created them.
    """

    def __init__(self, root: Path, clock=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock or obs.clock()
        self._lock = threading.RLock()
        self._hints: dict[str, list[dict]] = {}
        self._seen: dict[str, set[tuple]] = {}
        self._registry = obs.registry()
        self._events = obs.events()
        self.stats = {"recorded": 0, "duplicates": 0, "delivered": 0, "stale": 0}
        self._load()

    # -- persistence ---------------------------------------------------------

    def _path(self, member: str) -> Path:
        return self.root / f"{member}{HINT_SUFFIX}"

    def _load(self) -> None:
        for path in sorted(self.root.glob(f"*{HINT_SUFFIX}")):
            member = path.stem
            # SaveJournal.load gives us the torn-tail-tolerant line parse
            for entry in SaveJournal.load(path).entries:
                if entry.get("op") != "hint":
                    continue
                self._remember(member, entry)
        for member, hints in self._hints.items():
            # prime the gauges so a reopened log exports its backlog
            self._gauge(member).set(len(hints))

    def _remember(self, member: str, hint: dict) -> bool:
        seen = self._seen.setdefault(member, set())
        key = hint_key(hint)
        if key in seen:
            return False
        seen.add(key)
        self._hints.setdefault(member, []).append(hint)
        return True

    def _gauge(self, member: str):
        return self._registry.gauge(
            "mmlib_hints_pending",
            "Undelivered handoff hints per member", member=member)

    def _rewrite(self, member: str) -> None:
        """Persist the in-memory hint list for ``member`` atomically."""
        path = self._path(member)
        hints = self._hints.get(member, [])
        if not hints:
            path.unlink(missing_ok=True)
            return
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w") as handle:
            for hint in hints:
                handle.write(json.dumps(hint, sort_keys=True) + "\n")
            handle.flush()
        tmp.replace(path)

    # -- recording -----------------------------------------------------------

    def record(self, member: str, kind: str, key: str,
               collection: str | None = None) -> bool:
        """Append one hint; returns ``False`` if the same IOU is pending."""
        hint = {"op": "hint", "kind": kind, "key": key,
                "recorded_at": self._clock.now()}
        if collection is not None:
            hint["collection"] = collection
        with self._lock:
            if not self._remember(member, hint):
                self.stats["duplicates"] += 1
                return False
            self.stats["recorded"] += 1
            path = self._path(member)
            # same append discipline as the save journal: flushed, not
            # fsynced — a lost tail is re-created by the next degraded
            # write or swept up by anti-entropy
            with open(path, "a") as handle:
                handle.write(json.dumps(hint, sort_keys=True) + "\n")
                handle.flush()
            self._gauge(member).set(len(self._hints[member]))
        self._registry.counter(
            "mmlib_hints_recorded_total", "Handoff hints recorded",
            kind=kind).inc()
        self._events.emit("hint_recorded", member=member, kind=kind, key=key)
        return True

    def resolve(self, member: str, hint: Mapping, stale: bool = False) -> None:
        """Drop one delivered (or stale) hint and persist the remainder."""
        with self._lock:
            hints = self._hints.get(member, [])
            key = hint_key(hint)
            kept = [h for h in hints if hint_key(h) != key]
            if len(kept) == len(hints):
                return
            self._hints[member] = kept
            self._seen.get(member, set()).discard(key)
            self.stats["stale" if stale else "delivered"] += 1
            self._rewrite(member)
            self._gauge(member).set(len(kept))
        self._registry.counter(
            "mmlib_hints_delivered_total", "Handoff hints resolved",
            outcome="stale" if stale else "delivered").inc()

    # -- queries -------------------------------------------------------------

    def pending(self, member: str | None = None) -> list[dict]:
        with self._lock:
            if member is not None:
                return [dict(h) for h in self._hints.get(member, [])]
            return [
                dict(h) for name in sorted(self._hints)
                for h in self._hints[name]
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
                total += self._path(member).stat().st_size
            except OSError:
                pass
        return total

    def members_with_hints(self) -> list[str]:
        with self._lock:
            return sorted(m for m, hints in self._hints.items() if hints)


class HintDeliverer:
    """Background replayer draining a :class:`HintLog` into live members.

    ``appliers`` maps hint kind → ``callable(member, hint) -> bool``:

    - return ``True``: applied — the member now has the data (or already
      had it); the hint is resolved.
    - return ``False``: stale — the hint no longer makes sense (data
      garbage-collected, member no longer an owner after a rebalance);
      resolved without delivery.
    - raise ``OSError``/``KeyError``: the member (or the source replica)
      is still unreachable; the hint stays, the failure feeds the
      detector, and the rest of that member's batch is skipped.

    Delivery is gated on the failure detector's breaker, so a member that
    is still down costs one fast skip per round, not one timeout per
    pending hint.
    """

    def __init__(
        self,
        log: HintLog,
        detector,
        appliers: Mapping[str, Callable[[str, Mapping], bool]],
        interval_s: float = 0.25,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.log = log
        self.detector = detector
        self.appliers = dict(appliers)
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._events = obs.events()
        self.stats = {"rounds": 0, "delivered": 0, "stale": 0,
                      "failures": 0, "skipped_down": 0, "unknown_kind": 0}

    def deliver_once(self) -> dict:
        """One delivery round over every member with pending hints."""
        round_stats = {"delivered": 0, "stale": 0, "failures": 0,
                       "skipped_down": 0}
        for member in self.log.members_with_hints():
            if self.detector is not None and not self.detector.allow(member):
                round_stats["skipped_down"] += 1
                continue
            for hint in self.log.pending(member):
                applier = self.appliers.get(hint.get("kind"))
                if applier is None:
                    self.stats["unknown_kind"] += 1
                    continue
                try:
                    applied = applier(member, hint)
                except (OSError, KeyError):
                    round_stats["failures"] += 1
                    if self.detector is not None:
                        self.detector.record_failure(member)
                    break  # member (or source) still sick: stop this batch
                self.log.resolve(member, hint, stale=not applied)
                round_stats["delivered" if applied else "stale"] += 1
                if applied and self.detector is not None:
                    self.detector.record_success(member)
        self.stats["rounds"] += 1
        for key in ("delivered", "stale", "failures", "skipped_down"):
            self.stats[key] += round_stats[key]
        if round_stats["delivered"] or round_stats["stale"]:
            self._events.emit("hints_delivered", **round_stats)
        return round_stats

    def drain(self, max_rounds: int = 100) -> bool:
        """Deliver until the log is empty or a round makes no progress.

        Returns ``True`` when every hint is resolved.  Used by ``fsck``'s
        repair mode and by chaos runs to measure convergence; steady-state
        operation uses the background thread instead.
        """
        for _ in range(max_rounds):
            if self.log.total_pending() == 0:
                return True
            result = self.deliver_once()
            if result["delivered"] == 0 and result["stale"] == 0:
                break
        return self.log.total_pending() == 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HintDeliverer":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mmlib-hint-deliverer", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.deliver_once()
            except TransientStoreError:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
