"""Save intents: one record log per open file store.

A save is multi-step — records, refcounts, documents — so it records each
intent before the step it names, and a last entry when it is done:

    {"op": "chunk", "digest": "..."}        record newly written (a chunk,
                                            or a manifest under its file id)
    {"op": "refs", "digests": ["...", …]}   refcounts incremented (a file
                                            id among them: the file's own)
    {"op": "doc", "collection": "models", "doc_id": "..."}
    {"op": "commit"} / {"op": "discard"}    finished / rolled back

An open :class:`~repro.filestore.store.FileStore` keeps them in one
:class:`IntentLog`, ``journal/intents-<id>.log``: a
:class:`~repro.filestore.recordlog.RecordLog` of ``{"save", "entries"}``
records, one per batch.  Its first save creates it — a save creates no
file — it is rewritten with one record per open save once it outgrows
:data:`INTENT_DEAD_FLOOR`, and :meth:`IntentLog.close` deletes it when no
save in it is open.  Its instance is its one writer.  A save with no last
entry crashed: ``fsck`` rolls it back, newest step first, and deletes the
logs of other instances that hold no open save.  An older release's one
file per save, ``journal/save-<id>.jsonl`` (its ``{"op": "blob",
"file_id": ...}``: a file the store imports as a record on open), reads as
a log of that one save.  Appends are not fsynced: an unrecorded step is at
worst an orphan the refcount cross-check repairs.  So is every step of a
damaged log, which fsck reports and deletes without rolling anything back:
a save whose commit the damage hid must not be undone.
"""

from __future__ import annotations

import json
import threading
import uuid
from pathlib import Path

from ..errors import StoreCorruptionError
from .recordlog import RecordLog

__all__ = ["IntentLog", "SaveJournal", "INTENT_DEAD_FLOOR"]

#: The intent log is rewritten once it is past this size and twice what
#: it held after its last rewrite.
INTENT_DEAD_FLOOR = 16 * 1024


class SaveJournal:
    """One save's intents: a view over the log that holds them."""

    #: Set on the stand-in fsck lists for a damaged log.
    damage: str | None = None

    def __init__(self, save_id: str, log: "IntentLog"):
        self.save_id = save_id
        self.entries: list[dict] = []
        self._log = log

    def record(self, op: str, **fields) -> None:
        """Append one intent."""
        self.record_many([{"op": op, **fields}])

    def record_many(self, entries: list[dict]) -> None:
        """Append a batch of intents as one record (one write)."""
        if entries:
            self._log.append(self, entries)

    def commit(self) -> None:
        """Mark the save complete."""
        self._log.end(self, "commit")

    def discard(self) -> None:
        """End the save without touching any recorded state."""
        self._log.end(self, "discard")


class IntentLog:
    """The intents of one file store's saves (see the module docstring).

    Thread-safe: the concurrent saves of one store share it.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._owned = True  # False: another instance's, read by fsck
        self._log = RecordLog(self.path)
        self._lock = threading.RLock()
        self._open: dict[str, SaveJournal] = {}

    @classmethod
    def create(cls, directory: Path) -> "IntentLog":
        """An instance's log; its first save writes the file."""
        return cls(Path(directory) / f"intents-{uuid.uuid4().hex[:16]}.log")

    @classmethod
    def load(cls, path: Path) -> "IntentLog":
        """Another instance's log, or an older release's journal file.  A
        damaged one holds one stand-in save, whose ``damage`` says why."""
        log = cls(path)
        log._owned = False
        try:
            records = log._log.replay()
        except StoreCorruptionError as error:
            records = []
            log._open[path.name] = stand_in = SaveJournal(path.name, log)
            stand_in.damage = str(error)
        log._log.close()
        for record in records:
            save_id = record.get("save", log.path.stem)
            journal = log._open.setdefault(save_id, SaveJournal(save_id, log))
            journal.entries.extend(record["entries"] if "save" in record else [record])
            if journal.entries[-1].get("op") in ("commit", "discard"):
                del log._open[save_id]
        return log

    def begin(self) -> SaveJournal:
        """A new save's journal; it writes nothing before its first intent."""
        with self._lock:
            if self._log.size and not self.path.exists():
                # fsck took this log for a dead instance's: write it anew
                self._rewrite()
        return SaveJournal(f"save-{uuid.uuid4().hex[:16]}", self)

    def open_saves(self) -> list[SaveJournal]:
        with self._lock:
            return list(self._open.values())

    def _rewrite(self) -> None:
        self._log.rewrite([self._encode(j, j.entries) for j in self._open.values()])

    @staticmethod
    def _encode(journal: SaveJournal, entries: list[dict]) -> bytes:
        return json.dumps({"save": journal.save_id, "entries": entries}, sort_keys=True).encode()

    def append(self, journal: SaveJournal, entries: list[dict]) -> None:
        with self._lock:  # a rewrite re-encodes the open saves' entries
            journal.entries.extend(entries)
            self._open[journal.save_id] = journal
            self._log.append([self._encode(journal, entries)])

    def end(self, journal: SaveJournal, op: str) -> None:
        """Close ``journal``'s save; one that recorded nothing writes nothing."""
        with self._lock:
            journal.entries.append({"op": op})
            if self._open.pop(journal.save_id, None) is None:
                return
            self._log.append([self._encode(journal, [{"op": op}])])
            if not self._owned:
                self.close()
            elif self._log.outgrown(INTENT_DEAD_FLOOR):
                self._rewrite()

    def close(self) -> None:
        """Release the file, deleting it when no save in it is open."""
        with self._lock:
            if self._open:
                self._log.close()
            else:
                self._log.remove()


def incomplete_saves(directory: Path, own: IntentLog, active: str | None) -> list[SaveJournal]:
    """Every save under ``directory`` that did not finish — ``own``'s but
    ``active`` (the calling thread's), another log's, an older release's —
    deleting the other logs that hold none."""
    journals = [j for j in own.open_saves() if j.save_id != active]
    for path in sorted([*directory.glob("intents-*.log"), *directory.glob("save-*.jsonl")]):
        if path != own.path:
            log = IntentLog.load(path)
            if not log.open_saves():
                log.close()  # deletes it
            journals.extend(log.open_saves())
    return journals
