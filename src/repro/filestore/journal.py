"""Per-save write-ahead intent journals for crash-consistent saves.

A save that touches the shared stores is multi-step: records, refcounts,
documents.  A crash between any two steps would leak half a model.
Each save therefore appends its intents to a journal file under
``<store root>/journal/<save id>.jsonl`` — one JSON object per line — and
deletes the journal only after the final commit marker:

    {"op": "chunk", "digest": "..."}        record newly written (a chunk,
                                            or a manifest under its file id)
    {"op": "refs", "digests": ["...", …]}   refcounts incremented (a file
                                            id among them: the file's own)
    {"op": "doc", "collection": "models", "doc_id": "..."}
    {"op": "commit"}

Journals older releases wrote may also hold ``{"op": "blob", "file_id":
"..."}``: a file written to the store root, which the store imports as a
record on open; rolling it back releases and drops that record.

A journal still present on disk is a save that did not finish: either it
lacks the commit marker (crashed mid-save → roll the steps back, newest
first) or it has one (crashed between commit and unlink → nothing to
undo).  ``fsck`` drives that recovery; the file store only provides the
mechanics.

A save opens its journal once (``O_CREAT|O_EXCL|O_APPEND``) and keeps the
descriptor until it commits or is discarded.  Each append is one
unbuffered ``os.write`` (a save's chunk intents as one batch after its
puts: a crash in between leaves refcount-0 orphans for the sweep below),
so a process crash loses nothing already recorded; a torn final line
(the crash hit the journal write itself) parses as "skip the tail",
which is safe because an unrecorded step is at worst an orphan the
refcount cross-check repairs.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

__all__ = ["SaveJournal", "JOURNAL_SUFFIX"]

JOURNAL_SUFFIX = ".jsonl"


class SaveJournal:
    """Append-only intent log for one in-flight save."""

    _FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND

    def __init__(self, path: Path, entries: list[dict] | None = None):
        self.path = Path(path)
        self.entries: list[dict] = list(entries or [])
        self._fd: int | None = None  # open from create() to commit/close

    @classmethod
    def create(cls, directory: Path) -> "SaveJournal":
        directory = Path(directory)
        path = directory / f"save-{uuid.uuid4().hex[:16]}{JOURNAL_SUFFIX}"
        try:
            fd = os.open(path, cls._FLAGS, 0o666)
        except FileNotFoundError:  # the first save into this store
            directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, cls._FLAGS, 0o666)
        journal = cls(path)
        journal._fd = fd
        return journal

    @classmethod
    def load(cls, path: Path) -> "SaveJournal":
        """Parse a journal from disk, tolerating a torn final line."""
        entries: list[dict] = []
        try:
            raw = Path(path).read_text()
        except FileNotFoundError:
            raw = ""
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail from a crash mid-append: ignore the rest
        return cls(Path(path), entries)

    @property
    def save_id(self) -> str:
        return self.path.stem

    @property
    def committed(self) -> bool:
        return any(entry.get("op") == "commit" for entry in self.entries)

    def record(self, op: str, **fields) -> None:
        """Append one intent record to the file."""
        self.record_many([{"op": op, **fields}])

    def record_many(self, entries: list[dict]) -> None:
        """Append a batch of intent records with one write."""
        if not entries:
            return
        self.entries.extend(entries)
        data = memoryview(
            "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries).encode())
        # written, not fsynced: a lost tail means at worst an unrecorded
        # step, which the fsck refcount/orphan cross-checks repair anyway
        while data:  # one write unless the disk is filling up
            data = data[os.write(self._fd, data):]

    def close(self) -> None:
        """Release the descriptor, leaving the file as it is."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def commit(self) -> None:
        """Mark the save complete and drop the journal."""
        try:
            self.record("commit")
        finally:
            self.close()
        self.path.unlink(missing_ok=True)

    def discard(self) -> None:
        """Remove the journal file without touching any recorded state."""
        self.close()
        self.path.unlink(missing_ok=True)

    def doc_entries(self) -> list[tuple[str, str]]:
        """(collection, doc_id) pairs recorded by the save, oldest first."""
        return [
            (entry["collection"], entry["doc_id"])
            for entry in self.entries
            if entry.get("op") == "doc"
        ]
