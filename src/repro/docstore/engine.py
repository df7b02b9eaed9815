"""The document-store engine: databases, collections, CRUD, persistence.

Stands in for the MongoDB instance the paper runs on a dedicated machine.
A :class:`DocumentStore` holds named collections; each collection supports
insert/find/update/delete with the Mongo-subset query language from
:mod:`repro.docstore.query`.  Stores can be purely in-memory or backed by a
directory with one JSON-lines file per collection.

That file is an **append-only log**, and every operation costs what it
touches, not what the collection holds:

* a write appends one line — a put is the document itself, a delete is
  ``{"_id": …, "$deleted": true}`` (no stored document can carry a ``$``
  key) — and replay is "last record per ``_id`` wins".  A file of bare
  documents, as earlier versions wrote, is a log of puts: one format;
* the file is rewritten (the *checkpoint*: tmp + rename) only once dead
  bytes exceed :data:`CHECKPOINT_DEAD_SHARE` of the live bytes and
  :data:`CHECKPOINT_DEAD_FLOOR`;
* nothing is fsynced: a record is in the OS cache when the call returns,
  so it survives the process being killed, not the machine losing power;
* a string equality or ``{"$in": [strings]}`` on a top-level field is
  answered from a hash index built the first time a query uses the field;
  :func:`~repro.docstore.query.matches` still runs on the candidates;
* reads return isolated copies; ``projection=`` copies only the named
  top-level fields beside ``_id``.

DESIGN.md §13 has the rules for damaged files and the reasons.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from pathlib import Path

from ..errors import StoreCorruptionError
from .documents import DocumentError, check_document, new_object_id, validate_document
from .query import MISSING, matches, resolve_path

__all__ = [
    "Collection",
    "DocumentStore",
    "DuplicateKeyError",
    "NotFoundError",
    "merge_stats",
]

#: The log is rewritten when its dead bytes (superseded puts, delete
#: records) exceed this share of the live bytes ...
CHECKPOINT_DEAD_SHARE = 0.25
#: ... and this many bytes, so a small collection is not rewritten on
#: every other write.
CHECKPOINT_DEAD_FLOOR = 4096

_DELETED = "$deleted"


def _sort_key(value):
    """Total order over mixed JSON values: missing < null < bool < number
    < string < list/dict (by JSON text)."""
    if value is MISSING:
        return (0, "")
    if value is None:
        return (1, "")
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (3, value)
    if isinstance(value, str):
        return (4, value)
    return (5, json.dumps(value, sort_keys=True))


def _encode(record: dict) -> bytes:
    """One log line."""
    return json.dumps(record, sort_keys=True).encode() + b"\n"


def _decode(line: bytes) -> dict | None:
    """The record on a complete log line; ``None`` when it is not one."""
    if not line.endswith(b"\n"):
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if isinstance(record, dict) and isinstance(record.get("_id"), str):
        return record
    return None


def _stored(document: dict, doc_id: str) -> tuple[dict, bytes]:
    """What a collection keeps of ``document`` under ``doc_id``: an isolated
    copy and its log line.  One serialisation is both the line and the
    first half of the copy's JSON round trip."""
    check_document(document)
    line = _encode({**document, "_id": doc_id})
    return json.loads(line), line


def _isolated(document: dict, projection=None) -> dict:
    """A copy the caller may edit: whole, or ``_id`` + the projected fields."""
    if projection is None:
        return json.loads(json.dumps(document))
    if isinstance(projection, str):
        raise ValueError("projection must be an iterable of field names, not a string")
    copy = {"_id": document["_id"]}
    for field in projection:
        if field in document:
            value = document[field]
            if isinstance(value, (dict, list)):
                value = json.loads(json.dumps(value))
            copy[field] = value
    return copy


def _indexable_values(condition) -> list[str] | None:
    """The strings a field must equal one of, for the conditions an index
    can answer: a string equality or ``{"$in": [strings]}``."""
    if isinstance(condition, str):
        return [condition]
    if isinstance(condition, dict):
        values = condition.get("$in")
        if isinstance(values, list) and all(isinstance(v, str) for v in values):
            return values
    return None


def _index_keys(document: dict | None, field: str):
    """Strings under which ``document`` is found by equality on ``field``:
    a string value, or each string element of a list (equality matches
    list fields by membership)."""
    value = document.get(field) if document is not None else None
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list):
        return {element for element in value if isinstance(element, str)}
    return ()


def merge_stats(parts: list[dict]) -> dict:
    """:meth:`Collection.stats` of several physical collections as one."""
    merged = {"docs": 0, "live_bytes": 0, "dead_bytes": 0, "checkpoints": 0,
              "indexed_fields": [], "torn_tail_bytes": 0}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged[key] + value
    merged["indexed_fields"] = sorted(set(merged["indexed_fields"]))
    return merged


class DuplicateKeyError(DocumentError):
    """Raised when inserting a document whose ``_id`` already exists."""


class NotFoundError(KeyError):
    """Raised when a required document does not exist."""


class Collection:
    """A named set of documents with unique ``_id`` values."""

    def __init__(self, name: str, persist_path: Path | None = None):
        self.name = name
        self._lock = threading.RLock()
        self._persist_path = persist_path
        self._reset()
        if persist_path is not None and persist_path.exists():
            self._load()

    def _reset(self) -> None:
        # stored documents are never edited in place (a write installs a
        # new dict), so readers may use them outside the lock
        self._documents: dict[str, dict] = {}
        self._sizes: dict[str, int] = {}  # _id -> bytes of its live log line
        self._order: dict[str, int] = {}  # _id -> insertion sequence number
        self._inserted = 0
        self._indexes: dict[str, dict[str, set[str]]] = {}  # field -> value -> ids
        self._live_bytes = 0
        self._log_bytes = 0
        self._checkpoints = 0
        self._torn_tail_bytes = 0

    # -- the log -------------------------------------------------------------

    def _load(self) -> None:
        """Replay the log: last record per ``_id`` wins.

        Only the final line can be a torn append (a write that never
        returned): it is dropped and the file cut back to the last line
        boundary.  A bad line with anything after it is damage to acked
        records; cutting there would lose every later one, so it raises.
        """
        size = self._persist_path.stat().st_size
        offset = 0
        with self._persist_path.open("rb") as handle:
            for line in handle:
                record = _decode(line)
                if record is not None:
                    deleted = record.get(_DELETED) is True
                    self._apply(record["_id"], None if deleted else record, len(line))
                elif line.strip():
                    if offset + len(line) < size:
                        raise StoreCorruptionError(
                            f"collection {self.name!r}: unreadable record at byte "
                            f"{offset} of {self._persist_path} with records after it"
                        )
                    self._torn_tail_bytes = size - offset
                    break
                offset += len(line)
        if self._torn_tail_bytes:
            os.truncate(self._persist_path, offset)
        self._log_bytes = offset

    def _apply(self, doc_id: str, document: dict | None, size: int) -> None:
        """Make ``document`` (``None``: deleted) the state of ``doc_id``;
        ``size`` is its log line's length.  Lock held (or loading)."""
        old = self._documents.get(doc_id)
        if old is not None:
            self._live_bytes -= self._sizes[doc_id]
        if document is None:
            if old is None:
                return
            del self._documents[doc_id], self._sizes[doc_id], self._order[doc_id]
        else:
            if old is None:
                self._inserted += 1
                self._order[doc_id] = self._inserted
            self._documents[doc_id] = document
            self._sizes[doc_id] = size
            self._live_bytes += size
        for field, index in self._indexes.items():
            for key in _index_keys(old, field):
                index[key].discard(doc_id)
                if not index[key]:
                    del index[key]
            for key in _index_keys(document, field):
                index.setdefault(key, set()).add(doc_id)

    def _write(self, changes: list[tuple[str, dict | None, bytes]]) -> None:
        """Log, then apply, ``(_id, document, log line)`` puts and deletes
        (document ``None``, see :meth:`_deletion`).

        The one write path: a failed append leaves memory as it was.
        Lock held.
        """
        if self._persist_path is not None:
            self._append(b"".join(line for _id, _document, line in changes))
        for doc_id, document, line in changes:
            self._apply(doc_id, document, len(line))
        dead = self._log_bytes - self._live_bytes
        if dead > CHECKPOINT_DEAD_FLOOR and dead > CHECKPOINT_DEAD_SHARE * self._live_bytes:
            self._checkpoint()

    @staticmethod
    def _deletion(doc_id: str) -> tuple[str, None, bytes]:
        return doc_id, None, _encode({"_id": doc_id, _DELETED: True})

    def _append(self, data: bytes) -> None:
        # open-append-close: no handle outlives the call, so there is none
        # to leak, to go stale after a checkpoint's rename, or to write to
        # an unlinked file.  Not fsynced (see the module docstring).
        try:
            with self._persist_path.open("ab") as handle:
                handle.write(data)
        except OSError:
            # part of a line may have landed; left there it would read as
            # corruption as soon as another record follows it
            try:
                os.truncate(self._persist_path, self._log_bytes)
            except OSError:
                pass
            raise
        self._log_bytes += len(data)

    def _checkpoint(self) -> None:
        """Rewrite the log as one put per live document (tmp + rename)."""
        sizes = {}
        tmp = self._persist_path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            for doc_id, document in self._documents.items():
                line = _encode(document)
                handle.write(line)
                sizes[doc_id] = len(line)
        tmp.replace(self._persist_path)
        self._sizes = sizes
        self._live_bytes = self._log_bytes = sum(sizes.values())
        self._checkpoints += 1

    def _drop(self) -> None:
        """Forget everything, file included; a holder of this object is
        left with an empty collection, never one that disagrees with disk."""
        with self._lock:
            self._reset()
            if self._persist_path is not None:
                self._persist_path.unlink(missing_ok=True)

    # -- candidates ----------------------------------------------------------

    def _candidates(self, query: dict) -> list[dict]:
        """Stored documents that can match ``query``, in insertion order.

        Narrowed through ``_id`` or a field index when a condition allows
        it (building the index on first use), everything otherwise; the
        caller still runs ``matches`` on each.  Lock held.
        """
        for field, condition in query.items():
            values = _indexable_values(condition)
            if values is None or field.startswith("$") or "." in field:
                continue
            if field == "_id":
                ids = {value for value in values if value in self._documents}
            else:
                if field not in self._indexes:
                    index: dict[str, set[str]] = {}
                    for doc_id, document in self._documents.items():
                        for key in _index_keys(document, field):
                            index.setdefault(key, set()).add(doc_id)
                    self._indexes[field] = index
                index = self._indexes[field]
                ids = set().union(*(index.get(value, ()) for value in values))
            return [self._documents[i] for i in sorted(ids, key=self._order.__getitem__)]
        return list(self._documents.values())

    def _select(self, query: dict):
        """Iterator over the stored documents matching ``query``."""
        with self._lock:
            candidates = self._candidates(query)
        return (document for document in candidates if matches(document, query))

    # -- writes ----------------------------------------------------------------

    def insert_one(self, document: dict) -> str:
        """Insert a document; returns its (possibly generated) ``_id``."""
        claimed = document.get("_id") if isinstance(document, dict) else None
        doc_id = str(claimed or new_object_id())
        # ruled on before the document is serialised: re-inserting a large
        # shared document (an environment) costs a lookup ...
        self._refuse_duplicate(doc_id)
        document, line = _stored(document, doc_id)
        with self._lock:
            self._refuse_duplicate(doc_id)  # ... and again, now that it cannot change
            self._write([(doc_id, document, line)])
        return doc_id

    def _refuse_duplicate(self, doc_id: str) -> None:
        if doc_id in self._documents:
            raise DuplicateKeyError(
                f"duplicate _id {doc_id!r} in collection {self.name!r}"
            )

    def insert_many(self, documents: list[dict]) -> list[str]:
        return [self.insert_one(document) for document in documents]

    def replace_one(self, doc_id: str, document: dict) -> None:
        """Replace the document with ``doc_id`` (must exist)."""
        document, line = _stored(document, str(doc_id))
        with self._lock:
            if document["_id"] not in self._documents:
                raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
            self._write([(document["_id"], document, line)])

    def update_one(self, query: dict, changes: dict) -> bool:
        """Set top-level fields on the first match; returns whether one matched."""
        with self._lock:
            for document in self._candidates(query):
                if matches(document, query):
                    updated = dict(document)
                    updated.update(validate_document(changes))
                    updated["_id"] = document["_id"]
                    self._write([(document["_id"], updated, _encode(updated))])
                    return True
        return False

    def delete_one(self, doc_id: str) -> bool:
        doc_id = str(doc_id)
        with self._lock:
            if doc_id not in self._documents:
                return False
            self._write([self._deletion(doc_id)])
            return True

    def delete_many(self, query: dict) -> int:
        with self._lock:
            to_delete = [
                self._deletion(document["_id"])
                for document in self._candidates(query)
                if matches(document, query)
            ]
            if to_delete:
                self._write(to_delete)
            return len(to_delete)

    # -- reads --------------------------------------------------------------------

    def get(self, doc_id: str, projection=None) -> dict:
        """Fetch by id, raising :class:`NotFoundError` when absent.

        ``projection`` (here and in :meth:`get_many`/:meth:`find`) is an
        iterable of top-level field names to return beside ``_id`` —
        ``()`` for the id alone; ``None`` returns the whole document.
        """
        with self._lock:
            document = self._documents.get(str(doc_id))
        if document is None:
            raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
        return _isolated(document, projection)

    def get_many(self, doc_ids: list[str], projection=None) -> list[dict]:
        """Fetch many documents by id in one call (one snapshot, one trip).

        Results come back in ``doc_ids`` order; missing ids are silently
        skipped rather than raising, so callers can diff the returned
        ``_id`` set against what they asked for.
        """
        with self._lock:
            found = [self._documents.get(str(doc_id)) for doc_id in doc_ids]
        return [_isolated(doc, projection) for doc in found if doc is not None]

    def find_one(self, query: dict) -> dict | None:
        results = self.find(query, limit=1)
        return results[0] if results else None

    def find(
        self,
        query: dict | None = None,
        sort: list | None = None,
        limit: int | None = None,
        skip: int = 0,
        projection=None,
    ) -> list[dict]:
        """Documents matching ``query``, optionally sorted and limited.

        ``sort`` is a list of ``[field, direction]`` pairs (direction 1 for
        ascending, -1 for descending; dotted paths allowed) applied in
        order of significance, like MongoDB's.  Missing fields sort first.
        ``skip`` drops that many results before ``limit`` applies, which
        gives remote clients stable pagination over sorted results.
        Unsorted results come in insertion order.  Only what is returned
        is copied (see :meth:`get` for ``projection``); sort fields need
        not be projected.
        """
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        selected = self._select(query or {})
        if sort:
            selected = list(selected)
            for field, direction in reversed(list(sort)):
                if direction not in (1, -1):
                    raise ValueError(f"sort direction must be 1 or -1, got {direction}")
                selected.sort(
                    key=lambda document: _sort_key(resolve_path(document, field)),
                    reverse=direction == -1,
                )
        # unsorted, matching stops at the last document the caller asked for
        stop = None if limit is None else skip + limit
        return [
            _isolated(document, projection)
            for document in itertools.islice(selected, skip, stop)
        ]

    def count(self, query: dict | None = None) -> int:
        """Number of documents matching ``query`` (no document is copied)."""
        if not query:
            with self._lock:
                return len(self._documents)
        return sum(1 for _ in self._select(query))

    def storage_bytes(self) -> int:
        """Persisted size of the live documents: bytes of their log lines."""
        with self._lock:
            return self._live_bytes

    # -- operator surface ------------------------------------------------------

    def stats(self) -> dict:
        """Counts an operator reads the log's health from.

        ``(live_bytes + dead_bytes) / live_bytes`` is the log's space
        amplification; ``torn_tail_bytes`` is what opening the file had to
        drop (see :meth:`acknowledge_torn_tail`).
        """
        with self._lock:
            persisted = self._persist_path is not None
            return {
                "docs": len(self._documents),
                "live_bytes": self._live_bytes,
                "dead_bytes": self._log_bytes - self._live_bytes if persisted else 0,
                "checkpoints": self._checkpoints,
                "indexed_fields": sorted(self._indexes),
                "torn_tail_bytes": self._torn_tail_bytes,
            }

    def acknowledge_torn_tail(self) -> int:
        """Bytes of torn final record dropped when the log was opened, and
        forget them: fsck reports a crash mid-append once."""
        with self._lock:
            dropped, self._torn_tail_bytes = self._torn_tail_bytes, 0
            return dropped


class DocumentStore:
    """A set of named collections, optionally persisted to a directory."""

    def __init__(self, root: str | Path | None = None):
        self._root = Path(root) if root is not None else None
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)
        self._collections: dict[str, Collection] = {}
        self._lock = threading.RLock()
        if self._root is not None:
            for path in sorted(self._root.glob("*.jsonl")):
                name = path.stem
                self._collections[name] = Collection(name, persist_path=path)

    def collection(self, name: str) -> Collection:
        """Get (or lazily create) a collection."""
        with self._lock:
            existing = self._collections.get(name)
            if existing is not None:
                return existing
            persist_path = None
            if self._root is not None:
                persist_path = self._root / f"{name}.jsonl"
            created = Collection(name, persist_path=persist_path)
            self._collections[name] = created
            return created

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def collection_names(self) -> list[str]:
        with self._lock:
            return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        with self._lock:
            collection = self._collections.pop(name, None)
            if collection is not None:
                collection._drop()

    def storage_bytes(self) -> int:
        """Total approximate persisted size across collections."""
        with self._lock:
            return sum(c.storage_bytes() for c in self._collections.values())
