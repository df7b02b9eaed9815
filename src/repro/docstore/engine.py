"""The document-store engine: databases, collections, CRUD, persistence.

Stands in for the MongoDB instance the paper runs on a dedicated machine.
A :class:`DocumentStore` holds named collections; each collection supports
insert/find/update/delete with the Mongo-subset query language from
:mod:`repro.docstore.query`.  Stores can be purely in-memory or backed by a
directory with one file per collection, ``<name>.jsonl``.

That file is an **append-only log**, a
:class:`~repro.filestore.recordlog.RecordLog` (DESIGN.md §18), and every
operation costs what it touches, not what the collection holds:

* a write appends one record per document — a put is the document itself,
  a delete is ``{"_id": …, "$deleted": true}`` (no stored document can
  carry a ``$`` key) — and replay is "last record per ``_id`` wins".  The
  JSON-lines file earlier versions wrote replays as a log of puts, and its
  first write rewrites it in the framing;
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

A torn final record is cut off when the file is opened (and reported by
:meth:`Collection.stats` until fsck acknowledges it); a damaged record
with records after it raises :class:`~repro.errors.StoreCorruptionError`
(DESIGN.md §18 has the rule, §13 the catalog's use of it).
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path

from ..errors import StoreCorruptionError
from ..filestore.recordlog import RecordLog, record_size
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
    """One log record's payload."""
    return json.dumps(record, sort_keys=True).encode()


def _stored(document: dict, doc_id: str) -> tuple[dict, bytes]:
    """What a collection keeps of ``document`` under ``doc_id``: an isolated
    copy and its log payload.  One serialisation is both the payload and
    the first half of the copy's JSON round trip."""
    check_document(document)
    payload = _encode({**document, "_id": doc_id})
    return json.loads(payload), payload


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
        self._log = RecordLog(persist_path) if persist_path is not None else None
        self._reset()
        if self._log is not None:
            self._load()

    def _reset(self) -> None:
        # stored documents are never edited in place (a write installs a
        # new dict), so readers may use them outside the lock
        self._documents: dict[str, dict] = {}
        self._sizes: dict[str, int] = {}  # _id -> bytes of its live log record
        self._order: dict[str, int] = {}  # _id -> insertion sequence number
        self._inserted = 0
        self._indexes: dict[str, dict[str, set[str]]] = {}  # field -> value -> ids
        self._live_bytes = 0
        self._checkpoints = 0
        self._torn_tail_bytes = 0

    # -- the log -------------------------------------------------------------

    def _load(self) -> None:
        """Replay the log: last record per ``_id`` wins (a torn tail is cut
        off and counted, damage before it raises: DESIGN.md §18)."""
        try:
            records = self._log.replay(sized=True)
        except StoreCorruptionError as error:
            raise StoreCorruptionError(f"collection {self.name!r}: {error}") from error
        finally:
            self._log.close()
        for record, size in records:
            if not isinstance(record, dict) or not isinstance(record.get("_id"), str):
                raise StoreCorruptionError(
                    f"collection {self.name!r}: a record of {self._log.path} "
                    f"is not a document")
            deleted = record.get(_DELETED) is True
            self._apply(record["_id"], None if deleted else record, size)
        self._torn_tail_bytes = self._log.torn_bytes

    def _apply(self, doc_id: str, document: dict | None, size: int) -> None:
        """Make ``document`` (``None``: deleted) the state of ``doc_id``;
        ``size`` is its log record's length.  Lock held (or loading)."""
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
        """Log, then apply, ``(_id, document, payload)`` puts and deletes
        (document ``None``, see :meth:`_deletion`).

        The one write path: one append (not fsynced), and a failed append
        leaves memory and file as they were.  Lock held.
        """
        if self._log is not None:
            # open-append-close: no descriptor outlives the call to go stale
            # after another holder's checkpoint renamed the file
            self._log.append([payload for _id, _document, payload in changes])
            self._log.close()
        for doc_id, document, payload in changes:
            self._apply(doc_id, document, record_size(payload))
        dead = self._log_bytes() - self._live_bytes
        if dead > CHECKPOINT_DEAD_FLOOR and dead > CHECKPOINT_DEAD_SHARE * self._live_bytes:
            self._checkpoint()

    @staticmethod
    def _deletion(doc_id: str) -> tuple[str, None, bytes]:
        return doc_id, None, _encode({"_id": doc_id, _DELETED: True})

    def _log_bytes(self) -> int:
        return self._log.size if self._log is not None else self._live_bytes

    def _checkpoint(self) -> None:
        """Rewrite the log as one put per live document (tmp + rename)."""
        payloads = [_encode(document) for document in self._documents.values()]
        self._log.rewrite(payloads)
        self._log.close()
        self._sizes = {
            doc_id: record_size(payload) for doc_id, payload in zip(self._documents, payloads)}
        self._live_bytes = self._log.size
        self._checkpoints += 1

    def _drop(self) -> None:
        """Forget everything, file included; a holder of this object is
        left with an empty collection, never one that disagrees with disk."""
        with self._lock:
            self._reset()
            if self._log is not None:
                self._log.remove()

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
        document, payload = _stored(document, doc_id)
        with self._lock:
            self._refuse_duplicate(doc_id)  # ... and again, now that it cannot change
            self._write([(doc_id, document, payload)])
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
        document, payload = _stored(document, str(doc_id))
        with self._lock:
            if document["_id"] not in self._documents:
                raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
            self._write([(document["_id"], document, payload)])

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
        """Persisted size of the live documents: bytes of their log records."""
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
            return {
                "docs": len(self._documents),
                "live_bytes": self._live_bytes,
                "dead_bytes": self._log_bytes() - self._live_bytes,
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
