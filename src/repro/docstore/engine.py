"""The document-store engine: databases, collections, CRUD, persistence.

Stands in for the MongoDB instance the paper runs on a dedicated machine.
A :class:`DocumentStore` holds named collections; each collection supports
insert/find/update/delete with the Mongo-subset query language from
:mod:`repro.docstore.query`.  Stores can be purely in-memory or backed by a
directory of JSON-lines files (one per collection) that are kept in sync on
every write, so multiple readers of a shared filesystem see a consistent
picture — matching how the evaluation deployed a single store shared by the
server and all nodes.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path

from .documents import DocumentError, new_object_id, validate_document
from .query import MISSING, matches, resolve_path

__all__ = ["Collection", "DocumentStore", "DuplicateKeyError", "NotFoundError"]


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


class DuplicateKeyError(DocumentError):
    """Raised when inserting a document whose ``_id`` already exists."""


class NotFoundError(KeyError):
    """Raised when a required document does not exist."""


class Collection:
    """A named set of documents with unique ``_id`` values."""

    def __init__(self, name: str, persist_path: Path | None = None):
        self.name = name
        self._documents: dict[str, dict] = {}
        self._lock = threading.RLock()
        self._persist_path = persist_path
        if persist_path is not None and persist_path.exists():
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        with self._persist_path.open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    document = json.loads(line)
                    self._documents[document["_id"]] = document

    def _flush(self) -> None:
        if self._persist_path is None:
            return
        tmp = self._persist_path.with_suffix(".tmp")
        with tmp.open("w") as handle:
            for document in self._documents.values():
                handle.write(json.dumps(document, sort_keys=True) + "\n")
        tmp.replace(self._persist_path)

    # -- writes ----------------------------------------------------------------

    def insert_one(self, document: dict) -> str:
        """Insert a document; returns its (possibly generated) ``_id``."""
        document = validate_document(document)
        doc_id = document.get("_id") or new_object_id()
        document["_id"] = str(doc_id)
        with self._lock:
            if document["_id"] in self._documents:
                raise DuplicateKeyError(
                    f"duplicate _id {document['_id']!r} in collection {self.name!r}"
                )
            self._documents[document["_id"]] = document
            self._flush()
        return document["_id"]

    def insert_many(self, documents: list[dict]) -> list[str]:
        return [self.insert_one(document) for document in documents]

    def replace_one(self, doc_id: str, document: dict) -> None:
        """Replace the document with ``doc_id`` (must exist)."""
        document = validate_document(document)
        document["_id"] = str(doc_id)
        with self._lock:
            if document["_id"] not in self._documents:
                raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
            self._documents[document["_id"]] = document
            self._flush()

    def update_one(self, query: dict, changes: dict) -> bool:
        """Set top-level fields on the first match; returns whether one matched."""
        with self._lock:
            for document in self._documents.values():
                if matches(document, query):
                    updated = dict(document)
                    updated.update(validate_document(changes))
                    updated["_id"] = document["_id"]
                    self._documents[document["_id"]] = updated
                    self._flush()
                    return True
        return False

    def delete_one(self, doc_id: str) -> bool:
        with self._lock:
            removed = self._documents.pop(str(doc_id), None)
            if removed is not None:
                self._flush()
            return removed is not None

    def delete_many(self, query: dict) -> int:
        with self._lock:
            to_delete = [
                doc_id
                for doc_id, document in self._documents.items()
                if matches(document, query)
            ]
            for doc_id in to_delete:
                del self._documents[doc_id]
            if to_delete:
                self._flush()
            return len(to_delete)

    # -- reads --------------------------------------------------------------------

    def get(self, doc_id: str) -> dict:
        """Fetch by id, raising :class:`NotFoundError` when absent."""
        with self._lock:
            document = self._documents.get(str(doc_id))
        if document is None:
            raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
        return json.loads(json.dumps(document))

    def get_many(self, doc_ids: list[str]) -> list[dict]:
        """Fetch many documents by id in one call (one snapshot, one trip).

        Results come back in ``doc_ids`` order; missing ids are silently
        skipped rather than raising, so callers can diff the returned
        ``_id`` set against what they asked for.
        """
        with self._lock:
            found = [self._documents.get(str(doc_id)) for doc_id in doc_ids]
        return [json.loads(json.dumps(doc)) for doc in found if doc is not None]

    def find_one(self, query: dict) -> dict | None:
        for document in self.find(query):
            return document
        return None

    def find(
        self,
        query: dict | None = None,
        sort: list | None = None,
        limit: int | None = None,
        skip: int = 0,
    ) -> list[dict]:
        """Documents matching ``query``, optionally sorted and limited.

        ``sort`` is a list of ``[field, direction]`` pairs (direction 1 for
        ascending, -1 for descending; dotted paths allowed) applied in
        order of significance, like MongoDB's.  Missing fields sort first.
        ``skip`` drops that many results before ``limit`` applies, which
        gives remote clients stable pagination over sorted results.
        """
        query = query or {}
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        with self._lock:
            snapshot = list(self._documents.values())
        matching = (document for document in snapshot if matches(document, query))
        if not sort:
            # unsorted: matches skip..skip+limit are the answer, so stop
            # there instead of copying every match and slicing afterwards
            stop = None if limit is None else skip + limit
            matching = itertools.islice(matching, skip, stop)
            return [json.loads(json.dumps(document)) for document in matching]
        results = [json.loads(json.dumps(document)) for document in matching]
        for field, direction in reversed(list(sort)):
            if direction not in (1, -1):
                raise ValueError(f"sort direction must be 1 or -1, got {direction}")
            results.sort(
                key=lambda document: _sort_key(resolve_path(document, field)),
                reverse=direction == -1,
            )
        return results[skip:] if limit is None else results[skip:skip + limit]

    def count(self, query: dict | None = None) -> int:
        """Number of documents matching ``query`` (no document is copied)."""
        with self._lock:
            if not query:
                return len(self._documents)
            snapshot = list(self._documents.values())
        return sum(1 for document in snapshot if matches(document, query))

    def storage_bytes(self) -> int:
        """Approximate persisted size: JSON bytes of every document."""
        with self._lock:
            return sum(
                len(json.dumps(document, sort_keys=True)) + 1
                for document in self._documents.values()
            )


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
            if collection is not None and collection._persist_path is not None:
                collection._persist_path.unlink(missing_ok=True)

    def storage_bytes(self) -> int:
        """Total approximate persisted size across collections."""
        with self._lock:
            return sum(c.storage_bytes() for c in self._collections.values())
