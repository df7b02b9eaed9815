"""Sharded, replicated document store with the engine's Collection API.

Metadata documents get the same treatment as payload bytes: each
document is placed on R member stores by ``collection/doc_id`` ring
hash, and every write — insert, replace, update, delete — is the
cluster's one quorum write (:meth:`~repro.cluster.replica.ReplicaLedger._quorum_write`)
around its own per-owner step.  Queries have no routing key, so
:meth:`_ShardedCollection.find` scatter-gathers every member and applies
sort/skip/limit to the merged set.

One record per document, versioned (Dynamo, DeCandia et al., SOSP 2007,
§4.4–4.7): every write carries one stamp in the reserved field ``_v``, a
clock-based counter plus a writer id, so stamps totally order writes,
also across processes; an unstamped record (an older release's) ranks
lowest.  A delete replaces each owner's copy with the tombstone ``{_id,
_v, _deleted: true}`` in the document's own collection.  The versioned
read (:meth:`_ShardedCollection._read`) is this plane's one per-key heal:
reads, the self-heal loop, fsck and membership changes all go through it and keep the highest stamp, so a replica that missed a
delete can never resurrect the document.  Sharded
reads strip the reserved fields: callers see what the engine returns.
Members are anything with the engine's ``collection(name)`` API — plain
or chaos-wrapped stores, TCP clients — and need no op beyond it.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Mapping

from .. import deadline as deadline_mod
from ..docstore.documents import new_object_id, validate_document
from ..docstore.engine import (
    DuplicateKeyError,
    NotFoundError,
    _sort_key,
    merge_stats,
    projected_fields,
)
from ..docstore.query import matches, resolve_path
from ..errors import TransientStoreError
from .replica import (
    REPLICA_FAILURES,
    ReplicaLedger,
    drop_strays,
    finish,
    new_result,
    reads_repair,
)
from .ring import DEFAULT_VNODES

__all__ = ["ShardedDocumentStore"]

#: Reserved fields of a stored record: its stamp, and the tombstone mark.
STAMP = "_v"
DELETED = "_deleted"
STAMP_FIELDS = (DELETED, STAMP)

#: Ranks above an unstamped record and below every clock stamp: an
#: imported delete (:mod:`repro.importer`).
FOLDED = "0"


def _stamp(record: dict | None) -> str:
    return "" if record is None else record.get(STAMP, "")


def _public(record: dict, projection=None) -> dict:
    """``record`` restricted to ``_id`` + ``projection``, or without its
    stamp when no projection is given (a live record has no other
    reserved field)."""
    if projection is None:
        record.pop(STAMP, None)
        return record
    keep = {"_id", *projection}
    return {field: value for field, value in record.items() if field in keep}


def _drop(collection, doc_id: str, stamp: str) -> bool:
    """Delete the member's copy of ``doc_id`` if it still carries ``stamp``:
    a write that replaced the copy since is left alone."""
    held = stamp if stamp else {"$exists": False}
    return bool(collection.delete_many({"_id": doc_id, STAMP: held}))


def _land(collection, record: dict) -> dict | None:
    """Write ``record`` over the member's copy, or beside none; returns
    the copy it replaced, ``None`` if the member held none.  A copy that
    appeared between the two calls is left alone: it is a concurrent
    write."""
    try:
        return collection.replace_one(record["_id"], record)
    except NotFoundError:
        pass
    try:
        collection.insert_one(record)
    except DuplicateKeyError:
        pass
    return None


class _ShardedCollection:
    """One logical collection spread over the cluster's members."""

    def __init__(self, store: "ShardedDocumentStore", name: str):
        self._store = store
        self.name = name
        # placement memo, until membership changes: a scatter-gather
        # checks the owners of every hit
        self._owner_memo: dict[str, list[str]] = {}  # id -> owners
        self._owned: dict[str, set[str]] = {}  # member -> memoized ids it owns

    def _owners(self, doc_id: str) -> list[str]:
        owners = self._owner_memo.get(doc_id)
        if owners is None:
            owners = self._store.ring.owners(f"{self.name}/{doc_id}")
            self._owner_memo[doc_id] = owners
            for member_name in owners:
                self._owned.setdefault(member_name, set()).add(doc_id)
        return owners

    def _member(self, member_name: str):
        return self._store.members[member_name].collection(self.name)

    # -- writes --------------------------------------------------------------

    def _stamped(self, document: dict, doc_id: str) -> dict:
        record = validate_document(document)
        record.pop(DELETED, None)
        record["_id"] = doc_id
        record[STAMP] = self._store._next_stamp()
        return record

    def insert_one(self, document: dict) -> str:
        """Quorum-insert one document; returns its (shared) ``_id``.

        The id and stamp are made *here*, once, so every replica stores
        the same record.  An owner already holding the id is read: a
        lower-stamped tombstone is replaced (the id comes back), a live
        copy acknowledges (idempotent retry of a partially-acked insert).
        Only when no owner took the document does the duplicate surface
        to the caller as the engine's :class:`DuplicateKeyError`.
        """
        claimed = document.get("_id") if isinstance(document, dict) else None
        doc_id = str(claimed or new_object_id())
        record = self._stamped(document, doc_id)
        fresh: list[bool] = []

        def insert(member_name: str) -> None:
            collection = self._member(member_name)
            try:
                collection.insert_one(record)
            except DuplicateKeyError:
                held = collection.get(doc_id, projection=STAMP_FIELDS)
                if not held.get(DELETED):
                    fresh.append(False)
                    return
                if _stamp(held) < record[STAMP]:
                    collection.replace_one(doc_id, record)
            fresh.append(True)

        self._store._quorum_write(
            self.name, doc_id, self._owners(doc_id), insert, "docs.insert_one")
        if not any(fresh):
            raise DuplicateKeyError(f"duplicate _id {doc_id!r} in collection {self.name!r}")
        return doc_id

    def insert_many(self, documents: list[dict]) -> list[str]:
        return [self.insert_one(document) for document in documents]

    def _put(self, record: dict, op: str) -> list:
        """Quorum-write ``record`` over each owner's copy (inserting it
        where an owner has none); returns the copies it replaced (``None``
        for an owner that held none)."""
        replaced: list = []

        def put(member_name: str) -> None:
            replaced.append(_land(self._member(member_name), record))

        self._store._quorum_write(
            self.name, record["_id"], self._owners(record["_id"]), put, op)
        return replaced

    def replace_one(self, doc_id: str, document: dict) -> None:
        """Replace on every owner (owners missing it get it inserted).
        Raises :class:`NotFoundError` when the document is not live."""
        doc_id = str(doc_id)
        self.get(doc_id, projection=())
        self._put(self._stamped(document, doc_id), "docs.replace_one")

    def update_one(self, query: dict, changes: dict) -> bool:
        """Find the first match cluster-wide, then replace it with its
        changes applied — replicas converge on one record, so the query is
        resolved once, not once per member."""
        target = self.find_one(query)
        if target is None:
            return False
        target.update(validate_document(dict(changes)))
        self._put(self._stamped(target, target["_id"]), "docs.update_one")
        return True

    def delete_one(self, doc_id: str) -> bool:
        """Quorum-delete: each owner's copy is replaced by a tombstone.
        Returns whether some owner held a live copy of ``doc_id``, as a
        single store answers: an id already deleted (its tombstones) or
        never inserted is ``False``."""
        doc_id = str(doc_id)
        tombstone = {"_id": doc_id, STAMP: self._store._next_stamp(), DELETED: True}
        replaced = self._put(tombstone, "docs.delete_one")
        return any(copy is not None and not copy.get(DELETED) for copy in replaced)

    def delete_many(self, query: dict) -> int:
        """Resolve the query cluster-wide, then delete each match by id on
        its owners; the count is logical documents, not replica files."""
        matched = self.find(query, projection=())
        for document in matched:
            self.delete_one(document["_id"])
        return len(matched)

    # -- reads ---------------------------------------------------------------

    def get(self, doc_id: str, projection=None) -> dict:
        """Fetch by id: the highest-stamped record among the reachable
        owners, :class:`NotFoundError` when that is a tombstone."""
        projection = projected_fields(projection)
        record = self._record(str(doc_id))
        if record.get(DELETED):
            raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
        return _public(record, projection)

    def _record(self, doc_id: str) -> dict:
        """The highest-stamped record of ``doc_id``, live or a tombstone,
        through the versioned read, counted as a read.  With no record
        found and owners unreachable, absence is unproven: the retryable
        :class:`TransientStoreError` is raised, so that ``fsck`` cannot
        collect on a degraded read.  Inside
        :func:`~repro.cluster.replica.audit_reads` it repairs nothing."""
        store = self._store
        result = self._read(doc_id, repair=reads_repair())
        record = result["record"]
        if record is None:
            if result["unreachable"]:
                raise TransientStoreError(
                    f"document {self.name}/{doc_id}: {len(result['unreachable'])} "
                    "replica(s) unreachable and the document was not proven absent"
                )
            raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
        if result["missing"] or result["unreachable"]:
            store._bump("failover_reads")
        for member_name in result["repaired_to"]:
            store._bump("read_repairs")
            store._obs_events.emit(
                "read_repair", plane="docs", collection=self.name, key=doc_id)
        if len(result["missing"]) > len(result["repaired_to"]):
            store._bump("repair_failures", len(result["missing"]) - len(result["repaired_to"]))
        return record

    def _read(self, doc_id: str, unreachable=(), repair: bool = True,
              deep: bool = False) -> dict:
        """The versioned read of ``doc_id``: this plane's
        :meth:`~repro.cluster.replica.ReplicaLedger.heal_key`.

        Every reachable owner is read — with ``deep``, every member: the
        first read is whole, the others ask for the stamp fields only (a
        higher stamp is then read whole).  The highest-stamped record, live
        or a tombstone, is the result's ``record`` (None when no member
        answered with one); owners missing it or holding a lower stamp are
        ``missing`` and, with ``repair``, get it landed.  A deep heal also
        retires the copies on non-owners once the owners are whole, and
        purges a tombstone every member answered for: the lower-stamped
        copies first, each delete conditional on the stamp it read, so a
        concurrent write survives.
        """
        store = self._store
        owners = self._owners(doc_id)
        record = None
        stamps: dict[str, str] = {}  # member holding a copy -> its stamp
        skipped: list[str] = []
        for member_name in sorted(store.members) if deep else owners:
            deadline_mod.check("docs.get")
            if member_name in unreachable or not store._allowed(member_name):
                skipped.append(member_name)  # absence stays unproven
                continue
            collection = self._member(member_name)
            try:
                held = collection.get(
                    doc_id, projection=None if record is None else STAMP_FIELDS)
                if (record is not None and _stamp(held) > _stamp(record)
                        and not held.get(DELETED)):
                    held = collection.get(doc_id)  # a later version: read it whole
            except NotFoundError:
                store._up(member_name)
                continue
            except OSError:
                store._down(member_name)
                skipped.append(member_name)
                continue
            store._up(member_name)
            stamps[member_name] = _stamp(held)
            if record is None or _stamp(held) > _stamp(record):
                record = held
        top = _stamp(record)
        missing = [] if record is None else [
            name for name in owners if name not in skipped and stamps.get(name) != top]
        result = new_result(self.name, doc_id, owners, stamps, missing,
                            [name for name in owners if name in skipped])
        result["record"] = record
        if record is None:
            result["status"] = "deferred" if result["unreachable"] else "unrepairable"
            return result
        if repair:
            for member_name in missing:
                try:
                    _land(self._member(member_name), record)
                except REPLICA_FAILURES:
                    continue
                result["repaired_to"].append(member_name)
                stamps[member_name] = top
        if repair and deep:
            if record.get(DELETED) and not skipped and set(missing) <= set(result["repaired_to"]):
                # lower stamps first: a failed drop stops the purge before
                # the tombstones that shadow what is left
                for member_name in sorted(stamps, key=lambda name: stamps[name] == top):
                    try:
                        _drop(self._member(member_name), doc_id, stamps[member_name])
                    except OSError:
                        break
                    if member_name not in owners:
                        result["strays_dropped"].append(member_name)
                return finish(store, result)
            drop_strays(result, lambda name: _drop(self._member(name), doc_id, stamps[name]))
        return finish(store, result)

    def get_many(self, doc_ids: list[str], projection=None) -> list[dict]:
        """The live documents of ``doc_ids`` in request order, missing ids
        skipped like the engine skips them: one ``$in`` query, one trip
        per member."""
        doc_ids = [str(doc_id) for doc_id in doc_ids]
        found = {document["_id"]: document for document in self.find(
            {"_id": {"$in": doc_ids}}, projection=projection)}
        return [found[doc_id] for doc_id in doc_ids if doc_id in found]

    def find(
        self,
        query: dict | None = None,
        sort: list | None = None,
        limit: int | None = None,
        skip: int = 0,
        projection=None,
    ) -> list[dict]:
        """Scatter-gather query: every member is asked, results are merged
        by ``_id``, tombstones are dropped, and sort/skip/limit apply to
        the merged set, so pagination is cluster-wide.  Up to R-1
        unreachable members leave every document a reachable replica; at
        R or more, results cannot be proven complete and the retryable
        :class:`TransientStoreError` is raised — ``fsck`` must not mistake
        an outage for deletion.

        A hit whose copies differ, or that some reachable owner did not
        return (it may hold a tombstone or a later version the query does
        not match), is taken from the versioned read instead.  An unsorted
        ``limit`` without ``skip`` is pushed down to the members; when that
        leaves fewer hits than asked and a member's page was full, the
        query runs again without it.  Members are asked for ``projection``
        plus the sort fields and the tombstone mark, dropped again from
        what is returned."""
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        query = query or {}
        member_projection = hidden = None
        projection = projected_fields(projection)
        if projection is not None:
            hidden = {field.split(".")[0] for field, _direction in sort or ()}
            hidden.difference_update(projection)
            member_projection = [*projection, *sorted(hidden), DELETED]
        pushed = limit if not sort and not skip else None
        results, full = self._gather(query, pushed, member_projection)
        if full and len(results) < pushed:
            results, _ = self._gather(query, None, member_projection)
        if sort:
            for field, direction in reversed(list(sort)):
                if direction not in (1, -1):
                    raise ValueError(f"sort direction must be 1 or -1, got {direction}")
                results.sort(
                    key=lambda document: _sort_key(resolve_path(document, field)),
                    reverse=direction == -1,
                )
        results = results[skip:]
        if limit is not None:
            results = results[:limit]
        if projection is None or hidden:
            return [_public(record, projection) for record in results]
        return results

    def _gather(self, query: dict, member_limit: int | None,
                member_projection) -> tuple[list[dict], bool]:
        """Live hits in ``_id`` order (at most ``member_limit`` of them
        when one is given), and whether some member's page was full."""
        hits: dict[str, dict] = {}
        returned = {}  # answered member -> the ids it returned
        suspect: set[str] = set()  # hits the versioned read must confirm
        full = False
        for member_name in sorted(self._store.members):
            deadline_mod.check("docs.find")
            if not self._store._allowed(member_name):
                self._store._bump("failover_reads")
                continue  # breaker open: results may be incomplete
            try:
                page = self._member(member_name).find(
                    query, limit=member_limit, projection=member_projection)
            except OSError:
                self._store._down(member_name)
                self._store._bump("failover_reads")
                continue
            self._store._up(member_name)
            full = full or (member_limit is not None and len(page) >= member_limit)
            page = {record["_id"]: record for record in page}
            suspect.update(doc_id for doc_id in page.keys() & hits.keys()
                           if page[doc_id] != hits[doc_id])
            hits.update(page)
            returned[member_name] = page.keys()
        unreachable = len(self._store.members) - len(returned)
        if unreachable >= self._store._effective_replicas():
            raise TransientStoreError(
                f"collection {self.name!r}: {unreachable} member(s) unreachable "
                f"(replication factor {self._store._effective_replicas()}) — "
                "query results cannot be proven complete"
            )
        for doc_id in hits.keys() - self._owner_memo.keys():
            self._owners(doc_id)
        for member_name, ids in returned.items():  # hits an owner answered without
            suspect |= self._owned.get(member_name, set()).intersection(hits) - ids
        results = []
        for doc_id in sorted(hits):
            if member_limit is not None and len(results) >= member_limit:
                break
            record = hits[doc_id]
            if doc_id in suspect:
                try:
                    record = self._record(doc_id)
                except NotFoundError:
                    continue
                if not matches(record, query):
                    continue
                if member_projection is not None:
                    record = _public(record, member_projection)
            if DELETED not in record:
                results.append(record)
        return results, full

    def find_one(self, query: dict) -> dict | None:
        results = self.find(query, limit=1)
        return results[0] if results else None

    def count(self, query: dict | None = None) -> int:
        return len(self.find(query, projection=()))

    def _from_members(self, method: str) -> list:
        """``method()`` of this collection on every reachable member."""
        results = []
        for member_name in sorted(self._store.members):
            try:
                results.append(getattr(self._member(member_name), method)())
            except OSError:
                continue
        return results

    def storage_bytes(self) -> int:
        """Physical bytes across the cluster — replicas counted per copy."""
        return sum(self._from_members("storage_bytes"))

    def stats(self) -> dict:
        """The members' log counts summed — replicas counted per copy."""
        return merge_stats(self._from_members("stats"))

    def acknowledge_torn_tail(self) -> int:
        return sum(self._from_members("acknowledge_torn_tail"))


class ShardedDocumentStore(ReplicaLedger):
    """R-of-N replicated document store over named member stores.

    Drop-in for the engine's :class:`~repro.docstore.engine.DocumentStore`
    wherever MMlib takes one (services, save transactions, fsck): it has
    the same ``collection``/``collection_names``/``drop_collection``/
    ``storage_bytes`` surface, with replication underneath.  The ring,
    quorum, detector, degraded marks and stats are the
    :class:`~repro.cluster.replica.ReplicaLedger` it shares with the file
    store.
    """

    _plane = "docs"
    _kind_field = "collection"

    def __init__(
        self,
        members: Mapping[str, object],
        replicas: int = 2,
        write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
        detector=None,
    ):
        self._init_ledger(members, replicas, write_quorum, vnodes, detector)
        self._collections: dict[str, _ShardedCollection] = {}
        self._collections_lock = threading.Lock()
        self._clock_lock = threading.Lock()
        self._tick = 0
        self._writer = uuid.uuid4().hex[:8]

    def _next_stamp(self) -> str:
        """A stamp later than every one this store made before."""
        with self._clock_lock:
            self._tick = max(self._tick + 1, time.time_ns())
            return f"{self._tick:016x}.{self._writer}"

    # -- store surface --------------------------------------------------------

    def collection(self, name: str) -> _ShardedCollection:
        with self._collections_lock:
            existing = self._collections.get(name)
            if existing is not None:
                return existing
            created = _ShardedCollection(self, name)
            self._collections[name] = created
            return created

    def __getitem__(self, name: str) -> _ShardedCollection:
        return self.collection(name)

    def collection_names(self) -> list[str]:
        names: set[str] = set()
        for member in self.members.values():
            try:
                names.update(member.collection_names())
            except OSError:
                continue
        return sorted(names)

    def drop_collection(self, name: str) -> None:
        for member in self.members.values():
            member.drop_collection(name)
        with self._collections_lock:
            self._collections.pop(name, None)

    def storage_bytes(self) -> int:
        """Physical bytes across the cluster — replicas counted per copy."""
        total = 0
        for member in self.members.values():
            try:
                total += member.storage_bytes()
            except OSError:
                continue
        return total

    # -- the one heal ------------------------------------------------------------

    def heal_key(self, kind: str, key: str, unreachable=(), *, repair: bool = True,
                 deep: bool = False) -> dict:
        """The versioned read of document ``key`` of collection ``kind``
        (:meth:`_ShardedCollection._read`); the result carries its
        ``record``."""
        return self.collection(kind)._read(
            str(key), unreachable=unreachable, repair=repair, deep=deep)

    def universe(self) -> set[tuple[str, str]]:
        """Every ``(collection, doc_id)`` a reachable member holds a record
        of, tombstones included."""
        keys: set[tuple[str, str]] = set()
        for name in self.collection_names():
            for member in self.members.values():
                try:
                    found = member.collection(name).find({}, projection=())
                except OSError:
                    continue
                keys.update((name, record["_id"]) for record in found)
        return keys

    # -- membership: a change is the placement sweep ---------------------------

    def _placement_changed(self) -> None:
        with self._collections_lock:
            for collection in self._collections.values():
                collection._owner_memo.clear()
                collection._owned.clear()

    def add_member(self, name: str, store) -> dict:
        """Add a member and re-place documents whose ownership moved: a deep
        :meth:`sweep`, which also purges the tombstones every member
        answered for."""
        self.members[name] = store
        self.ring.add_member(name)
        self._placement_changed()
        return self.sweep(deep=True)

    def remove_member(self, name: str) -> dict:
        """Drain and drop a member: ownership recomputes without it, its
        documents stream to the new owners, then it leaves the cluster."""
        if name not in self.members:
            raise KeyError(f"member {name!r} is not in the cluster")
        self.ring.remove_member(name)
        self._placement_changed()
        stats = self.sweep(deep=True)
        self.members.pop(name, None)
        return stats
