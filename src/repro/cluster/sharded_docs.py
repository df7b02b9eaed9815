"""Sharded, replicated document store with the engine's Collection API.

Metadata documents get the same treatment as payload bytes: each
document is placed on R member stores by ``collection/doc_id`` ring
hash, writes need a quorum of owners, reads fail over in ring order and
read-repair replicas found missing a document.  Queries have no routing
key, so :meth:`_ShardedCollection.find` scatter-gathers every member,
deduplicates replicas by ``_id``, and applies sort/skip/limit globally —
per-member sorts cannot simply concatenate.

Every write — insert, replace, update, delete — is the cluster's one
quorum write (:meth:`~repro.cluster.replica.ReplicaLedger._quorum_write`,
shared with the file store) around that write's own per-owner step: the
duplicate rule, replace-or-insert, update-or-repair, tombstone-then-delete.

Members are anything with the engine's ``collection(name)`` API: plain
:class:`~repro.docstore.engine.DocumentStore`s, chaos-wrapped
:class:`~repro.faults.FaultyDocumentStore`s, or TCP clients.  MMlib
services take the sharded store wherever they take a document store.
"""

from __future__ import annotations

import json
import threading
from typing import Mapping

from .. import deadline as deadline_mod
from ..docstore.documents import new_object_id, validate_document
from ..docstore.engine import DuplicateKeyError, NotFoundError, _sort_key, merge_stats
from ..docstore.query import resolve_path
from ..errors import TransientStoreError
from .hints import KIND_DOC
from .replica import REPLICA_FAILURES, ReplicaLedger
from .ring import DEFAULT_VNODES

__all__ = ["ShardedDocumentStore", "TOMBSTONES"]

#: Per-member collection recording quorum-acked deletes.  A tombstone's
#: ``_id`` is ``"<collection>/<doc_id>"`` — exactly the deleted
#: document's ring key, so tombstones and their documents always share
#: owners.  Tombstones stop read-repair and rebalancing from
#: resurrecting a delete that a failed replica missed, and are purged
#: once no member holds the document anymore.
TOMBSTONES = "__cluster_tombstones__"


def _copy(document: dict) -> dict:
    return json.loads(json.dumps(document))


class _ShardedCollection:
    """One logical collection spread over the cluster's members."""

    def __init__(self, store: "ShardedDocumentStore", name: str):
        self._store = store
        self.name = name

    def _owners(self, doc_id: str) -> list[str]:
        return self._store.ring.owners(f"{self.name}/{doc_id}")

    def _member(self, member_name: str):
        return self._store.members[member_name].collection(self.name)

    def _all_collections(self):
        for member_name in sorted(self._store.members):
            yield self._store.members[member_name].collection(self.name)

    # -- tombstones ----------------------------------------------------------

    def _tombstone_key(self, doc_id: str) -> str:
        return f"{self.name}/{doc_id}"

    def _is_tombstoned(self, doc_id: str) -> bool:
        """Whether any reachable owner records a quorum-acked delete of
        ``doc_id``.  The tombstone id *is* the document's ring key, so
        the owners consulted here are the ones the delete wrote to."""
        tombstone_id = self._tombstone_key(doc_id)
        for member_name in self._store.ring.owners(tombstone_id):
            graves = self._store.members[member_name].collection(TOMBSTONES)
            try:
                graves.get(tombstone_id)
            except (NotFoundError, OSError):
                continue
            return True
        return False

    def _tombstoned_ids(self) -> set[str]:
        """Every doc id in this collection with a tombstone anywhere."""
        prefix = f"{self.name}/"
        ids: set[str] = set()
        for member_name in sorted(self._store.members):
            graves = self._store.members[member_name].collection(TOMBSTONES)
            try:
                stones = graves.find({}, projection=())
            except OSError:
                continue
            for stone in stones:
                if stone["_id"].startswith(prefix):
                    ids.add(stone["_id"][len(prefix):])
        return ids

    def _clear_tombstone(self, doc_id: str) -> None:
        """Best-effort removal of a tombstone from the document's owners
        (a fresh insert under a previously-deleted id supersedes it)."""
        tombstone_id = self._tombstone_key(doc_id)
        for member_name in self._store.ring.owners(tombstone_id):
            graves = self._store.members[member_name].collection(TOMBSTONES)
            try:
                graves.delete_one(tombstone_id)
            except OSError:
                continue

    def _reap(self, doc_id: str) -> None:
        """Finish a quorum-acked delete on replicas that missed it."""
        for collection in self._all_collections():
            try:
                collection.delete_one(doc_id)
            except OSError:
                continue

    # -- writes --------------------------------------------------------------

    def insert_one(self, document: dict) -> str:
        """Quorum-insert one document; returns its (shared) ``_id``.

        The id is generated *here*, once, so every replica stores the
        same document.  A replica already holding the id acknowledges
        (idempotent retry of a partially-acked insert); only when no
        replica inserted anything fresh does the duplicate surface to the
        caller as the engine's :class:`DuplicateKeyError`.
        """
        document = validate_document(document)
        doc_id = str(document.get("_id") or new_object_id())
        document["_id"] = doc_id
        self._clear_tombstone(doc_id)
        fresh: list[bool] = []

        def insert(member_name: str) -> None:
            try:
                self._member(member_name).insert_one(_copy(document))
            except DuplicateKeyError:
                fresh.append(False)
            else:
                fresh.append(True)

        self._store._quorum_write(
            self.name, doc_id, self._owners(doc_id), insert, "docs.insert_one")
        if not any(fresh):
            raise DuplicateKeyError(
                f"duplicate _id {doc_id!r} in collection {self.name!r}"
            )
        return doc_id

    def insert_many(self, documents: list[dict]) -> list[str]:
        return [self.insert_one(document) for document in documents]

    def replace_one(self, doc_id: str, document: dict) -> None:
        """Replace on every owner; owners missing the document get it
        inserted (write-time repair).  Raises :class:`NotFoundError` when
        no replica holds ``doc_id`` at all."""
        self.get(doc_id, projection=())  # existence check with failover; raises NotFoundError
        document = validate_document(document)
        document["_id"] = str(doc_id)

        def replace(member_name: str) -> None:
            collection = self._member(member_name)
            try:
                collection.replace_one(doc_id, _copy(document))
            except NotFoundError:
                collection.insert_one(_copy(document))

        self._store._quorum_write(
            self.name, doc_id, self._owners(doc_id), replace, "docs.replace_one")

    def update_one(self, query: dict, changes: dict) -> bool:
        """Find the first match cluster-wide, then update it by ``_id`` on
        every owner — replicas must converge on the same document, so the
        query is resolved once, not once per member."""
        target = self.find_one(query)
        if target is None:
            return False
        doc_id = target["_id"]

        def update(member_name: str) -> None:
            collection = self._member(member_name)
            if collection.update_one({"_id": doc_id}, dict(changes)):
                return
            # replica is missing the doc: repair it, with changes applied
            repaired = dict(target)
            repaired.update(validate_document(dict(changes)))
            repaired["_id"] = doc_id
            try:
                collection.insert_one(_copy(repaired))
            except DuplicateKeyError:
                pass

        self._store._quorum_write(
            self.name, doc_id, self._owners(doc_id), update, "docs.update_one")
        return True

    def delete_one(self, doc_id: str) -> bool:
        """Quorum-delete: each acking owner records a tombstone *and*
        drops its copy.  A replica that missed the delete keeps the
        document, but the tombstone stops read-repair and rebalancing
        from resurrecting it — they finish the delete instead, and so does
        the missed owner's hint, whose delivery consults the tombstone."""
        doc_id = str(doc_id)
        removed: list[bool] = []
        self._store._quorum_write(
            self.name, doc_id, self._owners(doc_id),
            lambda member_name: removed.append(self._bury(member_name, doc_id)), "docs.delete_one")
        return any(removed)

    def _bury(self, member_name: str, doc_id: str) -> bool:
        """One owner's delete: record the tombstone, then drop the copy."""
        graves = self._store.members[member_name].collection(TOMBSTONES)
        try:
            graves.insert_one({"_id": self._tombstone_key(doc_id)})
        except DuplicateKeyError:
            pass  # idempotent retry of a partially-acked delete
        return self._member(member_name).delete_one(doc_id)

    def delete_many(self, query: dict) -> int:
        """Resolve the query cluster-wide, then delete each match by id on
        its owners; the count is logical documents, not replica files."""
        matched = self.find(query, projection=())
        for document in matched:
            self.delete_one(document["_id"])
        return len(matched)

    # -- reads ---------------------------------------------------------------

    def get(self, doc_id: str, projection=None) -> dict:
        """Fetch by id with failover; a hit after misses read-repairs the
        replicas found without the document — always with the whole
        document, re-read when the caller asked for a projection of it.

        A copy shadowed by a tombstone (a replica that missed a
        quorum-acked delete) is *not* returned — the delete is finished
        instead.  When replicas were unreachable and the document was
        not found, absence is unproven, so the retryable
        :class:`TransientStoreError` is raised rather than
        :class:`NotFoundError` — callers like ``fsck`` must not
        garbage-collect on the strength of a degraded read.
        """
        doc_id = str(doc_id)
        failed = []
        unreachable = 0
        for member_name in self._owners(doc_id):
            collection = self._member(member_name)
            deadline_mod.check("docs.get")
            if not self._store._allowed(member_name):
                unreachable += 1  # breaker open: absence stays unproven
                continue
            try:
                document = collection.get(doc_id, projection=projection)
            except NotFoundError:
                self._store._up(member_name)
                failed.append(collection)
                continue
            except OSError:
                self._store._down(member_name)
                unreachable += 1
                continue
            self._store._up(member_name)
            if self._is_tombstoned(doc_id):
                self._reap(doc_id)
                raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")
            if failed or unreachable:
                self._store._bump("failover_reads")
                whole = document
                if failed and projection is not None:
                    # repairing from a projected copy would write a
                    # truncated document to the replica
                    try:
                        whole = collection.get(doc_id)
                    except REPLICA_FAILURES:
                        failed = []  # gone since: nothing to repair from
                self._repair(failed, whole)
            return document
        if unreachable:
            raise TransientStoreError(
                f"document {self.name}/{doc_id}: {unreachable} replica(s) "
                "unreachable and the document was not proven absent"
            )
        raise NotFoundError(f"no document {doc_id!r} in {self.name!r}")

    def _repair(self, collections, document: dict) -> None:
        for collection in collections:
            try:
                collection.insert_one(_copy(document))
            except DuplicateKeyError:
                continue
            except REPLICA_FAILURES:
                self._store._bump("repair_failures")
                continue
            self._store._bump("read_repairs")
            self._store._obs_events.emit(
                "read_repair", plane="docs", collection=self.name,
                key=document["_id"])
        self._store._clear_degraded(self.name, document["_id"])

    def get_many(self, doc_ids: list[str], projection=None) -> list[dict]:
        """Batched fetch grouped by primary owner (one trip per member);
        ids the batch missed fall back to per-id failover reads."""
        groups: dict[str, list[str]] = {}
        for doc_id in doc_ids:
            primary = self._store.ring.primary(f"{self.name}/{doc_id}")
            groups.setdefault(primary, []).append(str(doc_id))
        found: dict[str, dict] = {}
        for member_name in sorted(groups):
            group = groups[member_name]
            collection = self._store.members[member_name].collection(self.name)
            try:
                for document in collection.get_many(group, projection=projection):
                    found[document["_id"]] = document
            except OSError:
                pass  # member down: the per-id fallback below fails over
            for doc_id in group:
                if doc_id in found:
                    continue
                try:
                    found[doc_id] = self.get(doc_id, projection=projection)
                except NotFoundError:
                    continue  # missing ids are skipped, like the engine
        return [found[str(doc_id)] for doc_id in doc_ids if str(doc_id) in found]

    def find(
        self,
        query: dict | None = None,
        sort: list | None = None,
        limit: int | None = None,
        skip: int = 0,
        projection=None,
    ) -> list[dict]:
        """Scatter-gather query: every member is asked (replicas of a
        document may sit anywhere), results are deduplicated by ``_id``,
        and sort/skip/limit apply to the merged set so pagination is
        cluster-wide, not per-shard.  Up to R-1 unreachable members are
        tolerated — every document has R owners, so at least one replica
        of each still answers.  At R or more unreachable members some
        documents may have *no* reachable replica, and silently treating
        them as absent would let callers (``fsck`` above all) mistake an
        outage for deletion — that raises the retryable
        :class:`TransientStoreError` instead.  Documents shadowed by a
        tombstone (quorum-deleted, one stale replica left) are filtered
        out rather than resurrected.  An unsorted ``limit`` without
        ``skip`` is pushed down to the members, widened by the number of
        tombstones so that shadowed copies cannot crowd out live ones.
        Members are asked for ``projection`` plus the fields the merged
        sort reads, which are dropped again from what is returned."""
        member_projection = None
        if projection is not None:
            projection = list(projection)
            sort_fields = {field.split(".")[0] for field, _direction in sort or ()}
            member_projection = projection + sorted(sort_fields - set(projection))
        tombstoned = None
        member_limit = None
        if limit is not None and not sort and not skip:
            tombstoned = self._tombstoned_ids()
            member_limit = limit + len(tombstoned)
        merged: dict[str, dict] = {}
        unreachable = 0
        for member_name in sorted(self._store.members):
            collection = self._store.members[member_name].collection(self.name)
            deadline_mod.check("docs.find")
            if not self._store._allowed(member_name):
                self._store._bump("failover_reads")
                unreachable += 1  # breaker open: results may be incomplete
                continue
            try:
                results = collection.find(
                    query, limit=member_limit, projection=member_projection)
            except OSError:
                self._store._down(member_name)
                self._store._bump("failover_reads")
                unreachable += 1
                continue
            self._store._up(member_name)
            for document in results:
                merged.setdefault(document["_id"], document)
        if unreachable >= self._store._effective_replicas():
            raise TransientStoreError(
                f"collection {self.name!r}: {unreachable} member(s) unreachable "
                f"(replication factor {self._store._effective_replicas()}) — "
                "query results cannot be proven complete"
            )
        if merged:
            if tombstoned is None:
                tombstoned = self._tombstoned_ids()
            for doc_id in tombstoned:
                merged.pop(doc_id, None)
        results = [merged[doc_id] for doc_id in sorted(merged)]
        if sort:
            for field, direction in reversed(list(sort)):
                if direction not in (1, -1):
                    raise ValueError(f"sort direction must be 1 or -1, got {direction}")
                results.sort(
                    key=lambda document: _sort_key(resolve_path(document, field)),
                    reverse=direction == -1,
                )
        if skip:
            if skip < 0:
                raise ValueError(f"skip must be >= 0, got {skip}")
            results = results[skip:]
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            results = results[:limit]
        if projection is not None and member_projection != projection:
            keep = {"_id", *projection}
            results = [
                {field: value for field, value in document.items() if field in keep}
                for document in results
            ]
        return results

    def find_one(self, query: dict) -> dict | None:
        results = self.find(query, limit=1)
        return results[0] if results else None

    def count(self, query: dict | None = None) -> int:
        return len(self.find(query, projection=()))

    def _from_members(self, method: str) -> list:
        """``method()`` of this collection on every reachable member."""
        results = []
        for collection in self._all_collections():
            try:
                results.append(getattr(collection, method)())
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
    quorum, detector, hints and stats are the
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
        hint_log=None,
    ):
        self._init_ledger(members, replicas, write_quorum, vnodes, detector, hint_log)
        self._collections: dict[str, _ShardedCollection] = {}
        self._collections_lock = threading.Lock()

    # -- hinted handoff delivery ---------------------------------------------

    def _hint(self, name: str, collection: str, doc_id: str) -> None:
        if self.hints is not None:
            self.hints.record(name, KIND_DOC, doc_id, collection=collection)

    def hint_appliers(self) -> dict:
        """Kind → applier callables for a :class:`~repro.cluster.hints.HintDeliverer`."""
        return {KIND_DOC: self._apply_doc_hint}

    def _apply_doc_hint(self, member_name: str, hint) -> bool:
        """Deliver one document IOU, tombstone-safely.

        Hints carry no document body; delivery decides from *current*
        cluster state.  A document tombstoned since the hint was recorded
        gets the tombstone (and the delete finished) — replaying a hint
        never resurrects a quorum-acked delete.  Otherwise the live copy
        is read from a surviving owner and replicated to the member.
        Returns ``False`` (stale) when the member or its ownership is
        gone, or no owner holds the document anymore; raises the member's
        transient errors through so the deliverer retries later.
        """
        collection_name = hint.get("collection")
        doc_id = str(hint["key"])
        member = self.members.get(member_name)
        if member is None or collection_name is None:
            return False
        ring_key = f"{collection_name}/{doc_id}"
        if member_name not in self.ring.owners(ring_key):
            return False  # ownership moved on (rebalance since the write)
        sharded = self.collection(collection_name)
        if sharded._is_tombstoned(doc_id):
            sharded._bury(member_name, doc_id)
            self._clear_degraded(collection_name, doc_id)
            return True
        document = None
        for name in self.ring.owners(ring_key):
            if name == member_name:
                continue
            try:
                document = self.members[name].collection(collection_name).get(doc_id)
                break
            except (NotFoundError, OSError):
                continue
        if document is None:
            return False  # no surviving replica: delete converged or data lost
        target = member.collection(collection_name)
        try:
            target.insert_one(_copy(document))
        except DuplicateKeyError:
            target.replace_one(doc_id, _copy(document))
        self._clear_degraded(collection_name, doc_id)
        return True

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
        names.discard(TOMBSTONES)  # bookkeeping, not user data
        return sorted(names)

    def drop_collection(self, name: str) -> None:
        prefix = f"{name}/"
        for member in self.members.values():
            member.drop_collection(name)
            graves = member.collection(TOMBSTONES)
            for stone in graves.find({}):
                if stone["_id"].startswith(prefix):
                    graves.delete_one(stone["_id"])
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

    # -- membership (placement only; data movement is the rebalancer's) ------

    def rebalance_documents(self) -> dict:
        """Re-place every document according to the *current* ring: copy to
        new owners missing it, drop replicas from non-owners.  Used after
        membership changes; also heals under-replicated documents.

        Tombstoned documents are never re-propagated: a replica that
        missed a quorum-acked delete gets the delete finished here
        instead, and tombstones whose document is provably gone from
        every member are purged."""
        copied = 0
        dropped = 0
        # tombstones first: re-place each by its own id (which *is* the
        # deleted document's ring key) and learn what is deleted before
        # copying documents around
        stones, stone_holders = self._held(TOMBSTONES)
        tombstoned = set(stones)
        for tombstone_id, stone in stones.items():
            self._converge(TOMBSTONES, stone, set(self.ring.owners(tombstone_id)),
                           stone_holders[tombstone_id])
        for name in self.collection_names():
            documents, holders = self._held(name)
            for doc_id, document in documents.items():
                ring_key = f"{name}/{doc_id}"
                # a quorum-deleted document is dropped everywhere, not re-copied
                owners = set() if ring_key in tombstoned else set(self.ring.owners(ring_key))
                moved = self._converge(name, document, owners, holders[doc_id])
                copied += moved[0]
                dropped += moved[1]
                self._clear_degraded(name, doc_id)
        purged = self._purge_dead_tombstones(tombstoned)
        return {
            "documents_copied": copied,
            "replicas_dropped": dropped,
            "tombstones_purged": purged,
        }

    def _held(self, collection: str) -> tuple[dict[str, dict], dict[str, set[str]]]:
        """Every document of ``collection`` on a reachable member, and
        the members holding each."""
        documents: dict[str, dict] = {}
        holders: dict[str, set[str]] = {}
        for member_name in sorted(self.members):
            try:
                found = self.members[member_name].collection(collection).find({})
            except OSError:
                continue
            for document in found:
                documents.setdefault(document["_id"], document)
                holders.setdefault(document["_id"], set()).add(member_name)
        return documents, holders

    def _converge(self, collection: str, document: dict, owners: set[str],
                  holders: set[str]) -> tuple[int, int]:
        """Copy ``document`` to the ``owners`` missing it and drop it from
        the other ``holders``; returns ``(copied, dropped)``."""
        copied = dropped = 0
        for member_name in owners - holders:
            try:
                self.members[member_name].collection(collection).insert_one(_copy(document))
            except (DuplicateKeyError, OSError):
                continue
            copied += 1
        for member_name in holders - owners:
            try:
                gone = self.members[member_name].collection(collection).delete_one(
                    document["_id"])
            except OSError:
                continue
            dropped += bool(gone)
        return copied, dropped

    def _purge_dead_tombstones(self, tombstoned: set[str]) -> int:
        """Drop tombstones whose document no member holds anymore.

        A tombstone is only purged when *every* member definitively
        answered "not found" — an unreachable member might still hold a
        stale copy that the tombstone must keep shadowing."""
        purged = 0
        for tombstone_id in sorted(tombstoned):
            collection_name, _, doc_id = tombstone_id.partition("/")
            gone = True
            for member_name in sorted(self.members):
                try:
                    self.members[member_name].collection(collection_name).get(doc_id)
                except NotFoundError:
                    continue
                except OSError:
                    gone = False  # cannot prove the stale copy is gone
                    break
                gone = False
                break
            if not gone:
                continue
            for member_name in sorted(self.members):
                try:
                    self.members[member_name].collection(TOMBSTONES).delete_one(
                        tombstone_id
                    )
                except OSError:
                    continue
            purged += 1
        return purged

    def add_member(self, name: str, store) -> dict:
        """Add a member and re-place documents whose ownership moved."""
        self.members[name] = store
        self.ring.add_member(name)
        return self.rebalance_documents()

    def remove_member(self, name: str) -> dict:
        """Drain and drop a member: ownership recomputes without it, its
        documents stream to the new owners, then it leaves the cluster."""
        if name not in self.members:
            raise KeyError(f"member {name!r} is not in the cluster")
        self.ring.remove_member(name)
        stats = self.rebalance_documents()
        self.members.pop(name, None)
        return stats
