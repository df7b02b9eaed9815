"""Sharded, replicated document store with the engine's Collection API.

Metadata documents get the same treatment as payload bytes: each
document is placed on R member stores by ``collection/doc_id`` ring
hash, writes need a quorum of owners, reads fail over in ring order and
read-repair replicas found missing a document.  Queries have no routing
key, so :meth:`_ShardedCollection.find` scatter-gathers every member,
deduplicates replicas by ``_id``, and applies sort/skip/limit globally —
per-member sorts cannot simply concatenate.

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
from .. import obs
from ..docstore.documents import new_object_id, validate_document
from ..docstore.engine import DuplicateKeyError, NotFoundError, _sort_key, merge_stats
from ..docstore.query import resolve_path
from ..errors import QuorumWriteError, TransientStoreError
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ShardedDocumentStore", "TOMBSTONES"]

#: A replica that raises one of these did not deliver; the client fails
#: over (reads) or counts the replica un-acked (writes).
_REPLICA_FAILURES = (NotFoundError, OSError)

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

    def _owners(self, doc_id: str):
        ring = self._store.ring
        for member_name in ring.owners(f"{self.name}/{doc_id}"):
            yield member_name, self._store.members[member_name].collection(self.name)

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
        acks = 0
        fresh = 0
        duplicates = 0
        owner_count = 0
        missed: list[str] = []
        last_error: Exception | None = None
        for member_name, collection in self._owners(doc_id):
            owner_count += 1
            deadline_mod.check("docs.insert_one")
            if not self._store._member_allowed(member_name):
                missed.append(member_name)
                continue
            try:
                collection.insert_one(_copy(document))
                fresh += 1
            except DuplicateKeyError:
                duplicates += 1
            except _REPLICA_FAILURES as exc:
                last_error = exc
                if isinstance(exc, OSError):
                    self._store._member_down(member_name)
                missed.append(member_name)
                continue
            self._store._member_up(member_name)
            acks += 1
        if acks < self._store.write_quorum:
            self._store._note_quorum_failure(self.name, doc_id, acks)
            raise QuorumWriteError(
                f"document {self.name}/{doc_id} reached {acks}/{owner_count} "
                f"replicas (write quorum {self._store.write_quorum})"
            ) from last_error
        if duplicates and not fresh:
            raise DuplicateKeyError(
                f"duplicate _id {doc_id!r} in collection {self.name!r}"
            )
        if missed:
            self._store._note_degraded(self.name, doc_id)
            for member_name in missed:
                self._store._hint(member_name, self.name, doc_id)
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
        acks = 0
        owner_count = 0
        missed: list[str] = []
        last_error: Exception | None = None
        for member_name, collection in self._owners(doc_id):
            owner_count += 1
            deadline_mod.check("docs.replace_one")
            if not self._store._member_allowed(member_name):
                missed.append(member_name)
                continue
            try:
                try:
                    collection.replace_one(doc_id, _copy(document))
                except NotFoundError:
                    collection.insert_one(_copy(document))
            except _REPLICA_FAILURES as exc:
                last_error = exc
                if isinstance(exc, OSError):
                    self._store._member_down(member_name)
                missed.append(member_name)
                continue
            self._store._member_up(member_name)
            acks += 1
        if acks < self._store.write_quorum:
            self._store._note_quorum_failure(self.name, doc_id, acks)
            raise QuorumWriteError(
                f"document {self.name}/{doc_id} replace reached {acks}/"
                f"{owner_count} replicas (write quorum {self._store.write_quorum})"
            ) from last_error
        if missed:
            self._store._note_degraded(self.name, doc_id)
            for member_name in missed:
                self._store._hint(member_name, self.name, doc_id)

    def update_one(self, query: dict, changes: dict) -> bool:
        """Find the first match cluster-wide, then update it by ``_id`` on
        every owner — replicas must converge on the same document, so the
        query is resolved once, not once per member."""
        target = self.find_one(query)
        if target is None:
            return False
        doc_id = target["_id"]
        acks = 0
        owner_count = 0
        missed: list[str] = []
        last_error: Exception | None = None
        for member_name, collection in self._owners(doc_id):
            owner_count += 1
            deadline_mod.check("docs.update_one")
            if not self._store._member_allowed(member_name):
                missed.append(member_name)
                continue
            try:
                if not collection.update_one({"_id": doc_id}, dict(changes)):
                    # replica is missing the doc: repair it, with changes applied
                    repaired = dict(target)
                    repaired.update(validate_document(dict(changes)))
                    repaired["_id"] = doc_id
                    try:
                        collection.insert_one(_copy(repaired))
                    except DuplicateKeyError:
                        pass
            except _REPLICA_FAILURES as exc:
                last_error = exc
                if isinstance(exc, OSError):
                    self._store._member_down(member_name)
                missed.append(member_name)
                continue
            self._store._member_up(member_name)
            acks += 1
        if acks < self._store.write_quorum:
            self._store._note_quorum_failure(self.name, doc_id, acks)
            raise QuorumWriteError(
                f"document {self.name}/{doc_id} update reached {acks}/"
                f"{owner_count} replicas (write quorum {self._store.write_quorum})"
            ) from last_error
        if missed:
            self._store._note_degraded(self.name, doc_id)
            for member_name in missed:
                self._store._hint(member_name, self.name, doc_id)
        return True

    def delete_one(self, doc_id: str) -> bool:
        """Quorum-delete: each acking owner records a tombstone *and*
        drops its copy.  A replica that missed the delete keeps the
        document, but the tombstone stops read-repair and rebalancing
        from resurrecting it — they finish the delete instead.  Partial
        acks leave the key in the degraded set so maintenance retries."""
        doc_id = str(doc_id)
        tombstone_id = self._tombstone_key(doc_id)
        removed = False
        acks = 0
        owner_count = 0
        missed: list[str] = []
        last_error: Exception | None = None
        for member_name, collection in self._owners(doc_id):
            owner_count += 1
            deadline_mod.check("docs.delete_one")
            if not self._store._member_allowed(member_name):
                missed.append(member_name)
                continue
            graves = self._store.members[member_name].collection(TOMBSTONES)
            try:
                try:
                    graves.insert_one({"_id": tombstone_id})
                except DuplicateKeyError:
                    pass  # idempotent retry of a partially-acked delete
                removed = collection.delete_one(doc_id) or removed
            except _REPLICA_FAILURES as exc:
                last_error = exc
                if isinstance(exc, OSError):
                    self._store._member_down(member_name)
                missed.append(member_name)
                continue
            self._store._member_up(member_name)
            acks += 1
        if acks < self._store.write_quorum:
            self._store._note_quorum_failure(self.name, doc_id, acks)
            raise QuorumWriteError(
                f"document {self.name}/{doc_id} delete reached {acks}/"
                f"{owner_count} replicas (write quorum {self._store.write_quorum})"
            ) from last_error
        if missed:
            self._store._note_degraded(self.name, doc_id)
            # the hint's delivery consults the tombstone, so replaying it
            # finishes the delete on the member that missed it
            for member_name in missed:
                self._store._hint(member_name, self.name, doc_id)
        else:
            self._store._clear_degraded(self.name, doc_id)
        return removed

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
        for member_name, collection in self._owners(doc_id):
            deadline_mod.check("docs.get")
            if not self._store._member_allowed(member_name):
                unreachable += 1  # breaker open: absence stays unproven
                continue
            try:
                document = collection.get(doc_id, projection=projection)
            except NotFoundError:
                self._store._member_up(member_name)
                failed.append(collection)
                continue
            except OSError:
                self._store._member_down(member_name)
                unreachable += 1
                continue
            self._store._member_up(member_name)
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
                    except _REPLICA_FAILURES:
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
            except _REPLICA_FAILURES:
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
            if not self._store._member_allowed(member_name):
                self._store._bump("failover_reads")
                unreachable += 1  # breaker open: results may be incomplete
                continue
            try:
                results = collection.find(
                    query, limit=member_limit, projection=member_projection)
            except OSError:
                self._store._member_down(member_name)
                self._store._bump("failover_reads")
                unreachable += 1
                continue
            self._store._member_up(member_name)
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


class ShardedDocumentStore:
    """R-of-N replicated document store over named member stores.

    Drop-in for the engine's :class:`~repro.docstore.engine.DocumentStore`
    wherever MMlib takes one (services, save transactions, fsck): it has
    the same ``collection``/``collection_names``/``drop_collection``/
    ``storage_bytes`` surface, with replication underneath.
    """

    def __init__(
        self,
        members: Mapping[str, object],
        replicas: int = 2,
        write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
        detector=None,
        hint_log=None,
    ):
        if not members:
            raise ValueError("a sharded document store needs at least one member")
        self.members = dict(members)
        self.detector = detector
        self.hints = hint_log
        if detector is not None:
            for name in self.members:
                detector.add_member(name)
        self.ring = HashRing(sorted(self.members), replicas=replicas, vnodes=vnodes)
        effective = min(replicas, len(self.members))
        if write_quorum is None:
            write_quorum = effective // 2 + 1
        if not 1 <= write_quorum <= effective:
            raise ValueError(
                f"write_quorum must be in [1, {effective}], got {write_quorum}"
            )
        self.write_quorum = int(write_quorum)
        self._stats_lock = threading.Lock()
        self.cluster_stats = {
            "failover_reads": 0,
            "read_repairs": 0,
            "degraded_writes": 0,
            "repair_failures": 0,
        }
        self.degraded_keys: set[tuple[str, str]] = set()
        self._collections: dict[str, _ShardedCollection] = {}
        self._collections_lock = threading.Lock()
        registry = obs.registry()
        self._obs_events = obs.events()
        self._obs_cluster = {
            "failover_reads": registry.counter(
                "mmlib_cluster_failover_reads_total",
                "Reads served by a non-primary replica", plane="docs"),
            "read_repairs": registry.counter(
                "mmlib_cluster_read_repairs_total",
                "Replica copies healed during reads", plane="docs"),
            "degraded_writes": registry.counter(
                "mmlib_cluster_degraded_writes_total",
                "Writes acked below full replication", plane="docs"),
            "repair_failures": registry.counter(
                "mmlib_cluster_repair_failures_total",
                "Read-repair attempts that failed", plane="docs"),
        }
        self._obs_quorum_failures = registry.counter(
            "mmlib_cluster_quorum_write_failures_total",
            "Writes that missed quorum", plane="docs")

    # -- stats bookkeeping (shared with _ShardedCollection) ------------------

    def _bump(self, stat: str, by: int = 1) -> None:
        with self._stats_lock:
            self.cluster_stats[stat] += by
        self._obs_cluster[stat].inc(by)

    def _note_degraded(self, collection: str, doc_id: str) -> None:
        with self._stats_lock:
            self.cluster_stats["degraded_writes"] += 1
            self.degraded_keys.add((collection, doc_id))
        self._obs_cluster["degraded_writes"].inc()
        self._obs_events.emit(
            "degraded_write", plane="docs", collection=collection, key=doc_id)

    def _clear_degraded(self, collection: str, doc_id: str) -> None:
        with self._stats_lock:
            self.degraded_keys.discard((collection, doc_id))

    def _note_quorum_failure(self, collection: str, doc_id: str, acks: int) -> None:
        self._obs_quorum_failures.inc()
        self._obs_events.emit(
            "quorum_write_failed", plane="docs", collection=collection,
            key=doc_id, acks=acks, quorum=self.write_quorum)

    def _effective_replicas(self) -> int:
        """The replica count actually achievable with current membership."""
        return min(self.ring.replicas, len(self.members))

    # -- failure-detector / hint feeds (all no-ops when not wired) -----------

    def _member_allowed(self, name: str) -> bool:
        return self.detector is None or self.detector.allow(name)

    def _member_up(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_success(name)

    def _member_down(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_failure(name)

    def _hint(self, name: str, collection: str, doc_id: str) -> None:
        if self.hints is not None:
            self.hints.record(name, "doc", str(doc_id), collection=collection)

    # -- hinted handoff delivery ---------------------------------------------

    def hint_appliers(self) -> dict:
        """Kind → applier callables for a :class:`~repro.cluster.hints.HintDeliverer`."""
        return {"doc": self._apply_doc_hint}

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
            graves = member.collection(TOMBSTONES)
            try:
                graves.insert_one({"_id": ring_key})
            except DuplicateKeyError:
                pass
            member.collection(collection_name).delete_one(doc_id)
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
        tombstoned: set[str] = set()
        stone_holders: dict[str, set[str]] = {}
        for member_name in sorted(self.members):
            graves = self.members[member_name].collection(TOMBSTONES)
            try:
                stones = graves.find({})
            except OSError:
                continue
            for stone in stones:
                tombstoned.add(stone["_id"])
                stone_holders.setdefault(stone["_id"], set()).add(member_name)
        for tombstone_id, holding in stone_holders.items():
            owners = set(self.ring.owners(tombstone_id))
            for member_name in owners - holding:
                try:
                    self.members[member_name].collection(TOMBSTONES).insert_one(
                        {"_id": tombstone_id}
                    )
                except (DuplicateKeyError, OSError):
                    continue
            for member_name in holding - owners:
                try:
                    self.members[member_name].collection(TOMBSTONES).delete_one(
                        tombstone_id
                    )
                except OSError:
                    continue
        for name in self.collection_names():
            merged: dict[str, dict] = {}
            holders: dict[str, set[str]] = {}
            for member_name in sorted(self.members):
                collection = self.members[member_name].collection(name)
                try:
                    documents = collection.find({})
                except OSError:
                    continue
                for document in documents:
                    merged.setdefault(document["_id"], document)
                    holders.setdefault(document["_id"], set()).add(member_name)
            for doc_id, document in merged.items():
                if f"{name}/{doc_id}" in tombstoned:
                    # quorum-deleted: finish the delete, don't re-copy
                    for member_name in holders[doc_id]:
                        try:
                            if self.members[member_name].collection(name).delete_one(
                                doc_id
                            ):
                                dropped += 1
                        except OSError:
                            continue
                    self._clear_degraded(name, doc_id)
                    continue
                owners = set(self.ring.owners(f"{name}/{doc_id}"))
                for member_name in owners - holders[doc_id]:
                    try:
                        self.members[member_name].collection(name).insert_one(
                            _copy(document)
                        )
                        copied += 1
                    except (DuplicateKeyError, OSError):
                        continue
                for member_name in holders[doc_id] - owners:
                    try:
                        if self.members[member_name].collection(name).delete_one(doc_id):
                            dropped += 1
                    except OSError:
                        continue
                self._clear_degraded(name, doc_id)
        purged = self._purge_dead_tombstones(tombstoned)
        return {
            "documents_copied": copied,
            "replicas_dropped": dropped,
            "tombstones_purged": purged,
        }

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
