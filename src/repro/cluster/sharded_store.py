"""Sharded, replicated file store: quorum writes, failover reads, repair.

:class:`ShardedFileStore` presents the exact :class:`~repro.filestore.store.FileStore`
interface — save services, the recovery pipeline and ``fsck`` all run
against it unchanged — while spreading records (chunks and the files that
are records under their file ids) over N member stores placed by a
consistent-hash :class:`HashRing`.

Replication semantics:

* **Writes** go to all R ring owners of a key; the write succeeds once
  ``write_quorum`` (default a majority of R) members acknowledge, and a
  short-of-quorum write raises the retryable
  :class:`~repro.errors.QuorumWriteError`.  Chunk and file writes are
  content-addressed or target a fixed id, so the whole quorum write is
  idempotent under the store's shared retry policy.  Writes that reach
  quorum but not all R owners are tracked as *degraded* and leave a hint
  per missed owner.  The loop itself is the cluster's one quorum write,
  :meth:`~repro.cluster.replica.ReplicaLedger._quorum_write`, shared with
  the document store; this store supplies only one owner's write.
* **Reads** try replicas in ring order and fail over past dead or
  corrupt members.  A successful failover read triggers *read-repair*:
  the payload is written back to owners found missing it — from the
  verified heal source (:func:`~repro.cluster.replica.source`) that hinted
  handoff, anti-entropy and rebalance moves use too, so a corrupt payload
  is never propagated.

The sharded store itself holds no payload data: its root directory
carries only the save-intent journals (and rebalance journals), which
stay cluster-wide rather than per-member so crash recovery sees one
consistent intent log.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping

from .. import deadline as deadline_mod
from ..errors import TransientStoreError
from ..filestore.store import (
    ChunkNotFoundError,
    FileStore,
    chunk_intact,
    is_file_id,
)
from .replica import REPLICA_FAILURES, ReplicaLedger, classify_failure, place, source
from .ring import DEFAULT_VNODES

__all__ = ["ShardedFileStore"]

#: Threads that run a barrier's member fsyncs beside the caller's own;
#: shared by every sharded store in the process.
_FSYNC_WORKERS = 8
_fsync_pool: ThreadPoolExecutor | None = None
_fsync_pool_lock = threading.Lock()


def _fsync_executor() -> ThreadPoolExecutor:
    global _fsync_pool
    with _fsync_pool_lock:
        if _fsync_pool is None:
            _fsync_pool = ThreadPoolExecutor(
                max_workers=_FSYNC_WORKERS, thread_name_prefix="cluster-fsync")
        return _fsync_pool


def _reset_fsync_pool() -> None:
    global _fsync_pool, _fsync_pool_lock
    _fsync_pool, _fsync_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child inherits a pool without threads; recreate it lazily there
    os.register_at_fork(after_in_child=_reset_fsync_pool)


class _ShardedChunkView:
    """Ring-routed facade over the member stores' :class:`ChunkStore`s.

    Quacks like a single ``ChunkStore`` so the inherited ``FileStore``
    machinery (manifest save/delete, journal rollback, fsck reconcile)
    works untouched: lookups fail over across a key's owners, mutations
    fan out to them, and aggregate views union every member.
    """

    def __init__(self, store: "ShardedFileStore"):
        self._store = store

    def _all_members(self, digest: str | None = None):
        """Member stores, a key's owners first (mid-rebalance data may
        still sit on former owners)."""
        store = self._store
        if digest is None:
            return [store.members[n] for n in sorted(store.members)]
        owners = store.ring.owners(digest)
        rest = sorted(set(store.members) - set(owners))
        return [store.members[n] for n in owners + rest]

    def _group(self, digests) -> dict[str, list[str]]:
        """Group digest occurrences by owning member (multiplicity kept:
        refcounts increment once per occurrence, exactly like the flat
        store)."""
        groups: dict[str, list[str]] = {}
        for digest in digests:
            for name in self._store.ring.owners(digest):
                groups.setdefault(name, []).append(digest)
        return groups

    # -- chunk data ---------------------------------------------------------

    def has(self, digest: str) -> bool:
        return any(m.chunks.has(digest) for m in self._all_members(digest))

    def get(self, digest: str) -> bytes:
        for member in self._all_members(digest):
            try:
                return member.chunks.get(digest)
            except ChunkNotFoundError:
                continue
        raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")

    def put(self, digest: str, buffer) -> bool:
        wrote = False
        for name in self._store.ring.owners(digest):
            wrote = self._store.members[name].chunks.put(digest, buffer) or wrote
        return wrote

    def drop(self, digest: str) -> bool:
        removed = False
        for member in self._all_members(digest):
            removed = member.chunks.drop(digest) or removed
        return removed

    def size_of(self, digest: str) -> int | None:
        for member in self._all_members(digest):
            size = member.chunks.size_of(digest)
            if size is not None:
                return size
        return None

    # -- reference counting -------------------------------------------------

    def refcount(self, digest: str) -> int:
        return max(
            (member.chunks.refcount(digest) for member in self._all_members(digest)),
            default=0,
        )

    def add_refs(self, digests) -> None:
        for name, group in self._group(list(digests)).items():
            self._store.members[name].chunks.add_refs(group)

    def release_refs(self, digests) -> list[str]:
        removed: set[str] = set()
        for name, group in self._group(list(digests)).items():
            removed.update(self._store.members[name].chunks.release_refs(group))
        return sorted(removed)

    def export_refs(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for member in self._all_members():
            for digest, count in member.chunks.export_refs().items():
                merged[digest] = max(merged.get(digest, 0), count)
        return merged

    def import_refs(self, counts: Mapping[str, int]) -> None:
        per_member: dict[str, dict[str, int]] = {}
        for digest, count in counts.items():
            for name in self._store.ring.owners(digest):
                per_member.setdefault(name, {})[digest] = count
        for name, member_counts in per_member.items():
            self._store.members[name].chunks.import_refs(member_counts)

    def forget_refs(self, digests) -> None:
        digests = set(digests)
        for member in self._all_members():
            member.chunks.forget_refs(digests)

    def flush(self) -> int:
        """A save's group-fsync barrier, on every member that holds one of
        its chunks unsynced.

        That is a member the chunk was appended to, or one whose put found
        the chunk already there but not yet flushed (a read repair, hint,
        rebalance or concurrent save appended it), as is an owner holding
        a chunk the save references without a put (``held``) unflushed.  A member that took
        only file records (a manifest, code) keeps them for its next
        barrier, so a save costs the fsyncs its chunks cost: a file's
        owners are placed by its id, not beside its chunks.  One barrier
        runs at a time, so a save whose members another save took is not
        acknowledged before that save's fsyncs have finished.

        The members' fsyncs run concurrently, as separate nodes' would:
        the first on the calling thread, the rest on a shared pool.  The
        barrier returns — or raises the first failure — only once every
        one of them has; a member whose fsync failed waits for the next.
        """
        store = self._store
        with store._barrier_lock:
            with store._stats_lock:
                names, store._unsynced = store._unsynced, set()
            ordered = sorted(names)
            futures = {
                name: _fsync_executor().submit(store.members[name].chunks.flush)
                for name in ordered[1:]
            }
            synced, failed, error = 0, [], None
            for name in ordered:
                try:
                    if name in futures:
                        synced += futures[name].result()
                    else:
                        synced += store.members[name].chunks.flush()
                except Exception as exc:
                    failed.append(name)
                    error = error or exc
            if error is not None:
                with store._stats_lock:
                    store._unsynced.update(failed)
                raise error
            return synced

    def _summed(self, call, keys) -> dict:
        """``call(member)`` on every member store, ``keys`` summed; each
        member's own answer is kept under ``members``."""
        store = self._store
        merged = dict.fromkeys(keys, 0)
        merged["members"] = {name: call(store.members[name]) for name in sorted(store.members)}
        for stats in merged["members"].values():
            for key in keys:
                merged[key] += stats[key]
        return merged

    def gc(self) -> dict[str, int]:
        stats = self._summed(lambda member: member.gc_chunks(), ("chunks_removed", "bytes_freed"))
        del stats["members"]
        return stats

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Aggregate the members' segment audits.

        Listy fields are prefixed ``member:item`` like :meth:`reconcile`.
        """
        merged = self._summed(
            lambda member: member.chunks.audit(repair=repair, verify=verify),
            ("segments_checked", "tmp_segments_removed", "entries_added"))
        reports = merged.pop("members")
        merged["layout"] = "sharded"
        for field in ("torn_segments", "entries_dropped", "crc_failures"):
            merged[field] = [
                f"{name}:{item}" for name, report in reports.items() for item in report[field]]
        merged["compaction"] = [
            f"{name}:{report['compaction']}"
            for name, report in reports.items() if report["compaction"] is not None]
        return merged

    def segment_stats(self) -> dict:
        """Cluster-wide segment gauges (summed over members)."""
        merged = self._summed(
            lambda member: member.chunks.segment_stats(),
            ("segment_count", "sealed_segments", "chunks", "live_bytes", "dead_bytes",
             "compaction_debt_bytes"))
        merged["layout"] = "sharded"
        merged["pending_compaction"] = any(
            stats["pending_compaction"] for stats in merged["members"].values())
        total = merged["live_bytes"] + merged["dead_bytes"]
        merged["live_ratio"] = (merged["live_bytes"] / total) if total else 1.0
        return merged

    def dedup_stats(self) -> dict:
        """Cluster-wide dedup accounting (summed over members)."""
        merged = self._summed(lambda member: member.chunks.dedup_stats(),
                              ("logical_bytes", "dedup_bytes", "stored_bytes"))
        written = merged["logical_bytes"] - merged["dedup_bytes"]
        merged["dedup_ratio"] = (
            round(merged["logical_bytes"] / written, 4) if written else None
        )
        return merged

    def reconcile(self, expected_refs: Mapping[str, int], repair: bool = True) -> dict:
        """Per-member reconcile against the ring-owned slice of the truth.

        Each member is held to exactly the digests the ring assigns it;
        result keys are ``member:digest`` so one cluster-wide report can
        say *where* a count leaked or an orphan sat.

        A referenced digest whose owners are not yet all whole is also
        kept on any non-owner holding it: mid-rebalance (or after a lost
        owner disk) that stray may be the only surviving copy, and the
        replication fsck that runs after reconcile needs it as the
        repair source.  Only once every owner holds the key does a
        non-owner replica count as an orphan — the same guard
        :func:`~repro.cluster.rebalance.replication_fsck` applies before
        dropping strays.
        """
        merged: dict = {"ref_fixes": {}, "orphan_chunks_removed": [], "orphan_bytes": 0}
        ring = self._store.ring
        members = self._store.members
        protected: dict[str, set[str]] = {}
        for digest in expected_refs:
            owners = ring.owners(digest)
            if all(members[name].chunks.has(digest) for name in owners):
                continue
            for name in members:
                if name not in owners and members[name].chunks.has(digest):
                    protected.setdefault(name, set()).add(digest)
        for name in sorted(members):
            keep = protected.get(name, set())
            expected = {
                digest: count
                for digest, count in expected_refs.items()
                if name in ring.owners(digest) or digest in keep
            }
            report = members[name].chunks.reconcile(expected, repair=repair)
            for digest, fix in report["ref_fixes"].items():
                merged["ref_fixes"][f"{name}:{digest}"] = fix
            merged["orphan_chunks_removed"].extend(
                f"{name}:{chunk}" for chunk in report["orphan_chunks_removed"]
            )
            merged["orphan_bytes"] += report["orphan_bytes"]
        return merged

    # -- accounting ---------------------------------------------------------

    def chunk_ids(self) -> list[str]:
        ids: set[str] = set()
        for member in self._all_members():
            ids.update(member.chunks.chunk_ids())
        return sorted(ids)

    def total_bytes(self) -> int:
        """Physical bytes across the cluster — replicas counted per copy."""
        return sum(member.chunks.total_bytes() for member in self._all_members())

    def __len__(self) -> int:
        return len(self.chunk_ids())


class ShardedFileStore(ReplicaLedger, FileStore):
    """R-of-N replicated :class:`FileStore` over named member stores.

    ``root`` is the cluster's *metadata* directory (intent journals,
    rebalance journals) — payload bytes live only on the members, which
    are plain :class:`FileStore`s or
    :class:`~repro.filestore.network.SimulatedNetworkFileStore`s (each
    charging its own link).  Fault injection and per-replica retry belong
    on the members; the sharded layer's own ``retry`` re-runs whole
    quorum writes, which are idempotent.

    The hot-chunk cache and single-flight coalescing sit at this layer
    (pass ``chunk_cache`` here, not to members), so a cache hit serves a
    chunk without touching any replica link.
    """

    def __init__(
        self,
        root: str | Path,
        members: Mapping[str, FileStore],
        replicas: int = 2,
        write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
        retry=None,
        verify_reads: bool | None = None,
        workers: int = 0,
        chunk_cache=None,
        detector=None,
        hint_log=None,
    ):
        self._init_ledger(members, replicas, write_quorum, vnodes, detector, hint_log)
        self._chunk_meta: dict[str, dict] = {}  # v1 chunk id -> its layer entry
        self._meta_lock = threading.Lock()
        self._unsynced: set[str] = set()  # members holding an unsynced chunk
        self._barrier_lock = threading.Lock()  # one flush barrier at a time
        self._view = _ShardedChunkView(self)
        super().__init__(
            root,
            faults=None,
            retry=retry,
            verify_reads=verify_reads,
            workers=workers,
            chunk_cache=chunk_cache,
        )

    @property
    def chunks(self) -> _ShardedChunkView:
        return self._view

    # -- chunk metadata for repair verification -----------------------------

    def _harvest_chunk_meta(self, layers) -> None:
        with self._meta_lock:
            for _, meta in layers:
                if "chunk" in meta:  # v2 entries verify by content digest
                    self._chunk_meta[meta["chunk"]] = meta

    def _verify_for_repair(self, digest: str, data: bytes) -> bool | None:
        """Re-hash a record payload against its key before propagating it.

        Whole-layer (v1) chunk ids are *tensor* hashes, so verification
        needs the layer entry harvested from manifests; file ids and
        content-defined (v2) chunk ids verify directly
        (:func:`~repro.filestore.chunk_intact`).  Returns ``None`` for a
        chunk with no harvested entry that is not a v2 piece either — the
        caller then skips byte-level verification but may still repair
        (the payload came from a member's CRC-checked record, the same
        trust level fsck operates at).
        """
        layer = self._chunk_meta.get(digest)
        if layer is not None or is_file_id(digest):
            return chunk_intact(digest, data, layer)
        return True if chunk_intact(digest, data) else None

    # -- quorum writes -------------------------------------------------------

    def _put_chunk_data(self, digest: str, buffer) -> bool:
        is_chunk = not is_file_id(digest)

        def attempt() -> bool:
            wrote: list[bool] = []

            def put(name: str) -> None:
                member = self.members[name]
                fresh = member._put_chunk_data(digest, buffer)
                if is_chunk and (fresh or not member.chunks.synced(digest)):
                    with self._stats_lock:
                        self._unsynced.add(name)
                wrote.append(fresh)

            self._quorum_write(
                "chunk", digest, self.ring.owners(digest), put, "cluster.chunk_write")
            return any(wrote)

        return self._call("cluster.chunk_write", attempt)

    # -- failover reads + read-repair ---------------------------------------

    def _read_chunk(self, digest: str) -> bytes:
        missing: list[str] = []
        corrupt: list[str] = []
        skipped = 0
        last_error: Exception | None = None
        with self._obs_tracer.span("cluster.chunk_read", digest=digest) as sp:
            for name in self.ring.owners(digest):
                deadline_mod.check("cluster.chunk_read")
                if not self._allowed(name):
                    skipped += 1
                    last_error = TransientStoreError(
                        f"replica {name!r} skipped: circuit breaker open"
                    )
                    continue
                try:
                    data = self.members[name]._charged_read(digest)
                except REPLICA_FAILURES as exc:
                    last_error = exc
                    kind = classify_failure(exc)
                    if kind == "unreachable":
                        self._down(name)
                    else:
                        # the member answered; its copy is gone or bad
                        self._up(name)
                        (corrupt if kind == "corrupt" else missing).append(name)
                    continue
                self._up(name)
                failovers = len(missing) + len(corrupt) + skipped
                sp.set(member=name, failovers=failovers)
                if failovers:
                    self._bump("failover_reads")
                    self._repair_chunk_replicas(digest, missing, corrupt, name)
                return data
            if last_error is not None:
                raise last_error
            raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")

    def _repair_chunk_replicas(
        self, digest: str, missing: list[str], corrupt: list[str], served_by: str
    ) -> None:
        """Heal the owners a failover read found without a good copy.

        The heal source is the member that served the read, through
        :func:`~repro.cluster.replica.source`: a copy that fails
        verification is never replicated.  ``missing`` owners (answered
        "not found") get a plain copy; ``corrupt`` owners (answered with
        bytes that failed verification) get their copy overwritten.
        Owners that were unreachable are in neither list: repair writes
        at a dead member would be wasted (or, under fault simulation,
        dishonest) — hinted handoff and anti-entropy own that path.
        """
        heal = source(self, digest, [served_by])
        if heal.data is None:
            return
        repaired = False
        for name in missing + corrupt:
            overwrite = name in corrupt
            member = self.members[name]
            try:
                if not overwrite and member.chunks.has(digest):
                    continue  # raced another repair: already healed
                place(member, digest, heal.data, heal.refcount, overwrite)
            except OSError:
                self._bump("repair_failures")
                continue
            self._bump("read_repairs")
            self._obs_events.emit(
                "read_repair", plane="files", kind="chunk", key=digest,
                overwrote_corrupt=overwrite)
            repaired = True
        if repaired:
            self._clear_degraded("chunk", digest)

    def _fetch_many(self, digests: list[str], crc: bool) -> dict[str, bytes]:
        """Batched fetch, grouped by primary owner for pipelined accounting.

        Each group goes through the member's own batched read (one
        pipelined transfer on simulated links); a group whose member
        fails mid-batch falls back to per-digest failover reads.  ``crc``
        is ignored: a member always checks its record CRC, which is what
        classifies a bad replica ``corrupt`` so it is failed over and
        repaired.
        """
        groups: dict[str, list[str]] = {}
        for digest in digests:
            groups.setdefault(self.ring.primary(digest), []).append(digest)
        results: dict[str, bytes] = {}
        for name in sorted(groups):
            group = groups[name]
            with self._obs_tracer.span(
                "cluster.member_fetch", member=name, n=len(group)
            ) as sp:
                if not self._allowed(name):
                    # primary's breaker is open: go straight to failover
                    # reads instead of burning a timeout on the batch
                    sp.set(failover=True, breaker_open=True)
                    for digest in group:
                        results[digest] = self._read_chunk(digest)
                    continue
                try:
                    results.update(self.members[name]._charged_read_many(group, True))
                except REPLICA_FAILURES as exc:
                    if classify_failure(exc) == "unreachable":
                        self._down(name)
                    sp.set(failover=True)
                    for digest in group:
                        results[digest] = self._read_chunk(digest)
                else:
                    self._up(name)
        return results

    # -- manifest hooks (harvest repair metadata) ----------------------------

    def save_state_chunks(self, state, layer_hashes, suffix=None, workers=None, held=None):
        with self._meta_lock:
            for name, array in state.items():
                digest = layer_hashes[name]
                self._chunk_meta[digest] = {
                    "chunk": digest, "dtype": array.dtype.str, "shape": list(array.shape)}
        if held:
            self._harvest_chunk_meta(held.items())
            # a held chunk is the save's like a deduplicated put's: an owner
            # whose copy waits for a flush joins this save's barrier
            waiting = {
                name
                for meta in held.values()
                for name in self.ring.owners(meta["chunk"])
                if not self.members[name].chunks.synced(meta["chunk"])
            }
            with self._stats_lock:
                self._unsynced |= waiting
        kwargs = {} if suffix is None else {"suffix": suffix}
        return super().save_state_chunks(
            state, layer_hashes, workers=workers, held=held, **kwargs)

    def read_manifest(self, file_id: str) -> dict:
        manifest = super().read_manifest(file_id)
        self._harvest_chunk_meta(manifest["layers"])
        return manifest

    # -- management ----------------------------------------------------------

    def gc_chunks(self) -> dict[str, int]:
        return self._view.gc()

    def clear(self) -> None:
        for member in self.members.values():
            member.clear()
        super().clear()
        with self._meta_lock:
            self._chunk_meta.clear()
        with self._stats_lock:
            self.degraded_keys.clear()

    # -- hinted handoff delivery ---------------------------------------------

    def hint_appliers(self) -> dict:
        """Kind → applier callables for a :class:`~repro.cluster.hints.HintDeliverer`.

        A ``blob`` hint was recorded by an older release for a file, which
        is a record now: the chunk applier delivers it.
        """
        return {"chunk": self._apply_chunk_hint, "blob": self._apply_chunk_hint}

    def _apply_chunk_hint(self, member_name: str, hint) -> bool:
        """Deliver one record IOU.  Idempotent and tombstone-free: records
        are content-addressed or uniquely named, so "deliver" is "copy
        verified bytes" from the heal source among the other holders.

        Returns ``False`` (stale) when the member or its ownership is
        gone, or no copy survives anywhere (the chunk was GC'd since);
        returns ``True`` once the member holds the chunk.  Raises the
        member's transient errors through — the deliverer retries later.
        """
        digest = hint["key"]
        member = self.members.get(member_name)
        if member is None or member_name not in self.ring.owners(digest):
            return False  # membership or ownership moved on: IOU is moot
        if not member.chunks.has(digest):  # else read-repair or anti-entropy got there first
            heal = source(self, digest, [
                name for name in sorted(self.members)
                if name != member_name and self.members[name].chunks.has(digest)])
            if heal.data is None:
                return False  # no surviving copy: nothing left to hand off
            # the *hooked* write path, not raw chunk I/O: delivery must fail
            # honestly while the member is down (or simulated down)
            place(member, digest, heal.data, heal.refcount, hooked=True)
        self._clear_degraded("chunk", digest)
        return True

    # -- cluster health / accounting -----------------------------------------

    def replication_fsck(self, repair: bool = True) -> dict:
        """Cross-check every replica set against R; see
        :func:`repro.cluster.rebalance.replication_fsck`."""
        from .rebalance import replication_fsck

        return replication_fsck(self, repair=repair)

    def cluster_accounting(self) -> dict:
        """Aggregate the members' simulated-network counters.

        ``simulated_seconds`` is the *max* across members, not the sum —
        shards transfer in parallel, so cluster wall-clock is the slowest
        member's link time.  Members without accounting (plain local
        stores) contribute zeros.
        """
        totals = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "round_trips": 0,
            "round_trips_saved": 0,
            "chunks_deduplicated": 0,
            "chunk_bytes_deduplicated": 0,
        }
        elapsed = 0.0
        per_member: dict[str, dict] = {}
        for name in sorted(self.members):
            member = self.members[name]
            if not hasattr(member, "simulated_seconds"):
                continue
            snapshot = {key: getattr(member, key) for key in totals}
            snapshot["simulated_seconds"] = member.simulated_seconds
            per_member[name] = snapshot
            for key in totals:
                totals[key] += snapshot[key]
            elapsed = max(elapsed, member.simulated_seconds)
        return {"members": per_member, "simulated_seconds": elapsed, **totals}

    def reset_accounting(self) -> None:
        for member in self.members.values():
            if hasattr(member, "reset_accounting"):
                member.reset_accounting()
