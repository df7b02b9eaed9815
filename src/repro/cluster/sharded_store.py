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
  quorum but not all R owners mark the key *degraded*, which the self-heal
  loop heals.  The loop itself is the cluster's one quorum write,
  :meth:`~repro.cluster.replica.ReplicaLedger._quorum_write`, shared with
  the document store; this store supplies only one owner's write.
* **Reads** try replicas in ring order and fail over past dead or
  corrupt members.  A failover read that found an owner missing the key
  or holding a corrupt copy triggers *read-repair*: the cluster's one
  per-key heal (:meth:`heal_key`, i.e.
  :func:`~repro.cluster.antientropy.repair_chunk`), which the self-heal
  loop and fsck run too, so a corrupt payload is never
  propagated.
* **Membership changes** (:meth:`ShardedFileStore.add_member`,
  :meth:`~ShardedFileStore.remove_member`) change the ring, then run the
  one sweep: the heal reads only the keys whose holders differ from their
  new owners, the keys that move.  No journal records the change; one
  that stopped half-way is finished by running it again, or by fsck's
  replication step, which find the keys still out of place.

The sharded store itself holds no payload data: its root directory
carries only cluster-wide metadata (the cluster's lock, the format marker).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping

from .. import deadline as deadline_mod
from ..errors import TransientStoreError
from ..filestore.segments import StoreLock
from ..filestore.store import (
    ChunkNotFoundError,
    FileStore,
    chunk_intact,
    is_file_id,
    self_checked,
)
from . import antientropy
from .replica import (
    REPLICA_FAILURES, ReplicaLedger, audit_reads, classify_failure, reads_repair)
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
    machinery (delete, gc's sweep, fsck) works untouched: lookups fail
    over across a key's owners, drops fan out to them, aggregate views
    union every member, and writes are the store's quorum writes.  Its
    :attr:`lock` is the cluster's own, an ``flock`` in the sharded store's root.
    """

    def __init__(self, store: "ShardedFileStore"):
        self._store = store

    def _all_members(self, digest: str | None = None):
        """Member stores, a key's owners first (during a membership change
        data may still sit on former owners)."""
        store = self._store
        if digest is None:
            return [store.members[n] for n in sorted(store.members)]
        owners = store.ring.owners(digest)
        rest = sorted(set(store.members) - set(owners))
        return [store.members[n] for n in owners + rest]

    def _group(self, digests) -> dict[str, list[str]]:
        """Group digests by owning member."""
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

    def missing(self, digests) -> list[str]:
        """The ``digests`` no owner holds, one batched ask per owner (one
        owner short is a degraded key, healed like any other)."""
        lacking: dict[str, int] = {}
        for name, group in self._group(digests).items():
            for digest in self._store.members[name].chunks.missing(group):
                lacking[digest] = lacking.get(digest, 0) + 1
        return [digest for digest, count in lacking.items()
                if count == len(self._store.ring.owners(digest))]

    def drop(self, digest: str) -> bool:
        return bool(self.drop_many([digest]))

    def drop_many(self, digests) -> list[str]:
        """Drop ``digests`` from every member; returns those any held."""
        dropped: set[str] = set()
        for name in sorted(self._store.members):
            dropped.update(self._store.members[name].chunks.drop_many(digests))
        return [digest for digest in dict.fromkeys(digests) if digest in dropped]

    def size_of(self, digest: str) -> int | None:
        for member in self._all_members(digest):
            size = member.chunks.size_of(digest)
            if size is not None:
                return size
        return None

    def flush(self) -> int:
        """A save's group-fsync barrier, on every member that holds one of
        its chunks unsynced.

        That is a member the chunk was appended to, or one whose put found
        the chunk already there but not yet flushed (a read repair, heal,
        membership change or concurrent save appended it), as is an owner holding
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

    def _shares(self, live) -> dict:
        """Each member's share of the mark ``live`` (``None``: everything):
        the keys the ring gives it, and a copy it holds off the ring of a
        key some owner lacks — during a membership change, or after an
        owner lost its disk, that stray may be the only copy the heal can
        copy from.  Once every owner holds the key the stray goes, as the
        heal's :func:`~repro.cluster.replica.drop_strays` retires it."""
        members = self._store.members
        if live is None:
            return dict.fromkeys(members)
        ring = self._store.ring
        shares: dict[str, set] = {name: set() for name in members}
        for key in live:
            owners = ring.owners(key)
            whole = all(members[name].chunks.has(key) for name in owners)
            for name in (owners if whole else members):
                shares[name].add(key)
        return shares

    def reap(self, live=None) -> dict[str, int]:
        """Each member sweeps what its share of ``live`` leaves out and
        reaps its tmp files; the counts summed."""
        merged = {"chunks_removed": 0, "bytes_freed": 0}
        for name, share in sorted(self._shares(live).items()):
            for key, value in self._store.members[name].chunks.reap(share).items():
                merged[key] += value
        return merged

    def compact(self) -> dict[str, int]:
        """Each member compacts its segments; the counts summed."""
        return self._summed(
            lambda member: member.chunks.compact(),
            ("segments_compacted", "records_moved", "bytes_reclaimed", "segments_skipped"))

    def sweep(self, live, repair: bool = True) -> list[str]:
        """:meth:`reap`'s sweep alone, as ``member:key``."""
        members = self._store.members
        return [f"{name}:{key}" for name, share in sorted(self._shares(live).items())
                for key in members[name].chunks.sweep(share, repair)]

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Aggregate the members' segment audits.

        Listy fields are prefixed ``member:item`` like :meth:`sweep`.
        """
        merged = self._summed(
            lambda member: member.chunks.audit(repair=repair, verify=verify),
            ("segments_checked", "tmp_segments_removed", "entries_added"))
        reports = merged.pop("members")
        merged["layout"] = "sharded"
        for field in ("torn_segments", "entries_dropped", "crc_failures"):
            merged[field] = [
                f"{name}:{item}" for name, report in reports.items() for item in report[field]]
        return merged

    def segment_stats(self) -> dict:
        """Cluster-wide segment gauges (summed over members)."""
        merged = self._summed(
            lambda member: member.chunks.segment_stats(),
            ("segment_count", "sealed_segments", "chunks", "live_bytes", "dead_bytes",
             "compaction_debt_bytes"))
        merged["layout"] = "sharded"
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

    ``root`` is the cluster's *metadata* directory (its lock) —
    payload bytes live only on the members, which
    are plain :class:`FileStore`s or
    :class:`~repro.filestore.network.SimulatedNetworkFileStore`s (each
    charging its own link).  Fault injection and per-replica retry belong
    on the members; the sharded layer's own ``retry`` re-runs whole
    quorum writes, which are idempotent.

    The hot-chunk cache and single-flight coalescing sit at this layer
    (pass ``chunk_cache`` here, not to members), so a cache hit serves a
    chunk without touching any replica link.

    Its two record-transfer hooks are a quorum write (:meth:`_put_chunk_data`)
    and a read grouped by primary owner that fails over key by key
    (:meth:`_fetch_many`), each over the members' own two hooks.
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
    ):
        self._init_ledger(members, replicas, write_quorum, vnodes, detector)
        self._chunk_meta: dict[str, dict] = {}  # chunk id -> its layer entry
        self._meta_lock = threading.Lock()
        self._unsynced: set[str] = set()  # members holding an unsynced chunk
        self._barrier_lock = threading.Lock()  # one flush barrier at a time
        self._view = _ShardedChunkView(self)
        self._view.lock = StoreLock(Path(root) / ".lock", on_acquire=self._catch_up)
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

    def _catch_up(self, exclusive: bool) -> None:
        for member in list(self.members.values()):
            member.chunks.catch_up(exclusive)

    # -- chunk metadata for repair verification -----------------------------

    def _harvest_chunk_meta(self, layers) -> None:
        with self._meta_lock:
            for _, meta in layers:
                self._chunk_meta[meta["chunk"]] = meta

    def _verify_for_repair(self, digest: str, data: bytes) -> bool | None:
        """Re-hash a record payload against its key before propagating it.

        Chunk ids are *tensor* hashes, so verification needs the layer
        entry harvested from manifests; file ids and spec records verify
        directly (:func:`~repro.filestore.chunk_intact`).  Returns ``None`` for a
        chunk with no harvested entry — the caller then skips byte-level
        verification but may still repair (the payload came from a
        member's CRC-checked record, the same trust level fsck operates
        at).
        """
        layer = self._chunk_meta.get(digest)
        if layer is None and not self_checked(digest):
            return None
        return chunk_intact(digest, data, layer)

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

    def _failover_read(self, digest: str) -> bytes:
        """One record from the first of its owners that delivers it, in
        ring order, each read one member :meth:`_fetch_many` of the key;
        an owner found missing it or holding it corrupt is read-repaired."""
        missing: list[str] = []
        corrupt: list[str] = []
        down: list[str] = []  # owners skipped or unreachable
        last_error: Exception | None = None
        with self._obs_tracer.span("cluster.chunk_read", digest=digest) as sp:
            for name in self.ring.owners(digest):
                deadline_mod.check("cluster.chunk_read")
                if not self._allowed(name):
                    down.append(name)
                    last_error = TransientStoreError(
                        f"replica {name!r} skipped: circuit breaker open"
                    )
                    continue
                try:
                    data = self.members[name]._fetch_many([digest], True)[digest]
                except REPLICA_FAILURES as exc:
                    last_error = exc
                    kind = classify_failure(exc)
                    if kind == "unreachable":
                        self._down(name)
                        down.append(name)
                    else:
                        # the member answered; its copy is gone or bad
                        self._up(name)
                        (corrupt if kind == "corrupt" else missing).append(name)
                    continue
                self._up(name)
                failovers = len(missing) + len(corrupt) + len(down)
                sp.set(member=name, failovers=failovers)
                if failovers:
                    self._bump("failover_reads")
                if (missing or corrupt) and reads_repair():
                    self._read_repair(digest, down)
                return data
            if last_error is not None:
                raise last_error
            raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")

    def _read_repair(self, digest: str, down: list[str]) -> None:
        """Heal the key a failover read found an owner missing or holding
        corrupt: the one heal, deep, so no copy that fails verification is
        replicated.  Owners the read found unreachable are left out —
        repair writes at a dead member would be wasted; the self-heal
        loop's scan owns that path."""
        result = self.heal_key("chunk", digest, down, deep=True)
        for name in result["repaired_to"] + result["corrupt_healed"]:
            self._bump("read_repairs")
            self._obs_events.emit(
                "read_repair", plane="files", kind="chunk", key=digest,
                overwrote_corrupt=name in result["corrupt_healed"])
        failed = [name for name in result["missing"] + result["corrupt"]
                  if name not in result["repaired_to"] + result["corrupt_healed"]]
        if failed:
            self._bump("repair_failures", len(failed))

    def _fetch_many(self, digests: list[str], crc: bool,
                    crcs: dict | None = None) -> dict[str, bytes]:
        """Batched fetch, grouped by primary owner for pipelined accounting.

        Each group goes through the member's own batched read (one
        pipelined transfer on simulated links), the deadline checked
        first; a group whose member fails mid-batch falls back to
        :meth:`_failover_read` per digest.  ``crc`` is ignored: a member
        always checks its record CRC (a file or spec record's key), which
        is what classifies a bad replica ``corrupt`` so it is failed over
        and repaired.  ``crcs`` receives the CRCs of the batched member
        reads; a failover read reports none.
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
                deadline_mod.check("cluster.chunk_read")
                checked: dict = {}
                fetched = None
                if not self._allowed(name):
                    # primary's breaker is open: go straight to failover
                    # reads instead of burning a timeout on the batch
                    sp.set(breaker_open=True)
                else:
                    try:
                        fetched = self.members[name]._fetch_many(group, True, checked)
                    except REPLICA_FAILURES as exc:
                        if classify_failure(exc) == "unreachable":
                            self._down(name)
                    else:
                        self._up(name)
                if fetched is None:
                    sp.set(failover=True)
                    fetched = {digest: self._failover_read(digest) for digest in group}
                elif crcs is not None:
                    crcs.update(checked)
                results.update(fetched)
        return results

    # -- manifest hooks (harvest repair metadata) ----------------------------

    def save_state_chunks(self, state, layer_hashes, suffix=None, workers=None, held=None,
                          stored=frozenset(), root=None):
        with self._meta_lock:
            for name, array in state.items():
                digest = layer_hashes[name]
                self._chunk_meta[digest] = {
                    "chunk": digest, "dtype": array.dtype.str, "shape": list(array.shape)}
        if held:
            self._harvest_chunk_meta(held.items())
        # a held or stored chunk is the save's like a deduplicated put's:
        # an owner whose copy waits for a flush joins this save's barrier
        named = [meta["chunk"] for meta in (held or {}).values()]
        named += [layer_hashes[name] for name in stored]
        waiting = {
            name
            for digest in named
            for name in self.ring.owners(digest)
            if not self.members[name].chunks.synced(digest)
        }
        if waiting:
            with self._stats_lock:
                self._unsynced |= waiting
        kwargs = {} if suffix is None else {"suffix": suffix}
        return super().save_state_chunks(
            state, layer_hashes, workers=workers, held=held, stored=stored, root=root, **kwargs)

    def read_manifest(self, file_id: str) -> Mapping:
        manifest = super().read_manifest(file_id)
        self._harvest_chunk_meta(manifest["layers"])
        return manifest

    # -- management ----------------------------------------------------------

    def close(self) -> None:
        """Close every member's handles (:meth:`FileStore.close`); the
        metadata root holds none."""
        for member in list(self.members.values()):
            member.close()

    def clear(self) -> None:
        for member in self.members.values():
            member.clear()
        super().clear()
        with self._meta_lock:
            self._chunk_meta.clear()
        with self._stats_lock:
            self.degraded_keys.clear()

    # -- the one heal, and membership changes as its sweep --------------------

    def heal_key(self, kind: str, key: str, unreachable=(), *, repair: bool = True,
                 deep: bool = False) -> dict:
        """:func:`~repro.cluster.antientropy.repair_chunk` of record ``key``
        (``kind`` is ``"chunk"``)."""
        return antientropy.repair_chunk(
            self, key, repair=repair, deep=deep, unreachable=unreachable)

    def universe(self) -> set[tuple[str, str]]:
        """Every record key (chunk digest or file id) any member stores,
        and every chunk a stored manifest names, so a chunk lost on every
        member is still swept, and reported unrepairable.  The manifests
        are read under :func:`~repro.cluster.replica.audit_reads`: what
        they find short, the sweep heals."""
        keys: set[str] = set()
        for member in self.members.values():
            keys.update(member.chunks.chunk_ids())
        with audit_reads():
            keys.update(self.mark(self.file_ids())[0])
        return {("chunk", key) for key in keys}

    def add_member(self, name: str, member: FileStore) -> dict:
        """Join ``member`` to the ring and copy its share of records in;
        returns the :meth:`sweep` report."""
        if name in self.members:
            raise ValueError(f"member {name!r} is already in the cluster")
        self.members[name] = member
        self.ring.add_member(name)
        return self.sweep()

    def remove_member(self, name: str) -> dict:
        """Take ``name`` off the ring, copy its records to their new
        owners, and drop it once it holds no record.

        A copy that fails keeps the leaver's copy (a stray is retired only
        once every owner holds the key), so the leaver stays in
        ``members`` — off the ring, still a copy source — and the report
        says ``drained: False``; calling this again finishes the drain.
        """
        if name not in self.members:
            raise KeyError(f"member {name!r} is not in the cluster")
        if name in self.ring:
            self.ring.remove_member(name)
        report = self.sweep()
        report["drained"] = not self.members[name].chunks.chunk_ids()
        if report["drained"]:
            del self.members[name]
            with self._stats_lock:
                self._unsynced.discard(name)
        return report

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
