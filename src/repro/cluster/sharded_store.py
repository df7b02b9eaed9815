"""Sharded, replicated file store: quorum writes, failover reads, repair.

:class:`ShardedFileStore` presents the exact :class:`~repro.filestore.store.FileStore`
interface — save services, the recovery pipeline, the chain prefetcher,
and ``fsck`` all run against it unchanged — while spreading chunks and
blobs over N member stores placed by a consistent-hash :class:`HashRing`.

Replication semantics:

* **Writes** go to all R ring owners of a key; the write succeeds once
  ``write_quorum`` (default a majority of R) members acknowledge, and a
  short-of-quorum write raises the retryable
  :class:`~repro.errors.QuorumWriteError`.  Chunk and blob writes are
  content-addressed or target a fixed id, so the whole quorum write is
  idempotent under the store's shared retry policy.  Writes that reach
  quorum but not all R owners are tracked as *degraded* for the
  replication fsck to finish.
* **Reads** try replicas in ring order and fail over past dead or
  corrupt members.  A successful failover read triggers *read-repair*:
  the payload is written back to owners found missing it — after digest
  verification, so a corrupt payload is never propagated.

The sharded store itself holds no payload data: its root directory
carries only the save-intent journals (and rebalance journals), which
stay cluster-wide rather than per-member so crash recovery sees one
consistent intent log.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Mapping

from .. import deadline as deadline_mod
from .. import obs
from ..errors import QuorumWriteError, StoreCorruptionError, TransientStoreError
from ..filestore.store import (
    ChunkNotFoundError,
    FileNotFoundInStoreError,
    FileStore,
    chunk_intact,
)
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ShardedFileStore"]

#: Exceptions that mean "this replica did not deliver" on a read or
#: write attempt: typed store errors are OSError subclasses, missing
#: blobs/chunks are KeyError subclasses.
_REPLICA_FAILURES = (KeyError, OSError)


def _classify_failure(exc: Exception) -> str:
    """What a per-replica failure says about the replica.

    ``corrupt``
        The member answered, but its copy failed digest verification —
        the member is *alive* and its copy needs overwriting, not the
        failure detector's attention.
    ``missing``
        The member answered "I don't have it" — alive, repairable by a
        plain copy.
    ``unreachable``
        The member did not answer (transient I/O, outage): feed the
        failure detector, never write repairs at it.
    """
    if isinstance(exc, StoreCorruptionError):
        return "corrupt"
    if isinstance(exc, KeyError):
        return "missing"
    return "unreachable"


def _verify_blob(file_id: str, data: bytes) -> bool:
    """Check ``data`` against the content-digest prefix embedded in the id."""
    expected = file_id.split("-", 1)[0]
    return hashlib.sha256(data).hexdigest()[: len(expected)] == expected


class _ShardedChunkView:
    """Ring-routed facade over the member stores' :class:`ChunkStore`s.

    Quacks like a single ``ChunkStore`` so the inherited ``FileStore``
    machinery (manifest save/delete, journal rollback, fsck reconcile)
    works untouched: lookups fail over across a key's owners, mutations
    fan out to them, and aggregate views union every member.
    """

    def __init__(self, store: "ShardedFileStore"):
        self._store = store

    def _owners(self, digest: str):
        return self._store._owner_stores(digest)

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
        for _, member in self._owners(digest):
            wrote = member.chunks.put(digest, buffer) or wrote
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
        """Fan the group-fsync durability barrier out to every member."""
        return sum(member.chunks.flush() for member in self._all_members())

    def gc(self) -> dict[str, int]:
        stats = {"chunks_removed": 0, "bytes_freed": 0}
        for member in self._all_members():
            member_stats = member.chunks.gc()
            stats["chunks_removed"] += member_stats["chunks_removed"]
            stats["bytes_freed"] += member_stats["bytes_freed"]
        return stats

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Aggregate the members' segment audits.

        Listy fields are prefixed ``member:item`` like :meth:`reconcile`.
        """
        merged = {
            "layout": "sharded",
            "segments_checked": 0,
            "torn_segments": [],
            "tmp_segments_removed": 0,
            "entries_added": 0,
            "entries_dropped": [],
            "crc_failures": [],
            "compaction": [],
        }
        store = self._store
        for name in sorted(store.members):
            report = store.members[name].chunks.audit(repair=repair, verify=verify)
            merged["segments_checked"] += report["segments_checked"]
            merged["tmp_segments_removed"] += report["tmp_segments_removed"]
            merged["entries_added"] += report["entries_added"]
            for field in ("torn_segments", "entries_dropped", "crc_failures"):
                merged[field].extend(f"{name}:{item}" for item in report[field])
            if report["compaction"] is not None:
                merged["compaction"].append(f"{name}:{report['compaction']}")
        return merged

    def segment_stats(self) -> dict:
        """Cluster-wide segment gauges (summed over members)."""
        merged = {
            "layout": "sharded",
            "segment_count": 0,
            "sealed_segments": 0,
            "chunks": 0,
            "live_bytes": 0,
            "dead_bytes": 0,
            "compaction_debt_bytes": 0,
            "pending_compaction": False,
            "members": {},
        }
        store = self._store
        for name in sorted(store.members):
            stats = store.members[name].chunks.segment_stats()
            merged["members"][name] = stats
            for key in ("segment_count", "sealed_segments", "chunks",
                        "live_bytes", "dead_bytes", "compaction_debt_bytes"):
                merged[key] += stats[key]
            merged["pending_compaction"] |= stats["pending_compaction"]
        total = merged["live_bytes"] + merged["dead_bytes"]
        merged["live_ratio"] = (merged["live_bytes"] / total) if total else 1.0
        return merged

    def dedup_stats(self) -> dict:
        """Cluster-wide dedup accounting (summed over members)."""
        merged = {"logical_bytes": 0, "dedup_bytes": 0, "stored_bytes": 0, "members": {}}
        store = self._store
        for name in sorted(store.members):
            stats = store.members[name].chunks.dedup_stats()
            merged["members"][name] = stats
            for key in ("logical_bytes", "dedup_bytes", "stored_bytes"):
                merged[key] += stats[key]
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


class ShardedFileStore(FileStore):
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
        if not members:
            raise ValueError("a sharded store needs at least one member")
        self.members: dict[str, FileStore] = dict(members)
        self.ring = HashRing(sorted(self.members), replicas=replicas, vnodes=vnodes)
        effective = min(replicas, len(self.members))
        if write_quorum is None:
            write_quorum = effective // 2 + 1
        if not 1 <= write_quorum <= effective:
            raise ValueError(
                f"write_quorum must be in [1, {effective}], got {write_quorum}"
            )
        self.write_quorum = int(write_quorum)
        self.detector = detector
        self.hints = hint_log
        if detector is not None:
            for name in self.members:
                detector.add_member(name)
        self._chunk_meta: dict[str, dict] = {}  # v1 chunk id -> its layer entry
        self._meta_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.cluster_stats = {
            "failover_reads": 0,
            "read_repairs": 0,
            "degraded_writes": 0,
            "repair_failures": 0,
        }
        self.degraded_keys: set[tuple[str, str]] = set()
        registry = obs.registry()
        self._obs_events = obs.events()
        self._obs_cluster = {
            "failover_reads": registry.counter(
                "mmlib_cluster_failover_reads_total",
                "Reads served by a non-primary replica", plane="files"),
            "read_repairs": registry.counter(
                "mmlib_cluster_read_repairs_total",
                "Replica copies healed during reads", plane="files"),
            "degraded_writes": registry.counter(
                "mmlib_cluster_degraded_writes_total",
                "Writes acked below full replication", plane="files"),
            "repair_failures": registry.counter(
                "mmlib_cluster_repair_failures_total",
                "Read-repair attempts that failed", plane="files"),
        }
        self._obs_quorum_failures = registry.counter(
            "mmlib_cluster_quorum_write_failures_total",
            "Writes that missed quorum", plane="files")
        super().__init__(
            root,
            faults=None,
            retry=retry,
            verify_reads=verify_reads,
            workers=workers,
            chunk_cache=chunk_cache,
        )
        self._view = _ShardedChunkView(self)

    # -- placement / bookkeeping helpers ------------------------------------

    def _owner_stores(self, key: str) -> list[tuple[str, FileStore]]:
        return [(name, self.members[name]) for name in self.ring.owners(key)]

    # -- failure-detector / hint feeds (all no-ops when not wired) -----------

    def _member_allowed(self, name: str) -> bool:
        return self.detector is None or self.detector.allow(name)

    def _member_up(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_success(name)

    def _member_down(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_failure(name)

    def _hint(self, name: str, kind: str, key: str) -> None:
        if self.hints is not None:
            self.hints.record(name, kind, key)

    def _bump(self, stat: str, by: int = 1) -> None:
        with self._stats_lock:
            self.cluster_stats[stat] += by
        self._obs_cluster[stat].inc(by)

    def _note_degraded(self, kind: str, key: str) -> None:
        with self._stats_lock:
            self.cluster_stats["degraded_writes"] += 1
            self.degraded_keys.add((kind, key))
        self._obs_cluster["degraded_writes"].inc()
        self._obs_events.emit("degraded_write", plane="files", kind=kind, key=key)

    def _clear_degraded(self, kind: str, key: str) -> None:
        with self._stats_lock:
            self.degraded_keys.discard((kind, key))

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
        """Re-hash a chunk payload against its digest before propagating it.

        Whole-layer (v1) chunk ids are *tensor* hashes, so verification
        needs the layer entry harvested from manifests; content-defined (v2)
        chunk ids verify directly (:func:`~repro.filestore.chunk_intact`).
        Returns ``None`` for a chunk with no harvested entry that is not a
        v2 piece either — the caller then skips byte-level verification
        but may still repair (the payload came from a member's CRC-checked
        chunk record, the same trust level fsck operates at).
        """
        layer = self._chunk_meta.get(digest)
        if layer is None:
            return True if chunk_intact(digest, data) else None
        return chunk_intact(digest, data, layer)

    # -- quorum writes -------------------------------------------------------

    def _put_chunk_data(self, digest: str, buffer) -> bool:
        owners = self._owner_stores(digest)

        def attempt() -> bool:
            acks = 0
            wrote_any = False
            missed: list[str] = []
            last_error: Exception | None = None
            for name, member in owners:
                deadline_mod.check("cluster.chunk_write")
                if not self._member_allowed(name):
                    missed.append(name)  # breaker open: fast-fail the replica
                    continue
                try:
                    wrote = member._put_chunk_data(digest, buffer)
                except _REPLICA_FAILURES as exc:
                    last_error = exc
                    if _classify_failure(exc) == "unreachable":
                        self._member_down(name)
                    missed.append(name)
                    continue
                self._member_up(name)
                acks += 1
                wrote_any = wrote_any or wrote
            if acks < self.write_quorum:
                self._obs_quorum_failures.inc()
                self._obs_events.emit(
                    "quorum_write_failed", plane="files", kind="chunk",
                    key=digest, acks=acks, quorum=self.write_quorum)
                raise QuorumWriteError(
                    f"chunk {digest[:12]}… reached {acks}/{len(owners)} replicas "
                    f"(write quorum {self.write_quorum})"
                ) from last_error
            if missed:
                self._note_degraded("chunk", digest)
                for name in missed:
                    self._hint(name, "chunk", digest)
            else:
                self._clear_degraded("chunk", digest)
            return wrote_any

        return self._call("cluster.chunk_write", attempt)

    def _write_blob(self, file_id: str, data: bytes) -> None:
        owners = self._owner_stores(file_id)

        def attempt() -> None:
            acks = 0
            missed: list[str] = []
            last_error: Exception | None = None
            for name, member in owners:
                deadline_mod.check("cluster.blob_write")
                if not self._member_allowed(name):
                    missed.append(name)
                    continue
                try:
                    member._write_blob(file_id, data)
                except _REPLICA_FAILURES as exc:
                    last_error = exc
                    if _classify_failure(exc) == "unreachable":
                        self._member_down(name)
                    missed.append(name)
                    continue
                self._member_up(name)
                acks += 1
            if acks < self.write_quorum:
                self._obs_quorum_failures.inc()
                self._obs_events.emit(
                    "quorum_write_failed", plane="files", kind="blob",
                    key=file_id, acks=acks, quorum=self.write_quorum)
                raise QuorumWriteError(
                    f"blob {file_id!r} reached {acks}/{len(owners)} replicas "
                    f"(write quorum {self.write_quorum})"
                ) from last_error
            if missed:
                self._note_degraded("blob", file_id)
                for name in missed:
                    self._hint(name, "blob", file_id)
            else:
                self._clear_degraded("blob", file_id)

        self._call("cluster.blob_write", attempt)

    # -- failover reads + read-repair ---------------------------------------

    def _read_chunk(self, digest: str) -> bytes:
        owners = self._owner_stores(digest)
        missing: list[tuple[str, FileStore]] = []
        corrupt: list[tuple[str, FileStore]] = []
        skipped = 0
        last_error: Exception | None = None
        with self._obs_tracer.span("cluster.chunk_read", digest=digest) as sp:
            for name, member in owners:
                deadline_mod.check("cluster.chunk_read")
                if not self._member_allowed(name):
                    skipped += 1
                    last_error = TransientStoreError(
                        f"replica {name!r} skipped: circuit breaker open"
                    )
                    continue
                try:
                    data = member._charged_read(digest)
                except _REPLICA_FAILURES as exc:
                    last_error = exc
                    kind = _classify_failure(exc)
                    if kind == "corrupt":
                        # the member answered; its *copy* is bad
                        self._member_up(name)
                        corrupt.append((name, member))
                    elif kind == "missing":
                        self._member_up(name)
                        missing.append((name, member))
                    else:
                        self._member_down(name)
                    continue
                self._member_up(name)
                failovers = len(missing) + len(corrupt) + skipped
                sp.set(member=name, failovers=failovers)
                if failovers:
                    self._bump("failover_reads")
                    self._repair_chunk_replicas(
                        digest, data, missing, corrupt, source=member
                    )
                return data
            if last_error is not None:
                raise last_error
            raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")

    def _repair_chunk_replicas(
        self,
        digest: str,
        data: bytes,
        missing: list[tuple[str, FileStore]],
        corrupt: list[tuple[str, FileStore]],
        source: FileStore,
    ) -> None:
        """Write a failover-read payload back to owners that failed it.

        ``missing`` owners (answered "not found") get a plain copy;
        ``corrupt`` owners (answered with bytes that failed verification)
        get their copy overwritten — a replica that failed digest
        verification is never left as-is *and* never used as a source.
        Owners that were unreachable are in neither list: repair writes
        at a dead member would be wasted (or, under fault simulation,
        dishonest) — hinted handoff and anti-entropy own that path.
        Skipped outright when the payload itself fails verification —
        never replicate corruption.
        """
        if self._verify_for_repair(digest, data) is False:
            return
        refcount = source.chunks.refcount(digest)
        repaired = False

        def heal(member: FileStore, overwrite: bool) -> bool:
            try:
                if overwrite:
                    member.chunks.drop(digest)
                elif member.chunks.has(digest):
                    return False  # raced another repair: already healed
                member.chunks.put(digest, data)
                if refcount > 0:
                    member.chunks.import_refs({digest: refcount})
            except OSError:
                self._bump("repair_failures")
                return False
            self._bump("read_repairs")
            self._obs_events.emit(
                "read_repair", plane="files", kind="chunk", key=digest,
                overwrote_corrupt=overwrite)
            return True

        for _, member in missing:
            repaired = heal(member, overwrite=False) or repaired
        for _, member in corrupt:
            repaired = heal(member, overwrite=True) or repaired
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
                if not self._member_allowed(name):
                    # primary's breaker is open: go straight to failover
                    # reads instead of burning a timeout on the batch
                    sp.set(failover=True, breaker_open=True)
                    for digest in group:
                        results[digest] = self._read_chunk(digest)
                    continue
                try:
                    results.update(self.members[name]._charged_read_many(group, True))
                except _REPLICA_FAILURES as exc:
                    if _classify_failure(exc) == "unreachable":
                        self._member_down(name)
                    sp.set(failover=True)
                    for digest in group:
                        results[digest] = self._read_chunk(digest)
                else:
                    self._member_up(name)
        return results

    def recover_bytes(self, file_id: str) -> bytes:
        owners = self._owner_stores(file_id)
        missing: list[tuple[str, FileStore]] = []
        corrupt: list[tuple[str, FileStore]] = []
        skipped = 0
        last_error: Exception | None = None
        for name, member in owners:
            deadline_mod.check("cluster.blob_read")
            if not self._member_allowed(name):
                skipped += 1
                last_error = TransientStoreError(
                    f"replica {name!r} skipped: circuit breaker open"
                )
                continue
            try:
                # the member verifies the id-embedded digest, so a payload
                # that comes back is safe to propagate on repair
                data = member.recover_bytes(file_id)
            except _REPLICA_FAILURES as exc:
                last_error = exc
                kind = _classify_failure(exc)
                if kind == "corrupt":
                    self._member_up(name)
                    corrupt.append((name, member))
                elif kind == "missing":
                    self._member_up(name)
                    missing.append((name, member))
                else:
                    self._member_down(name)
                continue
            self._member_up(name)
            if missing or corrupt or skipped:
                self._bump("failover_reads")
                self._repair_blob_replicas(file_id, data, missing, corrupt)
            return data
        if last_error is not None:
            raise last_error
        raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}")

    def _repair_blob_replicas(
        self,
        file_id: str,
        data: bytes,
        missing: list[tuple[str, FileStore]],
        corrupt: list[tuple[str, FileStore]],
    ) -> None:
        """Mirror of :meth:`_repair_chunk_replicas` for blob reads: plain
        copies to owners that lacked the blob, overwrites at owners whose
        copy failed the id-embedded digest check, nothing at unreachable
        owners."""
        repaired = False

        def heal(member: FileStore, overwrite: bool) -> bool:
            try:
                if overwrite:
                    member._discard_blob(file_id)
                elif member.exists(file_id):
                    return False  # raced another repair: already healed
                member._restore_blob(file_id, data)
            except OSError:
                self._bump("repair_failures")
                return False
            self._bump("read_repairs")
            self._obs_events.emit(
                "read_repair", plane="files", kind="blob", key=file_id,
                overwrote_corrupt=overwrite)
            return True

        for _, member in missing:
            repaired = heal(member, overwrite=False) or repaired
        for _, member in corrupt:
            repaired = heal(member, overwrite=True) or repaired
        if repaired:
            self._clear_degraded("blob", file_id)

    # -- manifest hooks (harvest repair metadata) ----------------------------

    def save_state_chunks(self, state, layer_hashes, suffix=None, workers=None):
        with self._meta_lock:
            for name, array in state.items():
                digest = layer_hashes[name]
                self._chunk_meta[digest] = {
                    "chunk": digest, "dtype": array.dtype.str, "shape": list(array.shape)}
        kwargs = {} if suffix is None else {"suffix": suffix}
        return super().save_state_chunks(state, layer_hashes, workers=workers, **kwargs)

    def read_manifest(self, file_id: str) -> dict:
        manifest = super().read_manifest(file_id)
        self._harvest_chunk_meta(manifest["layers"])
        return manifest

    # -- raw blob primitives (fan out; rollback/fsck/repair plumbing) --------

    def _all_member_stores(self, key: str | None = None) -> list[FileStore]:
        if key is None:
            return [self.members[n] for n in sorted(self.members)]
        owners = self.ring.owners(key)
        rest = sorted(set(self.members) - set(owners))
        return [self.members[n] for n in owners + rest]

    def _discard_blob(self, file_id: str) -> bool:
        removed = False
        for member in self._all_member_stores():
            removed = member._discard_blob(file_id) or removed
        return removed

    def _blob_size(self, file_id: str) -> int:
        for member in self._all_member_stores(file_id):
            try:
                return member._blob_size(file_id)
            except FileNotFoundInStoreError:
                continue
        raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}")

    def _read_blob_raw(self, file_id: str) -> bytes:
        for member in self._all_member_stores(file_id):
            try:
                return member._read_blob_raw(file_id)
            except FileNotFoundInStoreError:
                continue
        raise FileNotFoundInStoreError(f"no stored file with id {file_id!r}")

    def _restore_blob(self, file_id: str, data: bytes) -> None:
        for _, member in self._owner_stores(file_id):
            member._restore_blob(file_id, data)

    # -- management ----------------------------------------------------------

    def exists(self, file_id: str) -> bool:
        return any(m.exists(file_id) for m in self._all_member_stores(file_id))

    def has_chunk(self, digest: str) -> bool:
        return self._view.has(digest)

    def file_ids(self) -> list[str]:
        ids: set[str] = set()
        for member in self._all_member_stores():
            ids.update(member.file_ids())
        return sorted(ids)

    def total_bytes(self) -> int:
        """Physical bytes across the cluster — replicas counted per copy."""
        return sum(member.total_bytes() for member in self._all_member_stores())

    def gc_chunks(self) -> dict[str, int]:
        stats = {"chunks_removed": 0, "bytes_freed": 0}
        for member in self._all_member_stores():
            member_stats = member.gc_chunks()
            stats["chunks_removed"] += member_stats["chunks_removed"]
            stats["bytes_freed"] += member_stats["bytes_freed"]
        return stats

    def clear(self) -> None:
        for member in self._all_member_stores():
            member.clear()
        super().clear()
        with self._meta_lock:
            self._chunk_meta.clear()
        with self._stats_lock:
            self.degraded_keys.clear()

    # -- hinted handoff delivery ---------------------------------------------

    def hint_appliers(self) -> dict:
        """Kind → applier callables for a :class:`~repro.cluster.hints.HintDeliverer`."""
        return {"chunk": self._apply_chunk_hint, "blob": self._apply_blob_hint}

    def _hint_source_chunk(self, digest: str, exclude: str):
        """A verified (or unverifiable-but-present) payload from any member
        other than ``exclude``, plus its refcount; ``(None, 0)`` if gone."""
        fallback = None
        fallback_refs = 0
        for name in sorted(self.members):
            if name == exclude:
                continue
            member = self.members[name]
            try:
                if not member.chunks.has(digest):
                    continue
                candidate = member.chunks.get(digest)
                refcount = member.chunks.refcount(digest)
            except (KeyError, OSError):
                continue
            verdict = self._verify_for_repair(digest, candidate)
            if verdict is False:
                continue  # corrupt copy: never a handoff source
            if verdict is True:
                return candidate, refcount
            if fallback is None:
                fallback, fallback_refs = candidate, refcount
        return fallback, fallback_refs

    def _apply_chunk_hint(self, member_name: str, hint) -> bool:
        """Deliver one chunk IOU.  Idempotent and tombstone-free: chunks
        are content-addressed, so "deliver" is "copy verified bytes".

        Returns ``False`` (stale) when the member or its ownership is
        gone, or no copy survives anywhere (the chunk was GC'd since);
        returns ``True`` once the member holds the chunk.  Raises the
        member's transient errors through — the deliverer retries later.
        """
        digest = hint["key"]
        member = self.members.get(member_name)
        if member is None or member_name not in self.ring.owners(digest):
            return False  # membership or ownership moved on: IOU is moot
        if member.chunks.has(digest):
            self._clear_degraded("chunk", digest)
            return True  # read-repair or anti-entropy got there first
        data, refcount = self._hint_source_chunk(digest, exclude=member_name)
        if data is None:
            return False  # no surviving copy: nothing left to hand off
        # the *hooked* write path, not raw chunk I/O: delivery must fail
        # honestly while the member is down (or simulated down)
        member._put_chunk_data(digest, data)
        if refcount > 0:
            member.chunks.import_refs({digest: refcount})
        self._clear_degraded("chunk", digest)
        return True

    def _apply_blob_hint(self, member_name: str, hint) -> bool:
        file_id = hint["key"]
        member = self.members.get(member_name)
        if member is None or member_name not in self.ring.owners(file_id):
            return False
        if member.exists(file_id):
            self._clear_degraded("blob", file_id)
            return True
        data = None
        for name in sorted(self.members):
            if name == member_name:
                continue
            try:
                candidate = self.members[name]._read_blob_raw(file_id)
            except (KeyError, OSError):
                continue
            if _verify_blob(file_id, candidate):
                data = candidate
                break
        if data is None:
            return False
        member._write_blob(file_id, data)  # hooked path: honest while down
        self._clear_degraded("blob", file_id)
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
