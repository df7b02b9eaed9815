"""One replica core: the member ledger, the quorum write, the heal source.

Both sharded stores — :class:`~repro.cluster.sharded_store.ShardedFileStore`
(records) and :class:`~repro.cluster.sharded_docs.ShardedDocumentStore`
(documents) — replicate the same way, so the two decisions replication
makes live here once:

* **How a write to a key's owners becomes an ack.**  Both stores inherit
  :class:`ReplicaLedger`: the ring, ``write_quorum``, the failure detector
  and hint log, ``cluster_stats``/``degraded_keys`` and the per-plane obs
  counters.  :meth:`ReplicaLedger._quorum_write` is the one loop every
  replicated write runs; its caller supplies only what one owner does.
* **Which copy a heal may copy from.**  :func:`source` picks it and
  :func:`place` lands it — read repair, hinted handoff, anti-entropy and
  rebalance moves all go through these two, so a copy that fails digest
  verification is never propagated by any of them.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .. import deadline as deadline_mod
from .. import obs
from ..errors import QuorumWriteError, StoreCorruptionError
from .ring import HashRing

__all__ = ["ReplicaLedger", "HealSource", "source", "place"]

#: Exceptions that mean "this replica did not deliver" on a read or write
#: attempt: typed store errors are OSError subclasses, missing records and
#: documents are KeyError subclasses.
REPLICA_FAILURES = (KeyError, OSError)

#: ``cluster_stats`` key → (counter family, help); each plane registers
#: its own ``plane=`` child of every family.
_COUNTERS = {
    "failover_reads": (
        "mmlib_cluster_failover_reads_total", "Reads served by a non-primary replica"),
    "read_repairs": (
        "mmlib_cluster_read_repairs_total", "Replica copies healed during reads"),
    "degraded_writes": (
        "mmlib_cluster_degraded_writes_total", "Writes acked below full replication"),
    "repair_failures": (
        "mmlib_cluster_repair_failures_total", "Read-repair attempts that failed"),
    "quorum_write_failures": (
        "mmlib_cluster_quorum_write_failures_total", "Writes that missed quorum"),
}
_STATS = ("failover_reads", "read_repairs", "degraded_writes", "repair_failures")


def classify_failure(exc: Exception) -> str:
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


class ReplicaLedger:
    """The member ledger both sharded stores inherit.

    A key's degraded mark and hints are ``(kind, key)``: ``kind`` is
    ``"chunk"`` for a record, a document's collection on the docs plane.
    """

    #: ``plane=`` label of the store's counters and events, and the event
    #: field that names a key's ``kind``.
    _plane = "files"
    _kind_field = "kind"

    def _init_ledger(self, members, replicas, write_quorum, vnodes, detector, hint_log):
        if not members:
            raise ValueError("a sharded store needs at least one member")
        self.members = dict(members)
        self.ring = HashRing(sorted(self.members), replicas=replicas, vnodes=vnodes)
        effective = self._effective_replicas()
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
        self._stats_lock = threading.Lock()
        self.cluster_stats = dict.fromkeys(_STATS, 0)
        self.degraded_keys: set[tuple[str, str]] = set()
        registry = obs.registry()
        self._obs_events = obs.events()
        self._obs_cluster = {
            stat: registry.counter(family, help_text, plane=self._plane)
            for stat, (family, help_text) in _COUNTERS.items()
        }

    def _effective_replicas(self) -> int:
        """The replica count actually achievable with current membership."""
        return min(self.ring.replicas, len(self.members))

    # -- failure-detector / hint feeds (all no-ops when not wired) -----------

    def _allowed(self, name: str) -> bool:
        return self.detector is None or self.detector.allow(name)

    def _up(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_success(name)

    def _down(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_failure(name)

    def _hint(self, name: str, kind: str, key: str) -> None:
        if self.hints is not None:
            self.hints.record(name, kind, key)

    # -- stats ---------------------------------------------------------------

    def _bump(self, stat: str, by: int = 1) -> None:
        with self._stats_lock:
            self.cluster_stats[stat] += by
        self._obs_cluster[stat].inc(by)

    def _note_degraded(self, kind: str, key: str) -> None:
        with self._stats_lock:
            self.cluster_stats["degraded_writes"] += 1
            self.degraded_keys.add((kind, key))
        self._obs_cluster["degraded_writes"].inc()
        self._obs_events.emit(
            "degraded_write", plane=self._plane, **{self._kind_field: kind}, key=key)

    def _clear_degraded(self, kind: str, key: str) -> None:
        with self._stats_lock:
            self.degraded_keys.discard((kind, key))

    # -- the quorum write ----------------------------------------------------

    def _quorum_write(self, kind: str, key: str, owners, apply, op: str) -> int:
        """Write one key to its ``owners``; returns the acks.

        ``apply(name)`` is one owner's write and raises one of
        :data:`REPLICA_FAILURES` when that owner did not deliver.  An owner
        whose breaker is open is fast-failed; a failure feeds the detector
        only when :func:`classify_failure` calls the owner unreachable.
        Below ``write_quorum`` acks the write raises the retryable
        :class:`~repro.errors.QuorumWriteError`; otherwise each missed owner
        gets one hint and the key is marked degraded, and a write every
        owner acked clears the mark.
        """
        acks = 0
        missed: list[str] = []
        last_error: Exception | None = None
        for name in owners:
            deadline_mod.check(op)
            if not self._allowed(name):
                missed.append(name)
                continue
            try:
                apply(name)
            except REPLICA_FAILURES as exc:
                last_error = exc
                if classify_failure(exc) == "unreachable":
                    self._down(name)
                missed.append(name)
                continue
            self._up(name)
            acks += 1
        if acks < self.write_quorum:
            self._obs_cluster["quorum_write_failures"].inc()
            self._obs_events.emit(
                "quorum_write_failed", plane=self._plane, **{self._kind_field: kind},
                key=key, acks=acks, quorum=self.write_quorum)
            raise QuorumWriteError(
                f"{op} of {kind}/{key} reached {acks}/{len(owners)} replicas "
                f"(write quorum {self.write_quorum})"
            ) from last_error
        if missed:
            self._note_degraded(kind, key)
            for name in missed:
                self._hint(name, kind, key)
        else:
            self._clear_degraded(kind, key)
        return acks


class HealSource(NamedTuple):
    """What :func:`source` found for one record."""

    data: bytes | None  # the copy to heal from; None: no copy may be used
    refcount: int  # the largest count any holder records
    corrupt: list[str]  # holders whose copy failed to read or to verify


def source(store, digest: str, holders, deep: bool = False) -> HealSource:
    """The copy of record ``digest`` a heal may copy from, among ``holders``.

    The first copy that passes the store's ``_verify_for_repair`` wins.
    When none does, the first copy that is present but unverifiable (a
    whole-layer chunk whose layer entry no manifest read has shown) is
    trusted: it came out of a member's CRC-checked record, the level fsck
    works at.  A copy that fails to read or to verify is never a source;
    it is listed in ``corrupt``.  ``deep`` reads and checks every holder,
    so that list is complete; otherwise the scan stops at the first
    verified copy.  Holders are read through raw chunk I/O — a heal audits
    what is stored, not what a flaky link would deliver.
    """
    found, verified, corrupt = None, False, []
    for name in holders:
        try:
            candidate = store.members[name].chunks.get(digest)
        except REPLICA_FAILURES:
            corrupt.append(name)
            continue
        verdict = store._verify_for_repair(digest, candidate)
        if verdict is False:
            corrupt.append(name)
        elif found is None or (verdict and not verified):
            found, verified = candidate, bool(verdict)
            if verified and not deep:
                break
    refcount = max(
        (store.members[name].chunks.refcount(digest) for name in holders), default=0)
    return HealSource(found, refcount, corrupt)


def place(member, digest: str, data, refcount: int, overwrite: bool = False,
          hooked: bool = False) -> None:
    """Land a heal's bytes and refcount on one member store.

    ``overwrite`` replaces a copy that failed verification.  ``hooked``
    writes through the member's fault-hooked ``_put_chunk_data`` (hinted
    handoff must fail honestly while the member is down); otherwise the
    write is raw chunk I/O.
    """
    if overwrite:
        member.chunks.drop(digest)
    (member._put_chunk_data if hooked else member.chunks.put)(digest, data)
    if refcount > 0:
        member.chunks.import_refs({digest: refcount})
