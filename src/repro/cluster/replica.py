"""One replica core: the member ledger, the quorum write, the per-key heal.

Both sharded stores — :class:`~repro.cluster.sharded_store.ShardedFileStore`
(records) and :class:`~repro.cluster.sharded_docs.ShardedDocumentStore`
(documents) — replicate the same way, so the three decisions replication
makes live here once:

* **How a write to a key's owners becomes an ack.**  Both stores inherit
  :class:`ReplicaLedger`: the ring, ``write_quorum``, the failure detector,
  ``cluster_stats``/``degraded_keys`` and the per-plane obs counters.
  :meth:`ReplicaLedger._quorum_write` is the one loop every replicated
  write runs; its caller supplies only what one owner does.
* **How one key's replica set is healed.**  :meth:`ReplicaLedger.heal_key`
  is the one per-key heal — on the file plane
  :func:`~repro.cluster.antientropy.repair_chunk`, on the document plane
  the versioned read — and :meth:`ReplicaLedger.sweep` the one walk over
  every key.  Read repair, the self-heal loop's rounds, fsck and
  membership changes all reach replicas through it, so they share one
  outcome (:func:`finish`) and one rule for retiring a stray copy
  (:func:`drop_strays`).
* **Which copy a record heal may copy from.**  :func:`source` picks it and
  :func:`place` lands it through the member's fault-hooked write, so a copy
  that fails digest verification is never propagated and a member that is
  down fails the heal honestly.
"""

from __future__ import annotations

import contextlib
import threading
from typing import NamedTuple

from .. import deadline as deadline_mod
from .. import obs
from ..errors import QuorumWriteError, StoreCorruptionError
from .ring import HashRing

__all__ = ["ReplicaLedger", "HealSource", "audit_reads", "reads_repair", "source", "place"]

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

#: Outcomes of :meth:`ReplicaLedger.heal_key` that leave nothing to do.
SETTLED = ("ok", "repaired")

_audit = threading.local()


@contextlib.contextmanager
def audit_reads():
    """Reads on this thread inside the block heal no replica they find
    short: what an audit (``fsck(repair=False)``) reads, it only reports."""
    outer = getattr(_audit, "active", False)
    _audit.active = True
    try:
        yield
    finally:
        _audit.active = outer


def reads_repair() -> bool:
    """Whether a read on this thread may read-repair (see :func:`audit_reads`)."""
    return not getattr(_audit, "active", False)


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

    A key's degraded mark is ``(kind, key)``: ``kind`` is ``"chunk"`` for
    a record, a document's collection on the docs plane.  The marks are the
    one record of what a replica is owed: the self-heal loop heals the
    marked keys, and a heal that leaves a key settled clears its mark.
    """

    #: ``plane=`` label of the store's counters and events, and the event
    #: field that names a key's ``kind``.
    _plane = "files"
    _kind_field = "kind"

    def _init_ledger(self, members, replicas, write_quorum, vnodes, detector):
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

    # -- failure-detector feeds (no-ops when not wired) ------------------------

    def _allowed(self, name: str) -> bool:
        return self.detector is None or self.detector.allow(name)

    def _up(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_success(name)

    def _down(self, name: str) -> None:
        if self.detector is not None:
            self.detector.record_failure(name)

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
        :class:`~repro.errors.QuorumWriteError`; otherwise a write that
        missed an owner marks the key degraded, and a write every owner
        acked clears the mark.
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
        else:
            self._clear_degraded(kind, key)
        return acks

    # -- the one heal ----------------------------------------------------------

    def heal_key(self, kind: str, key: str, unreachable=(), *, repair: bool = True,
                 deep: bool = False) -> dict:
        """Audit (and with ``repair`` heal) one key's replica set.

        Each plane supplies it: the file plane's is
        :func:`~repro.cluster.antientropy.repair_chunk`, the document
        plane's the versioned read of the document.  Members in
        ``unreachable`` are neither read nor written; keys they own come
        back ``deferred``/``partial``.  ``deep`` reads every copy there is,
        not only what finding the missing ones takes.  The result names the
        ``owners``, the ``holders`` found, the owners ``missing`` the key or
        ``unreachable``, the copies ``corrupt``, what was ``repaired_to``,
        ``corrupt_healed`` and ``strays_dropped``, and the ``status``
        (:func:`finish`).
        """
        raise NotImplementedError

    def universe(self) -> set[tuple[str, str]]:
        """Every ``(kind, key)`` some member holds."""
        raise NotImplementedError

    def sweep(self, repair: bool = True, deep: bool = False, unreachable=(),
              keys=None) -> dict:
        """:meth:`heal_key` over ``keys`` (default: the sorted
        :meth:`universe`) — the one walk fsck, ``heal()``, the self-heal
        loop and membership changes run.

        The report counts the keys ``checked`` and ``misplaced`` (held
        elsewhere than on exactly their owners when visited), and lists, as
        ``{"kind", "key"}`` entries, those ``under_replicated`` (with
        ``have``/``want``/``missing``), ``repaired``, ``unrepairable``,
        ``deferred`` and left in the ``backlog`` (any status but ok or
        repaired), and every ``strays_dropped`` copy (with ``member``).
        """
        report = {"checked": 0, "misplaced": 0, "under_replicated": [], "repaired": [],
                  "strays_dropped": [], "unrepairable": [], "deferred": [], "backlog": []}
        for kind, key in sorted(self.universe()) if keys is None else keys:
            result = self.heal_key(kind, key, unreachable, repair=repair, deep=deep)
            entry = {"kind": kind, "key": key}
            owners = result["owners"]
            report["checked"] += 1
            report["misplaced"] += set(result["holders"]) != set(owners)
            gone = result["missing"] + result["unreachable"] + [
                name for name in result["corrupt"] if name in owners]
            if gone:
                report["under_replicated"].append({
                    **entry, "have": len(owners) - len(gone), "want": len(owners),
                    "missing": gone})
            if result["repaired_to"] or result["corrupt_healed"]:
                report["repaired"].append(entry)
            report["strays_dropped"] += [
                {**entry, "member": member} for member in result["strays_dropped"]]
            if result["status"] in ("unrepairable", "deferred"):
                report[result["status"]].append(entry)
            if result["status"] not in SETTLED:
                report["backlog"].append(entry)
        return report


def new_result(kind: str, key: str, owners, holders, missing, unreachable) -> dict:
    """A :meth:`ReplicaLedger.heal_key` result before anything was healed."""
    return {
        "kind": kind,
        "key": key,
        "owners": list(owners),
        "holders": list(holders),
        "missing": list(missing),
        "unreachable": list(unreachable),
        "corrupt": [],
        "repaired_to": [],
        "corrupt_healed": [],
        "strays_dropped": [],
        "status": "ok",
    }


def _unsettled(result: dict) -> tuple[list[str], list[str]]:
    """Corrupt copies not overwritten, and missing owners not filled."""
    return ([n for n in result["corrupt"] if n not in result["corrupt_healed"]],
            [n for n in result["missing"] if n not in result["repaired_to"]])


def finish(ledger: ReplicaLedger, result: dict) -> dict:
    """Derive the outcome status from what the heal accomplished.

    ``ok``
        Every owner holds the key, no other member does (and, on a deep
        heal, every copy verified).
    ``repaired``
        Divergence found and fully healed.
    ``partial``
        Some healing happened but the owners are still not whole (a
        target is unreachable, a write failed).
    ``degraded``
        Divergence found, nothing healed (audit mode, or every write
        failed), or a stray copy is left beside whole owners.
    ``deferred``
        An owner is unreachable and nothing else is wrong that a
        reachable copy shows; decided next pass, once the member is back.
    ``unrepairable`` (set by the plane before this)
        No usable copy exists anywhere reachable.

    A key left settled loses its degraded mark.
    """
    unhealed, unplaced = _unsettled(result)
    strays = [n for n in result["holders"]
              if n not in result["owners"] and n not in result["strays_dropped"]]
    if result["repaired_to"] or result["corrupt_healed"]:
        whole = not (unhealed or unplaced or strays or result["unreachable"])
        result["status"] = "repaired" if whole else "partial"
    elif unhealed or unplaced:
        result["status"] = "degraded"
    elif result["unreachable"]:
        result["status"] = "deferred"
    elif strays:
        result["status"] = "degraded"
    if result["status"] in SETTLED:
        ledger._clear_degraded(result["kind"], result["key"])
    return result


def drop_strays(result: dict, drop, barrier=None) -> None:
    """Retire the copies on non-owners — only once every owner provably
    holds the key and no copy is unhealed-corrupt (a stray may be the one
    intact source a later pass needs).  ``barrier()`` runs first and makes
    the copies this heal placed durable; when it raises ``OSError`` no
    stray is retired."""
    unhealed, unplaced = _unsettled(result)
    strays = [n for n in result["holders"] if n not in result["owners"]]
    if not strays or result["unreachable"] or unhealed or unplaced:
        return
    try:
        if barrier is not None:
            barrier()
    except OSError:
        return
    for name in strays:
        try:
            drop(name)
        except OSError:
            continue
        result["strays_dropped"].append(name)


class HealSource(NamedTuple):
    """What :func:`source` found for one record."""

    data: bytes | None  # the copy to heal from; None: no copy may be used
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
    return HealSource(found, corrupt)


def place(member, digest: str, data, overwrite: bool = False) -> None:
    """Land a heal's bytes on one member store.

    ``overwrite`` replaces a copy that failed verification.  The write goes
    through the member's fault-hooked ``_put_chunk_data``, so a heal fails
    honestly against a member that is down.
    """
    if overwrite:
        member.chunks.drop(digest)
    member._put_chunk_data(digest, data)
