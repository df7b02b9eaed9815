"""Anti-entropy repair: one per-key heal path for fsck, scans and membership.

Replica sets drift: a quorum write misses an owner, a disk loses a chunk,
a copy rots at rest, a member joins or leaves the ring.  Three consumers
walk the same convergence logic —

* :func:`replication_fsck` (offline): the full universe in one pass,
  called from ``ModelManager.fsck``.
* :class:`AntiEntropyScanner` (online): the universe in bounded batches
  from a background thread, skipping members the failure detector says
  are down and re-visiting deferred keys once they return.
* :meth:`ShardedFileStore.add_member
  <repro.cluster.sharded_store.ShardedFileStore.add_member>` /
  ``remove_member``: the keys whose holders differ from their new ring
  owners, deep.  A change that stopped half-way leaves nothing to resume:
  the next sweep — running it again, or fsck — finds what still differs.

All call :func:`repair_chunk` below for every record — a chunk, or a
file stored under its file id — so their repair semantics *cannot*
diverge.  Its source copy and refcount come from
:func:`~repro.cluster.replica.source` and land through
:func:`~repro.cluster.replica.place`, the heal routines read repair and
hinted handoff use too (never propagate a copy that fails digest
verification — scan past it to an intact one); the
strays-only-when-whole guard lives here.

Per-key outcome statuses:

``ok``
    Every owner holds the key (and, on a deep scan, every copy verified).
``repaired``
    Divergence found and fully healed: missing replicas restored and/or
    corrupt copies overwritten from a verified source.
``partial``
    Some healing happened but owners are still not whole (e.g. one
    target is unreachable).
``degraded``
    Divergence found, nothing healed (audit mode, or heal writes failed).
``deferred``
    An owner is unreachable and no reachable copy proves the key's
    state; decided next scan, once the member is back.
``unrepairable``
    No intact copy exists anywhere reachable — data loss unless a down
    member still holds one.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from .. import obs
from .replica import place, source

if TYPE_CHECKING:
    from .sharded_store import ShardedFileStore

__all__ = [
    "chunk_universe",
    "repair_chunk",
    "replication_fsck",
    "AntiEntropyScanner",
]


def chunk_universe(store: ShardedFileStore) -> set[str]:
    """Every record key (chunk digest or file id) any member stores or
    refcounts."""
    universe: set[str] = set()
    for member in store.members.values():
        universe.update(member.chunks.chunk_ids())
        universe.update(member.chunks.export_refs())
    return universe


def _result(kind: str, key: str, owners, holders, missing, unreachable) -> dict:
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


def _finish(result: dict) -> dict:
    """Derive the outcome status from what the heal pass accomplished."""
    unhealed = [n for n in result["corrupt"] if n not in result["corrupt_healed"]]
    whole = not result["unreachable"] and all(
        name in result["holders"] or name in result["repaired_to"]
        for name in result["owners"]
    )
    if result["repaired_to"] or result["corrupt_healed"]:
        result["status"] = "repaired" if whole and not unhealed else "partial"
    elif result["missing"] or unhealed:
        result["status"] = "degraded"
    elif result["unreachable"]:
        result["status"] = "deferred"
    return result


def _drop_strays(result: dict, drop) -> None:
    """Retire non-owner replicas — only once every owner provably holds
    the key and no copy is unverified-corrupt (a stray may be the one
    intact source a later pass needs)."""
    unhealed = [n for n in result["corrupt"] if n not in result["corrupt_healed"]]
    if result["unreachable"] or unhealed:
        return
    held = set(result["holders"]) | set(result["repaired_to"])
    if not all(name in held for name in result["owners"]):
        return
    for name in result["holders"]:
        if name in result["owners"]:
            continue
        try:
            drop(name)
        except OSError:
            continue
        result["strays_dropped"].append(name)


def repair_chunk(
    store: ShardedFileStore,
    digest: str,
    repair: bool = True,
    deep: bool = False,
    unreachable=(),
) -> dict:
    """Audit (and with ``repair`` heal) one record's replica set.

    ``deep`` reads and digest-verifies *every* reachable copy — replica
    diffing, the anti-entropy mode — where the default only reads when a
    replica is missing.  A file record verifies against its id's digest
    prefix, so a file with no intact copy anywhere is ``unrepairable``.
    Members in ``unreachable`` (or raising ``OSError`` when asked) are
    never counted as missing the key and never written to; keys they own
    come back ``deferred``/``partial`` for a later pass.
    """
    members = store.members
    skip = {name for name in unreachable if name in members}
    owners = store.ring.owners(digest)
    holders: list[str] = []
    for name in sorted(members):
        if name in skip:
            continue
        try:
            if members[name].chunks.has(digest):
                holders.append(name)
        except OSError:
            skip.add(name)
    missing = [n for n in owners if n not in holders and n not in skip]
    result = _result(
        "chunk", digest, owners, holders, missing,
        sorted(n for n in owners if n in skip),
    )
    if not holders:
        result["status"] = "deferred" if result["unreachable"] else "unrepairable"
        return result

    heal = None
    if deep or missing:
        heal = source(store, digest, holders, deep=deep)
        result["corrupt"] = heal.corrupt
        if heal.data is None:
            result["status"] = "deferred" if result["unreachable"] else "unrepairable"
            return result

    if repair and heal is not None:
        for name in missing + heal.corrupt:
            overwrite = name in heal.corrupt
            try:
                place(members[name], digest, heal.data, heal.refcount, overwrite)
            except OSError:
                continue
            result["corrupt_healed" if overwrite else "repaired_to"].append(name)
        if result["repaired_to"] or result["corrupt_healed"]:
            store._clear_degraded("chunk", digest)

    if repair:
        def drop(name: str) -> None:
            members[name].chunks.drop(digest)
            members[name].chunks.forget_refs([digest])

        _drop_strays(result, drop)
    return _finish(result)


def replication_fsck(store: ShardedFileStore, repair: bool = True) -> dict:
    """Audit (and with ``repair`` restore) every replica set to R copies.

    For each record in the cluster's universe — a chunk, or a file under
    its file id — the ring names the members that *should* hold it.
    Missing replicas are restored from a surviving copy — chunk payloads
    tensor-hash-verified when manifest metadata is known, files always
    verified against the id-embedded digest, so corruption is never
    propagated; a copy that fails verification leaves the key
    ``unrepairable`` instead.  Replicas sitting on non-owners (left behind
    by an interrupted membership change) are dropped once every owner
    holds the key.
    """
    report = {
        "chunks_checked": 0,
        "under_replicated": [],
        "repaired": [],
        "strays_dropped": [],
        "unrepairable": [],
    }
    for digest in sorted(chunk_universe(store)):
        report["chunks_checked"] += 1
        result = repair_chunk(store, digest, repair=repair)
        kind, key = result["kind"], result["key"]
        gone = result["missing"] + result["unreachable"]
        if gone:
            report["under_replicated"].append({
                "kind": kind, "key": key, "have": len(result["owners"]) - len(gone),
                "want": len(result["owners"]), "missing": gone})
        if result["status"] == "unrepairable":
            report["unrepairable"].append({"kind": kind, "key": key})
        if result["repaired_to"] or result["corrupt_healed"]:
            report["repaired"].append({"kind": kind, "key": key})
        report["strays_dropped"] += [
            {"kind": kind, "key": key, "member": member}
            for member in result["strays_dropped"]]
    return report


class AntiEntropyScanner:
    """Background replica-diff walker over a sharded file store.

    Walks the record universe in sorted batches (``batch_size`` keys
    per round, cursor carried across rounds, universe re-snapshotted per
    cycle so new saves join the walk).  Each key goes through the shared
    :func:`repair_chunk` heal path with ``deep=True`` — every reachable
    copy read and digest-verified — and members the failure detector
    reports down are treated as unreachable, so a scan during an outage
    defers rather than mis-repairs.

    Keys that did not come back ``ok``/``repaired`` form the *backlog*
    (gauge ``mmlib_antientropy_backlog``); convergence for chaos runs is
    "hints drained and backlog empty".
    """

    def __init__(
        self,
        store: ShardedFileStore,
        detector=None,
        interval_s: float = 1.0,
        batch_size: int = 64,
        deep: bool = True,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.store = store
        self.detector = detector
        self.interval_s = float(interval_s)
        self.batch_size = int(batch_size)
        self.deep = bool(deep)
        self._lock = threading.RLock()
        self._walk: list[str] = []
        self._cursor = 0
        self._backlog: set[tuple[str, str]] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.stats = {
            "rounds": 0, "cycles": 0, "keys_scanned": 0, "repaired": 0,
            "corrupt_healed": 0, "deferred": 0, "unrepairable": 0,
            "strays_dropped": 0,
        }
        registry = obs.registry()
        self._obs_backlog = registry.gauge(
            "mmlib_antientropy_backlog",
            "Keys known divergent and not yet healed")
        self._obs_repairs = registry.counter(
            "mmlib_antientropy_repairs_total",
            "Replica sets healed by the anti-entropy scanner")
        self._events = obs.events()

    # -- scanning ------------------------------------------------------------

    def _unreachable(self) -> set[str]:
        if self.detector is None:
            return set()
        return set(self.detector.down_members())

    def _snapshot_walk(self) -> None:
        self._walk = sorted(chunk_universe(self.store))
        self._cursor = 0
        self.stats["cycles"] += 1

    def _account(self, result: dict) -> None:
        key = (result["kind"], result["key"])
        status = result["status"]
        if status in ("ok", "repaired"):
            self._backlog.discard(key)
        else:
            self._backlog.add(key)
        if result["repaired_to"] or result["corrupt_healed"]:
            self.stats["repaired"] += 1
            self._obs_repairs.inc()
            self._events.emit(
                "antientropy_repair", kind=result["kind"], key=result["key"],
                restored=list(result["repaired_to"]),
                healed=list(result["corrupt_healed"]))
        self.stats["corrupt_healed"] += len(result["corrupt_healed"])
        self.stats["strays_dropped"] += len(result["strays_dropped"])
        if status == "deferred":
            self.stats["deferred"] += 1
        elif status == "unrepairable":
            self.stats["unrepairable"] += 1

    def scan_once(self, limit: int | None = None, repair: bool = True) -> dict:
        """Scan the next batch of keys; returns a round summary."""
        with self._lock:
            limit = self.batch_size if limit is None else int(limit)
            if self._cursor >= len(self._walk):
                self._snapshot_walk()
            batch = self._walk[self._cursor:self._cursor + limit]
            self._cursor += len(batch)
            unreachable = self._unreachable()
            summary = {"scanned": 0, "repaired": 0, "deferred": 0,
                       "unrepairable": 0, "backlog": 0}
            for key in batch:
                result = repair_chunk(
                    self.store, key, repair=repair, deep=self.deep,
                    unreachable=unreachable)
                self._account(result)
                summary["scanned"] += 1
                if result["repaired_to"] or result["corrupt_healed"]:
                    summary["repaired"] += 1
                if result["status"] == "deferred":
                    summary["deferred"] += 1
                elif result["status"] == "unrepairable":
                    summary["unrepairable"] += 1
            self.stats["rounds"] += 1
            self.stats["keys_scanned"] += summary["scanned"]
            summary["backlog"] = len(self._backlog)
            self._obs_backlog.set(len(self._backlog))
            return summary

    def full_sweep(self, repair: bool = True) -> dict:
        """One complete pass over the current universe (chaos/fsck path)."""
        with self._lock:
            self._snapshot_walk()
            total = {"scanned": 0, "repaired": 0, "deferred": 0,
                     "unrepairable": 0, "backlog": 0}
            while self._cursor < len(self._walk):
                round_summary = self.scan_once(repair=repair)
                for field in ("scanned", "repaired", "deferred", "unrepairable"):
                    total[field] += round_summary[field]
            total["backlog"] = len(self._backlog)
            return total

    def backlog(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._backlog)

    def backlog_size(self) -> int:
        with self._lock:
            return len(self._backlog)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AntiEntropyScanner":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mmlib-antientropy", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.scan_once()
            except Exception:  # pragma: no cover - defensive: keep scanning
                pass

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
