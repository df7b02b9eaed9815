"""Anti-entropy: the file plane's per-key heal, and the one self-heal loop.

Replica sets drift: a quorum write misses an owner, a disk loses a chunk,
a copy rots at rest, a member joins or leaves the ring.  Every repair of
a record — a chunk, or a file stored under its file id — is
:func:`repair_chunk`, the file plane's
:meth:`~repro.cluster.replica.ReplicaLedger.heal_key`: read repair, hint
delivery, :class:`SelfHealer`'s scan, ``ModelManager.heal()``/fsck and
membership changes all call it, so their repair semantics *cannot*
diverge.  Its source copy comes from
:func:`~repro.cluster.replica.source` and lands through
:func:`~repro.cluster.replica.place` (never propagate a copy that fails
digest verification — scan past it to an intact one); a stray is retired
by :func:`~repro.cluster.replica.drop_strays` once every copy is verified
and every copy placed is flushed.

:class:`SelfHealer` is the one background loop over both planes: each
tick it probes the members, delivers the pending hints by healing their
keys, and heals one batch of the key universe.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING

from .. import obs
from .hints import KIND_DOC
from .replica import drop_strays, finish, new_result, place, source

if TYPE_CHECKING:
    from .sharded_store import ShardedFileStore

__all__ = ["repair_chunk", "SelfHealer"]


def repair_chunk(
    store: ShardedFileStore,
    digest: str,
    repair: bool = True,
    deep: bool = False,
    unreachable=(),
) -> dict:
    """Audit (and with ``repair`` heal) one record's replica set.

    ``deep`` reads and digest-verifies *every* reachable copy — replica
    diffing — where the default only reads when a replica is missing or a
    copy sits on a non-owner (a stray is retired only once every copy is
    verified).  A file record verifies against its id's digest prefix, so
    a file with no intact copy anywhere is ``unrepairable``.  Members in
    ``unreachable`` (or raising ``OSError`` when asked) are never counted
    as missing the key and never written to; keys they own come back
    ``deferred``/``partial`` for a later pass.
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
    result = new_result(
        "chunk", digest, owners, holders, missing, [n for n in owners if n in skip])
    if not holders:
        result["status"] = "deferred" if result["unreachable"] else "unrepairable"
        return result

    heal = None
    strays = any(name not in owners for name in holders)
    if deep or missing or strays:
        heal = source(store, digest, holders, deep=deep or strays)
        result["corrupt"] = heal.corrupt
        if heal.data is None:
            result["status"] = "deferred" if result["unreachable"] else "unrepairable"
            return result

    if repair and heal is not None:
        for name in missing + heal.corrupt:
            overwrite = name in heal.corrupt
            try:
                place(members[name], digest, heal.data, overwrite)
            except OSError:
                continue
            result["corrupt_healed" if overwrite else "repaired_to"].append(name)

    if repair:
        def barrier() -> None:
            for name in result["repaired_to"] + result["corrupt_healed"]:
                members[name].chunks.flush()

        drop_strays(result, lambda name: members[name].chunks.drop(digest), barrier)
    return finish(store, result)


class SelfHealer:
    """The one self-heal loop of a clustered deployment.

    ``stores`` are the sharded stores (file and document plane) sharing one
    failure detector and hint log.  Each :meth:`tick` — every
    ``interval_s`` on the loop's thread once :meth:`start` ed — runs the
    three rounds, each also callable on its own:

    * :meth:`probe_once` pings every member, feeding the detector, so an
      idle cluster notices a death and a recovery;
    * :meth:`deliver_once` replays pending hints by healing their keys;
    * :meth:`scan_once` heals the next ``batch_size`` keys of the stores'
      universe, deep, treating members the detector holds down as
      unreachable, so a scan during an outage defers rather than
      mis-repairs.  Keys that did not come back ok/repaired form the
      *backlog* (gauge ``mmlib_antientropy_backlog``).

    :meth:`converge` is the foreground pass ``ModelManager.heal()`` runs.
    """

    def __init__(self, stores, interval_s: float = 0.25, batch_size: int = 64):
        stores = [store for store in stores if store is not None]
        if not stores:
            raise ValueError("a self-heal loop needs at least one sharded store")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.stores = {store._plane: store for store in stores}
        self.detector = stores[0].detector
        self.hints = stores[0].hints
        self.interval_s = float(interval_s)
        self.batch_size = int(batch_size)
        self._lock = threading.RLock()
        self._walk: list[tuple[str, str, str]] = []  # (plane, kind, key)
        self._cursor = 0
        self._backlog: set[tuple[str, str, str]] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.stats = dict.fromkeys((
            "ticks", "probes", "probe_failures", "skipped_open", "delivered", "stale",
            "failures", "skipped_down", "rounds", "cycles", "keys_scanned", "repaired",
            "deferred", "unrepairable", "strays_dropped"), 0)
        registry = obs.registry()
        self._obs_backlog = registry.gauge(
            "mmlib_antientropy_backlog",
            "Keys known divergent and not yet healed")
        self._obs_repairs = registry.counter(
            "mmlib_antientropy_repairs_total",
            "Replica sets healed by the anti-entropy scanner")
        self._events = obs.events()

    def _down(self) -> set[str]:
        return set() if self.detector is None else set(self.detector.down_members())

    # -- probing ---------------------------------------------------------------

    def probe_once(self, now: bool = False) -> dict[str, bool | None]:
        """Ping every member once; ``None`` means breaker-skipped.

        A probe that returns is a success, one raising ``OSError`` or
        ``KeyError`` a failure.  ``now`` pings only the members the
        detector holds down, past their breakers, up to
        ``recovery_threshold`` times each: an explicit heal need not wait
        out a cooldown to re-admit a member that is back.
        """
        detector = self.detector
        results: dict[str, bool | None] = {}
        if detector is None:
            return results
        probes: dict = {}
        for store in self.stores.values():
            for name, member in store.members.items():
                ping = getattr(member, "ping", None)
                if callable(ping):
                    probes.setdefault(name, ping)
        down = self._down() if now else ()
        with self._lock:
            for name, ping in sorted(probes.items()):
                if now and name not in down:
                    continue
                if not now and not detector.allow(name):
                    self.stats["skipped_open"] += 1
                    results[name] = None
                    continue
                for _ in range(detector.recovery_threshold if now else 1):
                    self.stats["probes"] += 1
                    try:
                        ping()
                    except (OSError, KeyError):
                        self.stats["probe_failures"] += 1
                        detector.record_failure(name)
                        results[name] = False
                        break
                    detector.record_success(name)
                    results[name] = True
        return results

    # -- hint delivery ---------------------------------------------------------

    def _target(self, hint):
        """The store and ``(kind, key)`` whose heal delivers ``hint``; None
        for a plane this loop does not heal.  A ``blob`` hint was recorded
        by an older release for a file, which is a record now."""
        if hint.get("kind") == KIND_DOC:
            store, kind = self.stores.get("docs"), hint.get("collection")
        else:
            store, kind = self.stores.get("files"), "chunk"
        return None if store is None or kind is None else (store, kind, hint["key"])

    def deliver_once(self) -> dict:
        """One delivery round over every member with pending hints.

        A hint is delivered by healing its key.  It is resolved once the
        missed member holds the key (delivered), or no longer owns it, or
        no copy survives (stale).  Otherwise it stays, and the rest of that
        member's batch waits for the next round; a failure to write the
        member feeds the detector.  A member the detector holds down is
        skipped, one fast skip per round.
        """
        round_stats = {"delivered": 0, "stale": 0, "failures": 0, "skipped_down": 0}
        if self.hints is None:
            return round_stats
        down = self._down()
        with self._lock:
            for member in self.hints.members_with_hints():
                if member in down:
                    round_stats["skipped_down"] += 1
                    continue
                for hint in self.hints.pending(member):
                    target = self._target(hint)
                    if target is None:
                        continue
                    store, kind, key = target
                    result = store.heal_key(kind, key, down)
                    if (member not in store.members or member not in result["owners"]
                            or result["status"] == "unrepairable"):
                        delivered = False
                    elif member in result["repaired_to"] or (
                            member in result["holders"] and member not in result["missing"]):
                        delivered = True
                    else:
                        round_stats["failures"] += 1
                        if self.detector is not None and (
                                member in result["unreachable"]
                                or (member in result["missing"] and result["holders"])):
                            self.detector.record_failure(member)
                        break  # member (or source) still sick: stop this batch
                    self.hints.resolve(member, hint, stale=not delivered)
                    round_stats["delivered" if delivered else "stale"] += 1
                    if delivered and self.detector is not None:
                        self.detector.record_success(member)
            for field, count in round_stats.items():
                self.stats[field] += count
        if round_stats["delivered"] or round_stats["stale"]:
            self._events.emit("hints_delivered", **round_stats)
        return round_stats

    def drain(self, max_rounds: int = 100) -> bool:
        """Deliver until the log is empty or a round makes no progress;
        ``True`` when every hint is resolved."""
        if self.hints is None:
            return True
        for _ in range(max_rounds):
            if self.hints.total_pending() == 0:
                return True
            result = self.deliver_once()
            if result["delivered"] == 0 and result["stale"] == 0:
                break
        return self.hints.total_pending() == 0

    # -- scanning --------------------------------------------------------------

    def scan_once(self) -> dict:
        """Heal the next batch of keys (a new cycle re-snapshots the
        universe, so new saves join the walk); returns a round summary."""
        with self._lock:
            if self._cursor >= len(self._walk):
                self._walk = [
                    (plane, kind, key) for plane, store in sorted(self.stores.items())
                    for kind, key in sorted(store.universe())]
                self._cursor = 0
                self.stats["cycles"] += 1
            batch = self._walk[self._cursor:self._cursor + self.batch_size]
            self._cursor += len(batch)
            unreachable = self._down()
            summary = {"scanned": 0, "repaired": 0, "deferred": 0, "unrepairable": 0}
            for plane, keys in itertools.groupby(batch, key=lambda item: item[0]):
                keys = [(kind, key) for _, kind, key in keys]
                report = self.stores[plane].sweep(
                    deep=True, unreachable=unreachable, keys=keys)
                self._backlog.difference_update((plane, kind, key) for kind, key in keys)
                self._backlog.update(
                    (plane, entry["kind"], entry["key"]) for entry in report["backlog"])
                for entry in report["repaired"]:
                    self._obs_repairs.inc()
                    self._events.emit("antientropy_repair", plane=plane, **entry)
                summary["scanned"] += report["checked"]
                for field in ("repaired", "deferred", "unrepairable"):
                    summary[field] += len(report[field])
                self.stats["strays_dropped"] += len(report["strays_dropped"])
            for field in ("repaired", "deferred", "unrepairable"):
                self.stats[field] += summary[field]
            self.stats["rounds"] += 1
            self.stats["keys_scanned"] += summary["scanned"]
            summary["backlog"] = len(self._backlog)
            self._obs_backlog.set(len(self._backlog))
            return summary

    def backlog_size(self) -> int:
        with self._lock:
            return len(self._backlog)

    # -- the foreground pass -----------------------------------------------------

    def converge(self, repair: bool = True, deep: bool = True) -> dict:
        """Probe the members held down, drain the hints, then sweep every
        plane: the operator's "converge now and tell me".  ``repair=False``
        audits without writing."""
        with self._lock:
            self.probe_once(now=True)
            report: dict = {"cluster": True}
            if self.detector is not None:
                report["health"] = self.detector.snapshot()
            if self.hints is not None:
                pending_before = self.hints.total_pending()
                drained = self.drain() if repair else False
                report["hints"] = {
                    "pending_before": pending_before,
                    "pending_after": self.hints.total_pending(),
                    "drained": drained,
                    **{field: self.stats[field]
                       for field in ("delivered", "stale", "failures")},
                }
            unreachable = self._down()
            sweeps = report["sweeps"] = {
                plane: store.sweep(repair=repair, deep=deep, unreachable=unreachable)
                for plane, store in sorted(self.stores.items())}
            report["anti_entropy"] = {
                "scanned": sum(sweep["checked"] for sweep in sweeps.values()),
                **{field: sum(len(sweep[field]) for sweep in sweeps.values())
                   for field in ("repaired", "deferred", "unrepairable", "backlog")},
            }
        report["converged"] = (
            report.get("hints", {}).get("pending_after", 0) == 0
            and report["anti_entropy"]["backlog"] == 0)
        self._events.emit(
            "heal_pass", repair=repair, converged=report["converged"],
            backlog=report["anti_entropy"]["backlog"])
        return report

    # -- the loop ----------------------------------------------------------------

    def tick(self) -> None:
        """One turn of the loop: probe, deliver, scan."""
        self.probe_once()
        self.deliver_once()
        self.scan_once()
        self.stats["ticks"] += 1

    def start(self) -> "SelfHealer":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mmlib-self-heal", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive: keep healing
                pass

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
