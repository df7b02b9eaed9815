"""Anti-entropy: the file plane's per-key heal, and the one self-heal loop.

Replica sets drift: a quorum write misses an owner, a disk loses a chunk,
a copy rots at rest, a member joins or leaves the ring.  Every repair of
a record — a chunk, or a file stored under its file id — is
:func:`repair_chunk`, the file plane's
:meth:`~repro.cluster.replica.ReplicaLedger.heal_key`: read repair, the
degraded-mark round and scan of :class:`SelfHealer`,
``ModelManager.heal()``/fsck and membership changes all call it, so their
repair semantics *cannot* diverge.  Its source copy comes from
:func:`~repro.cluster.replica.source` and lands through
:func:`~repro.cluster.replica.place` (never propagate a copy that fails
digest verification — scan past it to an intact one); a stray is retired
by :func:`~repro.cluster.replica.drop_strays` once every copy is verified
and every copy placed is flushed.

:class:`SelfHealer` is the one background loop over both planes: each
tick it probes the members, heals the keys the quorum writes marked
degraded, and heals one batch of the key universe.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING

from .. import obs
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
    failure detector.  Each :meth:`tick` — every ``interval_s`` on the
    loop's thread once :meth:`start` ed — runs the three rounds, each also
    callable on its own:

    * :meth:`probe_once` pings every member, feeding the detector, so an
      idle cluster notices a death and a recovery;
    * :meth:`degraded_once` heals the keys each plane's quorum writes
      marked degraded (``degraded_keys``), the one record of what a
      replica is owed;
    * :meth:`scan_once` heals the next ``batch_size`` keys of the stores'
      universe, deep.  Keys that did not come back ok/repaired form the
      *backlog* (gauge ``mmlib_antientropy_backlog``).

    Both heal rounds treat members the detector holds down as unreachable,
    so a round during an outage defers rather than mis-repairs.
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
        self.interval_s = float(interval_s)
        self.batch_size = int(batch_size)
        self._lock = threading.RLock()
        self._walk: list[tuple[str, str, str]] = []  # (plane, kind, key)
        self._cursor = 0
        self._backlog: set[tuple[str, str, str]] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.stats = dict.fromkeys((
            "ticks", "tick_errors", "probes", "probe_failures", "skipped_open",
            "marks_healed", "marks_deferred", "marks_dropped", "rounds", "cycles",
            "keys_scanned", "repaired", "deferred", "unrepairable", "strays_dropped"), 0)
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

    def _sweep(self, plane: str, keys, deep: bool, unreachable) -> dict:
        """One plane's :meth:`~repro.cluster.replica.ReplicaLedger.sweep`
        over ``keys``, each repair counted and reported as an event."""
        report = self.stores[plane].sweep(deep=deep, unreachable=unreachable, keys=keys)
        for entry in report["repaired"]:
            self._obs_repairs.inc()
            self._events.emit("antientropy_repair", plane=plane, **entry)
        self.stats["strays_dropped"] += len(report["strays_dropped"])
        return report

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

    # -- the degraded marks ------------------------------------------------------

    def degraded_once(self) -> dict:
        """Heal every key a quorum write left degraded: one sweep per plane
        over a snapshot of its ``degraded_keys``.

        A key healed whole loses its mark (:func:`~repro.cluster.replica.finish`);
        one owed to a member the detector holds down keeps it, deferred; one
        whose heal finds no copy anywhere (deleted and swept since) is
        dropped — a real loss is the scan's and fsck's to report.
        """
        summary = {"healed": 0, "deferred": 0, "dropped": 0}
        with self._lock:
            unreachable = self._down()
            for plane, store in sorted(self.stores.items()):
                with store._stats_lock:
                    keys = sorted(store.degraded_keys)
                if not keys:
                    continue
                report = self._sweep(plane, keys, False, unreachable)
                for entry in report["unrepairable"]:
                    store._clear_degraded(entry["kind"], entry["key"])
                summary["healed"] += len(keys) - len(report["backlog"])
                summary["deferred"] += len(report["backlog"]) - len(report["unrepairable"])
                summary["dropped"] += len(report["unrepairable"])
            for field, count in summary.items():
                self.stats[f"marks_{field}"] += count
        return summary

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
                report = self._sweep(plane, keys, True, unreachable)
                self._backlog.difference_update((plane, kind, key) for kind, key in keys)
                self._backlog.update(
                    (plane, entry["kind"], entry["key"]) for entry in report["backlog"])
                summary["scanned"] += report["checked"]
                for field in ("repaired", "deferred", "unrepairable"):
                    summary[field] += len(report[field])
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
        """Probe the members held down, then sweep every plane: the
        operator's "converge now and tell me".  ``repair=False`` audits
        without writing."""
        with self._lock:
            self.probe_once(now=True)
            report: dict = {"cluster": True}
            if self.detector is not None:
                report["health"] = self.detector.snapshot()
            unreachable = self._down()
            sweeps = report["sweeps"] = {
                plane: store.sweep(repair=repair, deep=deep, unreachable=unreachable)
                for plane, store in sorted(self.stores.items())}
            report["anti_entropy"] = {
                "scanned": sum(sweep["checked"] for sweep in sweeps.values()),
                **{field: sum(len(sweep[field]) for sweep in sweeps.values())
                   for field in ("repaired", "deferred", "unrepairable", "backlog")},
            }
        report["converged"] = report["anti_entropy"]["backlog"] == 0
        self._events.emit(
            "heal_pass", repair=repair, converged=report["converged"],
            backlog=report["anti_entropy"]["backlog"])
        return report

    # -- the loop ----------------------------------------------------------------

    def tick(self) -> None:
        """One turn of the loop: probe, heal the degraded marks, scan."""
        self.probe_once()
        self.degraded_once()
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
            except Exception as exc:  # keep healing: the next tick starts over
                self.stats["tick_errors"] += 1
                self._events.emit("self_heal_tick_failed", error=type(exc).__name__)

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
