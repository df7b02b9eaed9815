"""Membership changes and replica-set health for the sharded file store.

Two maintenance planes share this module:

* :class:`ClusterRebalancer` — adds/removes members.  Consistent hashing
  means only keys whose owner set actually changed move; the rebalancer
  diffs the old and new rings over the cluster's key universe, streams
  exactly those records (chunks, and files under their file ids) over a
  bounded worker pool, and records
  every completed move in an on-disk journal so an interrupted rebalance
  resumes without re-copying.  Each move copies from the verified heal
  source (:func:`~repro.cluster.replica.source`) that read repair, hinted
  handoff and anti-entropy use, so a corrupt replica is never copied and
  the only intact one is never dropped.
* :func:`replication_fsck` — cross-checks every replica set against the
  ring's R: under-replicated keys are repaired from a surviving copy
  (digest-verified first), stray replicas on non-owners are dropped once
  the owners are whole, and per-member refcounts are synced.  This is
  also what finishes quorum writes that succeeded degraded.  The per-key
  heal itself lives in :mod:`repro.cluster.antientropy`, shared with the
  online :class:`~repro.cluster.antientropy.AntiEntropyScanner` so
  offline and online repair semantics cannot diverge.

Both operate on the members' *raw* storage primitives — no fault hooks,
no link charges — because maintenance audits what is stored, not what a
flaky link would deliver.
"""

from __future__ import annotations

import json
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .. import obs
from ..errors import StoreCorruptionError
from ..filestore.recordlog import RecordLog
from .antientropy import chunk_universe as _chunk_universe
from .antientropy import repair_chunk
from .replica import place, source
from .sharded_store import ShardedFileStore

__all__ = ["ClusterRebalancer", "replication_fsck"]

#: Directory (under the sharded store's meta root) holding rebalance journals.
REBALANCE_DIR_NAME = "rebalance"


class ClusterRebalancer:
    """Streams ring-ownership diffs when cluster membership changes.

    The move journal (``<meta root>/rebalance/<id>.jsonl``, a
    :class:`~repro.filestore.recordlog.RecordLog`) records one record per
    completed move.  Re-running a rebalance with the same ``journal_id`` —
    after a crash mid-stream, a torn last record included — skips
    everything already journaled and finishes the remainder; the journal
    is deleted on completion.
    """

    def __init__(self, store: ShardedFileStore, workers: int = 4):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = int(workers)
        self.journal_dir = Path(store.root) / REBALANCE_DIR_NAME

    # -- membership entry points --------------------------------------------

    def add_member(self, name: str, member, journal_id: str | None = None) -> dict:
        """Join ``member`` to the cluster and stream its share of keys in."""
        if name in self.store.members:
            raise ValueError(f"member {name!r} is already in the cluster")
        old_ring = self.store.ring.copy()
        self.store.members[name] = member
        self.store.ring.add_member(name)
        return self._migrate(old_ring, journal_id=journal_id)

    def remove_member(self, name: str, journal_id: str | None = None) -> dict:
        """Drain ``name`` and drop it: ownership recomputes without it, its
        keys stream to their new owners (the leaving store still serves
        as a copy source during the drain), then it leaves.

        When any move fails the drain is *incomplete*: keys that did not
        copy may exist only on the leaver, so it stays in
        ``store.members`` (off the ring, still readable as a source) and
        the stats carry ``drained: False``.  Re-running ``remove_member``
        with the same ``journal_id`` — or ``resume`` followed by another
        ``remove_member`` — finishes the drain and then drops the member.
        """
        if name not in self.store.members:
            raise KeyError(f"member {name!r} is not in the cluster")
        if name in self.store.ring:
            old_ring = self.store.ring.copy()
            self.store.ring.remove_member(name)
        else:
            # retrying a previously-failed drain: the ring change already
            # happened, so plan from actual placement like resume() does
            old_ring = None
        stats = self._migrate(old_ring, journal_id=journal_id)
        if stats["failed"]:
            stats["drained"] = False
            return stats
        self.store.members.pop(name, None)
        stats["drained"] = True
        return stats

    def resume(self, journal_id: str) -> dict:
        """Finish an interrupted rebalance against the *current* ring.

        Membership was already switched by the interrupted call and the
        old ring is gone, so the remaining work is recomputed from actual
        placement: every key whose holder set still differs from the
        ring's owners gets its move, and journaled moves are skipped."""
        return self._migrate(None, journal_id=journal_id)

    # -- planning ------------------------------------------------------------

    def _plan(self, old_ring) -> list[dict]:
        """Moves for every key whose owner set changed, deterministic order.

        With ``old_ring`` (a membership change in progress) the plan is
        the ring diff — only ownership that moved.  Without it (a resume,
        where the pre-change ring no longer exists) the plan diffs what
        members actually hold against the current ring."""
        if old_ring is None:
            return self._plan_from_placement()
        store = self.store
        moves: list[dict] = []
        chunk_moved = old_ring.moved_keys(store.ring, sorted(_chunk_universe(store)))
        for digest, (old_owners, new_owners) in chunk_moved.items():
            moves.append(
                {"kind": "chunk", "key": digest, "old": old_owners, "new": new_owners}
            )
        return moves

    def _plan_from_placement(self) -> list[dict]:
        store = self.store
        moves: list[dict] = []
        for digest in sorted(_chunk_universe(store)):
            owners = store.ring.owners(digest)
            holders = [
                n for n in sorted(store.members)
                if store.members[n].chunks.has(digest)
            ]
            if set(holders) != set(owners):
                moves.append(
                    {"kind": "chunk", "key": digest, "old": holders, "new": owners}
                )
        return moves

    # -- execution -----------------------------------------------------------

    def _migrate(self, old_ring, journal_id: str | None = None) -> dict:
        journal_id = journal_id or uuid.uuid4().hex[:12]
        journal = RecordLog(self.journal_dir / f"{journal_id}.jsonl")
        done = {(entry["kind"], entry["key"]) for entry in journal.replay()}
        moves = [m for m in self._plan(old_ring) if (m["kind"], m["key"]) not in done]

        stats = {
            "journal_id": journal_id,
            "planned": len(moves) + len(done),
            "resumed_skips": len(done),
            "chunks_moved": 0,
            "replicas_dropped": 0,
            "bytes_copied": 0,
            "failed": 0,
        }
        if moves:
            journal_lock = threading.Lock()

            registry = obs.registry()
            obs_moves = registry.counter(
                "mmlib_rebalance_moves_total", "Rebalance moves completed")
            obs_failed = registry.counter(
                "mmlib_rebalance_failures_total", "Rebalance moves that failed")
            events = obs.events()

            def execute(move: dict) -> None:
                try:
                    copied, dropped = self._move_chunk(move["key"], move["new"])
                except (KeyError, OSError):
                    with journal_lock:
                        stats["failed"] += 1
                    obs_failed.inc()
                    return
                with journal_lock:
                    if copied:
                        stats["chunks_moved"] += 1
                        stats["bytes_copied"] += copied
                    stats["replicas_dropped"] += dropped
                if copied:
                    obs_moves.inc()
                    events.emit(
                        "rebalance_move", kind=move["kind"], key=move["key"],
                        bytes_copied=copied, to=list(move["new"]))
                    record = json.dumps({"kind": move["kind"], "key": move["key"]})
                    with journal_lock:
                        journal.append([record.encode()])

            if self.workers > 1 and len(moves) > 1:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    list(pool.map(execute, moves))
            else:
                for move in moves:
                    execute(move)

        if stats["failed"] == 0:
            journal.remove()
        else:
            journal.close()
        return stats

    def _move_chunk(self, digest: str, new_owners: list[str]) -> tuple[int, int]:
        """Copy one record to its new owners, then retire stale replicas.

        Returns ``(bytes_copied, replicas_dropped)``.  The source is the
        heal source (:func:`~repro.cluster.replica.source`) over every
        holder, new owners first, each copy read and verified: a copy that
        fails verification is never copied and is overwritten on a new
        owner, and when no copy may be healed from the move fails with
        nothing dropped.  The copy uses raw chunk I/O: content addressing
        means a re-run (resume) converges instead of duplicating, and
        refcounts travel with the data via ``import_refs``/``forget_refs``
        rather than being replayed."""
        members = self.store.members
        holders = [n for n in sorted(members) if members[n].chunks.has(digest)]
        if not holders:  # refcount entry with no data anywhere: nothing to move
            for name in sorted(members):
                members[name].chunks.forget_refs([digest])
            return 0, 0
        heal = source(self.store, digest, sorted(holders, key=lambda n: n not in new_owners),
                      deep=True)
        if heal.data is None:
            raise StoreCorruptionError(f"record {digest!r}: no copy verifies, nothing moved")
        copied = 0
        for name in new_owners:
            if name not in holders or name in heal.corrupt:
                place(members[name], digest, heal.data, heal.refcount, name in holders)
                copied += len(heal.data)
            elif heal.refcount > 0:
                members[name].chunks.import_refs({digest: heal.refcount})
        dropped = 0
        for name in holders:
            if name in new_owners:
                continue
            members[name].chunks.drop(digest)
            members[name].chunks.forget_refs([digest])
            dropped += 1
        return copied, dropped


def replication_fsck(store: ShardedFileStore, repair: bool = True) -> dict:
    """Audit (and with ``repair`` restore) every replica set to R copies.

    For each record in the cluster's universe — a chunk, or a file under
    its file id — the ring names the members that *should* hold it.
    Missing replicas are restored from a surviving copy — chunk payloads
    tensor-hash-verified when manifest metadata is known, files always
    verified against the id-embedded digest, so corruption is never
    propagated; a copy that fails verification leaves the key
    ``unrepairable`` instead.  Replicas
    sitting on non-owners (left behind by an interrupted rebalance) are
    dropped once every owner holds the key.
    """
    report = {
        "chunks_checked": 0,
        "under_replicated": [],
        "repaired": [],
        "strays_dropped": [],
        "unrepairable": [],
    }

    def fold(result: dict) -> None:
        kind, key = result["kind"], result["key"]
        gone = result["missing"] + result["unreachable"]
        if gone:
            report["under_replicated"].append(
                {
                    "kind": kind,
                    "key": key,
                    "have": len(result["owners"]) - len(gone),
                    "want": len(result["owners"]),
                    "missing": gone,
                }
            )
        if result["status"] == "unrepairable":
            report["unrepairable"].append({"kind": kind, "key": key})
        if result["repaired_to"] or result["corrupt_healed"]:
            report["repaired"].append({"kind": kind, "key": key})
        for member in result["strays_dropped"]:
            report["strays_dropped"].append(
                {"kind": kind, "key": key, "member": member}
            )

    for digest in sorted(_chunk_universe(store)):
        report["chunks_checked"] += 1
        fold(repair_chunk(store, digest, repair=repair))

    return report
