"""Bounded-TTR delta chains: journaled chain compaction.

Derived-model approaches (PUA diffs, MPA training replays) keep storage
small by recording only what changed, but what a recover must resolve
grows with chain depth — the tip of a 16-deep chain is 17 documents and
manifests to walk (and, for the MPA, 16 trainings to replay).
:class:`ChainCompactor` bounds that: every ``max_depth`` levels
it *materializes* a synthetic full snapshot by recovering the model once
and publishing the result as the model's new recovery base, in place.

Materializing in place keeps every model id and the ``base_model``
lineage untouched — a recover's chain walk simply ends at the new base
(a ``parameters_file`` ends it, whatever the approach), so descendants
need no rewriting and provenance queries still
see the full derivation tree.  This differs from
:meth:`~repro.core.manager.ModelManager.promote_to_snapshot`, which
severs lineage as a prelude to deleting ancestors.

The swap is journaled like the cluster rebalancer and segment
compaction: artifacts are created first (a crash before the journal
lands leaves only orphans, which fsck's refcount reconcile reclaims), then a
one-record intent journal (a :class:`~repro.filestore.recordlog.RecordLog`)
records the planned swap and is fsynced, then the document update commits
it atomically.  :meth:`ChainCompactor.resume_pending`
(run by fsck and by every :meth:`run`) rolls a half-done swap forward
when the document shows the new snapshot, back otherwise — recovery of
every model is bitwise identical before, during, and after a crash at
any step.
"""

from __future__ import annotations

import json
from pathlib import Path

from .. import obs
from ..filestore.recordlog import RecordLog
from .errors import MMLibError
from .schema import MODELS

__all__ = ["CompactionJournal", "ChainCompactor", "DEFAULT_MAX_DEPTH"]

#: Materialize a snapshot once a model sits this many levels above its
#: nearest recovery base (the paper's TTR experiments motivate keeping
#: replay chains short; 4 keeps worst-case recovery at ~4 delta applies).
DEFAULT_MAX_DEPTH = 4

#: Directory (under the file store's root) holding compaction journals.
COMPACTION_DIR_NAME = "chain-compaction"


class CompactionJournal:
    """One intent file per in-flight materialization, atomically written.

    The journal is the single source of truth for crash recovery: it
    exists only between "artifacts are durable" and "swap fully cleaned
    up", and records everything needed to finish either direction —
    ``{model_id, old_update_file, manifest_file, code_file}``.  Each file
    is a one-record :class:`~repro.filestore.recordlog.RecordLog`; one an
    older release wrote as a plain JSON document reads the same.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _log(self, model_id: str) -> RecordLog:
        return RecordLog(self.root / f"{model_id}.json")

    def write(self, model_id: str, payload: dict) -> None:
        """Durably publish the swap intent (tmp + rename, then fsync)."""
        log = self._log(model_id)
        log.rewrite([json.dumps(dict(payload, model_id=model_id), indent=0).encode()])
        log.sync()
        log.close()

    def pending(self) -> list[dict]:
        """Every journaled swap that has not been discarded, oldest first."""
        entries = []
        for path in sorted(self.root.glob("*.json")):
            log = RecordLog(path)
            records = log.replay()  # empty: a torn write published no intent
            log.close()
            entries.extend(records[-1:])
        return entries

    def discard(self, model_id: str) -> None:
        self._log(model_id).remove()


class ChainCompactor:
    """Rewrites deep delta chains into bounded-depth recovery chains.

    ``max_depth`` is K: any model whose distance to its nearest recovery
    base reaches K gets a materialized snapshot.  Set ``fault_hook`` to a
    :meth:`~repro.faults.FaultInjector.fail_point`-shaped callable to
    crash-test the swap protocol (ops are ``compact.artifacts``,
    ``compact.journal``, ``compact.commit``, ``compact.cleanup``,
    ``compact.discard``).
    """

    def __init__(self, service, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.service = service
        self.documents = service.documents
        self.files = service.files
        self.max_depth = int(max_depth)
        self.journal = CompactionJournal(Path(self.files.root) / COMPACTION_DIR_NAME)
        #: Optional chaos hook (``FaultInjector.fail_point`` signature).
        self.fault_hook = None
        registry = obs.registry()
        self._obs_materialized = registry.counter(
            "mmlib_compaction_materialized_total",
            "Delta-chain models rewritten into recovery bases")
        self._obs_resumed = registry.counter(
            "mmlib_compaction_resumes_total",
            "Half-done compaction swaps finished after a crash")
        self._obs_released = registry.counter(
            "mmlib_compaction_released_bytes_total",
            "Logical bytes of superseded delta payloads released")

    def _fault(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    # -- planning ----------------------------------------------------------

    def plan(self) -> list[dict]:
        """Models to materialize, in dependency order (bases first).

        Depth is the distance to the nearest recovery base — a root
        snapshot, an already-compacted delta, or an ancestor this same
        plan will materialize (the counter resets at planned nodes, so
        one pass bounds every chain without cascading rewrites).
        """
        docs = {
            d["_id"]: d
            for d in self.documents.collection(MODELS).find(
                projection=("base_model", "parameters_file"))
        }
        depths: dict[str, int] = {}
        planned: list[dict] = []
        planned_ids: set[str] = set()

        def depth_of(model_id: str, trail: set[str]) -> int:
            if model_id in depths:
                return depths[model_id]
            if model_id in trail:
                raise MMLibError(f"cycle in base-model chain at {model_id!r}")
            document = docs.get(model_id)
            if document is None or document.get("parameters_file"):
                value = 0  # a recovery base (or a dangling ref fsck reports)
            else:
                trail.add(model_id)
                value = depth_of(document.get("base_model"), trail) + 1
                trail.discard(model_id)
                if value >= self.max_depth and model_id not in planned_ids:
                    planned.append({"model_id": model_id, "depth": value})
                    planned_ids.add(model_id)
                if model_id in planned_ids:
                    value = 0  # descendants measure from the new base
            depths[model_id] = value
            return value

        # walk tips in sorted order for a deterministic plan; the recursion
        # appends ancestors before descendants, giving dependency order
        for model_id in sorted(docs):
            if model_id is not None:
                depth_of(model_id, set())
        return planned

    # -- materialization ---------------------------------------------------

    def _chain_architecture(self, model_id: str) -> dict:
        """The chain's architecture payload with its code bytes copied.

        Copying the code file (like ``promote_to_snapshot``) keeps the
        materialized document self-contained: retention deleting the
        chain prefix later cannot orphan its architecture.
        """
        seen: set[str] = set()
        current = model_id
        while current and current not in seen:  # nearest ancestor that has one
            seen.add(current)
            document = self.service._get_model_document(
                current, projection=("architecture", "base_model"))
            architecture = document.get("architecture")
            if architecture:
                code_bytes = self.files.recover_bytes(architecture["code_file_id"])
                architecture["code_file_id"] = self.files.save_bytes(
                    code_bytes, suffix=".py")
                return architecture
            current = document.get("base_model")
        raise MMLibError(
            f"no architecture found along the chain of {model_id!r}; "
            "cannot materialize a snapshot"
        )

    def compact_model(self, model_id: str, depth: int | None = None) -> dict:
        """Materialize one model as its chain's new recovery base.

        Returns ``{"model_id", "released_bytes"}``.  The model's document
        keeps its id, approach, lineage, layer hashes, and Merkle root;
        it gains ``parameters_file`` + ``architecture`` and loses its
        delta payload.  No-op if the model is already a recovery base.
        """
        models = self.documents.collection(MODELS)
        document = models.get(model_id)
        if document.get("parameters_file"):
            return {"model_id": model_id, "released_bytes": 0}

        with self._obs_tracer_span(model_id):
            # replay the chain once; verify=True proves the replayed state
            # matches the stored Merkle root *before* anything is published
            recovered = self.service.recover_model(model_id, verify=True)

            self._fault("compact.artifacts")
            architecture = self._chain_architecture(model_id)
            parameters_file, layer_hashes, root = self.service._save_parameters(
                recovered.model
            )
            stored_root = document.get("merkle_root")
            if stored_root is not None and root != stored_root:
                raise MMLibError(
                    f"materialized snapshot of {model_id} hashes to {root}, "
                    f"document records {stored_root}; refusing to publish"
                )

            old_update_file = document.get("update_file")
            self._fault("compact.journal")
            self.journal.write(model_id, {
                "old_update_file": old_update_file,
                "manifest_file": parameters_file,
                "code_file": architecture["code_file_id"],
            })

            released = 0
            if old_update_file and self.files.exists(old_update_file):
                released = self.files.size(old_update_file)

            document["parameters_file"] = parameters_file
            document["architecture"] = architecture
            document["layer_hashes"] = [[k, v] for k, v in layer_hashes.items()]
            if stored_root is None:
                document["merkle_root"] = root
            document["compacted"] = {"from_depth": depth or recovered.recovery_depth}
            document.pop("update_file", None)
            document.pop("updated_layers", None)
            self._fault("compact.commit")
            models.replace_one(model_id, document)  # <-- the commit point

            self._fault("compact.cleanup")
            if old_update_file:
                self.files.delete(old_update_file)
            self._fault("compact.discard")
            self.journal.discard(model_id)

        self._obs_materialized.inc()
        self._obs_released.inc(released)
        obs.events().emit(
            "chain_compacted", model_id=model_id,
            depth=depth or recovered.recovery_depth, released_bytes=released)
        return {"model_id": model_id, "released_bytes": released}

    def _obs_tracer_span(self, model_id: str):
        return obs.tracer().span("compaction.materialize", model_id=model_id)

    def run(self, dry_run: bool = False) -> dict:
        """One full pass: finish pending swaps, then bound every chain.

        With ``dry_run`` the plan is computed and returned untouched.
        The plan is in dependency order, so each recover stops at the
        base the previous step published: a K-spaced plan over one chain
        reads O(chain) levels in total.
        """
        resumed = self.resume_pending(self.documents, self.files, repair=not dry_run)
        planned = self.plan()
        report = {
            "max_depth": self.max_depth,
            "planned": planned,
            "resumed": resumed,
            "materialized": [],
            "released_bytes": 0,
            "dry_run": dry_run,
        }
        if dry_run:
            return report
        for entry in planned:
            outcome = self.compact_model(entry["model_id"], depth=entry["depth"])
            report["materialized"].append(outcome)
            report["released_bytes"] += outcome["released_bytes"]
        return report

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def resume_pending(cls, documents, files, repair: bool = True) -> list[dict]:
        """Finish (or report) every half-done swap the journal records.

        The document is the commit point: if it already references the
        journaled snapshot manifest the swap rolls *forward* (drop the
        superseded delta payload); otherwise it rolls *back* (drop the
        never-published artifacts).  Both directions are idempotent, so
        crashing during resume and resuming again is safe.
        """
        journal = CompactionJournal(Path(files.root) / COMPACTION_DIR_NAME)
        actions: list[dict] = []
        models = documents.collection(MODELS)
        for entry in journal.pending():
            model_id = entry.get("model_id")
            manifest_file = entry.get("manifest_file")
            try:
                document = models.get(model_id)
            except KeyError:
                document = {}
            committed = (
                manifest_file is not None
                and document.get("parameters_file") == manifest_file
            )
            action = {
                "model_id": model_id,
                "action": "rolled_forward" if committed else "rolled_back",
                "repaired": repair,
            }
            if repair:
                if committed:
                    old = entry.get("old_update_file")
                    if old:
                        files.delete(old)
                else:  # one release: the manifest's chunk refs with it
                    files.delete_many(
                        [f for f in (manifest_file, entry.get("code_file")) if f])
                journal.discard(model_id)
                obs.registry().counter(
                    "mmlib_compaction_resumes_total",
                    "Half-done compaction swaps finished after a crash").inc()
                obs.events().emit(
                    "compaction_resumed", model_id=model_id,
                    action=action["action"])
            actions.append(action)
        return actions
