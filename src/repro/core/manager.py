"""High-level model management: catalog, lineage, retention, repair.

The paper's server "has to monitor every model that exists and has to be
able to losslessly recover it when requested" (use case U_4).
:class:`ModelManager` is that server-side façade over the shared stores:
it lists and queries the model catalog, walks lineage in both directions,
reports storage, and deletes models safely (refusing to orphan derived
models, cleaning up every referenced document and file).

:meth:`ModelManager.fsck` is the post-crash consistency check: it
cross-checks documents against files and manifests against chunks, and
sweeps what the catalog does not reach, repairing what it safely can —
what a save that died before its model document left is exactly such an
unreachable record or document.  It and :meth:`ModelManager.garbage_collect`
share one definition of live: the catalog walk (:meth:`ModelManager._walk`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .. import obs
from ..filestore.store import chunk_intact, is_file_id, self_checked
from .abstract import AbstractSaveService
from .compaction import DEFAULT_MAX_DEPTH, ChainCompactor
from .environment import ENVIRONMENT_ID_PREFIX, environment_id
from .errors import MMLibError, ModelNotFoundError, TransientStoreError
from .recover import RecoveredModelInfo, StorageBreakdown
from .schema import ENVIRONMENTS, MODELS, TRAIN_INFO, WRAPPERS

__all__ = [
    "ModelRecord",
    "ModelManager",
    "DependentModelsError",
    "FsckIssue",
    "FsckReport",
]


#: What a :class:`ModelRecord` is built from — all that catalog queries
#: copy of a model document, which carries a hash per layer.
_RECORD_FIELDS = ("approach", "base_model", "use_case", "saved_at")


#: The fields of a model document that name files (``_referenced_files``).
_FILE_FIELDS = ("architecture", "parameters_file", "provenance")

#: The fields of a model document the catalog walk reads.
_WALK_FIELDS = (*_FILE_FIELDS, "base_model", "environment_id", "train_info_id")

class DependentModelsError(MMLibError):
    """Raised when deleting a model that other models are derived from."""


@dataclass
class ModelRecord:
    """Catalog view of one saved model."""

    model_id: str
    approach: str
    base_model_id: str | None
    use_case: str | None
    saved_at: float
    derived_model_ids: list[str] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.base_model_id is None


@dataclass
class FsckIssue:
    """One consistency violation found by :meth:`ModelManager.fsck`.

    ``kind`` is a stable machine-readable tag (``torn_segment``,
    ``segment_index``, ``segment_crc``,
    ``catalog_torn_tail``, ``missing_base``, ``missing_document``,
    ``environment_digest``, ``missing_file``, ``missing_chunk``,
    ``corrupt_chunk``, ``corrupt_manifest``,
    ``orphan_file``, ``orphan_chunk``,
    ``under_replicated``, ``orphan_document``).
    """

    kind: str
    detail: str
    repaired: bool = False


@dataclass
class FsckReport:
    """Outcome of one verify-and-repair pass over the shared stores."""

    issues: list[FsckIssue] = field(default_factory=list)
    checked_models: int = 0
    checked_files: int = 0
    checked_chunks: int = 0
    step_seconds: dict = field(default_factory=dict)
    segments: dict | None = None

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def repaired(self) -> list[FsckIssue]:
        return [issue for issue in self.issues if issue.repaired]

    @property
    def unrepaired(self) -> list[FsckIssue]:
        return [issue for issue in self.issues if not issue.repaired]

    def add(self, kind: str, detail: str, repaired: bool = False) -> None:
        self.issues.append(FsckIssue(kind, detail, repaired))

    def to_dict(self) -> dict:
        """JSON-serializable view (``mmlib fsck --json``, dashboards)."""
        return {
            "clean": self.clean,
            "checked_models": self.checked_models,
            "checked_files": self.checked_files,
            "checked_chunks": self.checked_chunks,
            "repaired": len(self.repaired),
            "unrepaired": len(self.unrepaired),
            "step_seconds": dict(self.step_seconds),
            "segments": self.segments,
            "issues": [
                {"kind": issue.kind, "detail": issue.detail, "repaired": issue.repaired}
                for issue in self.issues
            ],
            "summary": self.summary(),
        }

    def summary(self) -> str:
        counts = Counter(issue.kind for issue in self.issues)
        breakdown = (
            ", ".join(f"{kind}: {n}" for kind, n in sorted(counts.items()))
            or "no issues"
        )
        return (
            f"fsck: {self.checked_models} models, {self.checked_files} files, "
            f"{self.checked_chunks} chunks checked; {breakdown} "
            f"({len(self.repaired)} repaired, {len(self.unrepaired)} unrepaired)"
        )


class _FsckSteps:
    """Times fsck's sequential passes, one trace span per step.

    fsck is one long linear function; rather than re-nest each numbered
    section, ``start`` closes the previous step (recording its duration
    into the report) and opens the next.  Call ``finish`` after the last
    section.
    """

    def __init__(self, report: FsckReport):
        self._report = report
        self._tracer = obs.tracer()
        self._clock = obs.clock()
        self._name: str | None = None
        self._ctx = None
        self._started = 0.0

    def start(self, name: str) -> None:
        self.finish()
        self._ctx = self._tracer.span(f"fsck.{name}")
        self._ctx.__enter__()
        self._name = name
        self._started = self._clock.perf()

    def finish(self) -> None:
        if self._name is None:
            return
        self._report.step_seconds[self._name] = self._clock.perf() - self._started
        self._ctx.__exit__(None, None, None)
        self._name = None
        self._ctx = None


@dataclass
class _Reached:
    """What the catalog walk reaches (:meth:`ModelManager._walk`)."""

    models: dict  # model id -> its document (``_WALK_FIELDS``)
    environments: set = field(default_factory=set)
    trains: set = field(default_factory=set)
    wrappers: set = field(default_factory=set)
    files: dict = field(default_factory=dict)  # file id -> what names it first
    missing: list = field(default_factory=list)  # documents named but absent


class ModelManager:
    """Catalog and retention operations over a save service's stores."""

    def __init__(self, service: AbstractSaveService):
        self.service = service
        self.documents = service.documents
        self.files = service.files

    # -- catalog -------------------------------------------------------------

    def _children(self, model_ids: list[str]) -> dict[str, list[str]]:
        """Base id -> ids of the models derived from it, for all of
        ``model_ids`` in ONE query (a sharded catalog scatters once, not
        once per model) that copies no more than ``base_model``."""
        children: dict[str, list[str]] = {}
        if model_ids:
            for document in self.documents.collection(MODELS).find(
                {"base_model": {"$in": list(model_ids)}}, projection=("base_model",)
            ):
                children.setdefault(document["base_model"], []).append(document["_id"])
        return children

    def _records(self, documents: list[dict]) -> list[ModelRecord]:
        """Catalog records of model documents (``_RECORD_FIELDS`` suffice)."""
        children = self._children([document["_id"] for document in documents])
        return [
            ModelRecord(
                model_id=document["_id"],
                approach=document.get("approach", "unknown"),
                base_model_id=document.get("base_model"),
                use_case=document.get("use_case"),
                saved_at=document.get("saved_at", 0.0),
                derived_model_ids=sorted(children.get(document["_id"], [])),
            )
            for document in documents
        ]

    def list_models(self, query: dict | None = None) -> list[ModelRecord]:
        """All saved models (optionally filtered by a document query)."""
        documents = self.documents.collection(MODELS).find(
            query, projection=_RECORD_FIELDS)
        return sorted(self._records(documents), key=lambda r: r.saved_at)

    def get(self, model_id: str) -> ModelRecord:
        try:
            document = self.documents.collection(MODELS).get(
                model_id, projection=_RECORD_FIELDS)
        except KeyError as exc:
            raise ModelNotFoundError(f"no saved model with id {model_id!r}") from exc
        return self._records([document])[0]

    def find_by_use_case(self, use_case: str) -> list[ModelRecord]:
        return self.list_models({"use_case": use_case})

    # -- lineage ---------------------------------------------------------------------

    def lineage(self, model_id: str) -> list[ModelRecord]:
        """Records from ``model_id`` up to its chain root (inclusive)."""
        chain = self.service.base_chain(model_id)
        # one round-trip for the whole chain instead of one per level
        documents = self.documents.collection(MODELS).get_many(
            chain, projection=_RECORD_FIELDS)
        if len(documents) != len(chain):  # deleted since base_chain() saw it
            missing = set(chain) - {document["_id"] for document in documents}
            raise ModelNotFoundError(f"no saved model with id {sorted(missing)[0]!r}")
        return self._records(documents)

    def descendants(self, model_id: str) -> list[ModelRecord]:
        """Every model transitively derived from ``model_id``."""
        found: list[str] = []
        frontier = [model_id]
        while frontier:  # one query per level of the tree
            children = self._children(frontier)
            frontier = [child for ids in children.values() for child in ids]
            found.extend(frontier)
        documents = self.documents.collection(MODELS).get_many(
            sorted(found), projection=_RECORD_FIELDS)
        return self._records(documents)

    def lineage_tree(self, model_id: str) -> str:
        """Human-readable derivation tree rooted at ``model_id``."""
        records = {
            record.model_id: record
            for record in (self.get(model_id), *self.descendants(model_id))
        }
        lines: list[str] = []

        def walk(current: str, depth: int) -> None:
            record = records.get(current)
            if record is None:
                return  # saved after the tree was read
            label = record.use_case or "-"
            lines.append(f"{'  ' * depth}{current}  [{record.approach}] {label}")
            for child in record.derived_model_ids:
                walk(child, depth + 1)

        walk(model_id, 0)
        return "\n".join(lines)

    # -- storage ------------------------------------------------------------------------

    def storage_report(self) -> dict[str, StorageBreakdown]:
        """Per-model storage breakdowns for the whole catalog."""
        return {
            record.model_id: self.service.model_save_size(record.model_id)
            for record in self.list_models()
        }

    def total_storage_bytes(self) -> int:
        return sum(b.total for b in self.storage_report().values())

    # -- observability ------------------------------------------------------------------

    def stats(self) -> dict:
        """One JSON-able snapshot of everything this deployment measures.

        ``metrics`` is the process-wide registry snapshot (every counter,
        gauge, and histogram family); the remaining keys are per-component
        views taken from whichever optional layers this service was
        actually assembled with — a plain local FileStore contributes no
        cluster or network section.
        """
        out: dict = {"metrics": obs.registry().snapshot()}
        files = self.files
        cache = getattr(files, "chunk_cache", None)
        if cache is not None:
            out["chunk_cache"] = cache.stats()
        if hasattr(files, "cluster_stats"):
            out["cluster_files"] = dict(files.cluster_stats)
        if hasattr(files, "round_trips"):
            out["network"] = {
                "round_trips": files.round_trips,
                "round_trips_saved": files.round_trips_saved,
                "bytes_sent": getattr(files, "bytes_sent", 0),
                "bytes_received": getattr(files, "bytes_received", 0),
            }
        out["segments"] = files.chunks.segment_stats()
        out["dedup"] = files.chunks.dedup_stats()
        documents = self.documents
        if hasattr(documents, "cluster_stats"):
            out["cluster_docs"] = dict(documents.cluster_stats)
        tenant_counts = getattr(documents, "tenant_model_counts", None)
        if callable(tenant_counts):
            # multi-tenant admin view (gateway deployments): models per tenant
            out["tenants"] = tenant_counts()
        detector = getattr(files, "detector", None) or getattr(
            documents, "detector", None)
        if detector is not None:
            out["health"] = detector.snapshot()
        # models saved from one environment share its document, so the
        # distinct documents are the distinct environments of the fleet
        try:
            models = documents.collection(MODELS)
            env_ids = sorted({
                d["_id"]
                for d in documents.collection(ENVIRONMENTS).find(projection=())
            })
            out["environments"] = {
                "distinct": len(env_ids),
                "models": {
                    env_id: models.count({"environment_id": env_id})
                    for env_id in env_ids
                },
            }
            # the collection logs: (live + dead) / live is the space the
            # append-only files take over what a checkpoint would leave
            out["catalog"] = {
                name: documents.collection(name).stats()
                for name in (MODELS, ENVIRONMENTS, TRAIN_INFO, WRAPPERS)
            }
        except TransientStoreError:
            pass  # catalog unreachable: the health section says why
        return out

    # -- recovery (delegation) ------------------------------------------------------------

    def recover(self, model_id: str, **kwargs) -> RecoveredModelInfo:
        return self.service.recover_model(model_id, **kwargs)

    def verify_catalog(self, cache=None) -> dict[str, bool | None]:
        """Integrity sweep: recover and checksum-verify every model.

        A shared :class:`RecoveryCache` replays each MPA level once, so
        an MPA chain of n levels costs n trainings instead of O(n²).  Pass
        ``cache`` to reuse one across sweeps (periodic monitoring then
        replays only models that changed) instead of warming a fresh one
        every call.  Returns model id -> verified flag (``None`` when a
        model was saved without checksums).
        """
        from .cache import RecoveryCache

        if cache is None:
            cache = RecoveryCache(max_entries=256)
        results: dict[str, bool | None] = {}
        for record in self.list_models():
            recovered = self.service.recover_model(record.model_id, cache=cache)
            results[record.model_id] = recovered.verified
        return results

    # -- retention: squashing chains ---------------------------------------------------------

    def promote_to_snapshot(self, model_id: str) -> None:
        """Convert a derived model into a self-contained snapshot in place.

        The chain rewrite :meth:`compact` runs materializes the model (a
        no-op on a recovery base); a second document replace then severs
        its lineage (keeping its id, use case, and derived references
        intact) and releases an MPA level's training record.  Afterwards
        the model no longer depends on its ancestors — the standard
        retention move before deleting old chain prefixes: promote the
        oldest model you must keep, then delete everything above it.  A
        crash between the two commits leaves a compacted, still-linked
        model, which a second promote finishes.
        """
        ChainCompactor(self.service).compact_model(model_id)
        models = self.documents.collection(MODELS)
        document = models.get(model_id)
        if not document.get("base_model"):
            return  # already a root snapshot
        document["promoted_from"] = document["base_model"]
        document["base_model"] = None
        train_info_id = document.pop("train_info_id", None)
        provenance = document.pop("provenance", None) or {}
        models.replace_one(model_id, document)  # the commit point
        # only now drop the training record, in one release
        if train_info_id:
            train_document = self.documents.collection(TRAIN_INFO).get(train_info_id)
            superseded = self._delete_wrappers(train_document)
            if provenance.get("dataset_file_id"):
                superseded.append(provenance["dataset_file_id"])
            self.documents.collection(TRAIN_INFO).delete_one(train_info_id)
            self.files.delete_many(superseded)

    def squash_chain(self, model_id: str) -> int:
        """Promote ``model_id`` to a snapshot and delete its exclusive
        ancestors; returns how many ancestor models were deleted.

        Ancestors still referenced by *other* chains (e.g. U_1 under both
        branches of the evaluation flow) are kept.
        """
        ancestors = self.service.base_chain(model_id)[1:]
        self.promote_to_snapshot(model_id)
        deleted = 0
        for ancestor in ancestors:  # walk from the model towards the root
            record = self.get(ancestor)
            if record.derived_model_ids:
                break  # still needed by another chain
            self.delete_model(ancestor)
            deleted += 1
        return deleted

    # -- retention: bounding chain depth -----------------------------------------------------

    def compact(self, max_depth: int | None = None, dry_run: bool = False) -> dict:
        """Bound every delta chain's recovery depth at ``max_depth``.

        Materializes a recovery base for every model ``max_depth`` levels
        above its nearest one (see
        :class:`~repro.core.compaction.ChainCompactor`).  Model ids and
        lineage are untouched — only recovery cost changes.  ``dry_run``
        returns the plan without rewriting anything.
        """
        if max_depth is None:
            max_depth = DEFAULT_MAX_DEPTH
        return ChainCompactor(self.service, max_depth=max_depth).run(dry_run=dry_run)

    # -- deletion & garbage collection ------------------------------------------------------

    def _referenced_files(self, document: dict) -> set[str]:
        files: set[str] = set()
        architecture = document.get("architecture")
        if architecture and architecture.get("code_file_id"):
            files.add(architecture["code_file_id"])
        if document.get("parameters_file"):
            files.add(document["parameters_file"])
        provenance = document.get("provenance")
        if provenance and provenance.get("dataset_file_id"):
            files.add(provenance["dataset_file_id"])
        return files

    def delete_model(self, model_id: str, force: bool = False) -> None:
        """Delete one model: its document, and nothing else.

        Refuses to delete a model that derived models still depend on
        unless ``force`` is given — deleting such a model would make its
        descendants unrecoverable.  The document's delete commits it:
        what only the model reached — its manifest and the chunks it
        names, its code file (a PUA model names its base's), its train and
        wrapper documents and their state files, the shared environment
        document — stays until :meth:`garbage_collect` finds nothing else
        reaching it (``mmlib delete`` and the gateway's delete run one).
        """
        record = self.get(model_id)
        if record.derived_model_ids and not force:
            raise DependentModelsError(
                f"model {model_id} has {len(record.derived_model_ids)} derived "
                f"model(s) ({record.derived_model_ids[:3]}…); deleting it would "
                "break their recovery — pass force=True to delete anyway"
            )
        self.documents.collection(MODELS).delete_one(model_id)

    def _delete_wrappers(self, train_document: dict) -> list[str]:
        """Delete a train document's wrapper documents; returns their state
        files, for the caller to drop."""
        wrappers = self.documents.collection(WRAPPERS)
        state_files = []
        for key, value in train_document.items():
            if not (isinstance(value, str) and key.endswith("_wrapper")):
                continue
            try:
                wrapper_document = wrappers.get(value)
            except KeyError:
                continue
            state_file = wrapper_document.get("state_file_id")
            if state_file:
                state_files.append(state_file)
            wrappers.delete_one(value)
        return state_files

    def _walk(self) -> _Reached:
        """The one definition of live: model documents → their environment
        and train documents → the train documents' wrappers → the files
        the models and wrappers name.  :meth:`garbage_collect` sweeps what
        it does not reach, :meth:`fsck` checks what it does."""
        models = {document["_id"]: document for document in
                  self.documents.collection(MODELS).find(projection=_WALK_FIELDS)}
        reached = _Reached(models)
        for model_id, document in models.items():
            if document.get("environment_id"):
                reached.environments.add(document["environment_id"])
            if document.get("train_info_id"):
                reached.trains.add(document["train_info_id"])
            for file_id in self._referenced_files(document):
                reached.files.setdefault(file_id, f"model {model_id}")
        trains = self.documents.collection(TRAIN_INFO)
        for train_id in sorted(reached.trains):
            try:
                train_document = trains.get(train_id)
            except KeyError:
                reached.missing.append(f"{TRAIN_INFO} document {train_id}")
                continue
            reached.wrappers.update(
                value for key, value in train_document.items()
                if isinstance(value, str) and key.endswith("_wrapper"))
        wrappers = self.documents.collection(WRAPPERS)
        for wrapper_id in sorted(reached.wrappers):
            try:
                state_file = wrappers.get(wrapper_id).get("state_file_id")
            except KeyError:
                reached.missing.append(f"wrapper {wrapper_id}")
                continue
            if state_file:
                reached.files.setdefault(state_file, f"wrapper {wrapper_id}")
        return reached

    def _unreached_documents(self, reached: _Reached):
        """``(name, collection, id)`` of every environment, train and
        wrapper document the walk did not reach."""
        for name, live in ((ENVIRONMENTS, reached.environments),
                           (TRAIN_INFO, reached.trains), (WRAPPERS, reached.wrappers)):
            collection = self.documents.collection(name)
            for document in collection.find(projection=()):
                if document["_id"] not in live:
                    yield name, collection, document["_id"]

    def garbage_collect(self) -> dict[str, int]:
        """Sweep what the catalog does not reach; returns statistics.

        Under the file store's hold, exclusive from the mark to the sweep
        (a save in flight holds it shared until its commit), the catalog
        walk marks and the documents and file records it did not reach are
        deleted.  Then :meth:`FileStore.gc_chunks` marks from the manifests
        left, under a hold of its own, and sweeps every chunk none names.
        ``bytes_freed`` reports the physical bytes reclaimed, chunk
        deduplication included.
        """
        with self.files.hold(exclusive=True):
            reached = self._walk()
            for _name, collection, doc_id in list(self._unreached_documents(reached)):
                collection.delete_one(doc_id)
            before = self.files.total_bytes()
            removed = self.files.delete_many(
                [file_id for file_id in self.files.file_ids() if file_id not in reached.files])
            freed = before - self.files.total_bytes()
        swept = self.files.gc_chunks()
        return {"files_removed": len(removed), "bytes_freed": freed + swept["bytes_freed"]}

    # -- self-healing (sharded deployments) ---------------------------------

    def heal(self, repair: bool = True, deep: bool = True) -> dict:
        """One foreground self-heal pass over a sharded deployment: the
        replication half of :meth:`fsck` (``mmlib heal``).

        Probes the members the failure detector holds down, then sweeps
        both planes — records and documents — through the one per-key
        heal; with ``deep``, every reachable copy is read and verified,
        not just counted.
        ``repair=False`` audits without writing.  Returns the
        :meth:`~repro.cluster.SelfHealer.converge` report, or
        ``{"cluster": False}`` on a single-store deployment.  A running
        deployment does the same continuously in its
        :class:`~repro.cluster.SelfHealer` loop.
        """
        stores = [store for store in (self.files, self.documents)
                  if hasattr(store, "heal_key")]
        if not stores:
            return {"cluster": False}
        from ..cluster import SelfHealer

        return SelfHealer(stores).converge(repair=repair, deep=deep)

    # -- fsck: verify and repair --------------------------------------------

    def fsck(self, repair: bool = True, verify_chunks: bool = True) -> FsckReport:
        """Cross-check documents ↔ files ↔ chunks; sweep the unreached.

        Invariants checked, in order, each step timed under its name:

        1. ``segments`` — every segment's footer and record framing is
           intact: torn tails are truncated and the chunk index is
           rebuilt from disk (a compaction that died needs nothing here:
           its tmp segment is grace-swept, and a committed destination
           or victim the index no longer names goes at the next ``gc``);
        2. ``replication`` — on a sharded deployment, :meth:`heal`: the
           members held down are probed, and every record (chunk or file)
           and document swept through the one per-key heal to its full R
           replicas, from a surviving copy (digest-verified, never
           propagating corruption; with ``verify_chunks`` every copy is
           read).  It runs before the steps below read documents, so what
           their reads would repair unreported is reported here
           (``under_replicated``);
        3. ``documents`` — no catalog log was opened with a torn final
           record (a crash mid-append; the engine already dropped it,
           reported here once); the catalog walk (:meth:`_walk`, shared
           with :meth:`garbage_collect`) finds every model document's base
           model, environment/train/wrapper documents, and referenced files,
           and every content-addressed environment document still hashes
           back to its id (audit only);
        4. ``chunks`` — every reached manifest's chunks exist and (with
           ``verify_chunks``) hash back to their content digests;
        5. ``orphans`` — no stored record is outside the mark (the
           reached files and the chunks their manifests name): an
           unreached file is an ``orphan_file``, an unreached chunk an
           ``orphan_chunk``.  What a save that failed or died before its
           model document left is exactly this, as is what a deleted
           model or a crashed chain rewrite leaves before the next gc;
        6. ``orphan_documents`` — every environment, train and wrapper
           document is reached: one a crashed save put, or an environment
           whose last model was deleted, is removed.

        A repair holds the file store's hold exclusive throughout, as
        :meth:`garbage_collect` does.  With ``repair=False`` everything is
        reported but nothing is touched: on a sharded deployment its reads run under
        :func:`~repro.cluster.replica.audit_reads`, so no step's read
        heals a replica either.  Losses fsck cannot undo (a missing or
        corrupt chunk of a live model) are reported as unrepaired issues.
        """
        from ..cluster.replica import audit_reads

        with self.files.hold(exclusive=True) if repair else audit_reads():
            return self._fsck(repair, verify_chunks)

    def _fsck(self, repair: bool, verify_chunks: bool) -> FsckReport:
        report = FsckReport()
        files = self.files
        steps = _FsckSteps(report)

        # 1. audit segment footers/record framing, rebuild the chunk
        # index from disk
        steps.start("segments")
        outcome = files.chunks.audit(repair=repair, verify=verify_chunks)
        report.segments = outcome
        for name in outcome["torn_segments"]:
            report.add(
                "torn_segment",
                f"segment {name} had a torn tail"
                + (" (truncated)" if repair else ""),
                repaired=repair,
            )
        for digest in outcome["entries_dropped"]:
            report.add(
                "segment_index",
                f"index entry {digest[:24]}… pointed at missing "
                "segment bytes" + (" (dropped)" if repair else ""),
                repaired=repair,
            )
        if outcome["entries_added"]:
            report.add(
                "segment_index",
                f"rebuilt {outcome['entries_added']} index "
                "entr(y/ies) from segment scans",
                repaired=True,
            )
        for digest in outcome["crc_failures"]:
            report.add(
                "segment_crc",
                f"segment record for chunk {digest[:24]}… fails "
                "its CRC check",
            )

        # 2. replication (sharded stores only): quorum writes that landed
        # degraded, or members that lost disks, leave records and documents
        # below R copies.  It runs before any step reads documents, whose
        # reads would read-repair them unreported.
        steps.start("replication")
        healed = self.heal(repair=repair, deep=verify_chunks)
        for sweep in healed.get("sweeps", {}).values():
            unrepairable = {
                (entry["kind"], entry["key"]) for entry in sweep["unrepairable"]}
            repaired_keys = {(entry["kind"], entry["key"]) for entry in sweep["repaired"]}
            for entry in sweep["under_replicated"]:
                key = (entry["kind"], entry["key"])
                fixed = key in repaired_keys and key not in unrepairable
                report.add(
                    "under_replicated",
                    f"{entry['kind']} {entry['key'][:24]}…: {entry['have']}/"
                    f"{entry['want']} replicas (missing on "
                    f"{', '.join(entry['missing'])})"
                    + (" (restored)" if fixed else ""),
                    repaired=fixed,
                )

        # 3. documents -> documents/files cross-checks
        steps.start("documents")
        for collection_name in (MODELS, ENVIRONMENTS, TRAIN_INFO, WRAPPERS):
            collection = self.documents.collection(collection_name)
            dropped = collection.acknowledge_torn_tail()
            if dropped:
                report.add(
                    "catalog_torn_tail",
                    f"{collection_name} log ended in {dropped} bytes of a "
                    "record whose write never returned (dropped on open)",
                    repaired=True,
                )
        reached = self._walk()
        report.checked_models = len(reached.models)
        for model_id, document in reached.models.items():
            base = document.get("base_model")
            if base and base not in reached.models:
                report.add(
                    "missing_base",
                    f"model {model_id} derives from missing base model {base}",
                )
        # a content-addressed environment vouches for every model sharing
        # it, and its id says what it must contain
        environments = self.documents.collection(ENVIRONMENTS)
        for env_id in sorted(reached.environments):
            try:
                environment = environments.get(env_id)
            except KeyError:
                reached.missing.append(f"{ENVIRONMENTS} document {env_id}")
                continue
            if env_id.startswith(ENVIRONMENT_ID_PREFIX) and environment_id(environment) != env_id:
                report.add(
                    "environment_digest",
                    f"environment document {env_id} does not hash back to its id",
                )
        for detail in reached.missing:
            report.add("missing_document", f"the catalog names missing {detail}")
        for file_id, referrer in reached.files.items():
            if not files.exists(file_id):
                report.add("missing_file", f"{referrer} references missing file {file_id}")

        # 4. manifests -> spec record and chunk existence and content
        # digests; the mark is the reached files and what their manifests
        # name
        steps.start("chunks")
        marked: set[str] = set()
        verified: set[str] = set()
        for file_id in sorted(reached.files):
            if not files.exists(file_id):
                continue
            marked.add(file_id)
            if not files.is_manifest_id(file_id):
                continue
            try:
                spec, *digests = files.manifest_keys(file_id)
            except (IOError, ValueError) as exc:
                report.add("corrupt_manifest", f"manifest {file_id}: {exc}")
                continue
            marked.update((spec, *digests))
            if not files.has_chunk(spec):
                report.add("missing_chunk", f"manifest {file_id} names missing "
                           f"spec record {spec[:12]}…")
                continue
            if verify_chunks and spec not in verified:
                verified.add(spec)
                if not _stored_intact(files, spec):
                    report.add("corrupt_chunk", f"spec record {spec[:12]}… (of "
                               f"{file_id}) does not hash back to its key")
            try:
                layers = files.read_manifest(file_id)["layers"]
            except (IOError, ValueError) as exc:
                report.add("corrupt_manifest", f"manifest {file_id}: {exc}")
                continue
            for name, meta in layers:
                digest = meta["chunk"]
                if not files.has_chunk(digest):
                    report.add(
                        "missing_chunk",
                        f"manifest {file_id} layer {name!r} references "
                        f"missing chunk {digest[:12]}…",
                    )
                    continue
                if not verify_chunks or digest in verified:
                    continue
                verified.add(digest)
                if not _stored_intact(files, digest, meta):
                    report.add(
                        "corrupt_chunk",
                        f"chunk {digest[:12]}… (layer {name!r} of {file_id}) "
                        "does not hash back to its digest",
                    )
        report.checked_files = len(files.file_ids())
        report.checked_chunks = sum(1 for key in marked if not self_checked(key))

        # 5. orphans = stored - marked (keys are ``member:key`` on a
        # sharded store)
        steps.start("orphans")
        for key in files.chunks.sweep(marked, repair=repair):
            if is_file_id(key.rpartition(":")[2]):
                kind, detail = "orphan_file", f"unreferenced file {key}"
            else:
                kind, detail = "orphan_chunk", f"unreferenced chunk {key[:12]}…"
            report.add(kind, detail + (" (removed)" if repair else ""),
                       repaired=repair)

        # 6. orphan documents (a crashed save's, an environment nobody names)
        steps.start("orphan_documents")
        for name, collection, doc_id in list(self._unreached_documents(reached)):
            if repair:
                collection.delete_one(doc_id)
            report.add(
                "orphan_document",
                f"unreferenced {name} document {doc_id}"
                + (" (removed)" if repair else ""),
                repaired=repair,
            )
        steps.finish()

        registry = obs.registry()
        events = obs.events()
        for kind, n in Counter(issue.kind for issue in report.issues).items():
            registry.counter(
                "mmlib_fsck_issues_total", "Fsck issues found by kind", kind=kind
            ).inc(n)
        for issue in report.repaired:
            registry.counter(
                "mmlib_fsck_repairs_total", "Fsck issues repaired").inc()
            events.emit("fsck_repair", issue=issue.kind, detail=issue.detail)
        return report


def _stored_intact(files, key: str, layer=None) -> bool:
    """Whether record ``key`` as stored hashes back to its key.  Read
    straight from disk: fsck audits what is stored, not what a faulty link
    would deliver; a record that fails its CRC and bytes that fail their
    digest both count as corruption here."""
    try:
        return chunk_intact(key, files.chunks.get(key), layer)
    except (OSError, KeyError, ValueError, TypeError):
        return False
