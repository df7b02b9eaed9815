"""High-level model management: catalog, lineage, retention, repair.

The paper's server "has to monitor every model that exists and has to be
able to losslessly recover it when requested" (use case U_4).
:class:`ModelManager` is that server-side façade over the shared stores:
it lists and queries the model catalog, walks lineage in both directions,
reports storage, and deletes models safely (refusing to orphan derived
models, cleaning up every referenced document and file).

:meth:`ModelManager.fsck` is the post-crash consistency check: it rolls
back saves that died mid-flight (via their intent journals), cross-checks
documents against files, manifests against chunks, and refcounts against
what the live manifests actually reference, repairing what it safely can.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .. import obs
from ..filestore.store import chunk_intact, is_file_id, layer_chunk_digests
from ..docstore.engine import DuplicateKeyError
from .abstract import AbstractSaveService
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
_FILE_FIELDS = ("architecture", "parameters_file", "update_file", "provenance")


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

    ``kind`` is a stable machine-readable tag (``incomplete_save``,
    ``incomplete_compaction``, ``missing_file``, ``missing_chunk``,
    ``corrupt_chunk``, ``corrupt_manifest``, ``refcount_mismatch``,
    ``orphan_file``, ``orphan_chunk``, ``orphan_document``,
    ``missing_base``, ``missing_document``, ``environment_digest``,
    ``catalog_torn_tail``, ``under_replicated``, ``torn_segment``, ``segment_index``, ``segment_crc``,
    ``segment_compaction``).
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
        hint_log = getattr(files, "hints", None) or getattr(
            documents, "hints", None)
        if hint_log is not None:
            out["hints"] = {
                "pending": hint_log.pending_counts(),
                "total_pending": hint_log.total_pending(),
                "pending_bytes": hint_log.pending_bytes(),
                **hint_log.stats,
            }
        prefetcher = getattr(self.service, "prefetcher", None)
        if prefetcher is not None:
            out["prefetcher"] = prefetcher.stats()
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

    def verify_catalog(
        self, use_cache: bool = True, cache=None
    ) -> dict[str, bool | None]:
        """Integrity sweep: recover and checksum-verify every model.

        With ``use_cache`` (default) a shared :class:`RecoveryCache` makes
        the sweep O(n) base recoveries instead of O(n²) — chain prefixes
        are recovered once and reused.  Pass ``cache`` to reuse one
        :class:`RecoveryCache` across sweeps (periodic monitoring then
        pays the recovery cost only for models that changed) instead of
        warming a fresh one every call.  Returns model id -> verified flag
        (``None`` when a model was saved without checksums).
        """
        from .cache import RecoveryCache

        if cache is None and use_cache:
            # chain sweeps recover bases first: protect that prefix instead
            # of evicting it (and skip the deep copy for churn inserts)
            cache = RecoveryCache(max_entries=256, protect_prefix=True)
        results: dict[str, bool | None] = {}
        for record in self.list_models():
            recovered = self.service.recover_model(record.model_id, cache=cache)
            results[record.model_id] = recovered.verified
        return results

    # -- retention: squashing chains ---------------------------------------------------------

    def promote_to_snapshot(self, model_id: str) -> None:
        """Convert a derived model into a self-contained snapshot in place.

        Recovers the model, persists its full parameters, and rewrites its
        document to the baseline layout (keeping its id, use case, and
        derived references intact).  Afterwards the model no longer depends
        on its ancestors — the standard retention move before deleting old
        chain prefixes: promote the oldest model you must keep, then delete
        everything above it.
        """
        document = self.documents.collection(MODELS).get(model_id)
        if document.get("parameters_file"):
            return  # already a snapshot
        recovered = self.service.recover_model(model_id, verify=True)

        # the architecture lives at the chain root; copy it — including its
        # code file's bytes, so deleting the ancestors later cannot orphan
        # the promoted document's architecture
        architecture = None
        for ancestor in self.service.base_chain(model_id):
            ancestor_document = self.documents.collection(MODELS).get(ancestor)
            if ancestor_document.get("architecture"):
                architecture = dict(ancestor_document["architecture"])
                break
        if architecture is None:
            raise MMLibError(
                f"no architecture found along the chain of {model_id!r}; "
                "cannot promote to a snapshot"
            )
        code_bytes = self.files.recover_bytes(architecture["code_file_id"])
        architecture["code_file_id"] = self.files.save_bytes(code_bytes, suffix=".py")

        parameters_file, layer_hashes, root = self.service._save_parameters(
            recovered.model
        )
        # drop the old derived-representation payloads, in one release
        superseded = [document["update_file"]] if document.get("update_file") else []
        document.pop("update_file", None)
        document.pop("updated_layers", None)
        if document.get("train_info_id"):
            train_document = self.documents.collection(TRAIN_INFO).get(
                document["train_info_id"]
            )
            superseded += self._delete_wrappers(train_document)
            self.documents.collection(TRAIN_INFO).delete_one(document["train_info_id"])
            provenance = document.get("provenance") or {}
            if provenance.get("dataset_file_id"):
                superseded.append(provenance["dataset_file_id"])
        self.files.delete_many(superseded)
        document.pop("train_info_id", None)
        document.pop("provenance", None)

        document["parameters_file"] = parameters_file
        document["architecture"] = architecture
        document["layer_hashes"] = [[k, v] for k, v in layer_hashes.items()]
        document["merkle_root"] = root
        document["base_model"] = None
        document["promoted_from"] = recovered.base_model_id
        self.documents.collection(MODELS).replace_one(model_id, document)

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

        Finishes any swap a previous run left half-done, then
        materializes a recovery base for every model ``max_depth`` levels
        above its nearest one (see
        :class:`~repro.core.compaction.ChainCompactor`).  Model ids and
        lineage are untouched — only recovery cost changes.  ``dry_run``
        returns the plan without rewriting anything.
        """
        from .compaction import DEFAULT_MAX_DEPTH, ChainCompactor

        compactor = ChainCompactor(
            self.service, max_depth=max_depth or DEFAULT_MAX_DEPTH
        )
        return compactor.run(dry_run=dry_run)

    # -- deletion & garbage collection ------------------------------------------------------

    def _referenced_files(self, document: dict) -> set[str]:
        files: set[str] = set()
        architecture = document.get("architecture")
        if architecture and architecture.get("code_file_id"):
            files.add(architecture["code_file_id"])
        for key in ("parameters_file", "update_file"):
            if document.get(key):
                files.add(document[key])
        provenance = document.get("provenance")
        if provenance and provenance.get("dataset_file_id"):
            files.add(provenance["dataset_file_id"])
        return files

    def delete_model(self, model_id: str, force: bool = False) -> None:
        """Delete one model and everything only it references.

        Refuses to delete a model that derived models still depend on
        unless ``force`` is given — deleting such a model would make its
        descendants unrecoverable.
        """
        record = self.get(model_id)
        if record.derived_model_ids and not force:
            raise DependentModelsError(
                f"model {model_id} has {len(record.derived_model_ids)} derived "
                f"model(s) ({record.derived_model_ids[:3]}…); deleting it would "
                "break their recovery — pass force=True to delete anyway"
            )
        document = self.documents.collection(MODELS).get(model_id)

        # every file of the model, manifests' chunks included: one release
        file_ids = list(self._referenced_files(document))
        train_info_id = document.get("train_info_id")
        if train_info_id:
            train_info = self.documents.collection(TRAIN_INFO)
            file_ids += self._delete_wrappers(train_info.get(train_info_id))
            train_info.delete_one(train_info_id)
        self.files.delete_many(file_ids)
        if document.get("environment_id"):
            self._release_environment(document["environment_id"], model_id)
        self.documents.collection(MODELS).delete_one(model_id)

    def _release_environment(self, env_id: str, model_id: str) -> None:
        """Delete an environment document with its last referent.

        Models saved from one environment share the document.  A save
        that put it before this check and inserts its model after sees no
        document; it re-checks after its insert, this re-checks after its
        delete, so whichever runs last restores it.
        """
        models = self.documents.collection(MODELS)
        others = {"environment_id": env_id, "_id": {"$ne": model_id}}
        if models.find(others, limit=1, projection=()):
            return
        environments = self.documents.collection(ENVIRONMENTS)
        try:
            environment = environments.get(env_id)
        except KeyError:
            return
        environments.delete_one(env_id)
        if models.find(others, limit=1, projection=()):
            try:
                environments.insert_one(environment)
            except DuplicateKeyError:
                pass  # the racing save restored it first

    def _delete_wrappers(self, train_document: dict) -> list[str]:
        """Delete a train document's wrapper documents; returns their state
        files, for the caller to release with the model's other files."""
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

    def garbage_collect(self) -> dict[str, int]:
        """Remove stored files no document references; returns statistics.

        Deleting an unreferenced chunk manifest releases its chunk refs;
        a final sweep then drops any chunks left without references (e.g.
        from saves that crashed before writing their manifest).
        ``bytes_freed`` reports the physical bytes reclaimed, chunk
        deduplication included.
        """
        referenced: set[str] = set()
        for document in self.documents.collection(MODELS).find(
            projection=_FILE_FIELDS
        ):
            referenced |= self._referenced_files(document)
        for wrapper in self.documents.collection(WRAPPERS).find(
            projection=("state_file_id",)
        ):
            if wrapper.get("state_file_id"):
                referenced.add(wrapper["state_file_id"])
        before = self.files.total_bytes()
        removed = self.files.delete_many(
            [file_id for file_id in self.files.file_ids() if file_id not in referenced])
        self.files.gc_chunks()
        return {"files_removed": len(removed),
                "bytes_freed": before - self.files.total_bytes()}

    # -- self-healing (sharded deployments) ---------------------------------

    def _hint_deliverer(self, hint_log):
        """A foreground deliverer over every hint kind this deployment has."""
        from ..cluster.hints import HintDeliverer

        appliers: dict = {}
        for store in (self.files, self.documents):
            factory = getattr(store, "hint_appliers", None)
            if callable(factory):
                appliers.update(factory())
        return HintDeliverer(
            hint_log, getattr(self.files, "detector", None), appliers
        )

    def _probe_down_members(self) -> None:
        """Give members the detector holds DOWN a chance to recover *now*.

        Explicit repair entry points (``heal``, ``fsck``) should not wait
        out breaker cooldowns: each down member is pinged directly,
        enough consecutive successes to clear the recovery threshold, so
        a member that actually returned is re-admitted before the hint
        drain is gated on it.
        """
        detector = getattr(self.files, "detector", None)
        if detector is None:
            return
        members = getattr(self.files, "members", {})
        for name in detector.down_members():
            ping = getattr(members.get(name), "ping", None)
            if not callable(ping):
                continue
            for _ in range(detector.recovery_threshold):
                try:
                    ping()
                except (OSError, KeyError):
                    detector.record_failure(name)
                    break
                else:
                    detector.record_success(name)

    def heal(self, repair: bool = True, deep: bool = True) -> dict:
        """One foreground self-heal pass over a sharded deployment.

        Drains the hinted-handoff log (replaying quorum-write IOUs into
        members that are back), then runs a full anti-entropy sweep —
        with ``deep``, every reachable replica is read and
        digest-verified, not just counted.  ``repair=False`` audits both
        without writing.  On a non-clustered deployment this is a no-op
        report (``{"cluster": False}``); steady-state deployments run
        the same machinery continuously via the background
        :class:`~repro.cluster.HintDeliverer` and
        :class:`~repro.cluster.AntiEntropyScanner` threads — this method
        is the operator's "converge now and tell me" button
        (``mmlib heal``).
        """
        files = self.files
        if not hasattr(files, "replication_fsck"):
            return {"cluster": False}
        from ..cluster import AntiEntropyScanner

        report: dict = {"cluster": True}
        detector = getattr(files, "detector", None)
        self._probe_down_members()
        if detector is not None:
            report["health"] = detector.snapshot()
        hint_log = getattr(files, "hints", None)
        if hint_log is not None:
            pending_before = hint_log.total_pending()
            deliverer = self._hint_deliverer(hint_log)
            drained = deliverer.drain() if repair else False
            report["hints"] = {
                "pending_before": pending_before,
                "pending_after": hint_log.total_pending(),
                "drained": drained,
                "delivered": deliverer.stats["delivered"],
                "stale": deliverer.stats["stale"],
                "failures": deliverer.stats["failures"],
            }
        scanner = AntiEntropyScanner(files, detector=detector, deep=deep)
        report["anti_entropy"] = scanner.full_sweep(repair=repair)
        report["converged"] = (
            report.get("hints", {}).get("pending_after", 0) == 0
            and report["anti_entropy"]["backlog"] == 0
        )
        obs.events().emit(
            "heal_pass", repair=repair, converged=report["converged"],
            backlog=report["anti_entropy"]["backlog"])
        return report

    # -- fsck: verify and repair --------------------------------------------

    def fsck(self, repair: bool = True, verify_chunks: bool = True) -> FsckReport:
        """Cross-check documents ↔ files ↔ chunks ↔ refcounts; repair.

        Invariants checked, in order:

        1. every intent journal belongs to a finished save — crashed
           saves are rolled back (stores and documents), committed ones
           merely discarded;
        1b. every segment's footer and record framing is intact — torn tails are truncated, the
           chunk index is rebuilt from disk, and an interrupted
           compaction is rolled forward or back;
        1c. every chain-compaction journal belongs to a finished swap —
           a swap whose document update committed rolls forward (the
           superseded delta payload is dropped), an uncommitted one
           rolls back (the never-published snapshot artifacts are
           dropped);
        2. no catalog log was opened with a torn final record (a crash
           mid-append; the engine already dropped it, reported here once);
           every model document's base model, environment/train documents,
           and referenced files exist, and every content-addressed
           environment document still hashes back to its id (audit only);
        3. every manifest's chunks exist and (with ``verify_chunks``)
           hash back to their content digests;
        4. (none of its own: a file is a record, so 5 finds orphan files);
        5. every record's refcount equals what the live documents and
           manifests reference — a file 1 if any document names it (a
           set, like the manifests), a chunk once per referencing entry of
           each distinct live manifest — and no unreferenced record
           remains: an unreferenced file is an ``orphan_file``, an
           unreferenced chunk an ``orphan_chunk``, both found in one pass;
        6. on a sharded store, every record (chunk or file) holds its
           full R replicas — under-replicated keys are restored from a
           surviving copy (digest-verified, never propagating corruption);
        6b. no hinted-handoff IOUs remain pending — after the replica
           repair above, leftover hints are drained (delivered or
           resolved as stale); hints still owed to an unreachable member
           are reported unrepaired.

        With ``repair=False`` everything is reported but nothing is
        touched.  Losses fsck cannot undo (a missing or corrupt chunk of
        a live model) are reported as unrepaired issues.
        """
        report = FsckReport()
        files = self.files
        steps = _FsckSteps(report)

        # 1. crashed saves: roll back their journaled steps, newest first
        steps.start("journals")
        if hasattr(files, "incomplete_journals"):
            for journal in files.incomplete_journals():
                if journal.committed:
                    if repair:
                        journal.discard()
                    report.add(
                        "incomplete_save",
                        f"committed journal {journal.save_id} was never removed",
                        repaired=repair,
                    )
                    continue
                if repair:
                    stats = files.rollback_journal(journal)
                    for collection, doc_id in stats["docs"]:
                        try:
                            self.documents.collection(collection).delete_one(doc_id)
                        except Exception:
                            pass  # the document may never have landed
                    detail = (
                        f"rolled back crashed save {journal.save_id}: "
                        f"{stats['blobs_removed']} files, "
                        f"{stats['chunks_removed']} chunks, "
                        f"{stats['refs_released']} refs, "
                        f"{len(stats['docs'])} documents"
                    )
                else:
                    detail = (
                        f"crashed save {journal.save_id} left "
                        f"{len(journal.entries)} journaled steps behind"
                    )
                report.add("incomplete_save", detail, repaired=repair)

        # 1b. audit segment footers/record framing, rebuild the chunk
        # index from disk, finish interrupted compactions
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
        compaction = outcome["compaction"]
        for action in compaction if isinstance(compaction, list) else [compaction]:
            if action:
                report.add(
                    "segment_compaction",
                    f"interrupted compaction: {action}",
                    repaired=repair and "pending" not in str(action),
                )

        # 1c. chain compaction: a crash between journal and cleanup leaves
        # a half-swapped model — finish the swap in whichever direction
        # the document (the commit point) already shows
        steps.start("compaction")
        if hasattr(files, "root"):
            from .compaction import ChainCompactor

            for action in ChainCompactor.resume_pending(
                self.documents, files, repair=repair
            ):
                report.add(
                    "incomplete_compaction",
                    f"model {action['model_id']}: interrupted chain "
                    f"compaction {action['action'].replace('_', ' ')}",
                    repaired=repair,
                )

        # 2. documents -> documents/files cross-checks
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
        model_docs = {d["_id"]: d for d in self.documents.collection(MODELS).find()}
        report.checked_models = len(model_docs)
        referenced_files: set[str] = set()
        live_envs: set[str] = set()
        live_trains: set[str] = set()
        for model_id, document in model_docs.items():
            base = document.get("base_model")
            if base and base not in model_docs:
                report.add(
                    "missing_base",
                    f"model {model_id} derives from missing base model {base}",
                )
            for collection_name, doc_id, live in (
                (ENVIRONMENTS, document.get("environment_id"), live_envs),
                (TRAIN_INFO, document.get("train_info_id"), live_trains),
            ):
                if not doc_id:
                    continue
                first_referent = doc_id not in live
                live.add(doc_id)
                try:
                    referenced = self.documents.collection(collection_name).get(doc_id)
                except KeyError:
                    report.add(
                        "missing_document",
                        f"model {model_id} references missing "
                        f"{collection_name} document {doc_id}",
                    )
                    continue
                # a content-addressed environment vouches for every model
                # sharing it, and its id says what it must contain
                if (
                    first_referent
                    and collection_name == ENVIRONMENTS
                    and doc_id.startswith(ENVIRONMENT_ID_PREFIX)
                    and environment_id(referenced) != doc_id
                ):
                    report.add(
                        "environment_digest",
                        f"environment document {doc_id} does not hash back "
                        "to its id",
                    )
            for file_id in self._referenced_files(document):
                referenced_files.add(file_id)
                if not files.exists(file_id):
                    report.add(
                        "missing_file",
                        f"model {model_id} references missing file {file_id}",
                    )
        live_wrappers: set[str] = set()
        for train_id in live_trains:
            try:
                train_document = self.documents.collection(TRAIN_INFO).get(train_id)
            except KeyError:
                continue  # already reported above
            for key, value in train_document.items():
                if isinstance(value, str) and key.endswith("_wrapper"):
                    live_wrappers.add(value)
        for wrapper_id in live_wrappers:
            try:
                wrapper_document = self.documents.collection(WRAPPERS).get(wrapper_id)
            except KeyError:
                report.add(
                    "missing_document",
                    f"train document references missing wrapper {wrapper_id}",
                )
                continue
            state_file = wrapper_document.get("state_file_id")
            if state_file:
                referenced_files.add(state_file)
                if not files.exists(state_file):
                    report.add(
                        "missing_file",
                        f"wrapper {wrapper_id} references missing file {state_file}",
                    )

        # 3. manifests -> chunk existence and content digests; a stored file
        # counts once, however many documents name it
        steps.start("chunks")
        expected_refs: Counter = Counter()
        verified: set[str] = set()
        for file_id in sorted(referenced_files):
            if not files.exists(file_id):
                continue
            expected_refs[file_id] = 1
            if not files.is_manifest_id(file_id):
                continue
            try:
                manifest = files.read_manifest(file_id)
            except (IOError, ValueError) as exc:
                report.add("corrupt_manifest", f"manifest {file_id}: {exc}")
                continue
            for name, meta in manifest["layers"]:
                for digest in layer_chunk_digests(meta):
                    expected_refs[digest] += 1
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
                    # read straight from disk: fsck audits what is stored,
                    # not what a faulty link would deliver; a record that
                    # fails its CRC and bytes that fail their digest both
                    # count as corruption here
                    try:
                        intact = chunk_intact(digest, files.chunks.get(digest), meta)
                    except (OSError, KeyError, ValueError, TypeError):
                        intact = False
                    if not intact:
                        report.add(
                            "corrupt_chunk",
                            f"chunk {digest[:12]}… (layer {name!r} of {file_id}) "
                            "does not hash back to its digest",
                        )
        report.checked_files = len(files.file_ids())
        report.checked_chunks = sum(1 for key in expected_refs if not is_file_id(key))

        # 5. refcounts vs. the live documents and manifests; orphan files
        # and chunks (keys are ``member:key`` on a sharded store)
        steps.start("refcounts")
        outcome = files.chunks.reconcile(expected_refs, repair=repair)
        orphans = set(outcome["orphan_chunks_removed"])
        for key, (actual, wanted) in sorted(outcome["ref_fixes"].items()):
            if key in orphans and is_file_id(key.rpartition(":")[2]):
                continue  # an orphan file's own reference: reported below
            report.add(
                "refcount_mismatch",
                f"record {key[:24]}…: stored refcount {actual}, "
                f"live documents and manifests reference it {wanted} time(s)",
                repaired=repair,
            )
        for key in outcome["orphan_chunks_removed"]:
            if is_file_id(key.rpartition(":")[2]):
                kind, detail = "orphan_file", f"unreferenced file {key}"
            else:
                kind, detail = "orphan_chunk", f"unreferenced chunk {key[:12]}…"
            report.add(kind, detail + (" (removed)" if repair else ""),
                       repaired=repair)

        # 6. replica counts vs. the placement ring (sharded stores only):
        # quorum writes that landed degraded, or members that lost disks,
        # leave keys below R copies — restore them from a surviving replica
        steps.start("replication")
        if hasattr(files, "replication_fsck"):
            outcome = files.replication_fsck(repair=repair)
            unrepairable = {
                (entry["kind"], entry["key"]) for entry in outcome["unrepairable"]
            }
            repaired_keys = {
                (entry["kind"], entry["key"]) for entry in outcome["repaired"]
            }
            for entry in outcome["under_replicated"]:
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

        # 6b. hinted-handoff backlog: a healthy cluster owes nothing.
        # Step 6 restored the replicas themselves, so pending hints are
        # now satisfied (or still undeliverable) — drain resolves them as
        # stale/delivered; whatever stays pending targets a member that
        # is still unreachable.
        steps.start("hints")
        hint_log = getattr(files, "hints", None)
        if hint_log is not None and hint_log.total_pending():
            pending_before = hint_log.total_pending()
            if repair:
                self._probe_down_members()
                self._hint_deliverer(hint_log).drain()
            remaining = hint_log.total_pending()
            detail = f"{pending_before} handoff hint(s) pending"
            if repair:
                detail += (
                    f" ({pending_before - remaining} drained, "
                    f"{remaining} still owed)"
                )
            report.add(
                "pending_hints", detail, repaired=repair and remaining == 0
            )

        # 7. orphan documents (saves that crashed outside a journal)
        steps.start("orphan_documents")
        for collection_name, live in (
            (ENVIRONMENTS, live_envs),
            (TRAIN_INFO, live_trains),
            (WRAPPERS, live_wrappers),
        ):
            collection = self.documents.collection(collection_name)
            for document in collection.find():
                doc_id = document["_id"]
                if doc_id in live:
                    continue
                if repair:
                    collection.delete_one(doc_id)
                report.add(
                    "orphan_document",
                    f"unreferenced {collection_name} document {doc_id}"
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
