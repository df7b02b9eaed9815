"""Save-service interface and the shared recovery engine.

The three approaches differ in *how they save* a model; recovery is driven
entirely by what a model document contains, so the logic lives here once:

* a document with a ``parameters_file`` is a full snapshot — rebuild the
  architecture and load the parameters (baseline logic);
* a ``param_update`` document is the tip of a chain of parameter updates
  over a base model, merged layer-wise with the tip-most update winning
  (Section 3.2).  The paper recovers the base, then applies the update,
  level by level; here the chain is *resolved* first — its documents are
  walked to the nearest recovery base — and then *read* once: one merged
  layer list, one fetch, one model build (DESIGN.md §16);
* a ``provenance`` document recovers its base model first, then reproduces
  the recorded training (Section 3.3).

The baseline "explicitly excludes loading documents holding base model
information" — its documents simply never reference any during recovery.
"""

from __future__ import annotations

import json
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable

from .. import obs
from ..nn import rng, serialization
from ..docstore.engine import DuplicateKeyError
from ..retry import RetryingDocumentStore
from ..nn.modules import Module
from .dataset_manager import DatasetManager
from .environment import (
    EnvironmentInfo,
    check_environment,
    collect_environment,
    environment_id,
)
from .errors import (
    ModelNotFoundError,
    RecoveryError,
    TransientStoreError,
    VerificationError,
)
from .cache import RecoveryCache
from .hashing import state_dict_hashes
from .ids import new_model_id
from .merkle import root_of
from .recover import RecoveredLayers, RecoveredModelInfo, StorageBreakdown
from .save_info import ArchitectureRef, TrainRunSpec
from .schema import (
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
    ENVIRONMENTS,
    MODELS,
    TRAIN_INFO,
    WRAPPERS,
)
from .train_service import load_train_service

__all__ = ["AbstractSaveService"]

#: What a recover reads of a model document.  Never ``layer_hashes`` or
#: ``updated_layers``: they are most of a document's bytes, and the layers a
#: level holds are named by its manifest.
_RECOVER_FIELDS = (
    "approach", "base_model", "use_case", "environment_id", "merkle_root",
    "parameters_file", "update_file", "architecture",
    "train_info_id", "provenance",
)


class AbstractSaveService:
    """Common persistence plumbing for all three approaches.

    ``document_store`` needs a ``collection(name)`` method (the embedded
    :class:`~repro.docstore.DocumentStore` and the TCP client both qualify);
    ``file_store`` is a :class:`~repro.filestore.FileStore` or compatible.
    ``retry`` (a :class:`~repro.retry.RetryPolicy`) makes document
    operations retry transient store failures; pass the same policy to the
    file store so both halves of a save share one backoff budget.
    """

    #: Set by subclasses; stored in every model document they save.
    approach: str = "abstract"

    def __init__(
        self,
        document_store,
        file_store,
        scratch_dir: str | Path | None = None,
        dataset_codec: str | None = None,
        retry=None,
        clock=None,
    ):
        if retry is not None:
            document_store = RetryingDocumentStore(document_store, retry)
        self.documents = document_store
        self.files = file_store
        self.retry = retry
        # injectable time source: every save/recover timing reads through
        # it, so fake-clock tests assert exact ttr breakdowns
        self.clock = clock if clock is not None else obs.clock()
        registry = obs.registry()
        self._obs_tracer = obs.tracer()
        self._obs_saves = registry.counter(
            "mmlib_saves_total", "Models saved", approach=self.approach)
        self._obs_recovers = registry.counter(
            "mmlib_recovers_total", "Models recovered", approach=self.approach)
        self._obs_save_seconds = registry.histogram(
            "mmlib_save_seconds", "save_model wall time", approach=self.approach)
        self._obs_recover_seconds = registry.histogram(
            "mmlib_recover_seconds", "recover_model wall time", approach=self.approach)
        # high-water mark of replayed chain depth; the serving plane's
        # idle maintenance compacts when this crosses K, then resets it
        self._obs_recovery_depth = registry.gauge(
            "mmlib_recovery_depth_max",
            "Deepest delta chain replayed by a recover")
        # the MPA archives datasets to a single file; the codec is a policy
        # knob (see bench_ablation_compression: deflate buys <10% on image
        # data while costing CPU, so "stored" suits JPEG-like datasets)
        if dataset_codec is None:
            self.dataset_manager = DatasetManager(file_store)
        else:
            self.dataset_manager = DatasetManager(file_store, codec=dataset_codec)
        self._scratch_dir = Path(scratch_dir) if scratch_dir else None

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------

    def save_model(self, save_info) -> str:
        """Persist a model crash-consistently; returns its new id.

        Template method: the approach-specific work happens in the
        subclass's ``_save_model``, wrapped in a save transaction that
        journals every store mutation.  A failed save rolls its steps
        back; a crashed save leaves its journal for ``fsck`` to undo.
        """
        return self._run_save(self._save_model, save_info)

    def _run_save(self, save, *args) -> str:
        """``save(*args)`` in one save transaction, timed and counted."""
        with self._obs_tracer.span("service.save_model", approach=self.approach) as sp:
            started = self.clock.perf()
            with self._save_transaction():
                model_id = save(*args)
            self._obs_save_seconds.observe(self.clock.perf() - started)
            self._obs_saves.inc()
            sp.set(model_id=model_id)
            return model_id

    def _save_model(self, save_info) -> str:
        raise NotImplementedError

    @contextmanager
    def _save_transaction(self):
        """Journal the enclosed save steps; roll back on failure.

        Reentrant: nested saves (the provenance service saving its base
        snapshot, the adaptive service delegating) join the outermost
        transaction, so one save is one journal — exactly the unit a
        crash must not tear.  :class:`BaseException` escapes (simulated
        process death, interrupts) skip the rollback and leave the
        journal on disk, which is what makes post-crash ``fsck`` honest.
        """
        journaled = hasattr(self.files, "begin_journal") and not getattr(
            self.files, "journal_active", lambda: False
        )()
        if journaled:
            self.files.begin_journal()
        try:
            yield
        except Exception:
            if journaled:
                rollback = self.files.abort_journal()
                self._delete_journaled_docs(rollback["docs"])
            raise
        except BaseException:
            if journaled:
                # a "dead" process runs no cleanup: detach, keep the file
                self.files.abandon_journal()
            raise
        else:
            if journaled:
                self.files.commit_journal()

    def _delete_journaled_docs(self, docs) -> None:
        """Best-effort deletion of documents a rolled-back save inserted."""
        for collection, doc_id in docs:
            try:
                self.documents.collection(collection).delete_one(doc_id)
            except Exception:  # the store may be the thing that failed
                pass

    def _journal(self, op: str, **fields) -> None:
        if hasattr(self.files, "journal_record"):
            self.files.journal_record(op, **fields)

    # -- shared save helpers ----------------------------------------------

    def _save_environment(self) -> str:
        """Put-if-absent the current environment's document; returns its id.

        The document is content-addressed and shared by every model saved
        from this environment, so it is *not* journaled: rolling back one
        save must not delete what another save references.  One nobody
        references is reclaimed by ``delete_model`` and fsck's orphan sweep.
        Insert-first rather than get-then-insert: a degraded cluster cannot
        prove absence, but its insert is idempotent per replica.
        """
        document = collect_environment().to_dict()
        document["_id"] = environment_id(document)
        try:
            self.documents.collection(ENVIRONMENTS).insert_one(document)
        except DuplicateKeyError:
            pass
        return document["_id"]

    def _save_architecture(self, architecture: ArchitectureRef) -> dict:
        code_file_id = self.files.save_bytes(architecture.source.encode(), suffix=".py")
        payload = architecture.to_dict()
        payload["code_file_id"] = code_file_id
        return payload

    def _save_parameters(self, model: Module) -> tuple[str, "OrderedDict[str, str]", str]:
        """Persist a full snapshot; returns (file id, layer hashes, root).

        Layers are hashed exactly once (in parallel for large models); those
        digests double as the chunk ids, so the payload is never hashed
        again downstream.
        """
        state = model.state_dict()
        hashes = state_dict_hashes(state)
        root = root_of(list(hashes.values()))
        file_id = self._save_state(state, hashes, kind="params")
        return file_id, hashes, root

    def _save_state(self, state, layer_hashes, kind: str, held=None) -> str:
        """Persist a flat state dict as content-addressed per-layer chunks.

        ``layer_hashes`` must hold a digest per entry of ``state`` (extra
        entries are fine) — the Merkle leaves already computed by the
        save path, which double as the chunk ids.  ``held`` adds manifest
        entries whose chunks are already stored (see
        :meth:`~repro.filestore.FileStore.save_state_chunks`).
        """
        extra = {"held": held} if held else {}
        return self.files.save_state_chunks(
            state, layer_hashes, suffix=f".{kind}.manifest", **extra)

    def _load_state_files(
        self, file_ids: list[str], verified: dict | None = None, have: frozenset = frozenset()
    ) -> OrderedDict:
        """Inverse of :meth:`_save_state` over a chain's levels, base first.

        A layer is taken from the last level that holds it.  Consecutive
        chunked levels are one call into the file store, which merges their
        manifests before it fetches; a monolithic ``.params``/``.update``
        blob, which older releases wrote, is loaded whole.
        With ``verified``, the store checks every chunked layer against its
        digest as it fetches it, and each one that passed is recorded there
        as ``name -> (array, digest)``.  A chunked layer whose digest is in
        ``have`` is not fetched: it maps to ``None`` in the returned state
        and to ``(None, digest)`` in ``verified``.
        """
        state = OrderedDict()
        for chunked, run in groupby(file_ids, key=self._is_chunked_file):
            if chunked:
                digests = None if verified is None else {}
                loaded = self.files.recover_state_chunks(
                    list(run), verified=digests, skip=have)
                state.update(loaded)
                if digests:
                    verified.update(
                        (name, (loaded[name], digest)) for name, digest in digests.items())
            else:
                for file_id in run:
                    state.update(serialization.loads(self.files.recover_bytes(file_id)))
        return state

    @staticmethod
    def _is_chunked_file(file_id: str) -> bool:
        return file_id.endswith(".manifest")

    def _insert_model_document(self, document: dict) -> str:
        model_id = new_model_id()
        document = dict(document)
        document["_id"] = model_id
        document["approach"] = document.get("approach", self.approach)
        document["saved_at"] = self.clock.now()
        # journal the intent first: a crash between journal append and
        # insert rolls back a document that never landed, which is a no-op
        self._journal("doc", collection=MODELS, doc_id=model_id)
        self.documents.collection(MODELS).insert_one(document)
        if document.get("environment_id"):
            self._keep_environment(document["environment_id"])
        return model_id

    def _keep_environment(self, env_id: str) -> None:
        """Re-put the environment document if a concurrent delete took it.

        ``delete_model`` removes an environment document with its last
        referent; one that ran between this save's put and its model
        insert saw no referent.  It re-checks after deleting, this
        re-checks after inserting, so whichever runs last restores it.
        """
        try:
            self.documents.collection(ENVIRONMENTS).get(env_id, projection=())
        except (KeyError, TransientStoreError):  # absent, or absence unproven
            self._save_environment()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def _get_model_document(self, model_id: str, projection=None) -> dict:
        try:
            return self.documents.collection(MODELS).get(model_id, projection=projection)
        except KeyError as exc:
            raise ModelNotFoundError(f"no saved model with id {model_id!r}") from exc

    def layer_hashes(self, model_id: str) -> list:
        """The ``[name, digest]`` layer table stored for ``model_id``, in
        state-dict order; empty for a model saved without one."""
        document = self._get_model_document(model_id, projection=("layer_hashes",))
        return document.get("layer_hashes") or []

    def model_exists(self, model_id: str) -> bool:
        try:
            self._get_model_document(model_id)
            return True
        except ModelNotFoundError:
            return False

    def saved_model_ids(self) -> list[str]:
        models = self.documents.collection(MODELS)
        return sorted(d["_id"] for d in models.find(projection=()))

    def base_chain(self, model_id: str) -> list[str]:
        """Ids from ``model_id`` up to (and including) its root base model."""
        chain = []
        seen = set()
        current: str | None = model_id
        while current is not None:
            if current in seen:
                raise RecoveryError(f"cycle in base-model chain at {current!r}")
            seen.add(current)
            chain.append(current)
            current = self._get_model_document(
                current, projection=("base_model",)).get("base_model")
        return chain

    def _chain_architecture(self, model_id: str) -> dict:
        """The ``architecture`` payload of the nearest model, from
        ``model_id`` towards its root, whose document stores one."""
        seen: set[str] = set()
        current = model_id
        while current and current not in seen:
            seen.add(current)
            document = self._get_model_document(
                current, projection=("architecture", "base_model"))
            if document.get("architecture"):
                return document["architecture"]
            current = document.get("base_model")
        raise RecoveryError(f"no architecture found along the chain of {model_id!r}")

    # ------------------------------------------------------------------
    # recover
    # ------------------------------------------------------------------

    def recover_model(
        self,
        model_id: str,
        check_env: bool = False,
        verify: bool = True,
        execution_env: dict | None = None,
        cache: RecoveryCache | None = None,
    ) -> RecoveredModelInfo:
        """Recover the exact model saved under ``model_id``.

        ``check_env`` compares the stored environment snapshot against the
        current one and raises on mismatch.  ``verify`` checks the
        recovered parameters against the stored Merkle root: the file store
        verifies each chunked layer against its digest as it fetches it
        (whatever its ``verify_reads`` says), the root is derived from those
        verified digests, and only layers the model did not adopt as
        fetched are hashed again (DESIGN.md §14 "Verify once").  A model
        saved without a root is read as with ``verify=False``: every record
        CRC-checked, nothing hashed.
        ``execution_env`` passes extra restore-time refs to train services
        (e.g. an externally managed dataset's location).  Passing a shared
        :class:`RecoveryCache` across calls memoizes MPA levels, so
        recovering every model of an MPA chain replays each training run
        once instead of O(n²) times.

        This is :meth:`recover_layers` followed by one assembly of the
        architecture's cached skeleton around the recovered state.
        """
        with self._recover_span(model_id) as sp:
            recovered = self._recover_layers(
                model_id, verify, frozenset(), check_env, execution_env, cache)
            timings = recovered.timings
            architecture = recovered.architecture()
            started = self.clock.perf()
            # the state was loaded for this call alone, so the model adopts it
            model, copies = architecture.skeleton().assemble(recovered.state, assign=True)
            if recovered.layers is not None:
                _check_adopted(model_id, copies, recovered)
            timings["recover"] += self.clock.perf() - started
            sp.set(depth=recovered.recovery_depth)
            return RecoveredModelInfo(
                model_id=model_id,
                model=model,
                approach=recovered.approach,
                base_model_id=recovered.base_model_id,
                use_case=recovered.use_case,
                timings=timings,
                verified=recovered.verified,
                recovery_depth=recovered.recovery_depth,
            )

    def recover_layers(
        self, model_id: str, verify: bool = True, have=frozenset()
    ) -> RecoveredLayers:
        """Recover ``model_id``'s parameters as a flat state, building no model.

        The verified recover of :meth:`recover_model` up to its Merkle root
        check.  With a stored root and ``verify``, the result's ``layers``
        is the whole layer table, every digest the root covers; a chunked
        layer whose digest is in ``have`` — bytes the caller already holds
        verified — is not fetched and is left out of ``state``.  Otherwise
        ``layers`` is ``None``, ``have`` is ignored and ``state`` holds
        every layer.
        """
        with self._recover_span(model_id) as sp:
            recovered = self._recover_layers(model_id, verify, frozenset(have))
            sp.set(depth=recovered.recovery_depth)
            return recovered

    @contextmanager
    def _recover_span(self, model_id: str):
        """One recover's span, wall time and counter."""
        with self._obs_tracer.span(
            "service.recover_model", model_id=model_id, approach=self.approach
        ) as sp:
            started = self.clock.perf()
            yield sp
            self._obs_recover_seconds.observe(self.clock.perf() - started)
            self._obs_recovers.inc()

    def _recover_layers(
        self,
        model_id: str,
        verify: bool,
        have: frozenset,
        check_env: bool = False,
        execution_env: dict | None = None,
        cache: RecoveryCache | None = None,
    ) -> RecoveredLayers:
        """The recover core: resolve, read once, check the root."""
        timings = {"load": 0.0, "recover": 0.0, "check_env": 0.0, "check_hash": 0.0}
        document = self._get_model_document(model_id, projection=_RECOVER_FIELDS)
        # recovery rebuilds architectures and may replay training; none of
        # that must disturb the caller's RNG stream or determinism setting
        caller_rng = rng.get_rng_state()
        caller_det = rng.deterministic_algorithms_enabled()
        # only a stored root refuses what the fetch-time check could not
        # heal; without one, the store's reads keep their record CRC
        stored_root = document.get("merkle_root")
        fetched: dict | None = {} if verify and stored_root is not None else None
        try:
            state, depth, architecture = self._recover_from_document(
                document, timings, execution_env or {}, cache, fetched,
                have if fetched is not None else frozenset(),
            )
        finally:
            rng.set_rng_state(caller_rng)
            rng.use_deterministic_algorithms(caller_det)

        if check_env:
            started = self.clock.perf()
            saved_env = EnvironmentInfo.from_dict(
                self.documents.collection(ENVIRONMENTS).get(document["environment_id"])
            )
            check_environment(saved_env)
            timings["check_env"] = self.clock.perf() - started

        layers = None
        if fetched is not None:
            started = self.clock.perf()
            table = _layer_table(state, fetched)
            actual_root = root_of(list(table.values()))
            if actual_root != stored_root:
                raise VerificationError(
                    f"recovered model {model_id} fails checksum verification: "
                    f"{actual_root} != stored {stored_root}"
                )
            layers = list(table.items())
            state = OrderedDict(
                (name, array) for name, array in state.items() if array is not None)
            timings["check_hash"] = self.clock.perf() - started

        if depth > self._obs_recovery_depth.value:
            self._obs_recovery_depth.set(depth)
        return RecoveredLayers(
            model_id=model_id,
            state=state,
            layers=layers,
            verified=True if layers is not None else None,
            recovery_depth=depth,
            approach=document.get("approach", "unknown"),
            base_model_id=document.get("base_model"),
            use_case=document.get("use_case"),
            timings=timings,
            architecture=architecture,
        )

    # -- per-document recovery ---------------------------------------------

    def _recover_from_document(
        self,
        document: dict,
        timings: dict,
        execution_env: dict,
        cache: RecoveryCache | None = None,
        verified: dict | None = None,
        have: frozenset = frozenset(),
    ) -> tuple["OrderedDict", int, Callable[[], ArchitectureRef]]:
        """Recover one document's parameters: ``(state, depth, architecture)``.

        ``architecture`` reads the architecture when called, so only a
        caller that builds the model reads its code file.  ``verified``
        (the top-level call's only) collects the layers the store verified
        as it fetched them, and ``have`` the digests it need not fetch (see
        :meth:`_load_state_files`); a base recovered beneath the document
        contributes none — an MPA replay rewrites its layers.  ``cache`` is
        consulted and filled for MPA levels only: a training replay is the
        one per-level cost a recover still pays (DESIGN.md §16)."""
        doc_id = document.get("_id")
        approach = document.get("approach")
        with self._obs_tracer.span(
            "recover.document", doc_id=doc_id, approach=approach or "unknown",
        ):
            if document.get("parameters_file") or approach == APPROACH_PARAM_UPDATE:
                files, end = self._walk_chain(document)
                base = None
                if not end.get("parameters_file"):  # a base of another approach
                    base = self._recover_from_document(end, timings, execution_env, cache)
                return self._recover_chain(files, end, base, timings, verified, have)
            if approach != APPROACH_PROVENANCE:
                raise RecoveryError(
                    f"model document {doc_id} has neither parameters nor a "
                    f"recoverable approach (approach={approach!r})"
                )
            hit = cache.get(doc_id) if cache is not None else None
            if hit is not None:
                model, depth, architecture = hit
            else:
                model, depth, architecture = self._recover_provenance(
                    document, timings, execution_env, cache)
                if cache is not None:
                    cache.put(doc_id, model, architecture, depth)
            return model.state_dict(), depth, lambda: architecture

    def _load_architecture(self, document: dict, timings: dict) -> ArchitectureRef:
        started = self.clock.perf()
        payload = document["architecture"]
        source = self.files.recover_bytes(payload["code_file_id"]).decode()
        timings["load"] += self.clock.perf() - started
        return ArchitectureRef.from_dict(payload, source=source)

    def _base_document(self, document: dict) -> dict:
        base_id = document.get("base_model")
        if not base_id:
            raise RecoveryError(
                f"derived model document {document.get('_id')} lacks a base model ref"
            )
        return self._get_model_document(base_id, projection=_RECOVER_FIELDS)

    def _walk_chain(self, document: dict) -> tuple[list[str], dict]:
        """Resolve a snapshot or the tip of a PUA chain: ``(files, end)``.

        The walk runs tip → base over projected documents and collects one
        payload file per level, base first.  It ends at the first recovery
        base (a ``parameters_file``: a root snapshot or a compacted delta,
        whose file is the first of ``files``) or, below the tip, at a
        document of another approach, which the caller recovers as such.
        """
        files: list[str] = []  # tip first
        seen: set[str] = set()
        current = document
        while True:
            doc_id = current["_id"]
            if doc_id in seen:
                raise RecoveryError(f"cycle in base-model chain at {doc_id!r}")
            seen.add(doc_id)
            if current.get("parameters_file"):
                files.append(current["parameters_file"])
                break
            if current.get("approach") != APPROACH_PARAM_UPDATE:
                break
            files.append(current["update_file"])
            current = self._base_document(current)
        files.reverse()
        return files, current

    def _recover_chain(
        self,
        files: list[str],
        end: dict,
        base: tuple | None,
        timings: dict,
        verified: dict | None = None,
        have: frozenset = frozenset(),
    ) -> tuple["OrderedDict", int, Callable[[], ArchitectureRef]]:
        """Read a walked chain (:meth:`_walk_chain`) as one state.

        The levels are read as one merged state — a layer comes from the
        tip-most level that holds it, so nothing a later level overrides
        is fetched — over ``base``, the recovered state of a walk that
        ended at another approach, whose architecture it keeps; else the
        architecture is ``end``'s.
        """
        started = self.clock.perf()
        state = self._load_state_files(files, verified, have)
        timings["load"] += self.clock.perf() - started
        if base is None:
            return state, len(files) - 1, partial(self._load_architecture, end, timings)
        merged, depth, architecture = base
        # both halves are this call's own (the base was recovered for it),
        # so its layers stay where they are and the levels' override them
        merged.update(state)
        return merged, depth + len(files), architecture

    def _recover_provenance(
        self,
        document: dict,
        timings: dict,
        execution_env: dict,
        cache: RecoveryCache | None = None,
    ) -> tuple[Module, int, ArchitectureRef]:
        # derived models share their base's architecture (the relations the
        # paper covers keep the architecture fixed)
        state, depth, architecture = self._recover_from_document(
            self._base_document(document), timings, execution_env, cache
        )
        architecture = architecture()

        started = self.clock.perf()
        # the base's state was recovered for this replay alone
        model = architecture.build_from(state, assign=True)
        timings["recover"] += self.clock.perf() - started

        started = self.clock.perf()
        train_info_id = document["train_info_id"]
        train_document = self.documents.collection(TRAIN_INFO).get(train_info_id)
        provenance = document["provenance"]
        refs = dict(execution_env)
        refs["model"] = model
        if provenance.get("dataset_file_id"):
            scratch = self._scratch_dir or Path(tempfile.gettempdir()) / "mmlib-scratch"
            target = Path(tempfile.mkdtemp(prefix="dataset-", dir=_ensure_dir(scratch)))
            self.dataset_manager.recover_dataset(provenance["dataset_file_id"], target)
            refs["dataset_root"] = str(target)
        elif provenance.get("dataset_reference"):
            if "dataset_root" not in refs:
                raise RecoveryError(
                    "model was saved against externally managed dataset "
                    f"{provenance['dataset_reference']!r}; pass its location via "
                    "execution_env={'dataset_root': ...}"
                )
        timings["load"] += self.clock.perf() - started

        started = self.clock.perf()
        spec = TrainRunSpec.from_dict(provenance["train_spec"])
        service = load_train_service(train_info_id, self.documents, self.files, refs)
        previous_rng = rng.get_rng_state()
        previous_det = rng.deterministic_algorithms_enabled()
        try:
            rng.set_rng_state(provenance["rng_state"])
            rng.use_deterministic_algorithms(spec.deterministic)
            service.train(
                model,
                number_epochs=spec.number_epochs,
                number_batches=spec.number_batches,
            )
        finally:
            rng.set_rng_state(previous_rng)
            rng.use_deterministic_algorithms(previous_det)
        timings["recover"] += self.clock.perf() - started
        return model, depth + 1, architecture

    # ------------------------------------------------------------------
    # storage accounting
    # ------------------------------------------------------------------

    def model_save_size(self, model_id: str) -> StorageBreakdown:
        """Bytes consumed by ``model_id`` itself (base models excluded)."""
        document = self._get_model_document(model_id)
        doc_bytes = _json_size(document)
        files: dict[str, int] = {}

        if document.get("environment_id"):
            env_doc = self.documents.collection(ENVIRONMENTS).get(document["environment_id"])
            doc_bytes += _json_size(env_doc)
        architecture = document.get("architecture")
        if architecture and architecture.get("code_file_id"):
            files["code"] = self.files.size(architecture["code_file_id"])
        if document.get("parameters_file"):
            files["parameters"] = self.files.size(document["parameters_file"])
        if document.get("update_file"):
            files["parameters"] = self.files.size(document["update_file"])

        if document.get("train_info_id"):
            train_document = self.documents.collection(TRAIN_INFO).get(
                document["train_info_id"]
            )
            doc_bytes += _json_size(train_document)
            for key in ("dataset_wrapper", "optimizer_wrapper"):
                wrapper_id = train_document.get(key)
                if wrapper_id:
                    wrapper_doc = self.documents.collection(WRAPPERS).get(wrapper_id)
                    doc_bytes += _json_size(wrapper_doc)
                    if wrapper_doc.get("state_file_id"):
                        files["state"] = files.get("state", 0) + self.files.size(
                            wrapper_doc["state_file_id"]
                        )
            provenance = document.get("provenance", {})
            if provenance.get("dataset_file_id"):
                files["dataset"] = self.files.size(provenance["dataset_file_id"])

        return StorageBreakdown(
            model_id=model_id,
            approach=document.get("approach", "unknown"),
            documents=doc_bytes,
            files=files,
        )


def _layer_table(state: OrderedDict, verified: dict) -> "OrderedDict[str, str]":
    """Every layer's digest, in state order, from the digests verified at
    fetch.

    A layer the state holds as the very array the store verified — or, as
    ``None``, a layer the caller holds that was not fetched — contributes
    that digest.  Every other layer — from an MPA base (replayed or
    cached) or a monolithic level — is hashed here, so each parameter byte
    is hashed once either way.
    """
    table = OrderedDict()
    unverified = OrderedDict()
    for name, array in state.items():
        fetched = verified.get(name)
        if fetched is not None and fetched[0] is array:
            table[name] = fetched[1]
        else:
            table[name] = None
            unverified[name] = array
    if unverified:
        table.update(state_dict_hashes(unverified))
    return table


def _check_adopted(model_id: str, copies: OrderedDict, recovered: RecoveredLayers) -> None:
    """Hash each layer the assembly copied or cast instead of adopting.

    The root covered the arrays as recovered; a layer the model does not
    hold as that very array — ``copies``, as
    :meth:`~repro.nn.modules.Skeleton.assemble` reports them — must still
    hash to its digest.
    """
    if not copies:
        return
    digests = dict(recovered.layers)
    changed = [
        name for name, digest in state_dict_hashes(copies).items()
        if digest != digests.get(name)
    ]
    if changed:
        raise VerificationError(
            f"recovered model {model_id} fails checksum verification: layers "
            f"{changed} changed when the model was built"
        )


def _json_size(document: dict) -> int:
    return len(json.dumps(document, sort_keys=True))


def _ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path
