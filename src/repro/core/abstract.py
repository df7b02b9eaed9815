"""Save-service interface and the shared recovery engine.

The three approaches differ in *how they save* a model; recovery is driven
entirely by what a model document contains, so the logic lives here once:

* a document with a ``parameters_file`` is its own recovery base —
  rebuild the architecture and load the parameters its manifest names.
  That is every baseline and every ``param_update`` document: a PUA save
  writes a full manifest whose unchanged layers name its base's chunks
  (Section 3.2 stores only the changed layers' bytes; the paper then
  replays the update chain level by level, here a recover reads one
  document and one manifest at any lineage depth, DESIGN.md §16);
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
from pathlib import Path
from typing import Callable

from .. import obs
from ..nn import rng
from ..docstore.engine import DuplicateKeyError
from ..retry import RetryingDocumentStore
from ..nn.modules import Module
from .dataset_manager import DatasetManager
from .environment import (
    EnvironmentInfo,
    check_environment,
    environment_document,
)
from .errors import (
    ModelNotFoundError,
    RecoveryError,
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

#: What a recover reads of a model document.  Never ``layer_hashes``: only
#: an MPA document carries it, and a model's layers are named by its
#: manifest.
_RECOVER_FIELDS = (
    "approach", "base_model", "use_case", "environment_id", "merkle_root",
    "parameters_file", "architecture", "train_info_id", "provenance",
)

#: What :meth:`AbstractSaveService.layer_table` reads of a model document.
_TABLE_FIELDS = _RECOVER_FIELDS + ("layer_hashes",)


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
        # high-water mark of replayed MPA levels; the serving plane's idle
        # maintenance compacts when this crosses K, then resets it
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
        commits by the model document's insert.  What a save that failed
        or died before it leaves is unreachable, and the next
        ``garbage_collect`` (or ``fsck``) reclaims it.
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
        """Hold the file store's lock shared (:meth:`FileStore.hold`)
        until the enclosed save's model document commits it: no sweep
        takes what the save wrote or found stored before then.  Nested
        saves join the outer hold.  Nothing is undone on failure: what a
        failed or dead save left is garbage for the next gc (DESIGN.md §7).
        """
        with self.files.hold():
            yield

    # -- shared save helpers ----------------------------------------------

    def _save_environment(self) -> str:
        """Put-if-absent the current environment's document; returns its id.

        The document is content-addressed and shared by every model saved
        from this environment, so it is *not* a step of the save: rolling
        back one save must not delete what another save references.  One
        nobody references is reclaimed by fsck's orphan-document sweep, so
        every save inserts it again (its id is hashed once per
        distribution enumeration, :func:`environment_document`).
        Insert-first rather than get-then-insert: a degraded cluster cannot
        prove absence, but its insert is idempotent per replica.
        """
        document = environment_document()
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

    def _save_snapshot(self, save_info, checksums: bool) -> str:
        """Save ``save_info``'s model as a full snapshot; returns its id.

        The document names the architecture and the parameters' manifest,
        and with ``checksums`` stores the Merkle root.  It never repeats
        the layer table: the manifest holds it (:meth:`layer_table`).
        """
        environment_id = self._save_environment()
        architecture = self._save_architecture(save_info.architecture)
        parameters_file, root = self._save_parameters(save_info.model)
        document = {
            "base_model": save_info.base_model_id,
            "use_case": save_info.use_case,
            "environment_id": environment_id,
            "architecture": architecture,
            "parameters_file": parameters_file,
        }
        if checksums:
            document["merkle_root"] = root
        return self._insert_model_document(document)

    def _save_parameters(self, model: Module) -> tuple[str, str]:
        """Persist a full snapshot; returns (file id, Merkle root).

        Layers are hashed exactly once (in parallel for large models); those
        digests double as the chunk ids, so the payload is never hashed
        again downstream.
        """
        state = model.state_dict()
        hashes = state_dict_hashes(state)
        root = root_of(list(hashes.values()))
        file_id = self._save_state(state, hashes, kind="params", root=root)
        return file_id, root

    def _save_state(
        self, state, layer_hashes, kind: str, held=None, stored=(), root=None
    ) -> str:
        """Persist a flat state dict as content-addressed per-layer chunks.

        ``layer_hashes`` holds a digest per layer of the manifest, in its
        order — the Merkle leaves already computed by the save path, which
        double as the chunk ids.  ``held`` gives manifest entries whose
        chunks are already stored, and ``stored`` names layers of
        ``state`` whose chunks are (see
        :meth:`~repro.filestore.FileStore.save_state_chunks`).  ``root``,
        the Merkle root over ``layer_hashes`` the save folded, stays with
        the manifest's parse, so a verified recover compares it instead of
        folding it again.
        """
        extra = {"held": held} if held else {}
        if stored:
            extra["stored"] = stored
        if root is not None:
            extra["root"] = root
        return self.files.save_state_chunks(
            state, layer_hashes, suffix=f".{kind}.manifest", **extra)

    def _load_state_file(
        self, file_id: str, verified: dict | None = None, have: frozenset = frozenset()
    ) -> OrderedDict:
        """Inverse of :meth:`_save_state`: one call into the file store.

        With ``verified``, the store checks every layer against its digest
        as it fetches it, and each one that passed is recorded there as
        ``name -> digest``, in layer order.  A layer whose digest is in
        ``have`` is not fetched: it maps to ``None`` in the returned state
        and to its digest in ``verified``.
        """
        return self.files.recover_state_chunks(file_id, verified=verified, skip=have)

    def _insert_model_document(self, document: dict) -> str:
        model_id = new_model_id()
        document = dict(document)
        document["_id"] = model_id
        document["approach"] = document.get("approach", self.approach)
        document["saved_at"] = self.clock.now()
        # the commit point: the save is whole once this document is in
        self.documents.collection(MODELS).insert_one(document)
        return model_id

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def _get_model_document(self, model_id: str, projection=None) -> dict:
        try:
            return self.documents.collection(MODELS).get(model_id, projection=projection)
        except KeyError as exc:
            raise ModelNotFoundError(f"no saved model with id {model_id!r}") from exc

    def layer_hashes(self, model_id: str) -> list:
        """:meth:`layer_table` as ``[name, digest]`` pairs."""
        return [[name, digest] for name, digest in self.layer_table(model_id).items()]

    def layer_table(self, model_id: str) -> "OrderedDict[str, str]":
        """``model_id``'s layer table, name → tensor hash in state-dict
        order; empty for a model saved without a Merkle root.

        The table is stored once: a model with a manifest (every BA and
        PUA model) holds it there, and one document read and one manifest
        read give it, whatever the lineage depth.  Only an MPA document,
        which has no manifest, stores its table as ``layer_hashes``.
        """
        return self._table_of(self._get_model_document(model_id, projection=_TABLE_FIELDS))

    @staticmethod
    def _has_table(document: dict) -> bool:
        """Whether :meth:`layer_table` of ``document`` is non-empty, decided
        from the document alone (read with ``_TABLE_FIELDS``): it stores a
        table, or it names a manifest and stores a Merkle root."""
        return bool(document.get("layer_hashes")) or (
            document.get("merkle_root") is not None and bool(document.get("parameters_file")))

    def _table_of(self, document: dict) -> "OrderedDict[str, str]":
        """:meth:`layer_table` of a document read with ``_TABLE_FIELDS``."""
        stored = document.get("layer_hashes")
        if stored:
            return OrderedDict(stored)
        if not self._has_table(document):
            return OrderedDict()
        return OrderedDict(
            (name, meta["chunk"])
            for name, meta in self.files.read_manifest(document["parameters_file"])["layers"])

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
            table, actual_root = self._recovered_root(document, state, fetched)
            if actual_root != stored_root:
                raise VerificationError(
                    f"recovered model {model_id} fails checksum verification: "
                    f"{actual_root} != stored {stored_root}"
                )
            layers = list(table.items())
            if have:  # the layers the caller holds were not fetched
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

    def _recovered_root(self, document: dict, state: OrderedDict, fetched: dict):
        """``(layer table, Merkle root)`` of a recovered ``state``, whose
        layers in ``fetched`` passed the fetch check.

        When every layer did, ``fetched`` is the whole table, and if it is
        the digest vector of the document's manifest as the store keeps
        its parse, the root is the one kept beside it
        (:meth:`~repro.filestore.FileStore.manifest_root`): nothing is
        folded.  Otherwise — an MPA level's replayed state, a layer the
        check could not heal, a parse no longer kept — the table is
        completed by :func:`_layer_table` and the root folded over it.
        """
        root = None
        if len(fetched) == len(state) and document.get("parameters_file"):
            table = fetched
            root = self.files.manifest_root(document["parameters_file"], fetched.values())
        else:
            table = _layer_table(state, fetched)
        if root is None:
            root = root_of(list(table.values()))
        return table, root

    # -- per-document recovery ---------------------------------------------

    def _recover_from_document(
        self,
        document: dict,
        timings: dict,
        execution_env: dict,
        cache: RecoveryCache | None = None,
        verified: dict | None = None,
        have: frozenset = frozenset(),
        chain: tuple[str, ...] = (),
    ) -> tuple["OrderedDict", int, Callable[[], ArchitectureRef]]:
        """Recover one document's parameters: ``(state, depth, architecture)``.

        A document with a manifest is read as it is: one manifest, one
        fetch, depth 0.  ``architecture`` reads the architecture when
        called, so only a caller that builds the model reads its code file.
        ``verified`` (the top-level call's only) collects the layers the
        store verified as it fetched them, and ``have`` the digests it need
        not fetch (see :meth:`_load_state_file`); a base recovered beneath
        an MPA document contributes none — its replay rewrites the layers.
        ``cache`` is consulted and filled for MPA levels only: a training
        replay is the one per-level cost a recover still pays, and the
        depth counts those levels (DESIGN.md §16).  ``chain`` holds the ids
        of the MPA levels above this one: a base chain that comes back to
        one of them raises :class:`RecoveryError` naming the cycle."""
        doc_id = document.get("_id")
        if doc_id in chain:
            raise RecoveryError(
                "cycle in base-model chain: " + " -> ".join((*chain, doc_id)))
        approach = document.get("approach")
        with self._obs_tracer.span(
            "recover.document", doc_id=doc_id, approach=approach or "unknown",
        ):
            if document.get("parameters_file"):
                started = self.clock.perf()
                state = self._load_state_file(document["parameters_file"], verified, have)
                timings["load"] += self.clock.perf() - started
                return state, 0, partial(self._load_architecture, document, timings)
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
                    document, timings, execution_env, cache, (*chain, doc_id))
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

    def _recover_provenance(
        self,
        document: dict,
        timings: dict,
        execution_env: dict,
        cache: RecoveryCache | None = None,
        chain: tuple[str, ...] = (),
    ) -> tuple[Module, int, ArchitectureRef]:
        # derived models share their base's architecture (the relations the
        # paper covers keep the architecture fixed)
        state, depth, architecture = self._recover_from_document(
            self._base_document(document), timings, execution_env, cache, chain=chain
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

    def _base_chunks(self, document: dict) -> frozenset:
        """The chunks a PUA model shares with its base: the layers it did
        not change, which its base's save stored (none for a base that is
        gone or has no manifest)."""
        base_id = document.get("base_model")
        if document.get("approach") != APPROACH_PARAM_UPDATE or not base_id:
            return frozenset()
        try:
            base = self._get_model_document(base_id, projection=("parameters_file",))
        except ModelNotFoundError:
            return frozenset()
        if not base.get("parameters_file"):
            return frozenset()
        layers = self.files.read_manifest(base["parameters_file"])["layers"]
        return frozenset(meta["chunk"] for _name, meta in layers)

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
            files["parameters"] = self.files.size(
                document["parameters_file"], shared=self._base_chunks(document))

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

    A layer in ``verified`` — the store checked the very array the state
    holds, or, as ``None``, a layer the caller holds that was not fetched —
    contributes that digest.  Every other layer — from an MPA base
    (replayed or cached), or one the check could not heal — is hashed
    here, so each parameter byte is hashed once either way.
    """
    table = OrderedDict()
    unverified = OrderedDict()
    for name, array in state.items():
        table[name] = digest = verified.get(name)
        if digest is None:
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
