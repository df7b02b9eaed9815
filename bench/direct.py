"""The three in-process workloads: snapshot-full, chain-partial, catalog-fleet.

Each is a closed loop of one client on the driver's thread: the next
operation starts when the previous one returned.  A workload is a
sequence of *rounds* generated from the seed, grouped in *cycles* that end
with the workload's maintenance.  A run is a few *epochs*: a set-up on
fresh stores, a fixed number of whole cycles sized to fill the epoch's
share of ``--seconds`` on the quiet box (one cycle in a smoke run), then
the verification.  So every run of a seed is made of the same parts on
the same catalog sizes, and every per-save count repeats exactly.
"""

from __future__ import annotations

import copy
import random
import shutil
from pathlib import Path

from repro import obs
from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    new_model_id,
)
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.nn.models import MODEL_REGISTRY, create_model
from repro.workloads.serving import serving_mlp

from harness import (
    Epochs,
    Recorder,
    SpanLog,
    Traced,
    TracedDocuments,
    dir_bytes,
    float_layers,
    peak_rss_mb,
    perf,
    perturb,
    state_digest,
    state_nbytes,
    write_bytes,
)

NUM_CLASSES = 100  # as scripts/bench_smoke.py: the ROADMAP baseline models
SCALE = 0.25

#: obs counters behind the ``device`` layer, read around every traced save
DEVICE_COUNTERS = {
    "fsyncs": "mmlib_chunk_fsyncs_total",
    "fsync_batches": "mmlib_segment_fsync_batches_total",
    "files_created": "mmlib_chunk_files_created_total",
}


class DirectWorkload:
    """Stores, service and manager in the driver's process."""

    name = ""
    service_class = None
    file_store_options: dict = {}
    #: full and smoke sizing; ``setups`` is the number of epochs (set-up is
    #: repeated for its median, and each one is followed by its share of the
    #: timed phase), ``warmup`` how many untimed rounds end each set-up,
    #: ``cycles`` the fixed length of a smoke run's epoch
    sizing: dict = {}
    smoke_sizing: dict = {}
    #: rounds in a cycle, and the seconds a cycle takes on this box when the
    #: host is quiet
    cycle_rounds = 1
    cycle_seconds = 1.0
    #: bytes under the store directories that are not the live models'
    excluded_bytes = 0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False,
                 spans: SpanLog | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = dict(self.sizing, **(self.smoke_sizing if smoke else {}))
        self.spans = spans
        self.recorder = Recorder(spans)
        self.epochs = Epochs(self.recorder)
        self.round_index = 0
        self._set = 0
        # what the timed phases measure beside the recorder's durations
        self.recover_timings: list[dict] = []
        self.recover_depths: list[int] = []
        self.device = dict.fromkeys(DEVICE_COUNTERS, 0.0)
        self.saved_bytes = 0
        self.storage_ratios: list[float] = []
        self.maintenance: dict[str, float] = {}

    @property
    def timing(self) -> bool:
        return self.recorder.timing

    # -- building ------------------------------------------------------------

    def build_model(self):
        """``(model, architecture ref)`` of the workload's model."""
        raise NotImplementedError

    def paper_model(self, name: str):
        """One of the paper's architectures at the ROADMAP baseline's size."""
        kwargs = {"num_classes": NUM_CLASSES, "scale": SCALE}
        factory = MODEL_REGISTRY[name].factory
        architecture = ArchitectureRef.from_factory(
            factory.__module__, factory.__name__, kwargs)
        return create_model(name, seed=self.seed, **kwargs), architecture

    def open(self) -> None:
        """Fresh stores, service and manager under a new directory."""
        self._set += 1
        self.root = self.workdir / f"set-{self._set}"
        documents = DocumentStore(self.root / "documents")
        files = FileStore(self.root / "files", **self.file_store_options)
        if self.spans is not None:
            documents = TracedDocuments(documents, "docstore", self.spans)
            files = Traced(files, "filestore", self.spans, on_result=self._store_result)
        self.documents, self.files = documents, files
        service = self.service_class(documents, files)
        if self.spans is not None:
            service = Traced(service, "core.service", self.spans)
        self.service = service
        manager = ModelManager(service)
        if self.spans is not None:
            manager = Traced(
                manager, "core.manager", self.spans,
                rename={"compact": "core.compaction.compact"},
                on_result=self._store_result,
            )
        self.manager = manager

    def _store_result(self, name: str, result) -> None:
        """Public return values that are per-layer counts."""
        if not isinstance(result, dict):
            return
        if name == "filestore.gc_chunks":
            self._add("segments_compacted", result.get("segments_compacted", 0))
        elif name == "core.manager.garbage_collect":
            self._add("bytes_reclaimed", result.get("bytes_freed", 0))
        elif name == "core.compaction.compact":
            self._add("released_bytes", result.get("released_bytes", 0))

    def _add(self, key: str, amount: float) -> None:
        if self.timing:
            self.maintenance[key] = self.maintenance.get(key, 0) + amount

    def setup(self) -> None:
        """Everything before the first timed operation, warm-up included."""
        self.rng = random.Random(self.seed)
        self.round_index = 0
        self.open()
        self.model, self.architecture = self.build_model()
        self.state = self.model.state_dict()  # the model's own arrays
        self.state_bytes = state_nbytes(self.state)
        self.populate()
        for _ in range(self.size["warmup"]):
            self.round()

    def populate(self) -> None:
        """Saves that must exist before the first round."""

    def discard(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- operations ----------------------------------------------------------

    def save(self, base: str | None, use_case: str) -> tuple[str | None, str]:
        """One timed save of the model as it is now; returns (id, digest)."""
        digest = state_digest(self.state)
        info = ModelSaveInfo(
            model=self.model, architecture=self.architecture,
            base_model_id=base, use_case=use_case,
        )
        traced = self.spans is not None and self.timing
        before = self._device_counters() if traced else None
        model_id = self.recorder.op("save", self.service.save_model, info)
        if before is not None:
            for key, value in self._device_counters().items():
                self.device[key] += value - before[key]
        if self.timing:
            self.saved_bytes += self.state_bytes
        return model_id, digest

    @staticmethod
    def _device_counters() -> dict:
        registry = obs.registry()
        return {key: registry.value(name) for key, name in DEVICE_COUNTERS.items()}

    def recover(self, model_id: str, digest: str) -> None:
        """One timed verified recover, compared bitwise to what was saved."""
        info = self.recorder.op("recover", self.service.recover_model, model_id)
        if info is None:
            return
        if self.timing:
            self.recover_timings.append(info.timings)
            self.recover_depths.append(info.recovery_depth)
        self.recorder.check(
            f"recover {model_id}: state differs from the one saved",
            info.verified is True and state_digest(info.model.state_dict()) == digest,
        )

    def query(self, function, *args) -> None:
        self.recorder.op("query", function, *args)

    def maintain(self, function, *args, **kwargs):
        return self.recorder.op("maintenance", function, *args, **kwargs)

    # -- the timed phase -----------------------------------------------------

    def round(self) -> None:
        raise NotImplementedError

    def epoch_cycles(self, seconds: float) -> int:
        """Cycles that fill ``seconds`` on the quiet box (fixed in a smoke run)."""
        return self.size.get("cycles") or max(1, round(seconds / self.cycle_seconds))

    def run(self, cycles: int, limit_seconds: float) -> None:
        """One epoch: ``cycles`` whole cycles, cut short after ``limit_seconds``.

        A fixed count, so that every run of a seed does the same work on
        the same catalog sizes; the limit only bounds the run when the host
        (or the program) is much slower than what the counts were sized on.
        Bytes on disk move in steps (a segment is dropped or compacted
        whole), so ``storage_ratio`` is sampled after every cycle and
        averaged, not read once at a moment the clock picks.
        """
        self.io_before = write_bytes()  # of the last epoch; the traced run has one
        if self.spans is not None:
            self.spans.begin_timed()
        self.epochs.begin()
        started = perf()
        for _ in range(cycles):
            cycle_started = perf()
            for _ in range(self.cycle_rounds):
                self.round()
            self.epochs.cycle_done(cycle_started)
            self.storage_ratios.append(self.storage_ratio())
            if perf() - started > limit_seconds:
                break
        self.epochs.end()
        if self.spans is not None:
            self.spans.end_timed()
        self.io_after = write_bytes()

    # -- after the timed phase -----------------------------------------------

    def live_models(self) -> int:
        raise NotImplementedError

    def stored_bytes(self) -> int:
        return dir_bytes(self.root / "documents", self.root / "files")

    def storage_ratio(self) -> float:
        """Bytes on disk ÷ logical parameter bytes of the live models, now."""
        return ((self.stored_bytes() - self.excluded_bytes)
                / (self.live_models() * self.state_bytes))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()  # the stores run in the driver

    def finish(self) -> None:
        """fsck the stores; every issue is a failed check."""
        report = self.manager.fsck(repair=False, verify_chunks=True)
        self.recorder.attempted += 1
        self.recorder.check(f"fsck: {report.summary()}", report.clean)

    def close(self) -> None:
        """Nothing outlives the driver's process."""


class SnapshotFull(DirectWorkload):
    """BA snapshots of a model whose every float layer changes, with
    retention cycles: bytes dominate, the catalog idles."""

    name = "snapshot-full"
    service_class = BaselineSaveService
    cycle_rounds = 5  # saves between retention cycles
    cycle_seconds = 2.4
    #: ``keep`` snapshots are retained, and recovers draw from them; set-up
    #: saves that many (bare saves, then the warm-up rounds), so every
    #: cycle grows the catalog from 8 to 13 and back
    sizing = {"setups": 3, "keep": 8, "warmup": 3}
    smoke_sizing = {"setups": 1, "keep": 2, "warmup": 1, "cycles": 1}

    def build_model(self):
        return self.paper_model("resnet152")

    def populate(self) -> None:
        self.live: list[tuple[str, str]] = []
        self.changing = float_layers(self.state)
        self.keep = self.size["keep"]
        for _ in range(self.keep - self.size["warmup"]):
            self.save_snapshot()

    def save_snapshot(self) -> None:
        self.round_index += 1
        perturb(self.state, self.changing, self.rng.uniform(1e-3, 2e-3))
        model_id, digest = self.save(None, f"snap-{self.round_index}")
        if model_id is not None:
            self.live.append((model_id, digest))

    def round(self) -> None:
        self.save_snapshot()
        for _ in range(2):
            target, expected = self.rng.choice(self.live[-self.keep:])
            self.query(self.manager.get, target)
            self.recover(target, expected)
        if len(self.live) >= self.keep + self.cycle_rounds:
            self.retain()

    def retain(self) -> None:
        expired, self.live = self.live[:-self.keep], self.live[-self.keep:]
        for model_id, _digest in expired:
            self.maintain(self.manager.delete_model, model_id)
        self.maintain(self.manager.garbage_collect)

    def live_models(self) -> int:
        return len(self.live)


class ChainPartial(DirectWorkload):
    """PUA chain where the last two layers change: per-save fixed cost and
    chain replay dominate, chunk I/O idles (the model fits the cache)."""

    name = "chain-partial"
    service_class = ParameterUpdateSaveService
    file_store_options = {"chunk_cache": 8 << 20}
    cycle_rounds = 8  # saves between chain compactions
    cycle_seconds = 1.6
    max_depth = 4
    sizing = {"setups": 3, "warmup": 4}
    smoke_sizing = {"setups": 1, "warmup": 1, "cycles": 1}

    def build_model(self):
        return self.paper_model("mobilenetv2")

    def populate(self) -> None:
        self.changing = list(self.state)[-2:]
        root, digest = self.save(None, "chain-0")
        self.chain: list[tuple[str, str]] = [(root, digest)]

    def round(self) -> None:
        self.round_index += 1
        perturb(self.state, self.changing, self.rng.uniform(1e-3, 2e-3))
        model_id, digest = self.save(self.chain[-1][0], f"chain-{self.round_index}")
        if model_id is not None:
            self.chain.append((model_id, digest))
        for target, expected in (self.chain[-1], self.rng.choice(self.chain[:-1])):
            self.query(self.manager.get, target)
            self.recover(target, expected)
        if self.round_index % self.cycle_rounds == 0:
            self.maintain(self.manager.compact, max_depth=self.max_depth)

    def live_models(self) -> int:
        return len(self.chain)


class CatalogFleet(DirectWorkload):
    """One small model per device in a large catalog: the document store
    and the manager's index scan dominate, chunk bytes are negligible."""

    name = "catalog-fleet"
    service_class = ParameterUpdateSaveService
    use_cases = 16
    cycle_rounds = 4
    cycle_seconds = 1.15
    #: ``real`` models are saved through the service; the catalog is then
    #: filled to ``catalog`` model documents with copies of theirs under
    #: fresh ids (synthetic: never recovered, never deleted)
    sizing = {"setups": 3, "warmup": 1, "real": 16, "catalog": 400}
    smoke_sizing = {"setups": 1, "warmup": 1, "cycles": 1, "real": 4, "catalog": 20}
    round_ops = ("save",) * 3 + ("query",) * 6 + ("recover",) * 2

    def build_model(self):
        model = serving_mlp(seed=self.seed % 2**31)
        architecture = ArchitectureRef.from_factory(
            "repro.workloads.serving", "serving_mlp", {})
        return model, architecture

    def populate(self) -> None:
        self.changing = list(self.state)[-2:]
        self.real: list[tuple[str, str]] = []
        for _ in range(self.size["real"]):
            self.save_derived()
        models = self.documents.collection("models")
        originals = [models.get(model_id) for model_id, _digest in self.real]
        before = self.stored_bytes()
        for index in range(self.size["catalog"] - len(originals)):
            document = copy.deepcopy(originals[index % len(originals)])
            document["_id"] = new_model_id()
            models.insert_one(document)
        # the fill stands for models whose parameters are stored elsewhere:
        # its documents load the catalog but are not this fleet's bytes
        self.excluded_bytes = self.stored_bytes() - before

    def save_derived(self) -> None:
        base = self.rng.choice(self.real)[0] if self.real else None
        perturb(self.state, self.changing, self.rng.uniform(1e-3, 2e-3))
        model_id, digest = self.save(base, f"uc-{len(self.real) % self.use_cases}")
        if model_id is not None:
            self.real.append((model_id, digest))

    def round(self) -> None:
        self.round_index += 1
        ops = list(self.round_ops)
        self.rng.shuffle(ops)
        for op in ops:
            if op == "save":
                self.save_derived()
            elif op == "recover":
                self.recover(*self.rng.choice(self.real))
            else:
                kind = self.rng.choice(("get", "find", "lineage"))
                if kind == "find":
                    use_case = f"uc-{self.rng.randrange(self.use_cases)}"
                    self.query(self.manager.find_by_use_case, use_case)
                else:
                    target = self.rng.choice(self.real)[0]
                    self.query(getattr(self.manager, kind), target)

    def live_models(self) -> int:
        return len(self.real)


WORKLOADS = {cls.name: cls for cls in (SnapshotFull, ChainPartial, CatalogFleet)}
