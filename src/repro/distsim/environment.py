"""Simulated distributed deployment: shared stores, a server, and nodes.

Mirrors the paper's setup (Section 4.1): one machine runs the document
store (MongoDB there), all machines share external file storage, and the
server and nodes each run MMlib against those shared stores.  Every
participant owns its *own* save-service instance — services hold no model
state, so this matches distinct processes on distinct machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.abstract import AbstractSaveService
from ..core.adaptive import AdaptiveSaveService
from ..core.baseline import BaselineSaveService
from ..core.param_update import ParameterUpdateSaveService
from ..core.provenance import ProvenanceSaveService
from ..core.schema import (
    APPROACH_BASELINE,
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
)
from ..docstore.engine import DocumentStore
from ..faults import FaultInjector, FaultyDocumentStore
from ..filestore.network import NetworkModel, SimulatedNetworkFileStore
from ..filestore.store import FileStore
from ..retry import RetryPolicy

__all__ = ["SERVICE_CLASSES", "SharedStores", "Participant", "Server", "Node", "make_service"]

SERVICE_CLASSES = {
    APPROACH_BASELINE: BaselineSaveService,
    APPROACH_PARAM_UPDATE: ParameterUpdateSaveService,
    APPROACH_PROVENANCE: ProvenanceSaveService,
    "adaptive": AdaptiveSaveService,
}


@dataclass
class SharedStores:
    """The storage backends every participant connects to.

    Clustered deployments built with ``self_heal=True`` also carry the
    shared :class:`~repro.cluster.FailureDetector` and
    :class:`~repro.cluster.HintLog` wired into both sharded stores;
    :meth:`healers` constructs the matching background services.
    """

    documents: DocumentStore
    files: FileStore
    scratch_dir: Path
    retry: RetryPolicy | None = None
    detector: object | None = None
    hints: object | None = None

    @classmethod
    def at(
        cls,
        workdir: str | Path,
        network: NetworkModel | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        workers: int = 0,
        pipeline_depth: int = 8,
        chunk_cache_bytes: int = 0,
    ) -> "SharedStores":
        """Create fresh stores under ``workdir``.

        With ``network`` set, file transfers are charged against the given
        link model (see :mod:`repro.filestore.network`).  ``faults`` turns
        the deployment into a chaos environment: both stores inject the
        configured failures, and ``retry`` (shared by every participant's
        service) absorbs the transient ones.

        The throughput knobs enable the parallel recovery plane:
        ``workers`` bounds concurrent chunk transfers per batch,
        ``pipeline_depth`` sets how many requests a simulated link keeps
        in flight per latency window, and ``chunk_cache_bytes`` (0 = off)
        sizes the in-process hot-chunk LRU.
        """
        workdir = Path(workdir)
        documents = DocumentStore(workdir / "documents")
        if faults is not None:
            documents = FaultyDocumentStore(documents, faults)
        chunk_cache = chunk_cache_bytes if chunk_cache_bytes > 0 else None
        if network is None:
            files: FileStore = FileStore(
                workdir / "files",
                faults=faults,
                retry=retry,
                workers=workers,
                chunk_cache=chunk_cache,
            )
        else:
            files = SimulatedNetworkFileStore(
                workdir / "files",
                network,
                faults=faults,
                retry=retry,
                workers=workers,
                pipeline_depth=pipeline_depth,
                chunk_cache=chunk_cache,
            )
        scratch = workdir / "scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        return cls(documents=documents, files=files, scratch_dir=scratch, retry=retry)

    @classmethod
    def cluster_at(
        cls,
        workdir: str | Path,
        shards: int = 4,
        replicas: int = 2,
        write_quorum: int | None = None,
        network: NetworkModel | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        workers: int = 0,
        pipeline_depth: int = 8,
        chunk_cache_bytes: int = 0,
        self_heal: bool = False,
        member_faults: dict[str, FaultInjector] | None = None,
    ) -> "SharedStores":
        """Create *sharded* stores under ``workdir``: ``shards`` member
        stores behind a :class:`~repro.cluster.ShardedFileStore` and a
        :class:`~repro.cluster.ShardedDocumentStore`, R-of-N replicated.

        Services, benchmarks, and fsck use the result exactly like the
        single-store :meth:`at` deployment — the cluster plane hides
        behind the same interfaces.  ``network``/``faults`` apply *per
        member* (each shard is its own machine with its own link);
        ``member_faults`` overrides the shared injector for named members
        (``{"shard-2": injector}``), which is how chaos runs kill one
        machine while the rest stay up.  ``retry`` is shared by the
        members, the sharded layers, and every participant's service.
        The hot-chunk cache sits on the sharded store, so a hit never
        touches a member link.

        ``self_heal=True`` wires a shared
        :class:`~repro.cluster.FailureDetector` and durable
        :class:`~repro.cluster.HintLog` (under ``cluster-meta/hints``)
        into both sharded stores: quorum writes then breaker-skip members
        the detector holds down and leave hints for missed replicas.
        Background delivery/scanning is *not* started here — call
        :meth:`healers` and ``start()`` them, or drain in the foreground
        via ``ModelManager.heal()``.
        """
        from ..cluster import ShardedDocumentStore, ShardedFileStore

        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        workdir = Path(workdir)
        member_faults = dict(member_faults or {})
        doc_members: dict[str, DocumentStore] = {}
        file_members: dict[str, FileStore] = {}
        for index in range(shards):
            name = f"shard-{index}"
            shard_faults = member_faults.get(name, faults)
            documents = DocumentStore(workdir / name / "documents")
            if shard_faults is not None:
                documents = FaultyDocumentStore(documents, shard_faults)
            doc_members[name] = documents
            if network is None:
                file_members[name] = FileStore(
                    workdir / name / "files", faults=shard_faults, retry=retry,
                )
            else:
                file_members[name] = SimulatedNetworkFileStore(
                    workdir / name / "files",
                    network,
                    faults=shard_faults,
                    retry=retry,
                    pipeline_depth=pipeline_depth,
                )
        detector = hints = None
        if self_heal:
            from ..cluster import FailureDetector, HintLog

            detector = FailureDetector(members=sorted(file_members))
            hints = HintLog(workdir / "cluster-meta" / "hints")
        chunk_cache = chunk_cache_bytes if chunk_cache_bytes > 0 else None
        files = ShardedFileStore(
            workdir / "cluster-meta",
            file_members,
            replicas=replicas,
            write_quorum=write_quorum,
            retry=retry,
            workers=workers,
            chunk_cache=chunk_cache,
            detector=detector,
            hint_log=hints,
        )
        documents = ShardedDocumentStore(
            doc_members, replicas=replicas, write_quorum=write_quorum,
            detector=detector, hint_log=hints,
        )
        scratch = workdir / "scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        return cls(
            documents=documents, files=files, scratch_dir=scratch,
            retry=retry, detector=detector, hints=hints,
        )

    def healers(
        self,
        deliver_interval_s: float = 0.25,
        scan_interval_s: float = 1.0,
        scan_batch: int = 64,
        probe_interval_s: float = 0.25,
    ) -> tuple:
        """Construct the self-heal services for a clustered deployment.

        Returns ``(deliverer, scanner, monitor)`` — the hinted-handoff
        :class:`~repro.cluster.HintDeliverer`, the
        :class:`~repro.cluster.AntiEntropyScanner`, and a
        :class:`~repro.cluster.HealthMonitor` probing each member's
        ``ping``.  None are started; call ``start()`` on each (and
        ``close()`` when done).  Requires ``cluster_at(...,
        self_heal=True)`` stores.
        """
        if self.hints is None or self.detector is None:
            raise ValueError(
                "self-heal services need cluster_at(..., self_heal=True) stores"
            )
        from ..cluster import AntiEntropyScanner, HealthMonitor, HintDeliverer

        appliers: dict = {}
        for store in (self.files, self.documents):
            factory = getattr(store, "hint_appliers", None)
            if callable(factory):
                appliers.update(factory())
        deliverer = HintDeliverer(
            self.hints, self.detector, appliers, interval_s=deliver_interval_s
        )
        scanner = AntiEntropyScanner(
            self.files, detector=self.detector,
            interval_s=scan_interval_s, batch_size=scan_batch,
        )
        probes = {
            name: member.ping
            for name, member in self.files.members.items()
            if callable(getattr(member, "ping", None))
        }
        monitor = HealthMonitor(
            self.detector, probes, interval_s=probe_interval_s
        )
        return deliverer, scanner, monitor

    def total_storage_bytes(self) -> int:
        return self.documents.storage_bytes() + self.files.total_bytes()


def make_service(
    approach: str,
    stores: SharedStores,
    dataset_codec: str | None = None,
) -> AbstractSaveService:
    """Instantiate the save service for an approach name."""
    if approach not in SERVICE_CLASSES:
        raise KeyError(f"unknown approach {approach!r}; options: {sorted(SERVICE_CLASSES)}")
    return SERVICE_CLASSES[approach](
        stores.documents,
        stores.files,
        scratch_dir=stores.scratch_dir,
        dataset_codec=dataset_codec,
        retry=stores.retry,
    )


class Participant:
    """A machine in the deployment (the server or one node)."""

    def __init__(
        self,
        name: str,
        approach: str,
        stores: SharedStores,
        dataset_codec: str | None = None,
    ):
        self.name = name
        self.approach = approach
        self.stores = stores
        self.service = make_service(approach, stores, dataset_codec=dataset_codec)
        #: model ids this participant created, by use-case tag
        self.saved_models: dict[str, str] = {}

    def latest_model_id(self) -> str | None:
        if not self.saved_models:
            return None
        return next(reversed(list(self.saved_models.values())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, approach={self.approach!r})"


class Server(Participant):
    """The central server: creates initial models, deploys updates (U_1/U_2)."""

    def __init__(
        self,
        approach: str,
        stores: SharedStores,
        dataset_codec: str | None = None,
    ):
        super().__init__("server", approach, stores, dataset_codec)


class Node(Participant):
    """A distributed device: trains locally and registers updates (U_3)."""

    def __init__(
        self,
        index: int,
        approach: str,
        stores: SharedStores,
        dataset_codec: str | None = None,
    ):
        super().__init__(f"node-{index}", approach, stores, dataset_codec)
        self.index = index
        #: id of the model this node currently runs (set by deployments)
        self.current_model_id: str | None = None
