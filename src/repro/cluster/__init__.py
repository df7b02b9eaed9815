"""Cluster plane: sharded, replicated storage over member stores.

Places segment records (chunks and files) and metadata documents onto
R-of-N member stores with a consistent-hash ring; writes need a quorum
of owners, reads fail over in ring order with digest-verified
read-repair, and membership changes stream only the keys whose ring
ownership moved.  The sharded stores keep the exact single-store
interfaces, so every MMlib service runs against a cluster unchanged.

The self-healing layer rides on top: a :class:`FailureDetector` scores
member health from op outcomes and probes, :class:`HintLog`/
:class:`HintDeliverer` turn degraded quorum writes into durable,
replayable IOUs, and :class:`AntiEntropyScanner` diffs replica sets in
the background through the same per-key heal path ``fsck`` uses.
"""

from .antientropy import AntiEntropyScanner, repair_chunk
from .health import FailureDetector, HealthMonitor
from .hints import HintDeliverer, HintLog
from .rebalance import ClusterRebalancer, replication_fsck
from .ring import HashRing
from .sharded_docs import ShardedDocumentStore
from .sharded_store import ShardedFileStore

__all__ = [
    "HashRing",
    "ShardedFileStore",
    "ShardedDocumentStore",
    "ClusterRebalancer",
    "replication_fsck",
    "FailureDetector",
    "HealthMonitor",
    "HintLog",
    "HintDeliverer",
    "AntiEntropyScanner",
    "repair_chunk",
]
