"""Cluster plane: sharded, replicated storage over member stores.

Places segment records (chunks and files) and metadata documents onto
R-of-N member stores with a consistent-hash ring; writes need a quorum
of owners, reads fail over in ring order with digest-verified
read-repair, and a membership change heals only the keys whose ring
ownership moved.  The sharded stores keep the exact single-store
interfaces, so every MMlib service runs against a cluster unchanged.

Every repair of a replica set is one per-key heal,
:meth:`~repro.cluster.replica.ReplicaLedger.heal_key`, and every walk over
the key universe one sweep.  The self-healing layer rides on top: a
:class:`FailureDetector` scores member health from op outcomes and probes,
and one :class:`SelfHealer` loop probes, heals the keys degraded quorum
writes marked, and scans, through that heal.
"""

from .antientropy import SelfHealer, repair_chunk
from .health import FailureDetector
from .ring import HashRing
from .sharded_docs import ShardedDocumentStore
from .sharded_store import ShardedFileStore

__all__ = [
    "HashRing",
    "ShardedFileStore",
    "ShardedDocumentStore",
    "FailureDetector",
    "SelfHealer",
    "repair_chunk",
]
