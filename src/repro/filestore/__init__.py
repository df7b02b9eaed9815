"""``repro.filestore`` — shared external file storage substrate."""

from .network import (
    CELLULAR_LTE,
    INFINIBAND_100G,
    NetworkModel,
    SimulatedNetworkFileStore,
)
from .recordlog import RecordLog
from .segments import DEFAULT_SEGMENT_BYTES, ChunkNotFoundError, ChunkStore
from .store import ChunkCache, FileNotFoundInStoreError, FileStore, chunk_intact

__all__ = [
    "CELLULAR_LTE",
    "INFINIBAND_100G",
    "NetworkModel",
    "SimulatedNetworkFileStore",
    "ChunkCache",
    "ChunkNotFoundError",
    "ChunkStore",
    "DEFAULT_SEGMENT_BYTES",
    "FileNotFoundInStoreError",
    "FileStore",
    "RecordLog",
    "chunk_intact",
]
