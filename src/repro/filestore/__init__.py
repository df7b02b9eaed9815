"""``repro.filestore`` — shared external file storage substrate."""

from .cdc import gear_table, split_buffer
from .codecs import available_codecs, resolve_codec
from .network import (
    CELLULAR_LTE,
    INFINIBAND_100G,
    NetworkModel,
    SimulatedNetworkFileStore,
)
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
    "available_codecs",
    "chunk_intact",
    "resolve_codec",
    "gear_table",
    "split_buffer",
]
