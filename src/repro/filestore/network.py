"""File store variant that models network transfer cost.

The paper's machines reach the shared external storage over 100G
InfiniBand, so transfers are fast but not free.  This wrapper charges a
configurable latency per operation plus bytes/bandwidth of transfer time,
letting distributed evaluation flows account for slower links (e.g. the
motivating vehicle fleet on cellular uplinks) without changing any MMlib
code — it is a drop-in :class:`~repro.filestore.store.FileStore`.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from .. import obs
from .segments import DEFAULT_TMP_GRACE_S, _buffer_nbytes
from .store import FileStore, is_file_id

__all__ = ["NetworkModel", "SimulatedNetworkFileStore", "INFINIBAND_100G", "CELLULAR_LTE"]


class NetworkModel:
    """Latency + bandwidth model for a storage link."""

    def __init__(self, bandwidth_bytes_per_s: float, latency_s: float = 0.0):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth_bytes_per_s = float(bandwidth_bytes_per_s)
        self.latency_s = float(latency_s)

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` over this link."""
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    def __repr__(self) -> str:
        gbit = self.bandwidth_bytes_per_s * 8 / 1e9
        return f"NetworkModel({gbit:.2f} Gbit/s, latency={self.latency_s * 1e3:.2f} ms)"


#: The evaluation cluster's interconnect (Section 4.1).
INFINIBAND_100G = NetworkModel(bandwidth_bytes_per_s=100e9 / 8, latency_s=5e-6)

#: A pessimistic vehicle-fleet uplink for the motivating BMS example.
CELLULAR_LTE = NetworkModel(bandwidth_bytes_per_s=20e6 / 8, latency_s=50e-3)


class SimulatedNetworkFileStore(FileStore):
    """A :class:`FileStore` whose transfers consume simulated link time.

    ``sleep=True`` makes operations actually take the modelled wall-clock
    time (for end-to-end timing experiments); with ``sleep=False`` the cost
    is only accumulated in :attr:`simulated_seconds` so large sweeps stay
    fast while still reporting transfer budgets.

    It overrides the two record-transfer hooks of :class:`FileStore` and
    the existence probe: :meth:`_put_chunk_data` charges every write,
    :meth:`_fetch_many` every read, :meth:`has_chunk` its digest query.
    A read is charged as a *pipelined* transfer: latency is paid once per
    window of ``pipeline_depth`` in-flight requests while the bandwidth
    term stays the sum of all payload bytes — bandwidth is shared across
    concurrent streams, not multiplied by them.  :attr:`round_trips`
    counts the link-latency round-trips actually paid;
    :attr:`round_trips_saved` counts the ones pipelining avoided versus a
    fully serial client.
    """

    #: Bytes exchanged to ask the server "do you already hold this chunk?"
    #: (a hex SHA-256 digest) — the cost of a deduplicated chunk upload.
    CHUNK_QUERY_BYTES = 64

    def __init__(
        self,
        root: str | Path,
        network: NetworkModel,
        sleep: bool = False,
        faults=None,
        retry=None,
        tmp_grace_s: float | None = None,
        verify_reads: bool | None = None,
        pipeline_depth: int = 8,
        workers: int = 0,
        chunk_cache=None,
    ):
        super().__init__(
            root, faults=faults, retry=retry,
            tmp_grace_s=DEFAULT_TMP_GRACE_S if tmp_grace_s is None else tmp_grace_s,
            verify_reads=verify_reads, workers=workers, chunk_cache=chunk_cache)
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.network = network
        self.sleep = sleep
        self.pipeline_depth = int(pipeline_depth)
        self._accounting_lock = threading.Lock()
        self.reset_accounting()
        registry = obs.registry()
        self._obs_round_trips = registry.counter(
            "mmlib_network_round_trips_total", "Simulated network round trips")
        self._obs_round_trips_saved = registry.counter(
            "mmlib_network_round_trips_saved_total",
            "Round trips avoided by request pipelining")
        self._obs_bytes_sent = registry.counter(
            "mmlib_network_bytes_total", "Simulated bytes moved", direction="sent")
        self._obs_bytes_received = registry.counter(
            "mmlib_network_bytes_total", "Simulated bytes moved", direction="received")
        self._obs_dedup_chunks = registry.counter(
            "mmlib_network_chunks_deduplicated_total",
            "Chunk uploads skipped because the server held the content")
        self._obs_sim_seconds = registry.counter(
            "mmlib_network_simulated_seconds_total",
            "Simulated link time consumed by transfers")

    def _charge(self, num_bytes: int, round_trips: int = 1) -> None:
        cost = (
            round_trips * self.network.latency_s
            + num_bytes / self.network.bandwidth_bytes_per_s
        )
        with self._obs_tracer.span(
            "net.transfer", nbytes=num_bytes, round_trips=round_trips,
            simulated_s=cost,
        ):
            with self._accounting_lock:
                self.simulated_seconds += cost
                self.round_trips += round_trips
            self._obs_round_trips.inc(round_trips)
            self._obs_sim_seconds.inc(cost)
            if self.sleep:
                time.sleep(cost)

    def _send(self, num_bytes: int) -> None:
        """Charge one upload of ``num_bytes`` against the link."""
        self._charge(num_bytes)
        with self._accounting_lock:
            self.bytes_sent += num_bytes
        self._obs_bytes_sent.inc(num_bytes)

    def _put_chunk_data(self, digest: str, buffer) -> bool:
        """Upload one record, paying only for content the server lacks.

        Every chunk put costs one digest round-trip (the existence query);
        the payload itself crosses the link only when the server does not
        already hold the chunk — dedup turns repeat uploads into
        near-free no-ops, exactly the delta-transfer win chunked saves
        are after.  A file record is named by a fresh uuid, so it can never
        dedup: it is charged its payload and one round trip, with no query,
        once the write has succeeded (a failed upload must not inflate
        ``bytes_sent``).  Overriding the write primitive (not
        :meth:`put_chunk` / :meth:`save_bytes`) means parallel savers are
        charged identically to serial ones, and replicated writes from a
        sharded store per member link.
        """
        nbytes = _buffer_nbytes(buffer)
        is_file = is_file_id(digest)
        if not is_file:
            self._send(self.CHUNK_QUERY_BYTES)  # the existence query
        wrote = super()._put_chunk_data(digest, buffer)
        if is_file or wrote:
            self._send(nbytes)
        else:
            with self._accounting_lock:
                self.chunks_deduplicated += 1
                self.chunk_bytes_deduplicated += nbytes
            self._obs_dedup_chunks.inc()
        return wrote

    def _fetch_many(self, digests, crc, crcs=None) -> dict:
        """Download a batch of records as one pipelined transfer.

        Latency is paid once per window of ``pipeline_depth`` requests in
        flight, so a one-record read (a manifest, a code file) costs one
        round trip; payload bytes all cross the (shared-bandwidth) link.
        The difference between ``len(digests)`` serial round-trips and the
        windows actually paid lands in :attr:`round_trips_saved`.  Hot-chunk
        cache hits never reach this hook, so cached recoveries are free.
        """
        payloads = super()._fetch_many(digests, crc, crcs)
        n = len(payloads)
        if n == 0:
            return payloads
        total = sum(len(data) for data in payloads.values())
        windows = -(-n // self.pipeline_depth)  # ceil division
        self._charge(total, round_trips=windows)
        with self._accounting_lock:
            self.bytes_received += total
            self.round_trips_saved += n - windows
        self._obs_bytes_received.inc(total)
        self._obs_round_trips_saved.inc(n - windows)
        return payloads

    def has_chunk(self, digest: str) -> bool:
        """Existence probe; costs one digest round-trip."""
        self._send(self.CHUNK_QUERY_BYTES)
        return super().has_chunk(digest)

    def reset_accounting(self) -> None:
        """Zero the accumulated transfer time and byte counters."""
        with self._accounting_lock:
            self.simulated_seconds = 0.0
            self.bytes_sent = 0
            self.bytes_received = 0
            self.chunks_deduplicated = 0
            self.chunk_bytes_deduplicated = 0
            self.round_trips = 0
            self.round_trips_saved = 0
