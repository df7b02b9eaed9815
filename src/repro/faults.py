"""Deterministic fault injection for chaos-testing the storage stack.

The evaluation cluster (§4.1) is reliable; the motivating fleet (§1) is
not.  :class:`FaultInjector` simulates the unreliable world inside the
reliable one: the file store and the document store call its hooks at
every operation boundary, and the injector — driven by a seeded PRNG, so
every chaos run is reproducible — decides whether that operation suffers
a transient I/O error, a torn (partial) write, bit-flip corruption of the
bytes read, a latency spike, a document-store outage, or a simulated
process death (:class:`CrashPoint`) at an exact operation index.

Wire-up::

    faults = FaultInjector(seed=7, error_rate=0.1, corrupt_rate=0.02)
    retry = RetryPolicy(max_attempts=6)
    files = FileStore(root, faults=faults, retry=retry)
    docs = FaultyDocumentStore(DocumentStore(), faults)
    service = BaselineSaveService(docs, files, retry=retry)

Injected failures always surface as the typed errors from
:mod:`repro.errors` — never as bare ``OSError`` — so retry policies and
tests can tell retryable from fatal.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

from . import obs
from .errors import TransientStoreError

__all__ = ["CrashPoint", "FaultInjector", "FaultyDocumentStore"]


class CrashPoint(BaseException):
    """Simulated process death at an injected crash point.

    Deliberately *not* an :class:`Exception`: a killed process runs no
    ``except Exception`` cleanup, so production error handling (rollback,
    retries) must never observe this.  Only crash-point tests catch it.
    """


class FaultInjector:
    """Seeded source of storage faults, injected at operation boundaries.

    Rates are independent probabilities per operation:

    ``error_rate``
        Transient I/O errors on file/chunk operations.
    ``torn_write_rate``
        Write operations that persist a partial payload and then fail
        (the tear stays on disk: a ``*.tmp`` file for a blob, half a
        record past a segment's end for a chunk).
    ``corrupt_rate``
        Read operations whose returned bytes get one byte flipped —
        in-transit corruption, healed by a re-fetch.
    ``outage_rate``
        Transient errors on document-store operations (ops named
        ``docs.*``).
    ``latency_rate`` / ``latency_s``
        Operations delayed by ``latency_s`` (via the injectable ``sleep``;
        with ``sleep=None`` spikes are only counted, keeping tests fast).

    ``crash_at``/``crash_op`` arm a one-shot :class:`CrashPoint` at the
    Nth matching operation (see :meth:`arm_crash`) for crash-point
    testing: iterate ``crash_at`` over 1..N to kill a save at every step.

    :meth:`set_down` flips a whole-member outage switch: while down,
    *every* hooked operation (file, chunk, and document alike) raises
    :class:`~repro.errors.TransientStoreError` deterministically — the
    machine is off, not flaky.  Chaos schedules use this to kill and
    restore cluster members at exact operation counts.

    ``max_consecutive_failures`` bounds how many times in a row one
    operation may fail, guaranteeing bounded retries eventually succeed
    even at high error rates.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        outage_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_s: float = 0.0,
        sleep: Callable[[float], None] | None = None,
        crash_at: int | None = None,
        crash_op: str = "*",
        max_consecutive_failures: int | None = None,
    ):
        for name, rate in (
            ("error_rate", error_rate),
            ("torn_write_rate", torn_write_rate),
            ("corrupt_rate", corrupt_rate),
            ("outage_rate", outage_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")
        self.error_rate = error_rate
        self.torn_write_rate = torn_write_rate
        self.corrupt_rate = corrupt_rate
        self.outage_rate = outage_rate
        self.latency_rate = latency_rate
        self.latency_s = latency_s
        self.sleep = sleep
        self.max_consecutive_failures = max_consecutive_failures
        self._rng = random.Random(seed)
        # one lock around every fault decision: the parallel save/recover
        # paths hit the injector from worker threads, and an unguarded
        # shared PRNG would make "seeded" chaos runs non-reproducible
        self._lock = threading.RLock()
        self._consecutive: dict[str, int] = {}
        self.stats = {
            "ops": 0,
            "errors": 0,
            "torn_writes": 0,
            "corruptions": 0,
            "outages": 0,
            "latency_spikes": 0,
            "crashes": 0,
        }
        self.crash_at = None
        self.crash_op = "*"
        self._crash_seen = 0
        self.down = False
        self._obs_events = obs.events()
        self._obs_registry = obs.registry()
        if crash_at is not None:
            self.arm_crash(crash_at, op=crash_op)

    def set_down(self, value: bool) -> None:
        """Kill (``True``) or restore (``False``) the faulted member.

        While down every operation boundary raises the retryable
        :class:`~repro.errors.TransientStoreError` — deterministic, rate
        free — so a member wearing this injector behaves like a machine
        that lost power: writes miss it, reads fail over around it, and
        probes see it dead until the switch flips back.
        """
        with self._lock:
            was = self.down
            self.down = bool(value)
            if was != self.down:
                self._record("member_down" if self.down else "member_up", "member")

    def _record(self, kind: str, op: str) -> None:
        """Mirror one injected fault into the registry and event log."""
        self._obs_registry.counter(
            "mmlib_faults_injected_total", "Faults injected by kind",
            kind=kind).inc()
        self._obs_events.emit("fault", fault=kind, op=op)

    # -- crash points ------------------------------------------------------

    def arm_crash(self, at: int, op: str = "*") -> None:
        """Arm a one-shot crash at the ``at``-th matching op from now.

        ``op`` is ``"*"`` (any), an exact name (``"chunk.write"``), or a
        prefix ending in ``.`` (``"docs."``).  The crash fires exactly
        once and disarms itself, so post-crash repair code runs fault-free
        through the same injector.
        """
        if at < 1:
            raise ValueError("crash_at counts operations from 1")
        self.crash_at = int(at)
        self.crash_op = op
        self._crash_seen = 0

    @staticmethod
    def _matches(op: str, pattern: str) -> bool:
        if pattern == "*":
            return True
        if pattern.endswith("."):
            return op.startswith(pattern)
        return op == pattern

    # -- fault decisions ---------------------------------------------------

    def _allowed_to_fail(self, op: str) -> bool:
        if self.max_consecutive_failures is None:
            return True
        return self._consecutive.get(op, 0) < self.max_consecutive_failures

    def _register_failure(self, op: str) -> None:
        self._consecutive[op] = self._consecutive.get(op, 0) + 1

    def fail_point(self, op: str, nbytes: int = 0) -> None:
        """Operation boundary hook: may crash, delay, or raise transiently.

        ``op`` names the operation (``file.write``, ``chunk.read``,
        ``docs.insert_one``, ...); document-store ops use ``outage_rate``,
        everything else ``error_rate``.
        """
        with self._lock:
            self.stats["ops"] += 1
            if self.down:
                self.stats["outages" if op.startswith("docs.") else "errors"] += 1
                self._record("outage", op)
                raise TransientStoreError(
                    f"member is down: {op!r} is unreachable"
                )
            if self.crash_at is not None and self._matches(op, self.crash_op):
                self._crash_seen += 1
                if self._crash_seen >= self.crash_at:
                    self.crash_at = None  # one-shot: repair code must run clean
                    self.stats["crashes"] += 1
                    self._record("crash", op)
                    raise CrashPoint(
                        f"injected crash at {op!r} (op #{self.stats['ops']})"
                    )
            if self.latency_rate and self._rng.random() < self.latency_rate:
                self.stats["latency_spikes"] += 1
                self._record("latency_spike", op)
                if self.sleep is not None and self.latency_s > 0:
                    self.sleep(self.latency_s)
            is_docs = op.startswith("docs.")
            rate = self.outage_rate if is_docs else self.error_rate
            if rate and self._rng.random() < rate and self._allowed_to_fail(op):
                self._register_failure(op)
                if is_docs:
                    self.stats["outages"] += 1
                    self._record("outage", op)
                    raise TransientStoreError(
                        f"injected document-store outage during {op!r}"
                    )
                self.stats["errors"] += 1
                self._record("error", op)
                raise TransientStoreError(f"injected transient I/O error during {op!r}")
            self._consecutive[op] = 0

    def torn_write(self, op: str) -> bool:
        """Should this write persist only a partial payload and fail?"""
        with self._lock:
            if self.torn_write_rate and self._rng.random() < self.torn_write_rate:
                if self._allowed_to_fail(op):
                    self._register_failure(op)
                    self.stats["torn_writes"] += 1
                    self._record("torn_write", op)
                    return True
            return False

    def corrupt(self, op: str, data: bytes) -> bytes:
        """Maybe flip one byte of ``data`` (in-transit read corruption)."""
        with self._lock:
            if not data or not self.corrupt_rate:
                return data
            if self._rng.random() < self.corrupt_rate:
                self.stats["corruptions"] += 1
                self._record("corruption", op)
                index = self._rng.randrange(len(data))
                corrupted = bytearray(data)
                corrupted[index] ^= 0xFF
                return bytes(corrupted)
            return data


class _FaultyCollection:
    """Collection proxy injecting a fault point before each operation."""

    def __init__(self, collection, faults: FaultInjector):
        self._collection = collection
        self._faults = faults

    def __getattr__(self, name: str):
        attr = getattr(self._collection, name)
        if not callable(attr) or name.startswith("_"):
            return attr
        faults = self._faults

        def wrapped(*args, **kwargs):
            faults.fail_point(f"docs.{name}")
            return attr(*args, **kwargs)

        wrapped.__name__ = name
        return wrapped


class FaultyDocumentStore:
    """Document-store wrapper whose collection ops hit the injector.

    Drop-in for anything exposing ``collection(name)`` — pairs with a
    retry-carrying save service to exercise outage/retry paths without a
    real network.
    """

    def __init__(self, store, faults: FaultInjector):
        self._store = store
        self.faults = faults

    def collection(self, name: str) -> _FaultyCollection:
        return _FaultyCollection(self._store.collection(name), self.faults)

    def __getitem__(self, name: str) -> _FaultyCollection:
        return self.collection(name)

    def __getattr__(self, name: str):
        return getattr(self._store, name)
