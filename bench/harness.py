"""Shared pieces of the benchmark: op recording, spans, proxies, digests.

Nothing here knows a workload.  The benchmark measures the program from
outside: client operations are timed by :class:`Recorder`, and in a traced
run the stores, the save service and the manager are replaced by
:class:`Traced` delegating wrappers that record one span per call into the
layer's public functions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

perf = time.perf_counter


def add_src_to_path() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program next to it, never an installed
    copy, so a missing ``src/repro`` is an error and not a fallback.
    """
    src = REPO / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench: {src}/repro not found; run from a full checkout")
    sys.path.insert(0, str(src))


# -- numbers ----------------------------------------------------------------


def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(np.array(values), q)) if values else 0.0


def state_digest(state: dict) -> str:
    """Order-independent bitwise digest of a state dict."""
    h = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        h.update(key.encode())
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        if array.nbytes:
            h.update(memoryview(array).cast("B"))
    return h.hexdigest()


def state_nbytes(state: dict) -> int:
    return sum(int(np.asarray(array).nbytes) for array in state.values())


def perturb(state: dict, keys, amount: float) -> None:
    """Change the named float layers in place (the arrays are the model's)."""
    delta = np.float32(amount)
    for key in keys:
        state[key] += delta


def float_layers(state: dict) -> list[str]:
    return [key for key, array in state.items() if array.dtype.kind == "f"]


# -- the host's speed ----------------------------------------------------------
#
# The sandbox is a few cores of a shared host whose speed for this kind of
# program moves by a factor of 1.5 to 3 for minutes at a time (wall and CPU
# time alike, no steal reported), which no run length inside the time the
# benchmark is given averages out.  So the timed phase is interleaved with
# fixed reference work of the two kinds the store's own code is made of,
# and every end-to-end time is reported as it would read on the quiet box:
# divided by how much slower than nominal the reference work ran around it.

_DOCUMENTS = [
    {"_id": f"model-{index}", "use_case": f"uc-{index % 16}",
     "layers": {f"layer-{layer}": f"{index * 131 + layer:064x}" for layer in range(24)}}
    for index in range(120)
]


def _probe_interpret() -> None:
    """Bytecode and small-integer arithmetic."""
    total = 0
    for index in range(60_000):
        total += index * index % 7


def _probe_objects() -> None:
    """Allocation, deep copies and JSON of catalog-like documents."""
    copy.deepcopy(_DOCUMENTS[:40])
    json.loads(json.dumps(_DOCUMENTS))


#: reference work, and the seconds it takes on this box when the host is quiet
PROBES = ((_probe_interpret, 4.0e-3), (_probe_objects, 2.4e-3))


def host_factor() -> float:
    """How many times slower than on the quiet box reference work runs now:
    the geometric mean over the probes of best-of-two time ÷ nominal time."""
    factor = 1.0
    for probe, nominal in PROBES:
        best = float("inf")
        for _ in range(2):
            started = perf()
            probe()
            best = min(best, perf() - started)
        factor *= best / nominal
    return factor ** (1.0 / len(PROBES))


# -- process and disk -------------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def write_bytes(pid: int | str = "self") -> int | None:
    """``write_bytes`` from ``/proc/<pid>/io``; ``None`` where unreadable."""
    try:
        with open(f"/proc/{pid}/io") as handle:
            for line in handle:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def dir_bytes(*roots) -> int:
    """Apparent size of every regular file under ``roots``."""
    total = 0
    for root in roots:
        for dirpath, _dirs, names in os.walk(root):
            for name in names:
                try:
                    total += os.lstat(os.path.join(dirpath, name)).st_size
                except FileNotFoundError:
                    pass  # a tmp file renamed away mid-walk
    return total


def filesystem_type(path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _dev, mount, kind = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) >= len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


# -- spans ------------------------------------------------------------------


class SpanLog:
    """In-memory span log of one traced run, written out when it ends.

    A row is ``[name, start, end, parent, op]``: ``parent`` is the row
    index of the enclosing span (``None`` for a client operation) and
    ``op`` the id of the client operation the call served.  Calls arrive
    on the driver's thread only, so one stack gives the nesting.  Set-up,
    warm-up and the final checks are logged too; ``timed`` tells them from
    the timed phase.
    """

    def __init__(self):
        self.rows: list[list] = []
        self.timed: list[range] = []  # row indices of the timed phases
        self._stack: list[int] = []
        self._op = 0
        self._timed_from = 0

    def begin_timed(self) -> None:
        self._timed_from = len(self.rows)

    def end_timed(self) -> None:
        self.timed.append(range(self._timed_from, len(self.rows)))

    def open(self, name: str, new_op: bool = False) -> int:
        if new_op:
            self._op += 1
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append([name, perf(), None, parent, self._op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.rows[index][2] = perf()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A client operation timed by the caller (concurrent connections
        overlap, so they cannot use the stack)."""
        self._op += 1
        self.rows.append([name, start, end, None, self._op])

    def wrap(self, name: str, function, on_result=None):
        """``function`` with a span around every call."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(name, result)
            return result

        return traced

    def records(self, workload: str) -> list[dict]:
        """The rows as ``breakdown.py`` reads them back."""
        timed = {index for rows in self.timed for index in rows}
        return [
            {"workload": workload, "span": index, "name": name, "start": start,
             "end": end, "parent": parent, "op": op, "timed": index in timed}
            for index, (name, start, end, parent, op) in enumerate(self.rows)
        ]


def write_spans(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class Traced:
    """Delegating wrapper: a call to ``inner.method`` becomes a span.

    Spans are named ``<layer>.<method>`` unless ``rename`` gives the full
    name.  Everything that is not a method (``root``, ``chunks``,
    ``chunk_cache``, ``documents`` …) reads straight through, so the
    program sees the object it was built for.
    """

    def __init__(self, inner, layer: str, spans: SpanLog, rename=None, on_result=None):
        self.__dict__.update(
            _inner=inner, _layer=layer, _spans=spans,
            _rename=rename or {}, _on_result=on_result,
        )

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if name.startswith("__") or not callable(value):
            return value
        span_name = self._rename.get(name, f"{self._layer}.{name}")
        traced = self._spans.wrap(span_name, value, self._on_result)
        self.__dict__[name] = traced  # bound methods are stable: wrap once
        return traced

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)


class TracedDocuments(Traced):
    """A document store whose collections are traced, not the lookup."""

    def __init__(self, inner, layer: str, spans: SpanLog):
        super().__init__(inner, layer, spans)
        self.__dict__["_collections"] = {}

    def collection(self, name: str):
        traced = self._collections.get(name)
        if traced is None:
            traced = Traced(self._inner.collection(name), self._layer, self._spans)
            self._collections[name] = traced
        return traced


# -- client operations ------------------------------------------------------


class Recorder:
    """Times client operations and counts the ones that fail.

    ``attempted`` and ``failed`` run over the whole life of the workload
    (warm-up and final verification included: a wrong answer there is as
    wrong); ``durations`` holds what ran while ``timing`` was on.
    """

    MAX_ERRORS = 20

    def __init__(self, spans: SpanLog | None = None):
        self.spans = spans
        self.timing = False  # set-up, warm-up and verification are not timed
        self.durations: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def op(self, kind: str, function, *args, **kwargs):
        """Run one operation; returns its result, or ``None`` if it raised."""
        self.attempted += 1
        index = self.spans.open(f"client.{kind}", new_op=True) if self.spans else None
        started = perf()
        try:
            result = function(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = perf() - started
            if index is not None:
                self.spans.close(index)
        if self.timing:
            self.durations.setdefault(kind, []).append(elapsed)
        return result

    def record(self, kind: str, elapsed: float) -> None:
        """An operation timed by the caller (the asyncio driver)."""
        self.attempted += 1
        if self.timing:
            self.durations.setdefault(kind, []).append(elapsed)

    def check(self, what: str, ok: bool) -> None:
        """A correctness check on an operation already counted."""
        if not ok:
            self.fail(what)

    def counts(self) -> dict[str, int]:
        return {kind: len(values) for kind, values in self.durations.items()}

    @property
    def timed_ops(self) -> int:
        return sum(len(values) for values in self.durations.values())

    def all_durations(self) -> list[float]:
        return [value for values in self.durations.values() for value in values]


class Epochs:
    """The timed phase: whole cycles, in one epoch after each set-up.

    A row is one cycle: its epoch, its wall time, how many operations of
    each kind had been timed when it ended, and the host factor around it
    (the mean of the samples before and after; the probes run between
    cycles, outside every timing).  ``quiet_*`` are the times as they
    would read on the quiet box: divided by their cycle's host factor.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.rows: list[dict] = []
        self.epoch = -1
        self._factor = 1.0

    def begin(self) -> None:
        self.epoch += 1
        self._factor = host_factor()
        self.recorder.timing = True

    def cycle_done(self, started: float) -> None:
        wall = perf() - started
        before, self._factor = self._factor, host_factor()
        self.rows.append({
            "epoch": self.epoch, "wall": wall, "counts": self.recorder.counts(),
            "host": (before + self._factor) / 2,
        })

    def end(self) -> None:
        self.recorder.timing = False

    def wall_seconds(self) -> float:
        return sum(row["wall"] for row in self.rows)

    def quiet_seconds(self) -> float:
        return sum(row["wall"] / row["host"] for row in self.rows)

    def quiet_durations(self) -> dict[str, list[float]]:
        quiet: dict[str, list[float]] = {}
        done: dict[str, int] = {}
        for row in self.rows:
            for kind, count in row["counts"].items():
                values = self.recorder.durations[kind][done.get(kind, 0):count]
                quiet.setdefault(kind, []).extend(v / row["host"] for v in values)
            done = row["counts"]
        return quiet

    def epoch_factor(self, epoch: int) -> float:
        """The host factor set-up ``epoch`` is judged by: its cycles' median."""
        return median(row["host"] for row in self.rows if row["epoch"] == epoch)
