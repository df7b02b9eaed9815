"""gateway-mixed: a closed-loop connection to a separate server process.

The driver is one asyncio thread with one ``AsyncGatewayClient``
connection; the server (``serve_proc.py``) is its own process, so the
driver does not share the server's interpreter lock, and with one request
in flight the two processes take turns and never want more than the
box's two cores.  The connection repeats seeded blocks of 5 saves, 12
recovers and 3 finds; a cycle is one block.  After each epoch's cycles the
server is ``kill -9``ed, restarted on the same directories, and every
acked save must recover bitwise.

The traced run adds :class:`Replica`: the same deployment opened in the
driver's process behind tracing proxies and driven through
``tenant.service``, which is where the ``cluster`` layer is timed and what
the socket latencies are compared with.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from repro.core import ArchitectureRef, ModelSaveInfo
from repro.gateway import AsyncGatewayClient
from repro.workloads.serving import serving_mlp

import serve_proc
from harness import (
    BENCH_DIR,
    Epochs,
    Recorder,
    SpanLog,
    Traced,
    TracedDocuments,
    dir_bytes,
    median,
    peak_rss_mb,
    perf,
    perturb,
    state_digest,
    state_nbytes,
    write_bytes,
)

FACTORY_MODULE = "repro.workloads.serving"
FACTORY_NAME = "serving_mlp"
FACTORY = f"{FACTORY_MODULE}:{FACTORY_NAME}"
#: 1.09 MB of state: a 1 MB first layer and a 40 KB last layer
FACTORY_KWARGS = {"in_features": 256, "hidden": 1024}
#: one request in flight: the driver and the server take turns, so the run
#: never wants more than the box's two cores (with two connections the
#: `find` median depended on what the other connection was doing)
CONNECTIONS = 1
BLOCK = ("save",) * 5 + ("recover",) * 12 + ("find",) * 3
ZIPF_SKEW = 1.1
DEADLINE_S = 60.0
STOP_TIMEOUT_S = 60.0


class Connection:
    """One client's seeded operation sequence and what it has been acked."""

    def __init__(self, index: int, seed: int, roots: int):
        self.index = index
        self.use_case = f"conn-{index}"
        self.rng = random.Random(seed * 7919 + index)
        self.model = serving_mlp(**FACTORY_KWARGS, seed=(seed * 2 + index) % 2**31)
        self.state = self.model.state_dict()  # the model's own arrays
        keys = list(self.state)
        self.first_layer, self.last_layer = keys[:2], keys[-2:]
        self.root_count = roots
        #: acked saves in ack order, roots first: ``(model id, digest)``
        self.acked: list[tuple[str, str]] = []
        self.derived = 0
        self._block: list[str] = []
        self._zipf: list[float] = []  # cumulative weights, one per acked id

    def next_op(self) -> str:
        if not self._block:
            self._block = list(BLOCK)
            self.rng.shuffle(self._block)
        return self._block.pop()

    def realign(self) -> None:
        """Start a fresh block, so that a cycle is exactly one block."""
        self._block = []

    def next_save(self) -> tuple[str | None, str]:
        """Change the model for its next save; returns (base id, digest).

        The last layer changes every save and the 1 MB first layer every
        fourth derived one (the roots share theirs); each save derives
        from one of the roots, so depth stays 1.
        """
        amount = self.rng.uniform(1e-3, 2e-3)
        perturb(self.state, self.last_layer, amount)
        base = None
        if len(self.acked) >= self.root_count:
            base = self.rng.choice(self.acked[:self.root_count])[0]
            self.derived += 1
            if self.derived % 4 == 0:
                perturb(self.state, self.first_layer, amount)
        return base, state_digest(self.state)

    def pick_recover(self) -> tuple[str, str]:
        """Zipf(1.1) over the acked ids, the oldest the hottest."""
        for rank in range(len(self._zipf), len(self.acked)):
            weight = 1.0 / (rank + 1) ** ZIPF_SKEW
            self._zipf.append(weight + (self._zipf[-1] if self._zipf else 0.0))
        return self.rng.choices(self.acked, cum_weights=self._zipf)[0]


def _metric_sums(stats: dict, family: str, **labels) -> tuple[float, float]:
    """(sum, count) of one labeled series in a gateway ``stats`` snapshot."""
    for series in stats["metrics"].get(family, {}).get("series", []):
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            if "count" in series:
                return float(series["sum"]), float(series["count"])
            return float(series["value"]), 1.0
    return 0.0, 0.0


class GatewayMixed:
    """The socket run: what a user of the serving deployment sees."""

    name = "gateway-mixed"
    cycle_seconds = 0.95  # one block, on this box when the host is quiet
    sizing = {"setups": 3, "roots": 8, "warmup": 10}
    smoke_sizing = {"setups": 1, "roots": 2, "warmup": 2, "cycles": 1}

    def __init__(self, seed: int, workdir: Path, smoke: bool = False,
                 spans: SpanLog | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = dict(self.sizing, **(self.smoke_sizing if smoke else {}))
        self.spans = spans
        self.recorder = Recorder()
        self.epochs = Epochs(self.recorder)
        self.loop = asyncio.new_event_loop()
        self.server: subprocess.Popen | None = None
        self.clients: list[AsyncGatewayClient] = []
        self.pings: list[float] = []
        self.storage_ratios: list[float] = []
        self._server_peak_rss_mb: list[float] = []
        self._set = 0

    # -- the server process --------------------------------------------------

    def start_server(self) -> int:
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_proc.py"), "--dir", str(self.root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith("READY "):
            self.stop_server(kill=True)
            raise RuntimeError(f"gateway server did not start: {line!r}")
        return int(line.split()[1])

    def stop_server(self, kill: bool = False) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if kill:
            server.send_signal(signal.SIGKILL)
        else:
            server.stdin.close()
        try:
            server.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        for pipe in (server.stdin, server.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    async def connect(self, port: int) -> None:
        self.clients = [
            await AsyncGatewayClient("127.0.0.1", port, serve_proc.TENANT).connect()
            for _ in range(CONNECTIONS)
        ]

    async def disconnect(self) -> None:
        clients, self.clients = self.clients, []
        for client in clients:
            await client.close()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self._set += 1
        self.root = self.workdir / f"set-{self._set}"
        self.connections = [
            Connection(index, self.seed, self.size["roots"])
            for index in range(CONNECTIONS)
        ]
        self.state_bytes = state_nbytes(self.connections[0].state)
        port = self.start_server()
        self.loop.run_until_complete(self._setup(port))

    async def _setup(self, port: int) -> None:
        await self.connect(port)

        async def seed_connection(conn: Connection, client) -> None:
            for _ in range(conn.root_count):
                await self.do_op(conn, client, "save")
            for _ in range(self.size["warmup"]):
                await self.do_op(conn, client, conn.next_op())
            conn.realign()

        await asyncio.gather(*(
            seed_connection(conn, client)
            for conn, client in zip(self.connections, self.clients)
        ))

    def discard(self) -> None:
        self.loop.run_until_complete(self.disconnect())
        self.stop_server(kill=True)
        shutil.rmtree(self.root, ignore_errors=True)

    # -- operations ----------------------------------------------------------

    async def do_op(self, conn: Connection, client, op: str) -> None:
        """One closed-loop client operation, timed as the client sees it."""
        kind = "query" if op == "find" else op
        if op == "save":
            base, digest = conn.next_save()
        elif op == "recover":
            target, digest = conn.pick_recover()
        started = perf()
        try:
            if op == "save":
                model_id = await client.save_model(
                    FACTORY, state=conn.state, factory_kwargs=FACTORY_KWARGS,
                    base=base, use_case=conn.use_case, deadline_s=DEADLINE_S)
            elif op == "recover":
                recovered = await client.recover_model(target, deadline_s=DEADLINE_S)
            else:
                await client.find(use_case=conn.use_case, deadline_s=DEADLINE_S)
        except Exception as exc:  # raised or refused: a failed operation
            self.recorder.attempted += 1
            self.recorder.fail(f"{op}: {type(exc).__name__}: {exc}")
            return
        ended = perf()
        self.recorder.record(kind, ended - started)
        if self.spans is not None:
            self.spans.add(f"gateway.socket.{kind}", started, ended)
        if op == "save":
            conn.acked.append((model_id, digest))
        elif op == "recover":
            self.recorder.check(
                f"recover {target}: state differs from the one saved",
                recovered.verified is True and state_digest(recovered.state) == digest,
            )

    # -- the timed phase -----------------------------------------------------

    def epoch_cycles(self, seconds: float) -> int:
        """Cycles that fill ``seconds`` on the quiet box (fixed in a smoke run)."""
        return self.size.get("cycles") or max(1, round(seconds / self.cycle_seconds))

    def run(self, cycles: int, limit_seconds: float) -> None:
        """One epoch: ``cycles`` whole cycles, cut short after ``limit_seconds``."""
        self.loop.run_until_complete(self._run(cycles, limit_seconds))

    async def _run(self, cycles: int, limit_seconds: float) -> None:
        self.stats_before = await self.clients[0].stats()
        self.io_before = write_bytes(self.server.pid)
        if self.spans is not None:
            self.spans.begin_timed()

        async def block(conn: Connection, client) -> None:
            for _ in BLOCK:
                await self.do_op(conn, client, conn.next_op())

        self.epochs.begin()
        started = perf()
        for _ in range(cycles):
            cycle_started = perf()
            await asyncio.gather(*(
                block(conn, client)
                for conn, client in zip(self.connections, self.clients)
            ))
            self.epochs.cycle_done(cycle_started)  # nothing is in flight
            self.storage_ratios.append(self.storage_ratio())
            if perf() - started > limit_seconds:
                break
        self.epochs.end()
        if self.spans is not None:
            self.spans.end_timed()
        self.io_after = write_bytes(self.server.pid)
        self.stats_after = await self.clients[0].stats()
        for _ in range(50):
            ping_started = perf()
            await self.clients[0].ping()
            self.pings.append(perf() - ping_started)

    def server_means(self) -> dict:
        """Server-side request seconds per op, from the ``stats`` op deltas."""
        out = {}
        for op in ("save", "recover"):
            sum_0, count_0 = _metric_sums(
                self.stats_before, "mmlib_gateway_request_seconds",
                op=op, tenant=serve_proc.TENANT)
            sum_1, count_1 = _metric_sums(
                self.stats_after, "mmlib_gateway_request_seconds",
                op=op, tenant=serve_proc.TENANT)
            count = count_1 - count_0
            out[op] = (sum_1 - sum_0) / count if count else 0.0
        return out

    def stats_delta(self, family: str, **labels) -> float:
        after, _ = _metric_sums(self.stats_after, family, **labels)
        before, _ = _metric_sums(self.stats_before, family, **labels)
        return after - before

    # -- after the timed phase -----------------------------------------------

    def storage_ratio(self) -> float:
        """Bytes on disk ÷ logical parameter bytes of the acked models, now
        (between cycles nothing is in flight)."""
        models = sum(len(conn.acked) for conn in self.connections)
        return dir_bytes(self.root) / (models * self.state_bytes)

    def finish(self) -> None:
        """Crash the server, restart it, recover every acked save, fsck."""
        self._server_peak_rss_mb.append(peak_rss_mb(self.server.pid))
        self.loop.run_until_complete(self.disconnect())
        self.stop_server(kill=True)
        port = self.start_server()
        self.loop.run_until_complete(self._recover_all(port))
        self.stop_server()

        registry = serve_proc.open_registry(serve_proc.open_stores(self.root))
        report = registry.admin_manager().fsck(repair=True, verify_chunks=True)
        self.recorder.attempted += 1
        self.recorder.check(f"fsck: {report.summary()}", not report.unrepaired)

    def peak_rss_mb(self) -> float:
        # the stores run in the server, and every epoch has its own
        return median(self._server_peak_rss_mb)

    async def _recover_all(self, port: int) -> None:
        await self.connect(port)

        async def recover_acked(conn: Connection, client) -> None:
            for model_id, digest in conn.acked:
                self.recorder.attempted += 1
                try:
                    recovered = await client.recover_model(
                        model_id, deadline_s=DEADLINE_S)
                except Exception as exc:
                    self.recorder.fail(
                        f"after restart, recover {model_id}: "
                        f"{type(exc).__name__}: {exc}")
                    continue
                self.recorder.check(
                    f"after restart, {model_id} differs from the acked save",
                    recovered.verified is True
                    and state_digest(recovered.state) == digest,
                )

        try:
            await asyncio.gather(*(
                recover_acked(conn, client)
                for conn, client in zip(self.connections, self.clients)
            ))
        finally:
            await self.disconnect()

    def close(self) -> None:
        """Stop whatever is still running (the error path)."""
        if not self.loop.is_closed():
            if self.clients:
                self.loop.run_until_complete(self.disconnect())
            self.loop.close()
        self.stop_server(kill=True)


class Replica:
    """The same deployment and sequences in the driver's process.

    The connection's sequence goes straight into ``tenant.service`` and
    ``tenant.manager``.  With ``spans`` the sharded
    stores, the service and the manager sit behind tracing proxies.
    """

    def __init__(self, seed: int, root: Path, size: dict, spans: SpanLog | None):
        self.root = Path(root)
        self.size = size
        self.spans = spans
        self.recorder = Recorder(spans)
        self.recover_timings: list[dict] = []
        self.recover_depths: list[int] = []
        stores = serve_proc.open_stores(self.root)
        if spans is not None:
            stores = dataclasses.replace(
                stores,
                documents=TracedDocuments(stores.documents, "cluster.docs", spans),
                files=Traced(stores.files, "cluster.files", spans),
            )
        self.stores = stores
        tenant = serve_proc.open_registry(stores).tenant(serve_proc.TENANT)
        self.service, self.manager = tenant.service, tenant.manager
        if spans is not None:
            self.service = Traced(self.service, "core.service", spans)
            self.manager = Traced(self.manager, "core.manager", spans)
        self.architecture = ArchitectureRef.from_factory(
            FACTORY_MODULE, FACTORY_NAME, FACTORY_KWARGS)
        self.connections = [
            Connection(index, seed, size["roots"]) for index in range(CONNECTIONS)
        ]
        for conn in self.connections:
            for _ in range(conn.root_count):
                self.do_op(conn, "save")
        for _ in range(size["warmup"]):
            for conn in self.connections:
                self.do_op(conn, conn.next_op())
        for conn in self.connections:
            conn.realign()

    def do_op(self, conn: Connection, op: str) -> None:
        if op == "save":
            base, digest = conn.next_save()
            info = ModelSaveInfo(
                model=conn.model, architecture=self.architecture,
                base_model_id=base, use_case=conn.use_case)
            model_id = self.recorder.op("save", self.service.save_model, info)
            if model_id is not None:
                conn.acked.append((model_id, digest))
        elif op == "recover":
            target, digest = conn.pick_recover()
            info = self.recorder.op("recover", self.service.recover_model, target)
            if info is not None:
                if self.recorder.timing:
                    self.recover_timings.append(info.timings)
                    self.recover_depths.append(info.recovery_depth)
                self.recorder.check(
                    f"recover {target}: state differs from the one saved",
                    info.verified is True
                    and state_digest(info.model.state_dict()) == digest,
                )
        else:
            self.recorder.op("query", self.manager.find_by_use_case, conn.use_case)

    def run(self, cycles: int, limit_seconds: float) -> float:
        """The socket run's cycles, one thread; returns wall seconds."""
        if self.spans is not None:
            self.spans.begin_timed()
        self.recorder.timing = True
        started = perf()
        for _ in range(cycles):
            for _ in BLOCK:
                for conn in self.connections:
                    self.do_op(conn, conn.next_op())
            if perf() - started > limit_seconds:
                break
        wall = perf() - started
        self.recorder.timing = False
        if self.spans is not None:
            self.spans.end_timed()
        return wall
