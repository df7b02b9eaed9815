"""One benchmark for the model store.

    python3 bench/run.py                       all workloads, plain and traced
    python3 bench/run.py --sets 2 --repeat 5   twice, and compare the two sets
    python3 bench/run.py --smoke               one fixed cycle of each (about 30 s)
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The last form is one run of one workload, what ``BENCHMARK.json`` names as
the command: it prints the metrics by name with their units and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with no proxy installed, in three epochs
of set-up, timed cycles and verification, and reports the times as they
would read on the quiet box (``harness.host_factor``); ``--raw FILE`` also
writes every duration, cycle and host factor.  ``--trace 1`` repeats one
epoch behind the tracing proxies, runs the layer probes, writes
``bench/out/trace-<workload>.jsonl`` and reports the per-layer metrics.
Without ``--workload`` the command runs that form for every workload in
child processes (peak memory is per process) and prints one result record,
also kept in ``bench/out/latest.json``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # imports are part of set-up

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.add_src_to_path()

import numpy  # noqa: E402

from harness import OUT_DIR, REPO, SpanLog, median, ms, perf, write_spans  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}
GATEWAY = "gateway-mixed"
#: the end-to-end metrics that are times: reported as on the quiet box
TIMES = ("setup_s", "tts_ms_p50", "ttr_ms_p50", "query_ms_p50", "ops_s")


# -- one run of one workload --------------------------------------------------


def workload_class(name: str):
    if name == GATEWAY:
        import gateway
        return gateway.GatewayMixed
    import direct
    return direct.WORKLOADS[name]


def ops_per_second(workload) -> float:
    """Timed operations ÷ the cycles' seconds on the quiet box."""
    return workload.recorder.timed_ops / workload.epochs.quiet_seconds()


def end_to_end(workload, import_s: float, setups: list[float], quiet: bool = True) -> dict:
    """The end-to-end metrics; ``quiet=False`` gives them as the clock read."""
    epochs = workload.epochs
    factors = [epochs.epoch_factor(index) if quiet else 1.0
               for index in range(len(setups))]
    durations = epochs.quiet_durations() if quiet else workload.recorder.durations
    seconds = epochs.quiet_seconds() if quiet else epochs.wall_seconds()
    return {
        "setup_s": import_s / factors[0] + median(
            setup / factor for setup, factor in zip(setups, factors)),
        "tts_ms_p50": ms(median(durations.get("save", []))),
        "ttr_ms_p50": ms(median(durations.get("recover", []))),
        "query_ms_p50": ms(median(durations.get("query", []))),
        "ops_s": workload.recorder.timed_ops / seconds,
        "storage_ratio": statistics.fmean(workload.storage_ratios),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def plain_run(args, workdir: Path) -> tuple[dict, dict, list]:
    """Epochs of set-up, timed cycles and verification: no proxies.

    Set-up has to run several times for its median; each one is followed
    by its share of the timed phase, so none is thrown away and the
    catalogs the cycles run on stay the size set-up made them.
    """
    workload = workload_class(args.workload)(args.seed, workdir, args.smoke)
    try:
        imported = perf() - STARTED
        share = args.seconds / workload.size["setups"]
        cycles = workload.epoch_cycles(share)
        setups = []
        for _ in range(workload.size["setups"]):
            started = perf()
            workload.setup()
            setups.append(perf() - started)
            workload.run(cycles, share)
            workload.finish()
            workload.discard()
    finally:
        workload.close()
    recorder, epochs = workload.recorder, workload.epochs
    as_clocked = end_to_end(workload, imported, setups, quiet=False)
    info = {
        "ops": recorder.counts(), "cycles": len(epochs.rows),
        "timed_seconds": epochs.wall_seconds(),
        "host_factor": median(row["host"] for row in epochs.rows),
        "as_clocked": {name: as_clocked[name] for name in TIMES},
    }
    if args.raw:
        Path(args.raw).write_text(json.dumps({
            **info, "import_s": imported, "setups_s": setups,
            "durations": recorder.durations, "rows": epochs.rows,
            "storage": workload.storage_ratios, "rss": workload.peak_rss_mb(),
        }))
    return end_to_end(workload, imported, setups), info, [recorder]


def traced_direct(args, workdir: Path) -> tuple[dict, dict, list]:
    import breakdown
    import direct
    import layers
    import probes

    cls = direct.WORKLOADS[args.workload]
    plain = cls(args.seed, workdir / "plain", args.smoke)
    share = args.seconds / plain.size["setups"]  # one epoch of the plain run
    epoch = plain.epoch_cycles(share), share
    plain.setup()
    plain.run(*epoch)
    plain_ops_s = ops_per_second(plain)
    plain.discard()

    spans = SpanLog()
    traced = cls(args.seed, workdir / "traced", args.smoke, spans)
    traced.setup()
    chunks_before = layers.chunk_counters()
    traced.run(*epoch)
    chunks_after = layers.chunk_counters()
    traced.finish()
    recorder = traced.recorder
    saves = len(recorder.durations.get("save", []))
    records = spans.records(args.workload)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.client_metrics(recorder.durations))
    metrics.update(layers.span_metrics(records, saves))
    metrics.update(layers.recover_metrics(traced.recover_timings, traced.recover_depths))
    metrics.update(layers.document_metrics(traced.documents))
    metrics.update(probes.all_probes(
        traced.state, traced.changing, workdir / "probe", traced.file_store_options,
        args.smoke))
    cache = traced.files.chunk_cache
    metrics.update(layers.chunk_metrics(
        chunks_after["logical"] - chunks_before["logical"],
        chunks_after["dedup"] - chunks_before["dedup"],
        cache.stats() if cache is not None else {}))
    metrics.update({
        "core.compaction.released_bytes": traced.maintenance.get("released_bytes", 0),
        "filestore.chunks.segments_compacted":
            traced.maintenance.get("segments_compacted", 0),
        "filestore.chunks.bytes_reclaimed": traced.maintenance.get("bytes_reclaimed", 0),
        "obs.trace_overhead_pct": (plain_ops_s / ops_per_second(traced) - 1) * 100,
    })
    if saves:
        for key, value in traced.device.items():
            metrics[f"device.{key}_per_save"] = value / saves
    if traced.io_before is not None and traced.saved_bytes:
        metrics["device.write_bytes_per_logical_byte"] = (
            (traced.io_after - traced.io_before) / traced.saved_bytes)

    write_spans(records, OUT_DIR / f"trace-{args.workload}.jsonl")
    info = {
        "ops": recorder.counts(), "timed_seconds": traced.epochs.wall_seconds(),
        "spans": len(records),
        "attributed_share": breakdown.attributed_share(records),
    }
    return metrics, info, [plain.recorder, recorder]


def traced_gateway(args, workdir: Path) -> tuple[dict, dict, list]:
    import breakdown
    import gateway
    import layers
    import probes

    spans = SpanLog()
    socket = gateway.GatewayMixed(args.seed, workdir / "socket", args.smoke, spans)
    share = args.seconds / socket.size["setups"]  # one epoch of the plain run
    epoch = socket.epoch_cycles(share), share
    try:
        socket.setup()
        socket.run(*epoch)
        socket.finish()
    finally:
        socket.close()
    plain = gateway.Replica(args.seed, workdir / "replica-plain", socket.size, None)
    plain_wall = plain.run(*epoch)
    plain_ops_s = plain.recorder.timed_ops / plain_wall
    replica = gateway.Replica(args.seed, workdir / "replica-traced", socket.size, spans)
    replica_wall = replica.run(*epoch)

    records = spans.records(args.workload)
    over_wire, in_process = socket.recorder.durations, plain.recorder.durations
    saves = len(replica.recorder.durations.get("save", []))
    wire_saves = len(over_wire.get("save", []))
    stats = socket.stats_after
    admitted = socket.stats_delta(
        "mmlib_gateway_admission_total", outcome="admitted")
    shed = sum(
        socket.stats_delta("mmlib_gateway_admission_total", outcome=outcome)
        for outcome in ("shed_overloaded", "shed_quota"))
    server_means = socket.server_means()
    conn = replica.connections[0]

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.client_metrics(over_wire))
    metrics.update(layers.span_metrics(records, saves))
    metrics.update(layers.recover_metrics(replica.recover_timings, replica.recover_depths))
    metrics.update(layers.document_metrics(replica.stores.documents))
    metrics.update(probes.all_probes(
        conn.state, conn.last_layer, workdir / "probe", {}, args.smoke))
    metrics.update(layers.chunk_metrics(
        socket.stats_delta("mmlib_chunks_logical_bytes_total"),
        socket.stats_delta("mmlib_chunks_dedup_bytes_total"),
        stats.get("chunk_cache", {})))
    metrics.update({
        "gateway.ping_ms_p50": ms(median(socket.pings)),
        "gateway.server_save_ms_mean": ms(server_means["save"]),
        "gateway.server_recover_ms_mean": ms(server_means["recover"]),
        "gateway.overhead_save_ms_p50": ms(
            median(over_wire.get("save", [])) - median(in_process.get("save", []))),
        "gateway.overhead_recover_ms_p50": ms(
            median(over_wire.get("recover", []))
            - median(in_process.get("recover", []))),
        "gateway.admission_rejected_share":
            shed / (admitted + shed) if admitted + shed else 0.0,
        "gateway.maintenance_runs": socket.stats_delta(
            "mmlib_gateway_maintenance_total", kind="compaction"),
        "obs.trace_overhead_pct":
            (plain_ops_s / (replica.recorder.timed_ops / replica_wall) - 1) * 100,
    })
    for plane in ("cluster_files", "cluster_docs"):
        for counter in ("degraded_writes", "failover_reads", "read_repairs"):
            metrics[f"cluster.{counter}"] += stats.get(plane, {}).get(counter, 0)
    if wire_saves:
        for key, family in (("fsyncs", "mmlib_chunk_fsyncs_total"),
                            ("fsync_batches", "mmlib_segment_fsync_batches_total"),
                            ("files_created", "mmlib_chunk_files_created_total")):
            metrics[f"device.{key}_per_save"] = socket.stats_delta(family) / wire_saves
        if socket.io_before is not None:
            metrics["device.write_bytes_per_logical_byte"] = (
                (socket.io_after - socket.io_before) / (wire_saves * socket.state_bytes))

    write_spans(records, OUT_DIR / f"trace-{args.workload}.jsonl")
    info = {
        "ops": socket.recorder.counts(), "timed_seconds": socket.epochs.wall_seconds(),
        "spans": len(records),
        "attributed_share": breakdown.attributed_share(records),
    }
    return metrics, info, [socket.recorder, plain.recorder, replica.recorder]


def run_workload(args) -> int:
    """The command of BENCHMARK.json: one run, one result line."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(
        prefix=f"work-{args.workload}-", dir=args.workdir or OUT_DIR))
    # a terminated run still removes its stores and stops its server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not args.trace:
            metrics, info, recorders = plain_run(args, workdir)
            listed = END_TO_END
        else:
            run = traced_gateway if args.workload == GATEWAY else traced_direct
            metrics, info, recorders = run(args, workdir)
            listed = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(recorder.attempted for recorder in recorders)
    failed = sum(recorder.failed for recorder in recorders)
    for recorder in recorders:
        for error in recorder.errors:
            print(f"FAILED {error}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failed_ops_share=failed / attempted)
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name in listed:
        print(f"  {name:<42} {metrics[name]:>14.4f} {listed[name]['unit']}")
    print(f"  {'failed_ops_share':<42} {failed / attempted:>14.4f} share")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": listed[name]["unit"]}
            for name in listed
        },
    }))
    return 0 if failed == 0 else 1


# -- every workload, in child processes ---------------------------------------


def start_child(args, workload: str, trace: int, seed: int) -> subprocess.Popen:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.workdir:
        command += ["--workdir", args.workdir]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def child_result(child: subprocess.Popen) -> dict:
    lines = child.communicate()[0].splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"bench: {' '.join(child.args[2:])} gave no result "
                 f"(exit code {child.returncode})")
    result = json.loads(lines[-1])
    result["info"] = next(
        json.loads(line[5:]) for line in lines if line.startswith("info "))
    return result


def fingerprint(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the checkout need not be a git repository
    return {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "repeat": args.repeat,
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        # every save enumerates these: it sets core.environment.collect_ms_p50
        "installed_distributions": sum(1 for _ in importlib.metadata.distributions()),
        "workdir_filesystem": harness.filesystem_type(args.workdir or OUT_DIR),
    }


def run_set(args) -> dict:
    """Every workload: ``--repeat`` plain runs on consecutive seeds, whose
    median is the set's end-to-end value, and one traced run."""
    workloads = {}
    for workload in WORKLOADS:
        first = start_child(args, workload, 0, args.seed)
        if not args.smoke:
            first = child_result(first)  # a timed run has the machine to itself
        traced = child_result(start_child(args, workload, 1, args.seed))
        if args.smoke:
            first = child_result(first)
        plains = [first] + [
            child_result(start_child(args, workload, 0, seed))
            for seed in range(args.seed + 1, args.seed + args.repeat)
        ]
        end_to_end_metrics = {}
        for name, entry in END_TO_END.items():
            runs = [plain["metrics"][name]["value"] for plain in plains]
            end_to_end_metrics[name] = {
                "value": median(runs), "unit": entry["unit"], "runs": runs}
        attempted = traced["attempted"] + sum(plain["attempted"] for plain in plains)
        failed = traced["failed"] + sum(plain["failed"] for plain in plains)
        workloads[workload] = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "failed_ops_share": failed / attempted,
            "ops": first["info"]["ops"], "traced_ops": traced["info"]["ops"],
            "attributed_share": traced["info"]["attributed_share"],
            "end_to_end": end_to_end_metrics, "per_layer": traced["metrics"],
        }
        print(f"\n== {workload} ==  ops {first['info']['ops']}")
        for name, value in {**end_to_end_metrics, **traced["metrics"]}.items():
            print(f"  {name:<42} {value['value']:>14.4f} {value['unit']}")
        print(f"  {'failed_ops_share':<42} {failed / attempted:>14.4f} share")
    return workloads


def compare_sets(first: dict, second: dict) -> bool:
    """Two sets of the same code must agree within the benchmark's bounds."""
    agree = True
    print("\n== agreement of the two sets ==")
    print(f"  {'workload':<14} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for workload in WORKLOADS:
        for name, entry in END_TO_END.items():
            a = first[workload]["end_to_end"][name]["value"]
            b = second[workload]["end_to_end"][name]["value"]
            diff = abs(b - a) / abs(a)
            within = diff <= entry["bound"]
            agree = agree and within
            print(f"  {workload:<14} {name:<14} {a:>12.4f} {b:>12.4f} "
                  f"{diff:>8.2%} {entry['bound']:>6.2f}{'' if within else '  DISAGREE'}")
    return agree


def run_all(args) -> int:
    sets = [run_set(args) for _ in range(args.sets)]
    agree = compare_sets(sets[0], sets[1]) if args.sets == 2 else True
    correct = all(w["correct"] for workloads in sets for w in workloads.values())
    record = {**fingerprint(args), "correct": correct, "sets_agree": agree,
              "workloads": sets[-1]}
    if args.sets == 2:
        record["first_set"] = sets[0]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record)
    (OUT_DIR / "latest.json").write_text(line + "\n")
    print()
    print(line)
    return 0 if correct and agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this one")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates every operation sequence")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="length of the timed phase when the host is quiet")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one fixed cycle of each workload in place of --seconds")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="2: run everything twice and compare (use with --repeat)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="plain runs per workload and set, on consecutive "
                        "seeds; a set reports their median")
    parser.add_argument("--raw", help="with --workload and --trace 0: also write "
                        "every duration, cycle and host factor to this file")
    parser.add_argument("--workdir", help="where the stores live while it runs "
                        "(default: a fresh directory under bench/out)")
    args = parser.parse_args()
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
