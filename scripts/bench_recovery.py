#!/usr/bin/env python
"""Recovery-plane benchmark: serial vs. pipelined transfer accounting.

Builds a multi-snapshot chain per approach (BA full snapshots, PUA
parameter-update chain, MPA provenance chain with training replay) in a
simulated network deployment, then measures tip-model recovery twice:

* **serial** — the pre-parallel-plane configuration: one chunk per
  round-trip, no hot-chunk cache;
* **pipelined** — concurrent chunk fetches with ``pipeline_depth``
  requests per latency window and a shared hot-chunk cache.

Costs come from :class:`SimulatedNetworkFileStore` with ``sleep=False``:
``simulated_seconds`` is the modelled link time (latency windows plus
shared-bandwidth byte time), and ``round_trips``/``round_trips_saved``
report how many latency payments pipelining avoided.  Both an InfiniBand
(paper §4.1) and an LTE link (the motivating fleet uplink) are measured.

A chain-depth sweep rides along: PUA tip recovery at depths 1/4/8/16
with and without :class:`ChainCompactor` at K=4 (a PUA model is its own
recovery base, so the compactor plans nothing there and the sweep is
flat), plus a crash injected mid-compaction of an MPA replay chain (one
fsck pass must leave the store clean and recovery must stay bitwise).

Writes ``BENCH_recovery.json`` into ``benchmarks/results/`` (canonical;
copied to the repo root).  Exit status is non-zero unless pipelined
recovery is >= 2x faster than serial on the PUA chain over LTE and
compacted depth-16 recovery is <= 2x depth-1 (``--no-check`` records
without enforcing).

Usage::

    python scripts/bench_recovery.py [--snapshots 6] [--scale 0.25]
                                     [--workers 8] [--pipeline-depth 8]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import ModelSaveInfo  # noqa: E402
from repro.core.save_info import ArchitectureRef  # noqa: E402
from repro.distsim import SharedStores, make_service  # noqa: E402
from repro.filestore import CELLULAR_LTE, INFINIBAND_100G  # noqa: E402
from repro.nn.models import MODEL_REGISTRY, create_model  # noqa: E402
from repro.workloads import ChainConfig, PARTIALLY_UPDATED, build_chain  # noqa: E402

NUM_CLASSES = 100
SCHEMA_VERSION = 2
LINKS = {"infiniband": INFINIBAND_100G, "lte": CELLULAR_LTE}
COMPACTION_DEPTHS = (1, 4, 8, 16)
COMPACTION_K = 4


def arch_ref(name: str, scale: float) -> ArchitectureRef:
    spec = MODEL_REGISTRY[name]
    return ArchitectureRef.from_factory(
        spec.factory.__module__,
        spec.factory.__name__,
        {"num_classes": NUM_CLASSES, "scale": scale},
    )


def perturb_classifier(model, level: float) -> None:
    """In-place partial update: only the final two layers change."""
    state = model.state_dict()
    for key in list(state)[-2:]:
        state[key] = state[key] + level
    model.load_state_dict(state)


def make_stores(workdir: Path, mode: str, args) -> SharedStores:
    if mode == "serial":
        return SharedStores.at(
            workdir, network=CELLULAR_LTE, workers=0, pipeline_depth=1,
            chunk_cache_bytes=0,
        )
    return SharedStores.at(
        workdir, network=CELLULAR_LTE, workers=args.workers,
        pipeline_depth=args.pipeline_depth,
        chunk_cache_bytes=args.chunk_cache_mb * 1024 * 1024,
    )


def build_ba_chain(service, scale: float, snapshots: int) -> str:
    """Independent full snapshots; returns the tip model id."""
    arch = arch_ref("mobilenetv2", scale)
    model = create_model("mobilenetv2", num_classes=NUM_CLASSES, scale=scale, seed=3)
    tip = None
    for level in range(snapshots):
        if level:
            perturb_classifier(model, 0.01 * level)
        tip = service.save_model(ModelSaveInfo(model, arch))
    return tip


def build_pua_chain(service, scale: float, snapshots: int) -> str:
    """One full snapshot plus a chain of parameter updates; returns the tip."""
    arch = arch_ref("mobilenetv2", scale)
    model = create_model("mobilenetv2", num_classes=NUM_CLASSES, scale=scale, seed=3)
    tip = service.save_model(ModelSaveInfo(model, arch))
    for level in range(1, snapshots):
        perturb_classifier(model, 0.01 * level)
        tip = service.save_model(
            ModelSaveInfo(model, arch, base_model_id=tip)
        )
    return tip


def build_mpa_chain(service, chain) -> str:
    """Provenance chain from the pre-built workloads chain; returns the tip."""
    ids: list[str] = []
    for step in chain.steps:
        if not step.use_case.startswith(("U_1", "U_3-1")):
            continue  # one linear branch is enough for a recovery chain
        model = chain.build_model(step.use_case)
        if step.run is None:
            save_info = ModelSaveInfo(
                model, chain.config.architecture_ref(), use_case=step.use_case
            )
        else:
            save_info = step.run.to_provenance_info(
                ids[-1], trained_model=model, use_case=step.use_case
            )
        ids.append(service.save_model(save_info))
    return ids[-1]


def measure(service, store, network, tip: str) -> dict:
    """Recover the tip model over ``network`` with cold caches."""
    store.network = network
    if store.chunk_cache is not None:
        store.chunk_cache.clear()
    store.reset_accounting()
    started = time.perf_counter()
    service.recover_model(tip, verify=False)
    wall_ms = (time.perf_counter() - started) * 1e3
    return {
        "simulated_seconds": round(store.simulated_seconds, 6),
        "round_trips": store.round_trips,
        "round_trips_saved": store.round_trips_saved,
        "bytes_received": store.bytes_received,
        "wall_ms": round(wall_ms, 2),
    }


def bench_approach(name: str, workdir: Path, args, chain=None) -> dict:
    scenario: dict = {}
    for mode in ("serial", "pipelined"):
        stores = make_stores(workdir / f"{name}-{mode}", mode, args)
        approach = {"BA": "baseline", "PUA": "param_update", "MPA": "provenance"}[name]
        service = make_service(approach, stores)
        if name == "BA":
            tip = build_ba_chain(service, args.scale, args.snapshots)
        elif name == "PUA":
            tip = build_pua_chain(service, args.scale, args.snapshots)
        else:
            tip = build_mpa_chain(service, chain)
        scenario[mode] = {
            link: measure(service, stores.files, network, tip)
            for link, network in LINKS.items()
        }
    for link in LINKS:
        serial_s = scenario["serial"][link]["simulated_seconds"]
        piped_s = scenario["pipelined"][link]["simulated_seconds"]
        scenario[f"speedup_{link}"] = round(serial_s / piped_s, 3) if piped_s else None
    return scenario


def bench_chain_depth(workdir: Path, args) -> dict:
    """PUA tip recovery versus chain depth, before and after bounded
    compaction at K=``COMPACTION_K`` rewrote the chain in place."""
    from repro.core import ModelManager

    scenario: dict = {"max_depth": COMPACTION_K, "depths": {}}
    for depth in COMPACTION_DEPTHS:
        stores = make_stores(workdir / f"compaction-{depth}", "pipelined", args)
        service = make_service("param_update", stores)
        tip = build_pua_chain(service, args.scale, depth + 1)
        entry: dict = {
            "without_compaction": measure(service, stores.files, CELLULAR_LTE, tip)
        }
        report = ModelManager(service).compact(max_depth=COMPACTION_K)
        entry["materialized"] = len(report["materialized"])
        entry["with_compaction"] = measure(service, stores.files, CELLULAR_LTE, tip)
        scenario["depths"][str(depth)] = entry
    base = scenario["depths"]["1"]["without_compaction"]["simulated_seconds"]
    deepest = scenario["depths"][str(COMPACTION_DEPTHS[-1])]
    if base:
        scenario["ttr_ratio_uncompacted"] = round(
            deepest["without_compaction"]["simulated_seconds"] / base, 3
        )
        scenario["ttr_ratio_compacted"] = round(
            deepest["with_compaction"]["simulated_seconds"] / base, 3
        )
    return scenario


def bench_crash_mid_compaction(workdir: Path, args, chain) -> dict:
    """Kill the compactor of an MPA replay chain (the one kind a compaction
    rewrites) after the commit point but before cleanup: one fsck pass
    leaves nothing unrepaired, a second is clean, and the tip still
    recovers bitwise."""
    import numpy as np

    from repro.core import ModelManager
    from repro.core.compaction import ChainCompactor
    from repro.faults import CrashPoint, FaultInjector

    stores = make_stores(workdir / "compaction-crash", "serial", args)
    service = make_service("provenance", stores)
    tip = build_mpa_chain(service, chain)
    expected = service.recover_model(tip).model.state_dict()
    faults = FaultInjector(seed=0)
    compactor = ChainCompactor(service, max_depth=1)
    compactor.fault_hook = faults.fail_point
    faults.arm_crash(1, op="compact.cleanup")
    crashed = False
    try:
        compactor.run()
    except CrashPoint:
        crashed = True
    manager = ModelManager(service)
    report = manager.fsck()
    after = service.recover_model(tip, verify=True)  # raises on any mismatch
    state = after.model.state_dict()
    return {
        "crashed": crashed,
        "repaired_kinds": sorted({issue.kind for issue in report.repaired}),
        "unrepaired_issues": len(report.unrepaired),
        "fsck_clean_after_repair": manager.fsck().clean,
        "recovery_depth": after.recovery_depth,
        "recovery_bitwise": list(state) == list(expected) and all(
            np.array_equal(state[key], value) for key, value in expected.items()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshots", type=int, default=6,
                        help="chain length for the BA/PUA scenarios")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="model width scale for the BA/PUA scenarios")
    parser.add_argument("--workers", type=int, default=8,
                        help="concurrent chunk transfers in pipelined mode")
    parser.add_argument("--pipeline-depth", type=int, default=8,
                        help="in-flight requests per latency window")
    parser.add_argument("--chunk-cache-mb", type=int, default=128,
                        help="hot-chunk cache size in pipelined mode")
    parser.add_argument("--no-check", action="store_true",
                        help="record results without enforcing the 2x bar")
    args = parser.parse_args()

    results = {
        "generated_by": "scripts/bench_recovery.py",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "snapshots": args.snapshots,
            "scale": args.scale,
            "num_classes": NUM_CLASSES,
            "workers": args.workers,
            "pipeline_depth": args.pipeline_depth,
            "chunk_cache_mb": args.chunk_cache_mb,
            "links": {
                name: {
                    "bandwidth_bytes_per_s": model.bandwidth_bytes_per_s,
                    "latency_s": model.latency_s,
                }
                for name, model in LINKS.items()
            },
        },
        "scenarios": {},
    }

    workdir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    try:
        mpa_chain = build_chain(
            workdir / "chain-cache",
            ChainConfig(
                architecture="mobilenetv2", relation=PARTIALLY_UPDATED,
                scale=0.125, num_classes=10, iterations=2, u2_epochs=1,
                u3_epochs=1, batches_per_epoch=1, dataset_scale=1 / 2048,
                image_size=16,
            ),
        )
        for name in ("BA", "PUA", "MPA"):
            print(f"== {name}: serial vs pipelined recovery ==")
            scenario = bench_approach(name, workdir, args, chain=mpa_chain)
            results["scenarios"][name] = scenario
            for link in LINKS:
                serial = scenario["serial"][link]
                piped = scenario["pipelined"][link]
                print(
                    f"  {link:10s} serial {serial['simulated_seconds']:.3f}s "
                    f"({serial['round_trips']} RTs) -> pipelined "
                    f"{piped['simulated_seconds']:.3f}s ({piped['round_trips']} RTs, "
                    f"{piped['round_trips_saved']} saved)  "
                    f"x{scenario[f'speedup_{link}']}"
                )

        print(f"== chain depth: TTR with/without compaction (K={COMPACTION_K}) ==")
        chain_depth = bench_chain_depth(workdir, args)
        chain_depth["crash_mid_compaction"] = bench_crash_mid_compaction(
            workdir, args, mpa_chain
        )
        results["scenarios"]["chain_depth"] = chain_depth
        for depth in COMPACTION_DEPTHS:
            entry = chain_depth["depths"][str(depth)]
            print(
                f"  depth {depth:2d}: "
                f"{entry['without_compaction']['simulated_seconds']:.3f}s -> "
                f"{entry['with_compaction']['simulated_seconds']:.3f}s "
                f"compacted ({entry['materialized']} materialized)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pua_lte = results["scenarios"]["PUA"]["speedup_lte"]
    chain_depth = results["scenarios"]["chain_depth"]
    base_s = chain_depth["depths"]["1"]["without_compaction"]["simulated_seconds"]
    deep = chain_depth["depths"][str(COMPACTION_DEPTHS[-1])]
    deep_s = deep["with_compaction"]["simulated_seconds"]
    crash = chain_depth["crash_mid_compaction"]
    results["acceptance"] = {
        "pua_lte_speedup": pua_lte,
        "meets_2x": bool(pua_lte and pua_lte >= 2.0),
        "compacted_depth16_vs_depth1": round(deep_s / base_s, 3) if base_s else None,
        "compaction_bounds_ttr": bool(base_s and deep_s <= 2.0 * base_s),
        "crash_recovery_bitwise": bool(
            crash["crashed"] and crash["recovery_bitwise"]
            and crash["fsck_clean_after_repair"] and crash["unrepaired_issues"] == 0
        ),
    }

    from _bench_results import write_results

    write_results("BENCH_recovery.json", results)

    gates = ("meets_2x", "compaction_bounds_ttr", "crash_recovery_bitwise")
    failed = [gate for gate in gates if not results["acceptance"][gate]]
    if not args.no_check and failed:
        print(
            f"FAIL: acceptance gates not met: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
