#!/usr/bin/env python
"""CI smoke benchmark for the chunked save/recover pipeline.

Runs the tier-1 test suite, a ~5 second save/recover micro-benchmark on
MobileNetV2, and the observability plane's overhead on the same loop.

Writes ``BENCH_pipeline.json`` into ``benchmarks/results/`` (canonical;
copied to the repo root).  Exit status is non-zero if the tier-1 suite
fails.

Usage::

    python scripts/bench_smoke.py [--skip-tests] [--budget-seconds 5]
                                  [--scale 0.25]
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core import BaselineSaveService, ModelSaveInfo  # noqa: E402
from repro.core.save_info import ArchitectureRef  # noqa: E402
from repro.docstore import DocumentStore  # noqa: E402
from repro.filestore import FileStore  # noqa: E402
from repro.nn.models import MODEL_REGISTRY, create_model  # noqa: E402

NUM_CLASSES = 100


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


def run_tier1_tests() -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "HOME": str(Path.home())},
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - started
    tail = "\n".join(proc.stdout.splitlines()[-3:])
    print(tail)
    return {"ran": True, "passed": proc.returncode == 0, "seconds": round(seconds, 1)}


def micro_benchmark(workdir: Path, budget_seconds: float, scale: float) -> dict:
    """Repeated chunked save/recover of MobileNetV2 within a time budget."""
    service = BaselineSaveService(DocumentStore(), FileStore(workdir / "micro"))
    arch = arch_ref("mobilenetv2", scale)
    model = create_model("mobilenetv2", num_classes=NUM_CLASSES, scale=scale, seed=1)

    save_ms, recover_ms, model_ids = [], [], []
    deadline = time.perf_counter() + budget_seconds
    level = 0.0
    while time.perf_counter() < deadline or len(save_ms) < 3:
        started = time.perf_counter()
        model_id = service.save_model(ModelSaveInfo(model, arch))
        save_ms.append((time.perf_counter() - started) * 1e3)
        model_ids.append(model_id)

        started = time.perf_counter()
        service.recover_model(model_id, verify=False)
        recover_ms.append((time.perf_counter() - started) * 1e3)

        level += 0.01
        perturb_classifier(model, level)

    logical = sum(service.files.size(d["parameters_file"])
                  for d in service.documents.collection("models").find())
    physical = service.files.total_bytes()
    return {
        "model": "mobilenetv2",
        "iterations": len(save_ms),
        "save_ms_median": round(statistics.median(save_ms), 2),
        "recover_ms_median": round(statistics.median(recover_ms), 2),
        "logical_bytes": logical,
        "physical_bytes": physical,
        "dedup_ratio": round(1 - physical / logical, 4),
    }


def obs_overhead_benchmark(
    workdir: Path, scale: float, iterations: int = 12, warmup: int = 2
) -> dict:
    """The same save/recover loop with the observability plane on vs off.

    Fresh services are constructed inside each mode — instrument handles
    are cached at construction time, so flipping the default registry
    only affects components built afterwards.  The first ``warmup``
    iterations of each mode prime caches and are excluded from medians.
    """
    arch = arch_ref("mobilenetv2", scale)

    def build(label: str, enabled: bool):
        # Instrument handles are cached at construction time, so a service
        # built while the plane is disabled keeps its null instruments even
        # after the defaults are switched back on.
        obs.set_enabled(enabled)
        try:
            service = BaselineSaveService(
                DocumentStore(), FileStore(workdir / f"obs-{label}"))
            service.files.chunks  # the lazy chunk store caches instruments too
            model = create_model(
                "mobilenetv2", num_classes=NUM_CLASSES, scale=scale, seed=3
            )
        finally:
            obs.set_enabled(True)
        return service, model

    modes = {
        "off": {"rig": build("off", False), "save_ms": [], "recover_ms": []},
        "on": {"rig": build("on", True), "save_ms": [], "recover_ms": []},
    }
    # Interleave the two modes within each iteration so machine drift
    # (caches, thermal, background load) hits both equally.
    for level in range(iterations):
        for mode in modes.values():
            service, model = mode["rig"]
            if level:
                perturb_classifier(model, 0.01 * level)
            started = time.perf_counter()
            model_id = service.save_model(ModelSaveInfo(model, arch))
            mode["save_ms"].append((time.perf_counter() - started) * 1e3)
            started = time.perf_counter()
            service.recover_model(model_id, verify=False)
            mode["recover_ms"].append((time.perf_counter() - started) * 1e3)

    def medians(mode: dict) -> dict:
        return {
            "save_ms_median": round(statistics.median(mode["save_ms"][warmup:]), 2),
            "recover_ms_median": round(
                statistics.median(mode["recover_ms"][warmup:]), 2
            ),
        }

    disabled = medians(modes["off"])
    enabled = medians(modes["on"])
    save_overhead = enabled["save_ms_median"] / disabled["save_ms_median"] - 1
    recover_overhead = (
        enabled["recover_ms_median"] / disabled["recover_ms_median"] - 1
    )
    return {
        "iterations": iterations,
        "enabled": enabled,
        "disabled": disabled,
        "save_overhead_pct": round(save_overhead * 100, 2),
        "recover_overhead_pct": round(recover_overhead * 100, 2),
        "within_5pct": save_overhead <= 0.05 and recover_overhead <= 0.05,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the tier-1 pytest run")
    parser.add_argument("--budget-seconds", type=float, default=5.0,
                        help="time budget for the micro-benchmark")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="model width scale (1.0 = paper architectures)")
    args = parser.parse_args()

    results = {
        "generated_by": "scripts/bench_smoke.py",
        "config": {
            "scale": args.scale,
            "num_classes": NUM_CLASSES,
            "budget_seconds": args.budget_seconds,
        },
    }

    if args.skip_tests:
        results["tier1_tests"] = {"ran": False}
    else:
        print("== tier-1 tests ==")
        results["tier1_tests"] = run_tier1_tests()

    workdir = Path(tempfile.mkdtemp(prefix="bench-smoke-"))
    try:
        print("== micro-benchmark: mobilenetv2 save/recover ==")
        results["micro_mobilenetv2"] = micro_benchmark(
            workdir, args.budget_seconds, args.scale
        )
        micro = results["micro_mobilenetv2"]
        print(f"save {micro['save_ms_median']} ms  recover {micro['recover_ms_median']} ms  "
              f"dedup {micro['dedup_ratio']:.1%} over {micro['iterations']} snapshots")

        print("== obs overhead: instrumented vs disabled ==")
        results["obs_overhead"] = obs_overhead_benchmark(workdir, args.scale)
        overhead = results["obs_overhead"]
        print(f"save {overhead['save_overhead_pct']:+.1f}%  "
              f"recover {overhead['recover_overhead_pct']:+.1f}%  "
              f"(within 5%: {overhead['within_5pct']})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from _bench_results import write_results

    write_results("BENCH_pipeline.json", results)

    failed = []
    if results["tier1_tests"].get("ran") and not results["tier1_tests"]["passed"]:
        failed.append("tier-1 tests failed")
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
