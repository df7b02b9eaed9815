#!/usr/bin/env python
"""CI chaos smoke: fault-injected saves, crash points, fsck repair.

Exercises the robustness stack end to end, quickly:

* every save approach (baseline / param_update / provenance) saves and
  recovers a model **bitwise** through ``FaultInjector`` rates well above
  the acceptance bar (>= 10% transient errors + outages), with
  ``RetryPolicy`` absorbing the failures;
* a crash matrix kills a baseline save at every operation index in turn
  (``CrashPoint``), runs ``ModelManager.fsck`` after each death, and
  requires every crash to repair to zero unrepaired issues with the
  previously saved base model intact;
* a short randomized-seed sweep repeats the retry scenario under fresh
  fault schedules;
* a scheduled-outage run (``--outage-plan``) drives live traffic into a
  self-healing 4-shard cluster while members are killed and restored at
  fixed op counts: every acked save must recover bitwise afterwards, and
  the cluster must converge (no key left marked degraded, no key of either
  plane left divergent) through its *online* self-heal loop alone — no offline
  ``fsck --repair``.

Writes ``BENCH_chaos.json`` into ``benchmarks/results/`` (canonical;
copied to the repo root) with the scenarios run, total retries taken,
``repairs_needed`` — the count of unrepaired issues left anywhere — and
the outage run's convergence time, all of which gate the exit status.

Usage::

    python scripts/chaos_smoke.py [--sweep-seeds 3] [--out BENCH_chaos.json] \\
        [--outage-plan "kill:shard-1@6,restore:shard-1@16,kill:shard-2@20,restore:shard-2@30"]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for the tests.conftest tiny-model factory

import numpy as np  # noqa: E402

from repro.core import (  # noqa: E402
    ArchitectureRef,
    BaselineSaveService,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveService,
)
from repro.docstore import DocumentStore  # noqa: E402
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore  # noqa: E402
from repro.filestore import FileStore  # noqa: E402
from repro.retry import RetryPolicy  # noqa: E402
from tests.conftest import make_tiny_cnn  # noqa: E402

SERVICES = {
    "baseline": BaselineSaveService,
    "param_update": ParameterUpdateSaveService,
    "provenance": ProvenanceSaveService,
}


def tiny_arch() -> ArchitectureRef:
    return ArchitectureRef.from_factory(
        "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
    )


def states_equal(model, other) -> bool:
    state, restored = model.state_dict(), other.state_dict()
    return all(np.array_equal(state[key], restored[key]) for key in state)


def chaos_stores(workdir: Path, faults: FaultInjector, retry: RetryPolicy | None):
    docs = FaultyDocumentStore(DocumentStore(), faults)
    files = FileStore(workdir / "files", faults=faults, retry=retry, tmp_grace_s=0.0)
    return docs, files


def retry_scenario(approach: str, seed: int) -> dict:
    """Flaky stores at >=10% rates: save + recover must be bitwise."""
    faults = FaultInjector(
        seed=seed,
        error_rate=0.12,
        outage_rate=0.12,
        corrupt_rate=0.05,
        torn_write_rate=0.05,
        max_consecutive_failures=3,
    )
    retry = RetryPolicy(max_attempts=8, base_delay_s=0.0, sleep=lambda s: None)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        docs, files = chaos_stores(workdir, faults, retry)
        service = SERVICES[approach](docs, files, scratch_dir=workdir / "scratch", retry=retry)
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))
        derived = make_tiny_cnn(seed=2)
        derived_id = service.save_model(
            ModelSaveInfo(derived, tiny_arch(), base_model_id=base_id, use_case="U_2")
        )
        bitwise = states_equal(base, service.recover_model(base_id).model) and (
            states_equal(derived, service.recover_model(derived_id).model)
        )
        report = manager.fsck()
    return {
        "scenario": f"retry/{approach}",
        "seed": seed,
        "bitwise_recovery": bitwise,
        "faults_injected": {
            key: faults.stats[key]
            for key in ("errors", "outages", "corruptions", "torn_writes")
        },
        "retries_taken": retry.retries_taken,
        "unrepaired_issues": len(report.unrepaired),
    }


def crash_matrix_scenario(seed: int) -> dict:
    """Kill a save at op 1, 2, 3, ...; fsck must repair every crash."""
    faults = FaultInjector(seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        docs, files = chaos_stores(workdir, faults, retry=None)
        service = BaselineSaveService(docs, files, scratch_dir=workdir / "scratch")
        manager = ModelManager(service)

        base = make_tiny_cnn(seed=1)
        base_id = service.save_model(ModelSaveInfo(base, tiny_arch(), use_case="U_1"))

        victim = make_tiny_cnn(seed=2)
        save_info = ModelSaveInfo(
            victim, tiny_arch(), base_model_id=base_id, use_case="U_3-1-1"
        )
        crashes = repaired = unrepaired = 0
        base_losses = 0
        for at in range(1, 500):
            faults.arm_crash(at)
            try:
                service.save_model(save_info)
            except CrashPoint:
                crashes += 1
                report = manager.fsck()
                repaired += len([i for i in report.issues if i.repaired])
                unrepaired += len(report.unrepaired)
                if not states_equal(base, service.recover_model(base_id).model):
                    base_losses += 1
            else:
                break
        faults.crash_at = None
        final_report = manager.fsck()
        unrepaired += len(final_report.unrepaired)
    return {
        "scenario": "crash-matrix/baseline",
        "seed": seed,
        "crash_points": crashes,
        "issues_repaired": repaired,
        "unrepaired_issues": unrepaired,
        "base_model_losses": base_losses,
    }


DEFAULT_OUTAGE_PLAN = (
    "kill:shard-1@6,restore:shard-1@16,kill:shard-2@20,restore:shard-2@30"
)


def parse_outage_plan(spec: str) -> dict[int, list[tuple[str, str]]]:
    """``action:member@op`` entries, comma-separated, into op -> actions."""
    schedule: dict[int, list[tuple[str, str]]] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            action, rest = entry.split(":", 1)
            member, at_text = rest.split("@", 1)
            at = int(at_text)
        except ValueError as exc:
            raise SystemExit(
                f"bad --outage-plan entry {entry!r} (want action:member@op)"
            ) from exc
        if action not in ("kill", "restore"):
            raise SystemExit(
                f"bad --outage-plan action {action!r} (want kill or restore)"
            )
        schedule.setdefault(at, []).append((action, member))
    return schedule


def degraded_keys(stores) -> int:
    """Keys either plane's quorum writes marked degraded and no heal has
    settled yet."""
    return sum(len(store.degraded_keys) for store in (stores.files, stores.documents))


def outage_scenario(plan: str, seed: int) -> dict:
    """Scheduled member outages under live traffic on a self-healing cluster.

    Members die and return at fixed op counts while saves and failover
    reads keep flowing (write quorum 1-of-2, so single-member outages
    still ack — degraded, marking the key).  Afterwards the run waits for
    *online* convergence: the self-heal loop (probe, degraded marks, scan)
    must clear every degraded mark and leave no key of either plane
    divergent, and
    every acked save must recover bitwise.  The final fsck is
    audit-only — offline repair doing the healing would be a failure.
    """
    from repro import deadline
    from repro.cluster import SelfHealer
    from repro.distsim.environment import SharedStores

    schedule = parse_outage_plan(plan)
    total_ops = (max(schedule) if schedule else 15) + 5
    shards = 4
    retry = RetryPolicy(max_attempts=4, base_delay_s=0.0, sleep=lambda s: None)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        member_faults = {
            f"shard-{i}": FaultInjector(seed=seed + i) for i in range(shards)
        }
        for action_list in schedule.values():
            for _, member in action_list:
                if member not in member_faults:
                    raise SystemExit(
                        f"--outage-plan names unknown member {member!r} "
                        f"(have {sorted(member_faults)})"
                    )
        stores = SharedStores.cluster_at(
            workdir / "cluster", shards=shards, replicas=2, write_quorum=1,
            retry=retry, member_faults=member_faults, self_heal=True,
        )
        # the run compresses hours of traffic into seconds, so the breaker
        # cooldowns must compress too — otherwise a member restored one op
        # ago is still gated when the next member dies
        stores.detector.breaker_cooldown_s = 0.02
        stores.detector.max_cooldown_s = 0.2
        service = BaselineSaveService(
            stores.documents, stores.files,
            scratch_dir=stores.scratch_dir, retry=retry,
        )
        manager = ModelManager(service)
        healer = stores.healers(interval_s=0.05).start()

        acked: list[tuple[str, object]] = []
        kills = restores = failed_saves = failed_reads = 0
        try:
            for op in range(1, total_ops + 1):
                for action, member in schedule.get(op, ()):
                    member_faults[member].set_down(action == "kill")
                    if action == "kill":
                        kills += 1
                    else:
                        restores += 1
                model = make_tiny_cnn(seed=100 + op)
                info = ModelSaveInfo(model, tiny_arch(), use_case=f"chaos-{op}")
                try:
                    with deadline.scope(30.0):
                        model_id = service.save_model(info)
                except OSError:
                    failed_saves += 1  # quorum miss: not acked, not counted
                    continue
                acked.append((model_id, model))
                time.sleep(0.005)  # let the background healers interleave
                if acked and op % 5 == 0:
                    probe_id, _ = acked[(op // 5) % len(acked)]
                    try:
                        with deadline.scope(30.0):
                            service.recover_model(probe_id)
                    except OSError:
                        failed_reads += 1  # transient: durability checked below

            # everyone back up; converge through the online machinery only
            for injector in member_faults.values():
                injector.set_down(False)
            healing_started = time.time()
            converged = False
            while time.time() - healing_started < 60.0:
                if not degraded_keys(stores):
                    audit = SelfHealer(
                        (stores.files, stores.documents)).converge(repair=False)
                    if audit["converged"]:
                        converged = True
                        break
                time.sleep(0.05)
            convergence_s = time.time() - healing_started
        finally:
            healer.close()

        lost = non_bitwise = 0
        for model_id, model in acked:
            try:
                recovered = service.recover_model(model_id)
            except Exception:
                lost += 1
                continue
            if not states_equal(model, recovered.model):
                non_bitwise += 1
        audit_report = manager.fsck(repair=False)
        detector_snapshot = stores.detector.snapshot()
    return {
        "scenario": "outage-plan/cluster",
        "seed": seed,
        "plan": plan,
        "ops": total_ops,
        "kills": kills,
        "restores": restores,
        "acked_saves": len(acked),
        "failed_saves": failed_saves,
        "failed_reads_during_outage": failed_reads,
        "lost_acked_writes": lost,
        "bitwise_recovery": lost == 0 and non_bitwise == 0,
        "degraded_after": degraded_keys(stores),
        "anti_entropy": {
            key: healer.stats[key]
            for key in ("marks_healed", "marks_dropped", "keys_scanned", "repaired",
                        "deferred", "unrepairable", "tick_errors")
        },
        "breaker_trips": sum(
            snap["breaker_trips"] for snap in detector_snapshot.values()
        ),
        "converged": converged,
        "convergence_s": round(convergence_s, 3),
        "unrepaired_issues": len(audit_report.issues),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep-seeds", type=int, default=3,
                        help="randomized-seed retry runs per approach")
    parser.add_argument("--out", default=str(ROOT / "BENCH_chaos.json"))
    parser.add_argument(
        "--outage-plan", default=DEFAULT_OUTAGE_PLAN, metavar="PLAN",
        help="scheduled cluster outages as action:member@op entries, "
             "comma-separated (empty string skips the scenario); default: "
             f"{DEFAULT_OUTAGE_PLAN!r}",
    )
    parser.add_argument("--outage-seed", type=int, default=5,
                        help="fault seed for the scheduled-outage run")
    args = parser.parse_args()

    started = time.time()
    scenarios = []
    for approach in SERVICES:
        scenarios.append(retry_scenario(approach, seed=13))
    scenarios.append(crash_matrix_scenario(seed=0))
    if args.outage_plan:
        scenarios.append(outage_scenario(args.outage_plan, seed=args.outage_seed))
    # randomized sweep: different fault schedules, same guarantees
    sweep_base = int(time.time()) % 10_000
    for offset in range(args.sweep_seeds):
        approach = list(SERVICES)[offset % len(SERVICES)]
        scenarios.append(retry_scenario(approach, seed=sweep_base + offset))

    repairs_needed = sum(s.get("unrepaired_issues", 0) for s in scenarios)
    bad_recoveries = sum(
        1 for s in scenarios if s.get("bitwise_recovery") is False
    ) + sum(s.get("base_model_losses", 0) for s in scenarios)
    lost_acked = sum(s.get("lost_acked_writes", 0) for s in scenarios)
    unconverged = sum(1 for s in scenarios if s.get("converged") is False)
    outage_runs = [s for s in scenarios if s["scenario"].startswith("outage-plan")]
    result = {
        "suite": "chaos-smoke",
        "elapsed_s": round(time.time() - started, 2),
        "scenarios_run": len(scenarios),
        "retries_taken": sum(s.get("retries_taken", 0) for s in scenarios),
        "crash_points": sum(s.get("crash_points", 0) for s in scenarios),
        "repairs_needed": repairs_needed,
        "bitwise_failures": bad_recoveries,
        "lost_acked_writes": lost_acked,
        "outages_unconverged": unconverged,
        "outage_convergence_s": (
            outage_runs[0]["convergence_s"] if outage_runs else None
        ),
        "scenarios": scenarios,
    }

    from _bench_results import write_results

    canonical = write_results("BENCH_chaos.json", result)
    out = Path(args.out)
    if out.resolve() != (ROOT / "BENCH_chaos.json").resolve():
        shutil.copy(canonical, out)
    print(json.dumps({k: v for k, v in result.items() if k != "scenarios"}, indent=2))

    if repairs_needed or bad_recoveries or lost_acked or unconverged:
        print("chaos smoke FAILED: unrepaired damage, lost acked writes, "
              "non-bitwise recovery, or unconverged cluster",
              file=sys.stderr)
        return 1
    print(f"chaos smoke OK: {len(scenarios)} scenarios, "
          f"{result['retries_taken']} retries absorbed, "
          f"{result['crash_points']} crash points repaired"
          + (f", outage converged in {result['outage_convergence_s']}s"
             if outage_runs else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
