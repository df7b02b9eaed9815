"""``mmlib`` command-line interface.

Operates a model-management deployment from the shell: inspect the
catalog, walk lineage, recover models to state files, delete and garbage
collect, probe reproducibility, and dump the environment snapshot.

Every command takes ``--docs`` and ``--files`` (the shared document and
file store directories).  Examples::

    mmlib --docs db --files blobs list
    mmlib --docs db --files blobs inspect model-0123…
    mmlib --docs db --files blobs lineage model-0123…
    mmlib --docs db --files blobs recover model-0123… --out model.state
    mmlib --docs db --files blobs save --factory repro.nn.models:resnet18 \\
          --factory-kwargs '{"num_classes": 10, "scale": 0.25}' \\
          --state model.state --approach baseline
    mmlib --docs db --files blobs delete model-0123… --force
    mmlib --docs db --files blobs gc
    mmlib --docs db --files blobs fsck
    mmlib --docs db --files blobs compact --max-depth 4 --dry-run
    mmlib --cluster deploy heal --json
    mmlib --cluster deploy stats --prometheus
    mmlib --cluster deploy --deadline 2.5 recover model-0123… --out m.state
    mmlib --cluster deploy serve --tenants acme,globex --port 7070
    mmlib probe --factory repro.nn.models:resnet18 \\
          --factory-kwargs '{"num_classes": 10, "scale": 0.25}'
    mmlib env
    mmlib stats --prometheus --demo
    mmlib trace --demo --tree
    mmlib events --demo --kind read_repair
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser", "CliError"]


class CliError(Exception):
    """User-facing CLI failure (bad arguments, missing stores)."""


def _split_factory(spec: str):
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise CliError(f"--factory must look like 'package.module:callable', got {spec!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise CliError(f"{module_name!r} has no attribute {attr!r}") from exc


def _open_manager(args):
    from repro.core import ModelManager
    from repro.core.baseline import BaselineSaveService
    from repro.docstore import DocumentStore
    from repro.filestore import FileStore

    cluster = getattr(args, "cluster", None)
    if cluster:
        from repro.distsim.environment import SharedStores, make_service

        workdir = Path(cluster)
        shards = sorted(p for p in workdir.glob("shard-*") if p.is_dir())
        if not shards:
            raise CliError(f"no shard-* member directories under {workdir}")
        stores = SharedStores.cluster_at(
            workdir,
            shards=len(shards),
            replicas=getattr(args, "replicas", 2),
            self_heal=True,
        )
        return ModelManager(make_service("baseline", stores))
    if not args.docs or not args.files:
        raise CliError(
            "this command requires --docs and --files store directories "
            "(or --cluster for a sharded deployment)"
        )
    service = BaselineSaveService(DocumentStore(args.docs), FileStore(args.files))
    return ModelManager(service)


def _open_shared_stores(args):
    """Build a SharedStores from --cluster or --docs/--files (for serve)."""
    import tempfile

    from repro.distsim.environment import SharedStores
    from repro.docstore import DocumentStore
    from repro.filestore import FileStore

    cluster = getattr(args, "cluster", None)
    if cluster:
        workdir = Path(cluster)
        shards = sorted(p for p in workdir.glob("shard-*") if p.is_dir())
        if not shards:
            raise CliError(f"no shard-* member directories under {workdir}")
        return SharedStores.cluster_at(
            workdir,
            shards=len(shards),
            replicas=getattr(args, "replicas", 2),
            self_heal=True,
        )
    if not args.docs or not args.files:
        raise CliError(
            "this command requires --docs and --files store directories "
            "(or --cluster for a sharded deployment)"
        )
    scratch = Path(tempfile.mkdtemp(prefix="mmlib-serve-scratch-"))
    return SharedStores(
        documents=DocumentStore(args.docs),
        files=FileStore(args.files),
        scratch_dir=scratch,
    )


def _service_for(args, approach: str):
    from repro.core import (
        AdaptiveSaveService,
        BaselineSaveService,
        ParameterUpdateSaveService,
        ProvenanceSaveService,
    )
    from repro.docstore import DocumentStore
    from repro.filestore import FileStore

    services = {
        "baseline": BaselineSaveService,
        "param_update": ParameterUpdateSaveService,
        "provenance": ProvenanceSaveService,
        "adaptive": AdaptiveSaveService,
    }
    if approach not in services:
        raise CliError(f"unknown approach {approach!r}; options: {sorted(services)}")
    return services[approach](DocumentStore(args.docs), FileStore(args.files))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    """List the catalog, optionally filtered by use case / approach."""
    manager = _open_manager(args)
    query = {}
    if args.use_case:
        query["use_case"] = args.use_case
    if args.approach:
        query["approach"] = args.approach
    records = manager.list_models(query or None)
    if not records:
        print("no models saved")
        return 0
    print(f"{'model id':<40} {'approach':<13} {'use case':<10} {'base':<10} derived")
    for record in records:
        base = (record.base_model_id or "-")[:10]
        print(
            f"{record.model_id:<40} {record.approach:<13} "
            f"{(record.use_case or '-'):<10} {base:<10} {len(record.derived_model_ids)}"
        )
    return 0


def cmd_inspect(args) -> int:
    """Print one model's metadata and storage breakdown."""
    manager = _open_manager(args)
    record = manager.get(args.model_id)
    breakdown = manager.service.model_save_size(args.model_id)
    print(f"model:     {record.model_id}")
    print(f"approach:  {record.approach}")
    print(f"use case:  {record.use_case or '-'}")
    print(f"base:      {record.base_model_id or '- (root model)'}")
    print(f"derived:   {len(record.derived_model_ids)} model(s)")
    print(f"storage:   {breakdown.total:,} bytes "
          f"(documents {breakdown.documents:,} + files {breakdown.file_bytes:,})")
    for role, size in sorted(breakdown.files.items()):
        print(f"  {role:<12} {size:,} bytes")
    return 0


def cmd_lineage(args) -> int:
    """Print the recovery chain from a model up to its root."""
    manager = _open_manager(args)
    chain = manager.lineage(args.model_id)
    print("recovery chain (model -> root):")
    for depth, record in enumerate(chain):
        print(f"  {'  ' * depth}{record.model_id} [{record.approach}] {record.use_case or '-'}")
    return 0


def cmd_tree(args) -> int:
    """Print the derivation tree rooted at a model."""
    manager = _open_manager(args)
    print(manager.lineage_tree(args.model_id))
    return 0


def cmd_storage(args) -> int:
    """Print per-model and total storage consumption."""
    manager = _open_manager(args)
    report = manager.storage_report()
    total = 0
    for model_id, breakdown in report.items():
        total += breakdown.total
        print(f"{model_id:<40} {breakdown.approach:<13} {breakdown.total:>14,} bytes")
    print(f"{'TOTAL':<54} {total:>14,} bytes over {len(report)} model(s)")
    return 0


def cmd_recover(args) -> int:
    """Recover a model and write its parameters to a state file."""
    from repro.nn import serialization

    manager = _open_manager(args)
    recovered = manager.recover(
        args.model_id, check_env=args.check_env, verify=not args.no_verify
    )
    out = Path(args.out)
    serialization.save(recovered.model.state_dict(), out)
    print(
        f"recovered {recovered.model_id} "
        f"(approach={recovered.approach}, depth={recovered.recovery_depth}, "
        f"verified={recovered.verified}) -> {out}"
    )
    for phase, seconds in recovered.timings.items():
        print(f"  {phase:<10} {seconds * 1e3:8.1f} ms")
    return 0


def cmd_save(args) -> int:
    """Save a model snapshot built by a factory (optionally from a state file)."""
    from repro.core import ArchitectureRef, ModelSaveInfo
    from repro.nn import serialization

    factory = _split_factory(args.factory)
    kwargs = json.loads(args.factory_kwargs) if args.factory_kwargs else {}
    model = factory(**kwargs)
    if args.state:
        model.load_state_dict(serialization.load(args.state))
    module_name, _, attr = args.factory.partition(":")
    architecture = ArchitectureRef.from_factory(module_name, attr, kwargs)
    service = _service_for(args, args.approach)
    model_id = service.save_model(
        ModelSaveInfo(
            model=model,
            architecture=architecture,
            base_model_id=args.base,
            use_case=args.use_case,
        )
    )
    print(model_id)
    return 0


def cmd_delete(args) -> int:
    """Delete a model and the documents/files only it references."""
    manager = _open_manager(args)
    manager.delete_model(args.model_id, force=args.force)
    print(f"deleted {args.model_id}")
    return 0


def cmd_verify(args) -> int:
    """Recover and checksum-verify every model in the catalog."""
    manager = _open_manager(args)
    results = manager.verify_catalog()
    failures = [mid for mid, ok in results.items() if ok is False]
    for model_id, ok in results.items():
        status = {True: "verified", None: "no checksums", False: "FAILED"}[ok]
        print(f"{model_id:<40} {status}")
    print(f"{len(results)} model(s) checked, {len(failures)} failure(s)")
    return 1 if failures else 0


def cmd_squash(args) -> int:
    """Promote a model to a snapshot; optionally drop exclusive ancestors."""
    manager = _open_manager(args)
    if args.promote_only:
        manager.promote_to_snapshot(args.model_id)
        print(f"promoted {args.model_id} to a self-contained snapshot")
        return 0
    deleted = manager.squash_chain(args.model_id)
    print(
        f"promoted {args.model_id} and deleted {deleted} exclusive ancestor(s)"
    )
    return 0


def cmd_gc(args) -> int:
    """Remove stored files (and chunks) that no document references."""
    manager = _open_manager(args)
    stats = manager.garbage_collect()
    print(f"removed {stats['files_removed']} orphaned file(s), "
          f"freed {stats['bytes_freed']:,} bytes")
    return 0


def cmd_fsck(args) -> int:
    """Verify documents/files/chunks/refcounts; repair what is safe."""
    manager = _open_manager(args)
    report = manager.fsck(
        repair=not args.no_repair, verify_chunks=not args.no_verify_chunks
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 1 if report.unrepaired else 0
    for issue in report.issues:
        status = "repaired" if issue.repaired else "UNREPAIRED"
        print(f"[{status}] {issue.kind}: {issue.detail}")
    print(report.summary())
    return 1 if report.unrepaired else 0


def cmd_heal(args) -> int:
    """Drain handoff hints and run a full anti-entropy sweep, now."""
    manager = _open_manager(args)
    report = manager.heal(repair=not args.no_repair, deep=not args.shallow)
    if not report.get("cluster"):
        print("not a clustered deployment: nothing to heal", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["converged"] else 1
    hints = report.get("hints")
    if hints:
        print(
            f"hints: {hints['pending_before']} pending -> "
            f"{hints['pending_after']} ({hints['delivered']} delivered, "
            f"{hints['stale']} stale, {hints['failures']} failures)"
        )
    else:
        print("hints: none pending")
    sweep = report["anti_entropy"]
    print(
        f"anti-entropy: {sweep['scanned']} keys scanned, "
        f"{sweep['repaired']} repaired, {sweep['deferred']} deferred, "
        f"{sweep['unrepairable']} unrepairable, backlog {sweep['backlog']}"
    )
    unhealthy = sorted(
        name for name, snap in report.get("health", {}).items()
        if snap["state"] != "healthy"
    )
    if unhealthy:
        print(f"unhealthy members: {', '.join(unhealthy)}")
    print("converged" if report["converged"] else "NOT converged")
    return 0 if report["converged"] else 1


def cmd_compact(args) -> int:
    """Bound delta-chain recovery depth by materializing snapshots."""
    manager = _open_manager(args)
    report = manager.compact(max_depth=args.max_depth, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.dry_run:
        if not report["planned"]:
            print(f"all chains within depth {report['max_depth']}; nothing to do")
            return 0
        for entry in report["planned"]:
            print(f"would materialize {entry['model_id']} (depth {entry['depth']})")
        return 0
    for outcome in report["materialized"]:
        print(
            f"materialized {outcome['model_id']} "
            f"(released {outcome['released_bytes']:,} bytes)"
        )
    print(
        f"compacted {len(report['materialized'])} model(s) at max depth "
        f"{report['max_depth']}, released {report['released_bytes']:,} bytes"
    )
    return 0


def cmd_probe(args) -> int:
    """Probe a model's training reproducibility (optionally save/compare)."""
    from repro.core import ProbeSummary, probe_reproducibility, probe_training
    from repro.nn import manual_seed, randn, rng

    factory = _split_factory(args.factory)
    kwargs = json.loads(args.factory_kwargs) if args.factory_kwargs else {}
    manual_seed(args.seed)
    model = factory(**kwargs)
    images = randn(args.batch_size, 3, args.image_size, args.image_size)
    labels = np.arange(args.batch_size, dtype=np.int64) % 2

    if args.compare:
        with rng.deterministic_mode(True):
            with rng.fork_rng(args.seed):
                summary = probe_training(model, images, labels)
        reference = ProbeSummary.load(args.compare)
        comparison = reference.compare(summary)
        print(f"reproducible vs {args.compare}: {comparison.reproducible}")
        if not comparison.reproducible:
            print(f"first divergence: {comparison.first_divergence}")
            return 1
        return 0

    result = probe_reproducibility(model, images, labels, seed=args.seed, training=True)
    print(f"training reproducible: {result.reproducible} "
          f"({result.record_count} records)")
    if not result.reproducible:
        print(f"first divergence: {result.first_divergence}")
    if args.save:
        with rng.deterministic_mode(True):
            with rng.fork_rng(args.seed):
                probe_training(model, images, labels).save(args.save)
        print(f"probe summary written to {args.save}")
    return 0 if result.reproducible else 1


def cmd_serve(args) -> int:
    """Run the multi-tenant serving gateway over a deployment."""
    from repro.gateway import (
        GatewayServer,
        IdleMaintenance,
        TenantQuota,
        TenantRegistry,
    )

    tenants = [name.strip() for name in args.tenants.split(",") if name.strip()]
    if not tenants:
        raise CliError("--tenants needs at least one tenant name")
    quota = TenantQuota(
        requests_per_s=args.requests_per_s,
        bytes_per_s=args.bytes_per_s,
        burst_requests=args.burst_requests,
        burst_bytes=args.burst_bytes,
        max_inflight=args.max_inflight,
        max_concurrency=args.max_concurrency,
    )
    stores = _open_shared_stores(args)
    registry = TenantRegistry(
        stores, {name: quota for name in tenants}, approach=args.approach
    )
    maintenance = None
    if not args.no_maintenance:
        maintenance = IdleMaintenance(registry, max_depth=args.compact_depth)
    server = GatewayServer(
        registry,
        host=args.host,
        port=args.port,
        workers=args.workers,
        maintenance=maintenance,
    )
    server.start()
    try:
        print(
            f"mmlib gateway serving on {server.host}:{server.port} "
            f"(tenants: {', '.join(tenants)}, approach: {args.approach}, "
            f"workers: {args.workers})",
            flush=True,
        )
        import time

        if args.serve_seconds is not None:
            time.sleep(args.serve_seconds)
        else:
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def cmd_env(args) -> int:
    """Print, lock, or check the current environment snapshot."""
    from repro.core import collect_environment
    from repro.core.environment import check_lockfile, environment_id, write_lockfile

    if args.check:
        from repro.core import EnvironmentMismatchError

        try:
            check_lockfile(args.check)
        except EnvironmentMismatchError as exc:
            print(f"environment drift detected: {exc}", file=sys.stderr)
            return 1
        print(f"environment matches lockfile {args.check}")
        return 0
    if args.lock:
        write_lockfile(args.lock)
        print(f"environment lockfile written to {args.lock}")
        return 0
    payload = collect_environment().to_dict()
    # the id a save would store this snapshot under: equal ids, equal
    # environments, without diffing the library lists
    payload = {"environment_id": environment_id(payload), **payload}
    if not args.full:
        payload["libraries"] = f"<{len(payload['libraries'])} packages>"
    print(json.dumps(payload, indent=2, default=str))
    return 0


def _run_obs_demo() -> None:
    """Exercise a clustered save/recover so the observability plane has
    real traffic to show: three shards behind a simulated link and a
    chunk cache — one recover produces a trace tree spanning service →
    sharded store → member → network."""
    import tempfile

    from repro.core import ModelSaveInfo
    from repro.core.save_info import ArchitectureRef
    from repro.distsim.environment import SharedStores, make_service
    from repro.filestore.network import NetworkModel
    from repro.nn.models import create_model

    with tempfile.TemporaryDirectory(prefix="mmlib-obs-demo-") as workdir:
        stores = SharedStores.cluster_at(
            workdir,
            shards=3,
            replicas=2,
            network=NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=1e-4),
            workers=2,
            chunk_cache_bytes=8 << 20,
        )
        service = make_service("param_update", stores)
        model = create_model("mobilenetv2", num_classes=10, scale=0.25, seed=0)
        arch = ArchitectureRef.from_factory(
            "repro.nn.models", "create_model",
            {"name": "mobilenetv2", "num_classes": 10, "scale": 0.25},
        )
        base_id = service.save_model(ModelSaveInfo(model, arch, use_case="demo"))
        derived_id = service.save_model(
            ModelSaveInfo(model, arch, base_model_id=base_id, use_case="demo")
        )
        service.recover_model(derived_id)


def cmd_stats(args) -> int:
    """Dump the process-wide metrics registry (JSON or Prometheus text)."""
    from repro import obs

    obs.preregister_default_families()
    if args.demo:
        _run_obs_demo()
    opened = (args.docs and args.files) or getattr(args, "cluster", None)
    if opened and not args.prometheus:
        # opening the stores folds their per-component views (segment
        # occupancy, cluster health, pending hints) into the snapshot
        manager = _open_manager(args)
        print(json.dumps(manager.stats(), indent=2, sort_keys=True))
        return 0
    registry = obs.registry()
    if args.prometheus:
        if opened:
            # opening the deployment primes its gauges (member health,
            # pending hints, segment occupancy) into the registry
            _open_manager(args).stats()
        sys.stdout.write(registry.to_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    """Dump recorded trace spans (JSON-lines, or nested trees)."""
    from repro import obs

    if args.demo:
        _run_obs_demo()
    tracer = obs.tracer()
    if args.tree:
        trees = [tracer.tree(trace_id) for trace_id in tracer.trace_ids()]
        if args.last:
            trees = trees[-args.last:]
        print(json.dumps(trees, indent=2))
        return 0
    output = tracer.to_jsonl(last=args.last or None)
    if output:
        print(output)
    elif not args.demo:
        print(
            "no spans recorded in this process (tracing is in-process; "
            "try --demo)",
            file=sys.stderr,
        )
    return 0


def cmd_events(args) -> int:
    """Dump the structured event log (JSON-lines)."""
    from repro import obs

    if args.demo:
        _run_obs_demo()
    log = obs.events()
    events = log.events(kind=args.kind or None, last=args.last or None)
    for entry in events:
        print(json.dumps(entry.to_dict(), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``mmlib`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mmlib", description="MMlib model management (EDBT 2022 reproduction)"
    )
    parser.add_argument("--docs", help="document store directory")
    parser.add_argument("--files", help="file store directory")
    parser.add_argument(
        "--cluster",
        help="clustered deployment directory (as laid out by "
             "SharedStores.cluster_at: shard-*/ members plus cluster-meta/); "
             "replaces --docs/--files",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="replica count when opening a --cluster deployment (default 2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="run the subcommand under an ambient deadline: storage "
             "retries and quorum paths fail fast with DeadlineExceededError "
             "instead of exhausting their backoff budgets",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list saved models")
    list_parser.add_argument("--use-case")
    list_parser.add_argument("--approach")
    list_parser.set_defaults(func=cmd_list)

    inspect_parser = commands.add_parser("inspect", help="show one model's details")
    inspect_parser.add_argument("model_id")
    inspect_parser.set_defaults(func=cmd_inspect)

    lineage_parser = commands.add_parser("lineage", help="show a model's recovery chain")
    lineage_parser.add_argument("model_id")
    lineage_parser.set_defaults(func=cmd_lineage)

    tree_parser = commands.add_parser("tree", help="show the derivation tree under a model")
    tree_parser.add_argument("model_id")
    tree_parser.set_defaults(func=cmd_tree)

    storage_parser = commands.add_parser("storage", help="per-model storage report")
    storage_parser.set_defaults(func=cmd_storage)

    recover_parser = commands.add_parser("recover", help="recover a model to a state file")
    recover_parser.add_argument("model_id")
    recover_parser.add_argument("--out", required=True, help="output state-file path")
    recover_parser.add_argument("--check-env", action="store_true")
    recover_parser.add_argument("--no-verify", action="store_true")
    recover_parser.set_defaults(func=cmd_recover)

    save_parser = commands.add_parser("save", help="save a model snapshot")
    save_parser.add_argument("--factory", required=True, help="'module:callable' building the model")
    save_parser.add_argument("--factory-kwargs", help="JSON kwargs for the factory")
    save_parser.add_argument("--state", help="state file with the parameters to save")
    save_parser.add_argument("--base", help="base model id for derived models")
    save_parser.add_argument("--use-case", help="use-case tag, e.g. U_3-1-1")
    save_parser.add_argument(
        "--approach",
        default="baseline",
        help="baseline | param_update | provenance | adaptive",
    )
    save_parser.set_defaults(func=cmd_save)

    delete_parser = commands.add_parser("delete", help="delete a model and its files")
    delete_parser.add_argument("model_id")
    delete_parser.add_argument("--force", action="store_true",
                               help="delete even if derived models depend on it")
    delete_parser.set_defaults(func=cmd_delete)

    gc_parser = commands.add_parser(
        "gc", help="release files no document references, sweep unreferenced "
                   "chunks and compact segments")
    gc_parser.set_defaults(func=cmd_gc)

    fsck_parser = commands.add_parser(
        "fsck", help="verify and repair store consistency after crashes"
    )
    fsck_parser.add_argument(
        "--no-repair", action="store_true",
        help="report violations without touching the stores",
    )
    fsck_parser.add_argument(
        "--no-verify-chunks", action="store_true",
        help="skip re-hashing chunk payloads (faster on large stores)",
    )
    fsck_parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON (exit code still 1 when unrepaired "
             "issues remain)",
    )
    fsck_parser.set_defaults(func=cmd_fsck)

    verify_parser = commands.add_parser(
        "verify", help="recover + checksum-verify every model in the catalog"
    )
    verify_parser.set_defaults(func=cmd_verify)

    squash_parser = commands.add_parser(
        "squash", help="promote a model to a snapshot and drop exclusive ancestors"
    )
    squash_parser.add_argument("model_id")
    squash_parser.add_argument(
        "--promote-only", action="store_true",
        help="make the model self-contained but keep its ancestors",
    )
    squash_parser.set_defaults(func=cmd_squash)

    compact_parser = commands.add_parser(
        "compact",
        help="bound delta-chain recovery depth by materializing snapshots",
    )
    compact_parser.add_argument(
        "--max-depth", type=int, default=None,
        help="materialize a recovery base every K chain levels (default 4)",
    )
    compact_parser.add_argument(
        "--dry-run", action="store_true",
        help="print the plan without rewriting anything",
    )
    compact_parser.add_argument("--json", action="store_true",
                                help="full report as JSON")
    compact_parser.set_defaults(func=cmd_compact)

    probe_parser = commands.add_parser("probe", help="probe a model's reproducibility")
    probe_parser.add_argument("--factory", required=True)
    probe_parser.add_argument("--factory-kwargs")
    probe_parser.add_argument("--seed", type=int, default=0)
    probe_parser.add_argument("--batch-size", type=int, default=2)
    probe_parser.add_argument("--image-size", type=int, default=32)
    probe_parser.add_argument("--save", help="write the probe summary JSON here")
    probe_parser.add_argument("--compare", help="compare against a saved summary JSON")
    probe_parser.set_defaults(func=cmd_probe)

    heal_parser = commands.add_parser(
        "heal",
        help="drain handoff hints and anti-entropy repair a --cluster "
             "deployment",
    )
    heal_parser.add_argument(
        "--no-repair", action="store_true",
        help="audit only: report divergence without writing",
    )
    heal_parser.add_argument(
        "--shallow", action="store_true",
        help="skip reading/verifying every replica; only restore missing "
             "copies",
    )
    heal_parser.add_argument("--json", action="store_true",
                             help="full report as JSON")
    heal_parser.set_defaults(func=cmd_heal)

    stats_parser = commands.add_parser(
        "stats", help="dump the process-wide metrics registry"
    )
    stats_parser.add_argument(
        "--prometheus", action="store_true",
        help="Prometheus text exposition instead of JSON",
    )
    stats_parser.add_argument(
        "--demo", action="store_true",
        help="run a clustered save/recover first so there is traffic to show",
    )
    stats_parser.set_defaults(func=cmd_stats)

    trace_parser = commands.add_parser(
        "trace", help="dump recorded save/recover trace spans"
    )
    trace_parser.add_argument(
        "--last", type=int, default=0, help="only the most recent N spans/trees"
    )
    trace_parser.add_argument(
        "--tree", action="store_true", help="nested trace trees instead of JSON-lines"
    )
    trace_parser.add_argument(
        "--demo", action="store_true",
        help="run a clustered save/recover first so there are spans to show",
    )
    trace_parser.set_defaults(func=cmd_trace)

    events_parser = commands.add_parser(
        "events", help="dump the structured event log"
    )
    events_parser.add_argument("--kind", help="only events of this kind")
    events_parser.add_argument(
        "--last", type=int, default=0, help="only the most recent N events"
    )
    events_parser.add_argument(
        "--demo", action="store_true",
        help="run a clustered save/recover first so there are events to show",
    )
    events_parser.set_defaults(func=cmd_events)

    serve_parser = commands.add_parser(
        "serve",
        help="run the multi-tenant serving gateway (TCP: JSON header + raw payload)",
    )
    serve_parser.add_argument(
        "--tenants", required=True,
        help="comma-separated tenant names, e.g. 'acme,globex'",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=7070,
        help="TCP port (0 binds an ephemeral port; default 7070)",
    )
    serve_parser.add_argument(
        "--approach", default="param_update",
        help="save service behind the gateway: baseline | param_update | "
             "provenance | adaptive",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4,
        help="storage worker threads (the async front end is single-loop)",
    )
    serve_parser.add_argument(
        "--requests-per-s", type=float, default=200.0,
        help="per-tenant request-rate quota",
    )
    serve_parser.add_argument(
        "--bytes-per-s", type=float, default=64 * 1024 * 1024,
        help="per-tenant ingress byte-rate quota",
    )
    serve_parser.add_argument(
        "--burst-requests", type=float, default=50.0,
        help="request token-bucket size",
    )
    serve_parser.add_argument(
        "--burst-bytes", type=float, default=16 * 1024 * 1024,
        help="byte token-bucket size",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-tenant bound on admitted-but-unfinished requests",
    )
    serve_parser.add_argument(
        "--max-concurrency", type=int, default=4,
        help="per-tenant bound on concurrently executing requests "
             "(keep the sum across tenants <= --workers for isolation)",
    )
    serve_parser.add_argument(
        "--no-maintenance", action="store_true",
        help="disable the idle-loop chain compaction hook",
    )
    serve_parser.add_argument(
        "--compact-depth", type=int, default=4,
        help="recovery-depth threshold K that triggers idle compaction",
    )
    serve_parser.add_argument(
        "--serve-seconds", type=float, default=None,
        help="serve for a fixed duration then exit (default: until Ctrl-C)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    env_parser = commands.add_parser("env", help="print/lock/check the environment")
    env_parser.add_argument("--full", action="store_true", help="include the package list")
    env_parser.add_argument("--lock", help="write an environment lockfile to this path")
    env_parser.add_argument("--check", help="verify this machine against a lockfile")
    env_parser.set_defaults(func=cmd_env)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.deadline is not None:
            if args.deadline <= 0:
                raise CliError("--deadline must be positive")
            from repro import deadline

            with deadline.scope(args.deadline):
                return args.func(args)
        return args.func(args)
    except Exception as exc:  # CLI boundary: print, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
