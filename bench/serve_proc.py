"""The gateway-mixed server: the reference serving deployment in its own process.

Built from public constructors only, as ``scripts/bench_serving.py`` builds
it: three shards, two replicas, a chunk cache, PUA tenants, idle
maintenance at depth 4 and two workers.  One tenant, with quotas far above
what a closed-loop connection can offer, so nothing is shed.

Prints ``READY <port>`` once it serves, and stops when its standard input
closes: the driver closes it for a clean stop and ``kill -9``s the process
for the crash check; a driver that dies takes the server with it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness

harness.add_src_to_path()

from repro.distsim.environment import SharedStores  # noqa: E402
from repro.gateway import (  # noqa: E402
    GatewayServer,
    IdleMaintenance,
    TenantQuota,
    TenantRegistry,
)

TENANT = "fleet"
SHARDS = 3
REPLICAS = 2
#: a quarter of the reference deployment's 16 MiB, so that the ~9 MB of
#: distinct chunks one epoch saves still do not fit
CHUNK_CACHE_BYTES = 4 << 20
WORKERS = 2
MAX_DEPTH = 4
QUOTA = TenantQuota(
    requests_per_s=1e6, bytes_per_s=1e12, burst_requests=1e6, burst_bytes=1e12,
    max_inflight=64, max_concurrency=WORKERS,
)


def open_stores(directory) -> SharedStores:
    """The deployment's stores; reopens what a previous process left."""
    return SharedStores.cluster_at(
        directory, shards=SHARDS, replicas=REPLICAS,
        chunk_cache_bytes=CHUNK_CACHE_BYTES,
    )


def open_registry(stores: SharedStores) -> TenantRegistry:
    return TenantRegistry(stores, {TENANT: QUOTA}, approach="param_update")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, help="deployment directory")
    args = parser.parse_args()
    registry = open_registry(open_stores(args.dir))
    server = GatewayServer(
        registry, workers=WORKERS,
        maintenance=IdleMaintenance(registry, max_depth=MAX_DEPTH),
    )
    server.start()
    print(f"READY {server.port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
