"""Per-tenant registry views for the serving gateway.

A deployment serves many tenants from one set of shared stores.  Each
tenant gets its own *catalog* — a :class:`NamespacedDocumentStore` over
the shared document store, so model/environment documents never leak
across tenants — while all tenants share one content-addressed file
store, so identical chunks dedup across tenants for free (the paper's
storage-consumption win scales with tenant count).

Model ids are exposed to clients in qualified form ``<tenant>/<id>``;
the gateway strips and checks the prefix on every request, so a tenant
holding another tenant's id gets ``forbidden``, not data.

:class:`TenantRegistry` owns one save service + :class:`ModelManager`
per tenant (services are cheap, stateless objects) plus an *admin*
manager over the union of all catalogs — the only view on which fsck
and garbage collection are safe, because the file store's orphan sweep
must see every tenant's references.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.manager import ModelManager
from ..docstore.namespace import (
    NamespacedDocumentStore,
    UnionDocumentStore,
    validate_tenant_name,
)
from .protocol import GatewayError

__all__ = ["TenantQuota", "Tenant", "TenantRegistry", "qualify_id", "split_qualified_id"]


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``requests_per_s``/``bytes_per_s`` refill the token buckets;
    ``burst_requests``/``burst_bytes`` cap how much unused budget can
    accumulate (the bucket size).  A request is charged the bytes of its
    frame — header line plus raw payload, so saving an N-byte state costs
    N bytes and a few hundred of header.  ``max_inflight`` bounds the tenant's
    queue of admitted-but-unfinished requests — beyond it the gateway
    sheds with ``overloaded`` instead of queueing unboundedly.
    ``max_concurrency`` bounds how many of those may *execute* on the
    worker pool at once; keeping the sum of tenant concurrencies at or
    below the pool size is what stops one saturated tenant from
    head-of-line-blocking every other tenant's requests.
    """

    requests_per_s: float = 200.0
    bytes_per_s: float = 64 * 1024 * 1024
    burst_requests: float = 50.0
    burst_bytes: float = 16 * 1024 * 1024
    max_inflight: int = 32
    max_concurrency: int = 4

    def __post_init__(self):
        if self.requests_per_s <= 0 or self.bytes_per_s <= 0:
            raise ValueError("quota rates must be positive")
        if self.burst_requests <= 0 or self.burst_bytes <= 0:
            raise ValueError("quota bursts must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")


def qualify_id(tenant: str, model_id: str) -> str:
    """External form of a model id: ``<tenant>/<internal-id>``."""
    return f"{tenant}/{model_id}"


def split_qualified_id(tenant: str, qualified: str) -> str:
    """Validate ``qualified`` belongs to ``tenant``; return the internal id.

    Unqualified ids are accepted as shorthand for the caller's own
    namespace.  A qualified id naming *another* tenant raises
    ``forbidden`` — ids are capability-free names, never access grants.
    """
    if "/" not in qualified:
        return qualified
    owner, _, internal = qualified.partition("/")
    if owner != tenant:
        raise GatewayError(
            "forbidden",
            f"model id {qualified!r} belongs to tenant {owner!r}, "
            f"not {tenant!r}",
        )
    if not internal:
        raise GatewayError("invalid", f"malformed model id {qualified!r}")
    return internal


class Tenant:
    """One tenant's slice of the deployment: catalog, service, manager."""

    def __init__(self, name: str, service, quota: TenantQuota):
        self.name = name
        self.service = service
        self.manager = ModelManager(service)
        self.quota = quota

    def qualify(self, model_id: str) -> str:
        return qualify_id(self.name, model_id)

    def resolve(self, qualified: str) -> str:
        return split_qualified_id(self.name, qualified)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tenant({self.name!r})"


class TenantRegistry:
    """Build and hold the per-tenant managers over shared stores.

    ``stores`` is a :class:`~repro.distsim.environment.SharedStores`
    (single-node or clustered — the gateway does not care).  ``tenants``
    maps tenant name to :class:`TenantQuota`; pass a list to accept
    default quotas.
    """

    def __init__(
        self,
        stores,
        tenants,
        approach: str = "param_update",
        dataset_codec: str | None = None,
    ):
        from ..distsim.environment import SERVICE_CLASSES

        if not isinstance(tenants, dict):
            tenants = {name: TenantQuota() for name in tenants}
        if not tenants:
            raise ValueError("TenantRegistry needs at least one tenant")
        if approach not in SERVICE_CLASSES:
            raise KeyError(
                f"unknown approach {approach!r}; options: {sorted(SERVICE_CLASSES)}"
            )
        self.stores = stores
        self.approach = approach
        self._tenants: dict[str, Tenant] = {}
        for name, quota in tenants.items():
            validate_tenant_name(name)
            documents = NamespacedDocumentStore(stores.documents, name)
            service = SERVICE_CLASSES[approach](
                documents,
                stores.files,
                scratch_dir=stores.scratch_dir,
                dataset_codec=dataset_codec,
                retry=stores.retry,
            )
            self._tenants[name] = Tenant(name, service, quota)
        # Admin view: one manager whose document collections span every
        # tenant — the only correct scope for fsck/GC on shared files.
        union = UnionDocumentStore(stores.documents, sorted(self._tenants))
        admin_service = SERVICE_CLASSES[approach](
            union,
            stores.files,
            scratch_dir=stores.scratch_dir,
            dataset_codec=dataset_codec,
            retry=stores.retry,
        )
        self.admin = ModelManager(admin_service)

    @property
    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    def tenant(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise GatewayError("forbidden", f"unknown tenant {name!r}") from None

    def tenants(self) -> list[Tenant]:
        return [self._tenants[name] for name in self.tenant_names]

    def admin_manager(self) -> ModelManager:
        return self.admin

    def __contains__(self, name: str) -> bool:
        return name in self._tenants
