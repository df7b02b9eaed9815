"""Tenant-scoped views over a document store.

The serving gateway gives every tenant its own model catalog while all
tenants share one physical document store (and one content-addressed
file store).  Isolation happens at the collection-name layer:
:class:`NamespacedDocumentStore` maps each logical collection (``models``,
``environments``, …) to a physical collection prefixed with the tenant's
name, so two tenants' catalogs can never see each other — no query
filter to forget, no id convention to enforce.

Administrative operations (fsck, garbage collection, storage reports)
need the *opposite* view: one catalog spanning every tenant, because the
file store's orphan sweep is only correct against the union of all
referenced files.  :class:`UnionDocumentStore` provides that read/repair
view — each logical collection fans out over the per-tenant physical
collections.  Model ids are globally unique (uuid-hex), so the union is
well-defined (content-addressed environment ids recur across tenants with
identical content, which reads the same from any of them); inserts are
deliberately unsupported (an admin view has no
single right namespace to write new documents into).
"""

from __future__ import annotations

import re

from .engine import merge_stats

__all__ = [
    "NamespacedDocumentStore",
    "UnionDocumentStore",
    "tenant_collection_name",
    "validate_tenant_name",
]

#: Physical collection name pattern: ``tenant--<name>--<collection>``.
_PREFIX_FORMAT = "tenant--{tenant}--{collection}"

_TENANT_NAME = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")


def validate_tenant_name(name: str) -> str:
    """Return ``name`` if it is a legal tenant name, else raise ValueError.

    Tenant names embed into collection names (and into external model
    ids as ``<tenant>/<model-id>``), so the alphabet is restricted to
    lowercase alphanumerics plus ``-``/``_``.
    """
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ValueError(
            f"invalid tenant name {name!r}: need ^[a-z0-9][a-z0-9_-]{{0,63}}$"
        )
    return name


def tenant_collection_name(tenant: str, collection: str) -> str:
    """The physical collection backing ``collection`` for ``tenant``."""
    return _PREFIX_FORMAT.format(tenant=tenant, collection=collection)


class NamespacedDocumentStore:
    """One tenant's isolated view of a shared document store.

    Wraps any object with a ``collection(name)`` method (the embedded
    engine, the TCP client, a sharded store, a chaos wrapper) and
    prefixes every collection name with the tenant's namespace.  All
    other attributes pass through, so retry/cluster capabilities of the
    underlying store remain visible to the save services.
    """

    def __init__(self, store, tenant: str):
        self._store = store
        self.tenant = validate_tenant_name(tenant)

    def collection(self, name: str):
        return self._store.collection(tenant_collection_name(self.tenant, name))

    def __getitem__(self, name: str):
        return self.collection(name)

    def storage_bytes(self) -> int:
        """Approximate persisted bytes of this tenant's collections only."""
        names = getattr(self._store, "collection_names", None)
        if not callable(names):
            return 0
        prefix = tenant_collection_name(self.tenant, "")
        total = 0
        for name in names():
            if name.startswith(prefix):
                total += self._store.collection(name).storage_bytes()
        return total

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NamespacedDocumentStore(tenant={self.tenant!r})"


class _UnionCollection:
    """Read/repair facade over one logical collection across tenants."""

    def __init__(self, name: str, members: dict[str, object]):
        self.name = name
        self._members = members  # tenant -> physical Collection

    # -- reads -------------------------------------------------------------

    def get(self, doc_id: str, projection=None) -> dict:
        for member in self._members.values():
            try:
                return member.get(doc_id, projection=projection)
            except KeyError:
                continue
        raise KeyError(f"no document {doc_id!r} in any tenant's {self.name!r}")

    def get_many(self, doc_ids: list[str], projection=None) -> list[dict]:
        found: dict[str, dict] = {}
        for member in self._members.values():
            for document in member.get_many(doc_ids, projection=projection):
                found.setdefault(document["_id"], document)
        return [found[doc_id] for doc_id in doc_ids if doc_id in found]

    def find(self, query: dict | None = None, **kwargs) -> list[dict]:
        results: list[dict] = []
        for member in self._members.values():
            results.extend(member.find(query, **kwargs))
        return results

    def find_one(self, query: dict) -> dict | None:
        for member in self._members.values():
            document = member.find_one(query)
            if document is not None:
                return document
        return None

    def count(self, query: dict | None = None) -> int:
        return sum(member.count(query) for member in self._members.values())

    def storage_bytes(self) -> int:
        return sum(member.storage_bytes() for member in self._members.values())

    def stats(self) -> dict:
        return merge_stats([member.stats() for member in self._members.values()])

    def acknowledge_torn_tail(self) -> int:
        return sum(member.acknowledge_torn_tail() for member in self._members.values())

    # -- repairs -----------------------------------------------------------

    def delete_one(self, doc_id: str) -> bool:
        # every member, not the first hit: content-addressed environment
        # ids recur across tenants, and an admin delete means all copies
        removed = [member.delete_one(doc_id) for member in self._members.values()]
        return any(removed)

    def replace_one(self, doc_id: str, document: dict) -> None:
        for member in self._members.values():
            try:
                member.get(doc_id)
            except KeyError:
                continue
            member.replace_one(doc_id, document)
            return
        raise KeyError(f"no document {doc_id!r} in any tenant's {self.name!r}")

    def insert_one(self, document: dict):  # pragma: no cover - guard rail
        raise TypeError(
            "UnionDocumentStore is an admin view; inserts must go through "
            "a tenant's NamespacedDocumentStore"
        )


class UnionDocumentStore:
    """Admin view spanning every tenant's namespaced collections.

    Built from the shared store plus the tenant names it should cover;
    ``collection(name)`` returns a facade whose reads union the
    per-tenant physical collections and whose repairs (delete/replace)
    land on whichever tenant holds the document.  Exactly the surface
    :meth:`~repro.core.manager.ModelManager.fsck`, ``garbage_collect``,
    and the catalog queries use — which makes one admin ``ModelManager``
    correct over a multi-tenant deployment.
    """

    def __init__(self, store, tenants: list[str]):
        self._store = store
        self.tenants = [validate_tenant_name(t) for t in tenants]

    def collection(self, name: str) -> _UnionCollection:
        return _UnionCollection(
            name,
            {
                tenant: self._store.collection(tenant_collection_name(tenant, name))
                for tenant in self.tenants
            },
        )

    def __getitem__(self, name: str) -> _UnionCollection:
        return self.collection(name)

    def storage_bytes(self) -> int:
        total = 0
        for tenant in self.tenants:
            total += NamespacedDocumentStore(self._store, tenant).storage_bytes()
        return total

    def tenant_model_counts(self) -> dict[str, int]:
        """Models per tenant — the ``mmlib stats`` multi-tenant section."""
        from ..core.schema import MODELS

        return {
            tenant: self._store.collection(
                tenant_collection_name(tenant, MODELS)
            ).count()
            for tenant in self.tenants
        }

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnionDocumentStore(tenants={self.tenants!r})"
