"""Bounded-TTR replay chains: the one chain rewrite.

A BA or PUA model is its own recovery base (its manifest names every
layer), but an MPA model records how it was trained, not what it holds:
recovering the tip of a 16-deep MPA chain replays 16 trainings.
:class:`ChainCompactor` bounds that: every ``max_depth`` levels it
*materializes* a synthetic full snapshot by recovering the model once and
publishing the result as the model's new recovery base, in place.

Materializing in place keeps every model id and the ``base_model``
lineage untouched — a recover ends at the new base (a ``parameters_file``
ends it, whatever the approach), so descendants need no rewriting and
provenance queries still see the full derivation tree.
:meth:`~repro.core.manager.ModelManager.promote_to_snapshot` runs the same
rewrite, then severs the lineage in a second document replace as a prelude
to deleting ancestors.

The swap is committed by its document replace alone: artifacts (a copy of
the code file, then the snapshot manifest, whose group fsync covers both)
are written first, and the document replace publishes them.  A crash at
any point leaves nothing but unreferenced records — the new artifacts
before the commit — which garbage collection and fsck reclaim, and every
model recovers bitwise throughout.  The save transaction's hold keeps any
sweep out from the first artifact to the replace.
"""

from __future__ import annotations

from .. import obs
from .errors import MMLibError
from .schema import MODELS

__all__ = ["ChainCompactor", "DEFAULT_MAX_DEPTH"]

#: Materialize a snapshot once a model sits this many levels above its
#: nearest recovery base (the paper's TTR experiments motivate keeping
#: replay chains short; 4 keeps worst-case recovery at ~4 replays).
DEFAULT_MAX_DEPTH = 4


class ChainCompactor:
    """Rewrites deep MPA replay chains into bounded-depth recovery chains.

    ``max_depth`` is K: any model whose distance to its nearest recovery
    base reaches K gets a materialized snapshot.  Set ``fault_hook`` to a
    :meth:`~repro.faults.FaultInjector.fail_point`-shaped callable to
    crash-test the swap (ops are ``compact.artifacts``,
    ``compact.commit`` and ``compact.cleanup``).
    """

    def __init__(self, service, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.service = service
        self.documents = service.documents
        self.files = service.files
        self.max_depth = int(max_depth)
        #: Optional chaos hook (``FaultInjector.fail_point`` signature).
        self.fault_hook = None
        registry = obs.registry()
        self._obs_materialized = registry.counter(
            "mmlib_compaction_materialized_total",
            "Replay-chain models rewritten into recovery bases")

    def _fault(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    # -- planning ----------------------------------------------------------

    def plan(self) -> list[dict]:
        """Models to materialize, in dependency order (bases first).

        Depth is the distance to the nearest recovery base — a model with
        a manifest (every BA and PUA model, an already-compacted MPA
        level), or an ancestor this same plan will materialize (the counter resets at planned nodes, so
        one pass bounds every chain without cascading rewrites).
        """
        docs = {
            d["_id"]: d
            for d in self.documents.collection(MODELS).find(
                projection=("base_model", "parameters_file"))
        }
        depths: dict[str, int] = {}
        planned: list[dict] = []
        planned_ids: set[str] = set()

        def depth_of(model_id: str, trail: set[str]) -> int:
            if model_id in depths:
                return depths[model_id]
            if model_id in trail:
                raise MMLibError(f"cycle in base-model chain at {model_id!r}")
            document = docs.get(model_id)
            if document is None or document.get("parameters_file"):
                value = 0  # a recovery base (or a dangling ref fsck reports)
            else:
                trail.add(model_id)
                value = depth_of(document.get("base_model"), trail) + 1
                trail.discard(model_id)
                if value >= self.max_depth and model_id not in planned_ids:
                    planned.append({"model_id": model_id, "depth": value})
                    planned_ids.add(model_id)
                if model_id in planned_ids:
                    value = 0  # descendants measure from the new base
            depths[model_id] = value
            return value

        # walk tips in sorted order for a deterministic plan; the recursion
        # appends ancestors before descendants, giving dependency order
        for model_id in sorted(docs):
            if model_id is not None:
                depth_of(model_id, set())
        return planned

    # -- materialization ---------------------------------------------------

    def compact_model(self, model_id: str, depth: int | None = None) -> dict:
        """Materialize one model as its chain's new recovery base.

        Returns ``{"model_id"}``.  The model's document keeps its id,
        approach, lineage, and Merkle root (its training record stays: a
        promote releases it); it gains ``parameters_file`` +
        ``architecture``.  No-op if the model is already a recovery base.
        """
        models = self.documents.collection(MODELS)
        document = models.get(model_id)
        if document.get("parameters_file"):
            return {"model_id": model_id}

        with self._obs_tracer_span(model_id):
            # replay the chain once; verify=True proves the replayed state
            # matches the stored Merkle root *before* anything is published
            recovered = self.service.recover_model(model_id, verify=True)

            with self.service._save_transaction():  # no sweep before the swap
                self._fault("compact.artifacts")
                # a copy of the code file keeps the document self-contained:
                # retention deleting the chain prefix cannot orphan it
                architecture = self.service._chain_architecture(model_id)
                architecture["code_file_id"] = self.files.save_bytes(
                    self.files.recover_bytes(architecture["code_file_id"]), suffix=".py")
                parameters_file, root = self.service._save_parameters(
                    recovered.model
                )
                stored_root = document.get("merkle_root")
                if stored_root is not None and root != stored_root:
                    raise MMLibError(
                        f"materialized snapshot of {model_id} hashes to {root}, "
                        f"document records {stored_root}; refusing to publish"
                    )
                document["parameters_file"] = parameters_file
                document["architecture"] = architecture
                if stored_root is None:
                    document["merkle_root"] = root
                document["compacted"] = {"from_depth": depth or recovered.recovery_depth}
                document.pop("layer_hashes", None)  # the manifest holds the table
                self._fault("compact.commit")
                models.replace_one(model_id, document)  # the commit point
                self._fault("compact.cleanup")

        self._obs_materialized.inc()
        obs.events().emit(
            "chain_compacted", model_id=model_id, depth=depth or recovered.recovery_depth)
        return {"model_id": model_id}

    def _obs_tracer_span(self, model_id: str):
        return obs.tracer().span("compaction.materialize", model_id=model_id)

    def run(self, dry_run: bool = False) -> dict:
        """One full pass: bound every chain.

        With ``dry_run`` the plan is computed and returned untouched.
        The plan is in dependency order, so each recover stops at the
        base the previous step published: a K-spaced plan over one chain
        reads O(chain) levels in total.
        """
        planned = self.plan()
        report = {
            "max_depth": self.max_depth,
            "planned": planned,
            "materialized": [],
            "dry_run": dry_run,
        }
        if dry_run:
            return report
        for entry in planned:
            report["materialized"].append(
                self.compact_model(entry["model_id"], depth=entry["depth"]))
        return report
