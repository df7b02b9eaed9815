"""Save-info containers: everything a save service needs to persist a model."""

from __future__ import annotations

import importlib
import inspect
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..nn import rng
from ..nn.init import skip_init
from ..nn.modules import Module, Skeleton
from .errors import SaveError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .train_service import TrainService

__all__ = [
    "ArchitectureRef",
    "ModelSaveInfo",
    "ProvenanceSaveInfo",
    "SKELETON_CACHE_ENTRIES",
    "TrainRunSpec",
]

#: Most architectures whose skeleton one process keeps; the least recently
#: used goes first.  A skeleton holds no parameter bytes.
SKELETON_CACHE_ENTRIES = 32

# (module, factory, kwargs as JSON) -> (the factory that built it, skeleton)
_skeletons: "OrderedDict[tuple[str, str, str], tuple[object, Skeleton]]" = OrderedDict()
_skeletons_lock = threading.Lock()


@dataclass(frozen=True)
class ArchitectureRef:
    """How to rebuild a model's architecture: code + factory reference.

    ``source`` carries the defining module's source text, persisted as the
    model's *code file* (the paper saves the architecture "by its
    implementation in code").  Reconstruction imports ``module`` and calls
    ``factory(**kwargs)``.
    """

    module: str
    factory: str
    kwargs: dict
    source: str = ""

    @classmethod
    def from_factory(cls, module: str, factory: str, kwargs: dict | None = None) -> "ArchitectureRef":
        """Build a ref, capturing the defining module's source code."""
        imported = importlib.import_module(module)
        if not hasattr(imported, factory):
            raise SaveError(f"module {module!r} has no factory {factory!r}")
        try:
            source = inspect.getsource(imported)
        except (OSError, TypeError):
            source = ""
        return cls(module=module, factory=factory, kwargs=dict(kwargs or {}), source=source)

    def build(self) -> Module:
        """Instantiate the architecture with freshly initialised parameters."""
        imported = importlib.import_module(self.module)
        factory = getattr(imported, self.factory)
        model = factory(**self.kwargs)
        if not isinstance(model, Module):
            raise SaveError(
                f"{self.module}.{self.factory} returned {type(model).__name__}, "
                "expected a Module"
            )
        return model

    def skeleton(self) -> Skeleton:
        """This architecture's :class:`~repro.nn.modules.Skeleton`, built
        on the first call in the process and kept in an LRU of
        :data:`SKELETON_CACHE_ENTRIES`.

        Keyed by ``(module, factory, kwargs)`` — the factory contract
        (DESIGN.md §14) makes structure a function of these — and valid
        only while the factory is the object that built it, so a reloaded
        module builds afresh.  A miss builds under
        :func:`~repro.nn.init.skip_init` and leaves the generator as it
        found it; gateway workers recover concurrently, so the lookup holds
        a lock.
        """
        factory = getattr(importlib.import_module(self.module), self.factory, None)
        key = (self.module, self.factory, json.dumps(self.kwargs, sort_keys=True, default=repr))
        with _skeletons_lock:
            entry = _skeletons.get(key)
            if entry is None or entry[0] is not factory:
                with skip_init(), rng.fork_rng():
                    model = self.build()
                entry = _skeletons[key] = (factory, Skeleton(model))
                if len(_skeletons) > SKELETON_CACHE_ENTRIES:
                    _skeletons.popitem(last=False)
            _skeletons.move_to_end(key)
            return entry[1]

    def build_from(self, state: dict, *, assign: bool = False) -> Module:
        """Instantiate the architecture holding exactly ``state``.

        The model is assembled from the cached :meth:`skeleton`: no
        constructor runs, no initial value is computed, and the load is
        strict — a key missing from ``state`` raises, so no array that was
        never initialised survives in the returned model.  ``assign`` is
        :meth:`Module.load_state_dict`'s (:meth:`Skeleton.assemble`).
        """
        return self.skeleton().assemble(state, assign)[0]

    def to_dict(self) -> dict:
        return {"module": self.module, "factory": self.factory, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: dict, source: str = "") -> "ArchitectureRef":
        return cls(
            module=payload["module"],
            factory=payload["factory"],
            kwargs=dict(payload.get("kwargs", {})),
            source=source,
        )


@dataclass
class ModelSaveInfo:
    """Input to :meth:`AbstractSaveService.save_model` for snapshot saves.

    ``base_model_id`` links derived models to their base (paper Fig. 1);
    ``use_case`` is an optional evaluation tag like ``"U_3-1-2"``.
    """

    model: Module
    architecture: ArchitectureRef
    base_model_id: str | None = None
    use_case: str | None = None
    store_checksums: bool = True

    def validate(self) -> None:
        if not isinstance(self.model, Module):
            raise SaveError("ModelSaveInfo.model must be a repro.nn Module")
        if not isinstance(self.architecture, ArchitectureRef):
            raise SaveError("ModelSaveInfo.architecture must be an ArchitectureRef")


@dataclass(frozen=True)
class TrainRunSpec:
    """The hyper-parameters of one recorded training run.

    ``number_epochs``/``number_batches`` bound the replay (the paper's MPA
    evaluation replays 2 epochs x 2 batches); ``seed`` and
    ``deterministic`` pin the PRNG and kernel behaviour so the replay is
    exact.
    """

    number_epochs: int
    number_batches: int | None
    seed: int
    deterministic: bool = True

    def to_dict(self) -> dict:
        return {
            "number_epochs": self.number_epochs,
            "number_batches": self.number_batches,
            "seed": self.seed,
            "deterministic": self.deterministic,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainRunSpec":
        return cls(
            number_epochs=payload["number_epochs"],
            number_batches=payload.get("number_batches"),
            seed=payload["seed"],
            deterministic=payload.get("deterministic", True),
        )


@dataclass
class ProvenanceSaveInfo:
    """Input to the MPA's save: provenance instead of parameters.

    Consists of the four parts from Section 3.3: (1) the training process
    (``train_service`` + ``train_spec`` + pre-training RNG state), (2) the
    environment (collected by the service), (3) the training data (either a
    directory to compress or an external-system reference), and (4) the
    base model reference.
    """

    base_model_id: str
    train_service: "TrainService"
    train_spec: TrainRunSpec
    rng_state: dict
    dataset_dir: Path | None = None
    dataset_reference: str | None = None
    use_case: str | None = None
    store_checksums: bool = True
    expected_model: Module | None = None

    def validate(self) -> None:
        if not self.base_model_id:
            raise SaveError("provenance saves require a base model reference")
        if (self.dataset_dir is None) == (self.dataset_reference is None):
            raise SaveError(
                "provide exactly one of dataset_dir (managed by MMlib) or "
                "dataset_reference (externally managed dataset)"
            )
