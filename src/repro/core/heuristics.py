"""Adaptive approach selection (paper Section 4.7, "Adaptive Approach").

The paper sketches a heuristic that picks the best approach per model: the
BA and PUA mainly depend on the model parameters, whereas the MPA depends
on the dataset.  :func:`recommend_approach` implements that simple ratio
heuristic; :class:`CostModel`/:func:`select_approach` implement the "more
complex heuristic ... based on a formalized tradeoff ... combined with some
given parameters, such as maximum storage consumption or TTR".
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import APPROACH_BASELINE, APPROACH_PARAM_UPDATE, APPROACH_PROVENANCE

__all__ = ["ScenarioProfile", "CostEstimate", "CostModel", "recommend_approach", "select_approach"]


@dataclass(frozen=True)
class ScenarioProfile:
    """What is known about a save/recover scenario up front."""

    model_bytes: int
    dataset_bytes: int
    updated_fraction: float  # fraction of parameter bytes changed per update
    train_seconds: float  # time to reproduce one training run
    recovers_per_save: float = 0.01  # paper assumption: recovery is rare
    dataset_externally_managed: bool = False

    def __post_init__(self):
        if self.model_bytes <= 0:
            raise ValueError("model_bytes must be positive")
        if not 0.0 <= self.updated_fraction <= 1.0:
            raise ValueError("updated_fraction must be within [0, 1]")


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one approach under a scenario."""

    approach: str
    storage_bytes: float
    save_seconds: float
    recover_seconds: float

    def weighted(self, storage_weight: float, save_weight: float, recover_weight: float) -> float:
        return (
            storage_weight * self.storage_bytes
            + save_weight * self.save_seconds
            + recover_weight * self.recover_seconds
        )


class CostModel:
    """First-order cost model for all three approaches.

    ``io_bytes_per_second`` covers serialize+hash+persist throughput; the
    default corresponds to the paper's measurements (a ~240 MB ResNet-152
    snapshot saves in ~0.8 s).
    """

    def __init__(self, io_bytes_per_second: float = 300e6, fixed_overhead_s: float = 0.02):
        self.io_bytes_per_second = io_bytes_per_second
        self.fixed_overhead_s = fixed_overhead_s

    def _io_time(self, num_bytes: float) -> float:
        return self.fixed_overhead_s + num_bytes / self.io_bytes_per_second

    def estimate(self, profile: ScenarioProfile, chain_depth: int = 1) -> list[CostEstimate]:
        """Cost of saving one derived model and recovering it later.

        ``chain_depth`` is the number of derived models between this model
        and its snapshot root — it drives the MPA's replay cost, one
        training per level (the MPA staircase of the paper's Figure 11).
        A PUA recover reads one full manifest at any depth, so it costs
        what a BA recover does.
        """
        update_bytes = profile.updated_fraction * profile.model_bytes
        mpa_storage = 0.0 if profile.dataset_externally_managed else profile.dataset_bytes

        estimates = [
            CostEstimate(
                APPROACH_BASELINE,
                storage_bytes=profile.model_bytes,
                save_seconds=self._io_time(profile.model_bytes),
                recover_seconds=self._io_time(profile.model_bytes),
            ),
            CostEstimate(
                APPROACH_PARAM_UPDATE,
                storage_bytes=update_bytes,
                save_seconds=self._io_time(update_bytes),
                recover_seconds=self._io_time(profile.model_bytes),
            ),
            CostEstimate(
                APPROACH_PROVENANCE,
                storage_bytes=mpa_storage,
                save_seconds=self._io_time(mpa_storage),
                recover_seconds=self._io_time(profile.model_bytes)
                + chain_depth * profile.train_seconds,
            ),
        ]
        return estimates


def recommend_approach(profile: ScenarioProfile) -> str:
    """The paper's simple ratio heuristic for save-heavy workloads.

    * dataset larger than the model (or unknown hardware) -> PUA;
    * large models with small datasets (e.g. NLP) or externally managed
      datasets -> MPA;
    * substantial per-update changes with nothing to exploit -> BA.
    """
    mpa_storage = 0 if profile.dataset_externally_managed else profile.dataset_bytes
    update_bytes = profile.updated_fraction * profile.model_bytes
    best = min(
        (
            (profile.model_bytes, APPROACH_BASELINE),
            (update_bytes, APPROACH_PARAM_UPDATE),
            (mpa_storage, APPROACH_PROVENANCE),
        ),
        key=lambda pair: pair[0],
    )
    return best[1]


def select_approach(
    profile: ScenarioProfile,
    chain_depth: int = 1,
    max_storage_bytes: float | None = None,
    max_recover_seconds: float | None = None,
    storage_weight: float = 1.0,
    save_weight: float = 0.0,
    recover_weight: float = 0.0,
    cost_model: CostModel | None = None,
) -> CostEstimate:
    """Pick the cheapest approach subject to hard constraints.

    Raises ``ValueError`` when no approach satisfies the constraints — in
    that case the caller must relax the storage bound or the TTR bound
    (the storage-retraining tradeoff has no free lunch).
    """
    model = cost_model or CostModel()
    candidates = model.estimate(profile, chain_depth=chain_depth)
    feasible = [
        c
        for c in candidates
        if (max_storage_bytes is None or c.storage_bytes <= max_storage_bytes)
        and (max_recover_seconds is None or c.recover_seconds <= max_recover_seconds)
    ]
    if not feasible:
        raise ValueError(
            "no approach satisfies the given constraints; "
            f"candidates were: {[(c.approach, c.storage_bytes, c.recover_seconds) for c in candidates]}"
        )
    # weight recover time by how often recovery actually happens
    return min(
        feasible,
        key=lambda c: c.weighted(
            storage_weight, save_weight, recover_weight * profile.recovers_per_save
        ),
    )
