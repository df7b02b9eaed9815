"""Adaptive approach selection (paper §4.7)."""

import pytest

from repro.core import (
    APPROACH_BASELINE,
    APPROACH_PARAM_UPDATE,
    APPROACH_PROVENANCE,
    CostModel,
    ScenarioProfile,
    recommend_approach,
    select_approach,
)


def profile(**overrides):
    defaults = dict(
        model_bytes=100_000_000,
        dataset_bytes=70_000_000,
        updated_fraction=1.0,
        train_seconds=60.0,
    )
    defaults.update(overrides)
    return ScenarioProfile(**defaults)


class TestSimpleHeuristic:
    def test_large_dataset_small_update_prefers_pua(self):
        """Paper: 'if the dataset is larger than the model, the PUA is the
        preferred choice' (partial updates)."""
        scenario = profile(dataset_bytes=500_000_000, updated_fraction=0.05)
        assert recommend_approach(scenario) == APPROACH_PARAM_UPDATE

    def test_nlp_shape_prefers_mpa(self):
        """Paper: large models, small datasets (e.g. NLP) -> MPA."""
        scenario = profile(model_bytes=1_000_000_000, dataset_bytes=10_000_000)
        assert recommend_approach(scenario) == APPROACH_PROVENANCE

    def test_externally_managed_dataset_makes_mpa_free(self):
        scenario = profile(
            dataset_bytes=10**12, dataset_externally_managed=True, updated_fraction=0.5
        )
        assert recommend_approach(scenario) == APPROACH_PROVENANCE

    def test_full_update_large_dataset_best_is_pua_or_ba(self):
        scenario = profile(updated_fraction=1.0, dataset_bytes=10**12)
        assert recommend_approach(scenario) in (APPROACH_BASELINE, APPROACH_PARAM_UPDATE)


class TestCostModel:
    def test_estimates_cover_all_approaches(self):
        estimates = CostModel().estimate(profile())
        assert {e.approach for e in estimates} == {
            APPROACH_BASELINE,
            APPROACH_PARAM_UPDATE,
            APPROACH_PROVENANCE,
        }

    def test_ba_recover_independent_of_depth(self):
        model = CostModel()
        shallow = {e.approach: e for e in model.estimate(profile(), chain_depth=1)}
        deep = {e.approach: e for e in model.estimate(profile(), chain_depth=20)}
        assert shallow[APPROACH_BASELINE].recover_seconds == deep[
            APPROACH_BASELINE
        ].recover_seconds

    def test_pua_recover_independent_of_depth(self):
        """A PUA model's full manifest names every layer: one read at any depth."""
        model = CostModel()
        shallow = {e.approach: e for e in model.estimate(profile(), chain_depth=1)}
        deep = {e.approach: e for e in model.estimate(profile(), chain_depth=20)}
        assert deep[APPROACH_PARAM_UPDATE].recover_seconds == shallow[
            APPROACH_PARAM_UPDATE
        ].recover_seconds == shallow[APPROACH_BASELINE].recover_seconds

    def test_mpa_recover_grows_with_depth(self):
        model = CostModel()
        shallow = {e.approach: e for e in model.estimate(profile(), chain_depth=1)}
        deep = {e.approach: e for e in model.estimate(profile(), chain_depth=20)}
        assert deep[APPROACH_PROVENANCE].recover_seconds > shallow[
            APPROACH_PROVENANCE
        ].recover_seconds

    def test_mpa_recover_dominated_by_training(self):
        estimate = {
            e.approach: e
            for e in CostModel().estimate(profile(train_seconds=3600), chain_depth=3)
        }[APPROACH_PROVENANCE]
        assert estimate.recover_seconds > 3 * 3600


class TestConstrainedSelection:
    def test_storage_bound_excludes_baseline(self):
        scenario = profile(updated_fraction=0.02, dataset_bytes=10**12)
        choice = select_approach(scenario, max_storage_bytes=10_000_000)
        assert choice.approach == APPROACH_PARAM_UPDATE

    def test_ttr_bound_excludes_mpa(self):
        scenario = profile(
            model_bytes=10**9, dataset_bytes=1, train_seconds=10_000, updated_fraction=1.0
        )
        choice = select_approach(scenario, max_recover_seconds=60)
        assert choice.approach != APPROACH_PROVENANCE

    def test_infeasible_constraints_raise(self):
        with pytest.raises(ValueError, match="no approach"):
            select_approach(profile(), max_storage_bytes=1, max_recover_seconds=1e-9)

    def test_ttr_priority_selects_baseline(self):
        """Paper: 'if the TTR has the highest priority, the BA is the
        preferred choice'."""
        scenario = profile(updated_fraction=0.5, recovers_per_save=1.0)
        choice = select_approach(
            scenario,
            chain_depth=10,
            storage_weight=0.0,
            recover_weight=1.0,
        )
        assert choice.approach == APPROACH_BASELINE


class TestValidation:
    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            profile(model_bytes=0)
        with pytest.raises(ValueError):
            profile(updated_fraction=1.5)
