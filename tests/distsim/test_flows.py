"""Evaluation flows: model counts, per-node records, approach behaviour."""

import statistics

import numpy as np
import pytest

from repro.distsim import (
    DIST_5,
    DIST_10,
    DIST_20,
    STANDARD,
    FlowConfig,
    SharedStores,
    run_evaluation_flow,
)
from repro.workloads import ChainConfig, build_chain


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return build_chain(
        tmp_path_factory.mktemp("flow-chain"),
        ChainConfig(
            architecture="mobilenetv2",
            scale=0.125,
            num_classes=10,
            iterations=2,
            u2_epochs=1,
            u3_epochs=1,
            batches_per_epoch=1,
            dataset_scale=1 / 2048,
            image_size=16,
        ),
    )


TINY = FlowConfig("TINY", num_nodes=2, iterations=2)


class TestFlowConfigs:
    def test_paper_table3_model_counts(self):
        assert STANDARD.model_count == 10
        assert DIST_5.model_count == 102
        assert DIST_10.model_count == 202
        assert DIST_20.model_count == 402

    def test_chain_must_cover_flow_iterations(self, chain, tmp_path):
        stores = SharedStores.at(tmp_path / "s")
        with pytest.raises(ValueError, match="iterations"):
            run_evaluation_flow("baseline", chain, DIST_5, stores)


class TestBaselineFlow:
    @pytest.fixture(scope="class")
    def metrics(self, chain, tmp_path_factory):
        stores = SharedStores.at(tmp_path_factory.mktemp("ba-flow"))
        return run_evaluation_flow("baseline", chain, TINY, stores)

    def test_model_count(self, metrics):
        assert metrics.model_count == TINY.model_count == 10

    def test_node_attribution(self, metrics):
        server_records = [r for r in metrics.records if r.node == "server"]
        assert {r.use_case for r in server_records} == {"U_1", "U_2"}
        node_records = [r for r in metrics.records if r.node.startswith("node-")]
        assert len(node_records) == 8

    def test_every_record_measured(self, metrics):
        for record in metrics.records:
            assert record.tts_seconds > 0
            assert record.ttr_seconds is not None and record.ttr_seconds > 0
            assert record.storage_bytes > 0

    def test_ba_storage_constant_across_use_cases(self, metrics):
        storage = metrics.storage()
        values = list(storage.values())
        assert max(values) / min(values) < 1.05

    def test_ba_recovery_depth_always_zero(self, metrics):
        assert all(r.recovery_depth == 0 for r in metrics.records)

    def test_use_case_ordering(self, metrics):
        assert metrics.use_cases() == [
            "U_1", "U_3-1-1", "U_3-1-2", "U_2", "U_3-2-1", "U_3-2-2",
        ]


class TestParamUpdateFlow:
    @pytest.fixture(scope="class")
    def metrics(self, chain, tmp_path_factory):
        stores = SharedStores.at(tmp_path_factory.mktemp("pua-flow"))
        return run_evaluation_flow("param_update", chain, TINY, stores)

    def test_ttr_staircase_within_branches(self, metrics):
        """§4.4: recovery depth (and thus TTR) grows per U_3 iteration and
        resets at U_2."""
        depth = {r.use_case: r.recovery_depth for r in metrics.records}
        assert depth["U_1"] == 0
        assert depth["U_3-1-1"] == 1
        assert depth["U_3-1-2"] == 2
        assert depth["U_2"] == 1
        assert depth["U_3-2-1"] == 2
        assert depth["U_3-2-2"] == 3

    def test_all_models_verified_on_recovery(self, chain, tmp_path_factory):
        stores = SharedStores.at(tmp_path_factory.mktemp("pua-verify"))
        metrics = run_evaluation_flow("param_update", chain, TINY, stores)
        assert all(r.ttr_seconds is not None for r in metrics.records)


class TestProvenanceFlow:
    @pytest.fixture(scope="class")
    def metrics(self, chain, tmp_path_factory):
        stores = SharedStores.at(tmp_path_factory.mktemp("mpa-flow"))
        return run_evaluation_flow("provenance", chain, TINY, stores)

    def test_mpa_ttr_dominates_other_approaches(self, metrics):
        """§4.4: the MPA's TTR is its training replays.  Asserted on each
        recover's own Fig. 12 split (three replays against that recover's
        load + check-hash, the terms the other approaches consist of), not
        across two wall-clock samples a loaded host can reorder — and on the
        median of those ratios, so one recover a busy host stalls in its
        load cannot fail it."""
        deepest = [r for r in metrics.records if r.use_case == "U_3-2-2"]
        assert deepest and all(r.recovery_depth == 3 for r in deepest)
        ratios = [
            r.ttr_timings["recover"] / (r.ttr_timings["load"] + r.ttr_timings["check_hash"])
            for r in deepest
        ]
        assert statistics.median(ratios) > 5

    def test_mpa_storage_has_dataset_component(self, metrics):
        derived = [r for r in metrics.records if r.use_case == "U_3-1-1"]
        assert all("dataset" in r.storage_files for r in derived)

    def test_u2_storage_peak_from_larger_dataset(self, metrics):
        """§4.1: the MPA peaks at U_2 because mINet_val is larger."""
        storage = metrics.storage()
        assert storage["U_2"] > 1.5 * storage["U_3-1-1"]


class TestSkipRecover:
    def test_measure_recover_false_skips_ttr(self, chain, tmp_path):
        stores = SharedStores.at(tmp_path / "s")
        metrics = run_evaluation_flow(
            "baseline", chain, TINY, stores, measure_recover=False
        )
        assert all(r.ttr_seconds is None for r in metrics.records)
        assert metrics.median_ttr() == {}


class TestUnknownApproach:
    def test_rejected(self, chain, tmp_path):
        stores = SharedStores.at(tmp_path / "s")
        with pytest.raises(KeyError, match="unknown approach"):
            run_evaluation_flow("zip_everything", chain, TINY, stores)


class TestNetworkedFlow:
    def test_flow_over_simulated_link_accounts_transfers(self, chain, tmp_path):
        from repro.filestore import NetworkModel

        link = NetworkModel(bandwidth_bytes_per_s=50e6, latency_s=1e-3)
        stores = SharedStores.at(tmp_path / "net", network=link)
        metrics = run_evaluation_flow(
            "baseline", chain, TINY, stores, measure_recover=False
        )
        assert metrics.model_count == TINY.model_count
        files = stores.files
        # every snapshot's bytes crossed the link at least once
        total_storage = sum(r.storage_bytes for r in metrics.records)
        assert files.bytes_sent > 0.5 * total_storage
        assert files.simulated_seconds > 0
