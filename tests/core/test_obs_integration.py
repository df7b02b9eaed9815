"""Observability wired through the core services, manager, and fsck."""

import pytest

from repro import obs
from repro.core import ArchitectureRef, BaselineSaveService, ModelManager, ModelSaveInfo
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.obs import FakeClock
from tests.conftest import make_tiny_cnn

ARCH = ArchitectureRef.from_factory(
    "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
)

FSCK_STEPS = (
    "journals", "segments", "compaction", "documents", "chunks",
    "refcounts", "replication", "hints", "orphan_documents",
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def make_service(tmp_path, **kwargs):
    return BaselineSaveService(
        DocumentStore(tmp_path / "docs"), FileStore(tmp_path / "files"), **kwargs
    )


class TestFakeClockTimings:
    def test_snapshot_recover_timings_are_exact_ticks(self, tmp_path):
        """Each timed section reads perf() twice, so it measures exactly
        one tick; ``load`` spans two sections (architecture + state)."""
        service = make_service(tmp_path, clock=FakeClock(tick=1.0))
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        info = service.recover_model(model_id, verify=True)
        assert info.timings == {
            "load": 2.0, "recover": 1.0, "check_env": 0.0, "check_hash": 1.0,
        }

    def test_skipping_verify_zeroes_check_hash(self, tmp_path):
        service = make_service(tmp_path, clock=FakeClock(tick=1.0))
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        info = service.recover_model(model_id, verify=False)
        assert info.timings == {
            "load": 2.0, "recover": 1.0, "check_env": 0.0, "check_hash": 0.0,
        }


class TestServiceMetrics:
    def test_save_recover_counters_and_histograms(self, tmp_path):
        service = make_service(tmp_path)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        service.recover_model(model_id)
        service.recover_model(model_id)
        registry = obs.registry()
        assert registry.value("mmlib_saves_total", approach="baseline") == 1
        assert registry.value("mmlib_recovers_total", approach="baseline") == 2
        snapshot = registry.snapshot()

        def series(name):
            [match] = [
                s for s in snapshot[name]["series"]
                if s["labels"] == {"approach": "baseline"}
            ]
            return match

        assert series("mmlib_save_seconds")["count"] == 1
        assert series("mmlib_recover_seconds")["count"] == 2

    def test_save_and_recover_produce_trace_trees(self, tmp_path):
        service = make_service(tmp_path)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        service.recover_model(model_id)
        tracer = obs.tracer()
        roots = [sp for sp in tracer.spans() if sp.parent_id is None]
        assert [sp.name for sp in roots] == [
            "service.save_model", "service.recover_model",
        ]
        assert roots[0].attrs["model_id"] == model_id
        recover_names = {
            sp.name for sp in tracer.spans(trace_id=roots[1].trace_id)
        }
        assert {"service.recover_model", "recover.document",
                "store.recover_chunks"} <= recover_names


class TestManagerStats:
    def test_stats_bundles_registry_and_components(self, tmp_path):
        service = make_service(tmp_path)
        manager = ModelManager(service)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        service.recover_model(model_id)
        stats = manager.stats()
        [saves] = [
            s for s in stats["metrics"]["mmlib_saves_total"]["series"]
            if s["labels"] == {"approach": "baseline"}
        ]
        assert saves["value"] == 1
        # a plain local deployment contributes no optional sections
        assert "network" not in stats
        assert "cluster_files" not in stats

    def test_stats_includes_chunk_cache_when_present(self, tmp_path):
        service = BaselineSaveService(
            DocumentStore(tmp_path / "docs"),
            FileStore(tmp_path / "files", chunk_cache=1 << 20),
        )
        manager = ModelManager(service)
        model_id = service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        service.recover_model(model_id)
        cache = manager.stats()["chunk_cache"]
        assert set(cache) == {"entries", "bytes", "hits", "misses", "evictions"}


class TestFsckObservability:
    def test_report_times_every_step(self, tmp_path):
        service = make_service(tmp_path)
        manager = ModelManager(service)
        service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        report = manager.fsck()
        assert tuple(report.step_seconds) == FSCK_STEPS
        assert all(seconds >= 0.0 for seconds in report.step_seconds.values())
        assert report.to_dict()["step_seconds"] == report.step_seconds

    def test_fsck_steps_appear_as_spans(self, tmp_path):
        manager = ModelManager(make_service(tmp_path))
        manager.fsck()
        span_names = {sp.name for sp in obs.tracer().spans()}
        assert {f"fsck.{step}" for step in FSCK_STEPS} <= span_names

    def test_repairs_emit_events_and_counters(self, tmp_path):
        service = make_service(tmp_path)
        manager = ModelManager(service)
        service.save_model(ModelSaveInfo(make_tiny_cnn(), ARCH))
        # orphan a file: write a blob no document references
        service.files.save_bytes(b"orphan payload")
        report = manager.fsck()
        assert [issue.kind for issue in report.repaired] == ["orphan_file"]
        registry = obs.registry()
        assert registry.value("mmlib_fsck_issues_total", kind="orphan_file") == 1
        assert registry.value("mmlib_fsck_repairs_total") == 1
        [event] = obs.events().events(kind="fsck_repair")
        assert event.fields["issue"] == "orphan_file"
