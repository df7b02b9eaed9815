"""The ``mmlib`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cli
from repro.core import ArchitectureRef, BaselineSaveService, ModelSaveInfo
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.nn import serialization
from repro.nn.models import create_model
from tests.conftest import make_tiny_cnn
from tests.filestore.older_release import as_older_release


def build_probe_model(num_classes=10):
    """Importable factory for CLI saves."""
    return make_tiny_cnn(num_classes=num_classes)


FACTORY = "tests.test_cli:build_probe_model"


@pytest.fixture
def stores(tmp_path):
    docs = tmp_path / "docs"
    files = tmp_path / "files"
    return str(docs), str(files)


@pytest.fixture
def saved_model(stores):
    docs, files = stores
    service = BaselineSaveService(DocumentStore(docs), FileStore(files))
    model = make_tiny_cnn(seed=5)
    arch = ArchitectureRef.from_factory(
        "tests.test_cli", "build_probe_model", {"num_classes": 10}
    )
    model_id = service.save_model(ModelSaveInfo(model, arch, use_case="U_1"))
    return model_id, model


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestListInspect:
    def test_list_empty(self, stores, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "list") == 0
        assert "no models saved" in capsys.readouterr().out

    def test_list_shows_saved_model(self, stores, saved_model, capsys):
        docs, files = stores
        model_id, _ = saved_model
        assert run_cli("--docs", docs, "--files", files, "list") == 0
        out = capsys.readouterr().out
        assert model_id in out and "baseline" in out

    def test_list_filters_by_use_case(self, stores, saved_model, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "list", "--use-case", "U_9") == 0
        assert "no models saved" in capsys.readouterr().out

    def test_inspect(self, stores, saved_model, capsys):
        docs, files = stores
        model_id, _ = saved_model
        assert run_cli("--docs", docs, "--files", files, "inspect", model_id) == 0
        out = capsys.readouterr().out
        assert "storage:" in out and "parameters" in out

    def test_inspect_missing_model_errors(self, stores, capsys):
        docs, files = stores
        code = run_cli("--docs", docs, "--files", files, "inspect", "model-" + "0" * 32)
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSaveRecover:
    def test_save_then_recover_round_trip(self, stores, tmp_path, capsys):
        docs, files = stores
        model = make_tiny_cnn(seed=9)
        state_path = tmp_path / "input.state"
        serialization.save(model.state_dict(), state_path)

        assert run_cli(
            "--docs", docs, "--files", files, "save",
            "--factory", FACTORY,
            "--factory-kwargs", json.dumps({"num_classes": 10}),
            "--state", str(state_path),
            "--use-case", "U_1",
        ) == 0
        model_id = capsys.readouterr().out.strip()
        assert model_id.startswith("model-")

        out_path = tmp_path / "recovered.state"
        assert run_cli(
            "--docs", docs, "--files", files, "recover", model_id, "--out", str(out_path)
        ) == 0
        recovered = serialization.load(out_path)
        for key, value in model.state_dict().items():
            assert np.array_equal(value, recovered[key])

    def test_a_save_process_leaves_no_journal_file(self, stores):
        """A save commits by its model document and writes no log."""
        docs, files = stores
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parent.parent), str(repo)]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--docs", docs, "--files", files,
             "save", "--factory", FACTORY, "--use-case", "U_1"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert not (Path(files) / "journal").exists()

    def test_save_with_unknown_approach_errors(self, stores, capsys):
        docs, files = stores
        code = run_cli(
            "--docs", docs, "--files", files, "save",
            "--factory", FACTORY, "--approach", "zipper",
        )
        assert code == 2

    def test_lineage_and_tree(self, stores, saved_model, capsys):
        docs, files = stores
        model_id, _ = saved_model
        assert run_cli("--docs", docs, "--files", files, "lineage", model_id) == 0
        assert model_id in capsys.readouterr().out
        assert run_cli("--docs", docs, "--files", files, "tree", model_id) == 0
        assert model_id in capsys.readouterr().out

    def test_storage_report(self, stores, saved_model, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "storage") == 0
        assert "TOTAL" in capsys.readouterr().out


class TestDeleteGc:
    def test_delete_and_gc(self, stores, saved_model, capsys):
        docs, files = stores
        model_id, _ = saved_model
        FileStore(files).save_bytes(b"orphan bytes")
        assert run_cli("--docs", docs, "--files", files, "gc") == 0
        assert "removed 1 orphaned" in capsys.readouterr().out
        assert run_cli("--docs", docs, "--files", files, "delete", model_id) == 0
        assert run_cli("--docs", docs, "--files", files, "list") == 0
        assert "no models saved" in capsys.readouterr().out.splitlines()[-1]


class TestImport:
    def test_an_older_store_is_refused_and_imported_into_a_new_one(
        self, stores, saved_model, tmp_path, capsys
    ):
        docs, files = stores
        model_id, model = saved_model
        FileStore(files).chunks.close()
        as_older_release(files)
        assert run_cli("--docs", docs, "--files", files, "list") == 2
        assert "mmlib import" in capsys.readouterr().err

        new = tmp_path / "new"
        assert run_cli("--docs", docs, "--files", files, "import", str(new)) == 0
        out = capsys.readouterr().out
        assert "imported 1 model(s)" in out and f"--files {new / 'files'}" in out
        out_file = tmp_path / "out.state"
        assert run_cli("--docs", str(new / "documents"), "--files", str(new / "files"),
                       "recover", model_id, "--out", str(out_file)) == 0
        assert "verified=True" in capsys.readouterr().out
        recovered = serialization.load(out_file)
        for key, value in model.state_dict().items():
            assert np.array_equal(recovered[key], value)
        # a second import into the same place changes nothing
        before = sorted(p.relative_to(new) for p in new.rglob("*"))
        assert run_cli("--docs", docs, "--files", files, "import", str(new)) == 2
        assert "exists" in capsys.readouterr().err
        assert sorted(p.relative_to(new) for p in new.rglob("*")) == before

    def test_import_needs_the_stores_it_reads(self, tmp_path, capsys):
        assert run_cli("import", str(tmp_path / "new")) == 2
        assert "--docs and --files" in capsys.readouterr().err


class TestProbeEnv:
    def test_probe_reproducible_model(self, capsys):
        code = run_cli(
            "probe", "--factory", FACTORY,
            "--factory-kwargs", json.dumps({"num_classes": 10}),
            "--image-size", "8",
        )
        assert code == 0
        assert "training reproducible: True" in capsys.readouterr().out

    def test_probe_save_and_compare(self, tmp_path, capsys):
        summary = tmp_path / "probe.json"
        assert run_cli(
            "probe", "--factory", FACTORY,
            "--factory-kwargs", json.dumps({"num_classes": 10}),
            "--image-size", "8", "--save", str(summary),
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "probe", "--factory", FACTORY,
            "--factory-kwargs", json.dumps({"num_classes": 10}),
            "--image-size", "8", "--compare", str(summary),
        ) == 0
        assert "reproducible" in capsys.readouterr().out

    def test_env_summary(self, capsys):
        assert run_cli("env") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "numpy_version" in payload
        assert "packages" in payload["libraries"]

    def test_env_prints_the_id_a_save_would_store(self, capsys):
        from repro.core import collect_environment
        from repro.core.environment import environment_id

        assert run_cli("env") == 0
        printed = json.loads(capsys.readouterr().out)["environment_id"]
        assert printed == environment_id(collect_environment().to_dict())

    def test_env_full_lists_packages(self, capsys):
        assert run_cli("env", "--full") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "numpy" in payload["libraries"]


class TestParser:
    def test_bad_factory_spec(self, capsys):
        assert run_cli("probe", "--factory", "nomodule") == 2

    def test_missing_stores_error(self, capsys):
        assert run_cli("list") == 2
        assert "requires --docs" in capsys.readouterr().err


class TestEnvLockfile:
    def test_lock_then_check(self, tmp_path, capsys):
        lockfile = tmp_path / "env.lock"
        assert run_cli("env", "--lock", str(lockfile)) == 0
        assert lockfile.exists()
        capsys.readouterr()
        assert run_cli("env", "--check", str(lockfile)) == 0
        assert "matches lockfile" in capsys.readouterr().out

    def test_check_drifted_lockfile_fails(self, tmp_path, capsys):
        lockfile = tmp_path / "env.lock"
        run_cli("env", "--lock", str(lockfile))
        payload = json.loads(lockfile.read_text())
        payload["framework_version"] = "0.0.0-other"
        lockfile.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("env", "--check", str(lockfile)) == 1
        assert "drift" in capsys.readouterr().err


class TestVerifyAndSquash:
    @pytest.fixture
    def chain(self, stores):
        from repro.core import ParameterUpdateSaveService

        docs, files = stores
        service = ParameterUpdateSaveService(DocumentStore(docs), FileStore(files))
        arch = ArchitectureRef.from_factory(
            "tests.test_cli", "build_probe_model", {"num_classes": 10}
        )
        root = make_tiny_cnn(seed=1)
        root_id = service.save_model(ModelSaveInfo(root, arch, use_case="U_1"))
        derived = make_tiny_cnn()
        state = {k: v.copy() for k, v in root.state_dict().items()}
        state["5.bias"] = state["5.bias"] + 1.0
        derived.load_state_dict(state)
        derived_id = service.save_model(
            ModelSaveInfo(derived, arch, base_model_id=root_id, use_case="U_3-1-1")
        )
        return root_id, derived_id

    def test_verify_clean_catalog(self, stores, chain, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "verify") == 0
        out = capsys.readouterr().out
        assert "2 model(s) checked, 0 failure(s)" in out

    def test_squash_promotes_and_deletes(self, stores, chain, capsys):
        docs, files = stores
        _, derived_id = chain
        assert run_cli("--docs", docs, "--files", files, "squash", derived_id) == 0
        assert "deleted 1 exclusive ancestor" in capsys.readouterr().out
        assert run_cli("--docs", docs, "--files", files, "verify") == 0
        assert "1 model(s) checked" in capsys.readouterr().out

    def test_promote_only_keeps_ancestors(self, stores, chain, capsys):
        docs, files = stores
        root_id, derived_id = chain
        assert run_cli(
            "--docs", docs, "--files", files, "squash", derived_id, "--promote-only"
        ) == 0
        capsys.readouterr()
        assert run_cli("--docs", docs, "--files", files, "inspect", root_id) == 0


class TestCompact:
    @pytest.fixture
    def deep_chain(self, stores, tmp_path):
        """A snapshot and five MPA levels over it: a replay chain."""
        from repro.core import ProvenanceSaveInfo, ProvenanceSaveService, TrainRunSpec
        from repro.nn import rng
        from tests.core.test_recovery_plan import ShiftTrainService

        docs, files = stores
        service = ProvenanceSaveService(
            DocumentStore(docs), FileStore(files), scratch_dir=tmp_path / "scratch")
        arch = ArchitectureRef.from_factory(
            "tests.test_cli", "build_probe_model", {"num_classes": 10}
        )
        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / "sample.bin").write_bytes(b"replay needs a dataset to unpack")
        model = make_tiny_cnn(seed=1)
        ids = [service.save_model(ModelSaveInfo(model, arch, use_case="U_1"))]
        for _ in range(5):
            state = {k: v.copy() for k, v in model.state_dict().items()}
            state["5.bias"] = state["5.bias"] + 1.0
            model = make_tiny_cnn()
            model.load_state_dict(state)
            ids.append(service.save_model(ProvenanceSaveInfo(
                base_model_id=ids[-1],
                train_service=ShiftTrainService(["5.bias"], 1.0),
                train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=0),
                rng_state=rng.get_rng_state(),
                dataset_dir=dataset,
                expected_model=model,
            )))
        return ids

    def test_dry_run_prints_plan(self, stores, deep_chain, capsys):
        docs, files = stores
        assert run_cli(
            "--docs", docs, "--files", files, "compact",
            "--max-depth", "4", "--dry-run",
        ) == 0
        out = capsys.readouterr().out
        assert f"would materialize {deep_chain[4]}" in out

    def test_compact_then_idempotent(self, stores, deep_chain, capsys):
        docs, files = stores
        assert run_cli(
            "--docs", docs, "--files", files, "compact", "--max-depth", "4"
        ) == 0
        out = capsys.readouterr().out
        assert f"materialized {deep_chain[4]}" in out
        assert "compacted 1 model(s)" in out
        assert run_cli(
            "--docs", docs, "--files", files, "compact",
            "--max-depth", "4", "--dry-run",
        ) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert run_cli("--docs", docs, "--files", files, "verify") == 0

    def test_max_depth_zero_is_refused(self, stores, deep_chain, capsys):
        docs, files = stores
        assert run_cli(
            "--docs", docs, "--files", files, "compact", "--max-depth", "0"
        ) == 2
        assert "max_depth must be >= 1" in capsys.readouterr().err
        assert run_cli(
            "--docs", docs, "--files", files, "compact",
            "--max-depth", "4", "--dry-run",
        ) == 0
        assert f"would materialize {deep_chain[4]}" in capsys.readouterr().out

    def test_json_report(self, stores, deep_chain, capsys):
        docs, files = stores
        assert run_cli(
            "--docs", docs, "--files", files, "compact",
            "--max-depth", "4", "--json",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_depth"] == 4
        assert [m["model_id"] for m in payload["materialized"]] == [deep_chain[4]]


class TestFsckJson:
    def test_clean_store_emits_json_and_exits_zero(self, stores, saved_model, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "fsck", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["issues"] == []
        assert payload["checked_models"] == 1

    def test_unrepaired_issues_exit_one_with_machine_readable_report(
        self, stores, saved_model, capsys
    ):
        docs, files = stores
        model_id, _ = saved_model
        # damage: the model's parameters manifest disappears from the store
        document = DocumentStore(docs).collection("models").get(model_id)
        FileStore(files).delete(document["parameters_file"])

        code = run_cli(
            "--docs", docs, "--files", files, "fsck", "--no-repair", "--json"
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["unrepaired"] > 0
        assert any(issue["repaired"] is False for issue in payload["issues"])

    def test_plain_output_unchanged_without_the_flag(self, stores, saved_model, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "fsck") == 0
        out = capsys.readouterr().out
        assert "fsck" in out or "issue" in out or "clean" in out


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        from repro import obs

        obs.reset()
        yield
        obs.reset()

    def test_stats_prometheus_is_valid_exposition(self, saved_model, capsys):
        import re

        assert run_cli("stats", "--prometheus") == 0
        out = capsys.readouterr().out
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+$"
        )
        for line in out.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert line_re.match(line), line
        # preregistered families make the core surface visible even at zero
        for family in (
            "mmlib_chunk_cache_hits_total",
            "mmlib_retry_attempts_total",
            "mmlib_network_round_trips_total",
            "mmlib_cluster_quorum_write_failures_total",
        ):
            assert family in out
        # the in-process save above reached the same global registry
        assert 'mmlib_saves_total{approach="baseline"} 1' in out

    def test_stats_json_snapshot(self, saved_model, capsys):
        assert run_cli("stats") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mmlib_saves_total"]["type"] == "counter"
        [saves] = [
            s for s in payload["mmlib_saves_total"]["series"]
            if s["labels"] == {"approach": "baseline"}
        ]
        assert saves["value"] == 1

    def test_trace_jsonl_shows_in_process_spans(self, saved_model, capsys):
        assert run_cli("trace", "--last", "50") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert any(span["name"] == "service.save_model" for span in spans)
        assert all(
            {"span_id", "trace_id", "duration_s", "status"} <= set(span)
            for span in spans
        )

    def test_trace_empty_process_hints_at_demo(self, capsys):
        assert run_cli("trace") == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--demo" in captured.err

    def test_events_filter_by_kind(self, capsys):
        from repro import obs

        obs.event("retry", op="docs.get", attempt=1)
        obs.event("fault", fault="outage")
        assert run_cli("events", "--kind", "retry") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["retry"]

    def test_fsck_json_includes_step_timings(self, stores, saved_model, capsys):
        docs, files = stores
        assert run_cli("--docs", docs, "--files", files, "fsck", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        steps = payload["step_seconds"]
        assert set(steps) == {
            "segments", "documents", "chunks",
            "orphans", "replication", "orphan_documents",
        }
        assert all(seconds >= 0.0 for seconds in steps.values())


class TestDeadlineFlag:
    def test_rejects_non_positive_deadline(self, capsys):
        assert run_cli("--deadline", "0", "stats") == 2
        assert "must be positive" in capsys.readouterr().err

    def test_subcommand_runs_under_ambient_scope(self, monkeypatch):
        from repro import deadline as deadline_mod

        seen = {}

        def probe_env(args):
            seen["remaining"] = deadline_mod.remaining()
            return 0

        monkeypatch.setattr(cli, "cmd_env", probe_env)
        assert run_cli("--deadline", "3.5", "env") == 0
        assert 0 < seen["remaining"] <= 3.5

    def test_no_flag_means_unbounded(self, monkeypatch):
        from repro import deadline as deadline_mod

        seen = {}

        def probe_env(args):
            seen["remaining"] = deadline_mod.remaining()
            return 0

        monkeypatch.setattr(cli, "cmd_env", probe_env)
        assert run_cli("env") == 0
        assert seen["remaining"] is None


class TestServe:
    def test_serve_starts_answers_and_exits(self, stores, capsys):
        docs, files = stores
        code = run_cli(
            "--docs", docs, "--files", files,
            "serve", "--tenants", "acme,globex",
            "--port", "0", "--serve-seconds", "0.2", "--no-maintenance",
        )
        assert code == 0
        assert "mmlib gateway serving on" in capsys.readouterr().out

    def test_serve_requires_a_tenant(self, stores, capsys):
        docs, files = stores
        code = run_cli(
            "--docs", docs, "--files", files,
            "serve", "--tenants", " , ", "--port", "0", "--serve-seconds", "0.1",
        )
        assert code == 2
        assert "at least one tenant" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        args = cli.build_parser().parse_args(
            ["--docs", "d", "--files", "f", "serve", "--tenants", "acme"]
        )
        assert args.port == 7070
        assert args.workers == 4
        assert args.max_inflight == 32
        assert args.max_concurrency == 4
        assert args.approach == "param_update"
        assert args.compact_depth >= 1
