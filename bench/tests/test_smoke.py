"""Smoke test of the benchmark: ``python -m pytest bench/tests -q``.

Outside tier-1's ``testpaths``.  Runs ``run.py --smoke`` once (a few fixed
rounds of every workload, plain and traced) and single workloads again to
check that a seed fixes the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import breakdown  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
DIRECT = [name for name in WORKLOADS if name != "gateway-mixed"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*arguments) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *arguments],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def client_ops(workload: str) -> list[str]:
    spans = breakdown.load(str(BENCH / "out" / f"trace-{workload}.jsonl"))
    return [span["name"] for span in spans if span["name"].startswith("client.")]


def exact_counts(metrics: dict) -> dict:
    return {
        name: entry["value"] for name, entry in metrics.items()
        if name.endswith(("_per_save", "calls_per_save")) and "_ms_" not in name
    }


def test_times_are_divided_by_their_cycles_host_factor():
    import harness

    recorder = harness.Recorder()
    epochs = harness.Epochs(recorder)
    recorder.durations = {"save": [0.2, 0.4, 0.3], "query": [0.02]}
    epochs.rows = [
        {"epoch": 0, "wall": 1.0, "counts": {"save": 1}, "host": 2.0},
        {"epoch": 0, "wall": 3.0, "counts": {"save": 3, "query": 1}, "host": 1.0},
    ]
    assert epochs.quiet_durations() == {"save": [0.1, 0.4, 0.3], "query": [0.02]}
    assert epochs.quiet_seconds() == 3.5
    assert epochs.wall_seconds() == 4.0
    assert epochs.epoch_factor(0) == 1.5
    assert 0.3 < harness.host_factor() < 30


@pytest.fixture(scope="module")
def record() -> dict:
    return run("--smoke", "--seed", "1")


def test_every_metric_of_every_workload_is_reported(record):
    assert set(record["workloads"]) == set(WORKLOADS)
    for workload, result in record["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            listed = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
            reported = result[kind]
            assert set(reported) == set(listed), workload
            for name, entry in reported.items():
                assert NAME.fullmatch(name)
                assert entry["unit"] == listed[name]
                assert isinstance(entry["value"], (int, float))
        for name, entry in result["end_to_end"].items():
            assert entry["value"] > 0, (workload, name)


def test_nothing_failed(record):
    assert record["correct"]
    for workload, result in record["workloads"].items():
        assert result["failed_ops_share"] == 0, workload
        assert result["attempted"] > 0


def test_record_names_the_machine(record):
    for key in ("seed", "commit", "nproc", "python", "numpy",
                "installed_distributions", "workdir_filesystem"):
        assert key in record
    assert (BENCH / "out" / "latest.json").exists()


@pytest.mark.parametrize("workload", DIRECT)
def test_named_layers_cover_the_client_time(record, workload):
    assert record["workloads"][workload]["attributed_share"] >= 0.9
    spans = breakdown.load(str(BENCH / "out" / f"trace-{workload}.jsonl"))
    assert breakdown.attributed_share(spans) >= 0.9


def test_seed_fixes_the_sequence_and_the_counts(record):
    workload = "catalog-fleet"
    first = record["workloads"][workload]
    ops_first = client_ops(workload)  # the fixture's traced run wrote it last

    again = run("--workload", workload, "--smoke", "--seed", "1", "--trace", "1")
    assert client_ops(workload) == ops_first
    assert exact_counts(again["metrics"]) == exact_counts(first["per_layer"])
    assert exact_counts(again["metrics"])

    run("--workload", workload, "--smoke", "--seed", "2", "--trace", "1")
    assert client_ops(workload) != ops_first


@pytest.mark.parametrize("workload", DIRECT)
def test_seed_fixes_the_bytes_stored(record, workload):
    again = run("--workload", workload, "--smoke", "--seed", "1", "--trace", "0")
    # documents carry a time stamp whose digits vary, so not to the last byte
    assert again["metrics"]["storage_ratio"]["value"] == pytest.approx(
        record["workloads"][workload]["end_to_end"]["storage_ratio"]["value"],
        rel=1e-4)
