PY ?= python

.PHONY: test lint bench bench-pairs bench-smoke bench-recovery bench-cluster bench-serving chaos api-docs stats-demo

# tier-1 suite (the repo's correctness gate)
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# static checks: ruff when installed, syntax-only compile gate otherwise
lint:
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src tests scripts; \
	else \
		echo "ruff not installed; falling back to compileall syntax check"; \
		$(PY) -m compileall -q src tests scripts; \
	fi

# the BENCHMARK.json harness: one fixed cycle of each workload, then its own
# checks (metric names/units, zero failed ops, determinism); bench/out/latest.json
bench:
	python3 bench/run.py --smoke
	$(PY) -m pytest bench/tests -q

# alternating parent/change pairs of one workload (or WORKLOAD=all: the four in
# turn, one table each), judged by the rule every performance claim is held
# to: make bench-pairs BASE=<rev> WORKLOAD=<name>|all [PAIRS=10]
PAIRS ?= 10
bench-pairs:
	$(PY) scripts/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

# tier-1 tests + ~5s save/recover micro-benchmark; writes BENCH_pipeline.json
bench-smoke:
	$(PY) scripts/bench_smoke.py

# serial vs pipelined recovery accounting; writes BENCH_recovery.json
bench-recovery:
	$(PY) scripts/bench_recovery.py

# sharded recover throughput + replica-down failover; writes BENCH_cluster.json
bench-cluster:
	$(PY) scripts/bench_cluster.py

# multi-tenant gateway under heavy-tailed load; writes BENCH_serving.json
bench-serving:
	$(PY) scripts/bench_serving.py --smoke

# fault-injection tests (fixed seeds; a save killed at every step and
# repaired by fsck alone, single store and 3x2 cluster restarted from disk,
# in test_crash_consistency.py) + the recovery plan's count gate (one
# build, one fetch per chain recover) + skeleton assembly (no constructor,
# no shared state, strict load) + the integrity gate (one check per
# recovered byte, every corruption still caught; a PUA save's derived
# Merkle tree equals a fresh one, a stale or planted cached tree is
# ignored) + the bookkeeping
# kill/crash-point/two-process tests + tombstones (a delete is a tombstone:
# reopen, compaction, a second process and the import never bring a
# dropped record back; segment names and log rewrites are fsynced into
# their directory; a writer holds its segment, so no other process seals
# or unlinks it, and one a dead writer left is sealed by the next open)
# + the one import door (the retired
# write formats, file-per-blob roots and parent-format logs converted by
# the import bitwise and fsck-clean, corruption caught, the import killed
# at every step, single store and 3x2 cluster; no retired-format name
# outside the importer, older roots refused, the marker fsynced) + one log
# (the RecordLog property test) + one replica
# core (the quorum policy of every write kind, verified heal sources, the
# flush barrier, a promote that fails at its commit point) + the gateway
# save exchange (forged digests, foreign references, collected chunks) +
# the gateway recover exchange (warm wire bytes, poisoned and corrupted
# layers, no model built on recover) + chaos smoke; writes BENCH_chaos.json
chaos:
	PYTHONPATH=src $(PY) -m pytest -q tests/filestore/test_faults.py \
		tests/filestore/test_segments.py \
		tests/core/test_crash_consistency.py tests/core/test_fsck.py \
		tests/core/test_recovery_plan.py::TestCounts \
		tests/core/test_assembly.py \
		tests/core/test_recovery_plan.py::TestIntegrityOfThePlan \
		tests/core/test_byte_path.py::TestIntegrity \
		tests/core/test_byte_path.py::TestOneCheckPerByte \
		tests/core/test_merkle.py::TestDerive \
		tests/core/test_param_update.py::TestTreeCache \
		tests/filestore/test_bookkeeping.py::TestReopenWithoutClose \
		tests/filestore/test_bookkeeping.py::TestTwoProcesses \
		tests/filestore/test_bookkeeping.py::TestTombstones \
		tests/filestore/test_bookkeeping.py::TestAWriterHoldsItsSegment \
		tests/filestore/test_bookkeeping.py::TestASaveCostsWhatItTouches \
		tests/filestore/test_bookkeeping_property.py \
		tests/filestore/test_legacy_import.py::TestRetiredWriteFormats \
		tests/filestore/test_legacy_import.py::TestImportCrashes \
		tests/filestore/test_legacy_import.py::TestAStoreTheParentWrote \
		tests/core/test_full_manifests.py \
		tests/filestore/test_legacy_import.py::TestAStoreOfFilesPerBlob \
		tests/test_one_door.py \
		tests/filestore/test_record_log.py tests/filestore/test_parent_logs.py \
		tests/cluster/test_sharded_store.py::TestQuorumWrites::test_every_write_kind_follows_one_quorum_policy \
		tests/cluster/test_sharded_store.py::TestFlushBarrier \
		tests/core/test_manager.py::TestPromoteAndSquash::test_a_failed_promote_releases_nothing \
		tests/cluster/test_rebalance.py tests/cluster/test_selfheal.py \
		tests/gateway/test_save_exchange.py tests/gateway/test_recover_exchange.py
	$(PY) scripts/chaos_smoke.py

api-docs:
	PYTHONPATH=src $(PY) scripts/generate_api_docs.py

# observability smoke: clustered save/recover, then dump metrics and traces
stats-demo:
	PYTHONPATH=src $(PY) -m repro.cli stats --demo --prometheus
	PYTHONPATH=src $(PY) -m repro.cli trace --demo --last 20
