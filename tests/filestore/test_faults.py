"""Fault injection + retry at the file-store boundary.

The injector must be deterministic (seeded), its failures must surface
as *typed* errors, and a retry-carrying store must absorb transient
faults while leaving the on-disk state bitwise identical to a clean run.
"""

import numpy as np
import pytest

from repro.core.hashing import state_dict_hashes, tensor_hash
from repro.errors import MMLibError, StoreCorruptionError, TransientStoreError
from repro.faults import CrashPoint, FaultInjector, FaultyDocumentStore
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.retry import RetryPolicy

from .test_chunks import small_state


def no_sleep_policy(**kwargs):
    kwargs.setdefault("max_attempts", 6)
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(sleep=lambda s: None, **kwargs)


class TestInjectorDeterminism:
    def drive(self, faults, ops=200):
        outcomes = []
        for i in range(ops):
            op = ("chunk.write", "file.read", "docs.find", "chunk.read")[i % 4]
            try:
                faults.fail_point(op)
                outcomes.append("ok")
            except TransientStoreError:
                outcomes.append("err")
            outcomes.append(faults.torn_write(op))
            outcomes.append(faults.corrupt(op, b"payload-%d" % i))
        return outcomes

    def test_same_seed_same_decisions(self):
        kwargs = dict(
            error_rate=0.2, torn_write_rate=0.1, corrupt_rate=0.15, outage_rate=0.3
        )
        a = FaultInjector(seed=42, **kwargs)
        b = FaultInjector(seed=42, **kwargs)
        assert self.drive(a) == self.drive(b)
        assert a.stats == b.stats
        assert a.stats["errors"] > 0 and a.stats["outages"] > 0

    def test_different_seed_different_decisions(self):
        a = FaultInjector(seed=1, error_rate=0.2, corrupt_rate=0.2)
        b = FaultInjector(seed=2, error_rate=0.2, corrupt_rate=0.2)
        assert self.drive(a) != self.drive(b)

    def test_max_consecutive_failures_bounds_streaks(self):
        faults = FaultInjector(seed=0, error_rate=1.0, max_consecutive_failures=2)
        outcomes = []
        for _ in range(9):
            try:
                faults.fail_point("file.write")
                outcomes.append("ok")
            except TransientStoreError:
                outcomes.append("err")
        # never more than two failures in a row, so attempt 3 of any
        # bounded retry loop is guaranteed to succeed
        assert "".join(o[0] for o in outcomes) == "eeoeeoeeo"

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(error_rate=1.5)


class TestTypedErrors:
    def test_unretried_failure_is_typed(self, tmp_path):
        store = FileStore(tmp_path / "s", faults=FaultInjector(seed=0, error_rate=1.0))
        with pytest.raises(TransientStoreError) as excinfo:
            store.save_bytes(b"doomed")
        # retryable, library-typed, and still an OSError for legacy callers
        assert isinstance(excinfo.value, MMLibError)
        assert isinstance(excinfo.value, OSError)

    def test_docstore_outage_is_typed(self, mem_doc_store):
        faults = FaultInjector(seed=0, outage_rate=1.0)
        store = FaultyDocumentStore(mem_doc_store, faults)
        with pytest.raises(TransientStoreError):
            store.collection("models").find({})
        assert faults.stats["outages"] == 1

    def test_exhausted_retries_reraise_typed_error(self, tmp_path):
        faults = FaultInjector(seed=0, error_rate=1.0)
        retry = no_sleep_policy(max_attempts=3)
        store = FileStore(tmp_path / "s", faults=faults, retry=retry)
        with pytest.raises(TransientStoreError):
            store.save_bytes(b"never lands")
        assert retry.stats["failures"] == 1
        assert retry.stats["retries"] == 2


class TestRetryAbsorbsTransients:
    def test_flaky_save_recover_is_bitwise(self, tmp_path):
        faults = FaultInjector(seed=7, error_rate=0.2, max_consecutive_failures=3)
        retry = no_sleep_policy()
        store = FileStore(tmp_path / "s", faults=faults, retry=retry)
        state = small_state(seed=11)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        blob_id = store.save_bytes(b"side payload")
        restored = store.recover_state_chunks(file_id)
        for key in state:
            assert np.array_equal(restored[key], state[key])
        assert store.recover_bytes(blob_id) == b"side payload"
        assert faults.stats["errors"] > 0
        assert retry.retries_taken >= faults.stats["errors"]

    def test_torn_write_leaves_tear_then_retry_converges(self, tmp_path):
        faults = FaultInjector(seed=1, torn_write_rate=0.5)
        retry = no_sleep_policy()
        store = FileStore(
            tmp_path / "s", faults=faults, retry=retry, tmp_grace_s=0.0)
        chunks = store.chunks
        tears = []
        write_torn = chunks.write_torn

        def spy(digest, buffer):
            segment = write_torn(digest, buffer)
            tears.append((chunks._active_end, segment.stat().st_size))
            return segment

        chunks.write_torn = spy
        payload = np.arange(64, dtype=np.float32)
        digest = tensor_hash(payload)
        assert store.put_chunk(digest, payload.data) is True
        assert faults.stats["torn_writes"] == len(tears) >= 1
        # each tear was half a record past the logical end...
        for logical_end, size in tears:
            assert logical_end < size
        # ...which the retry overwrote in place: the segment ends where the
        # converged record does, and the chunk is intact
        path, offset, length = chunks.locate(digest)
        assert path.stat().st_size == offset + length == chunks._active_end
        assert bytes(chunks.get(digest)) == payload.tobytes()

        # a tear the process dies with is rejected by the scan's CRC check
        # on reopen, and the audit cuts it off
        other = np.arange(64, 128, dtype=np.float32)
        write_torn(tensor_hash(other), other.data)
        del store, chunks
        reopened = FileStore(tmp_path / "s", tmp_grace_s=0.0).chunks
        assert not reopened.has(tensor_hash(other))
        assert bytes(reopened.get(digest)) == payload.tobytes()
        assert reopened.audit(repair=True)["torn_segments"] == [path.name]
        assert path.stat().st_size == offset + length

    def test_corrupt_chunk_read_heals_via_refetch(self, tmp_path):
        faults = FaultInjector(seed=5, corrupt_rate=1.0, max_consecutive_failures=None)
        retry = no_sleep_policy(max_attempts=8)
        store = FileStore(tmp_path / "s", faults=faults, retry=retry)
        assert store.verify_reads  # implied by having faults/retry
        state = small_state(seed=9)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        faults.corrupt_rate = 0.5  # every fetch has a coin-flip of arriving flipped
        for _ in range(5):
            restored = store.recover_state_chunks(file_id)
            for key in state:
                assert np.array_equal(restored[key], state[key])
        assert faults.stats["corruptions"] > 0

    def test_unverified_corruption_is_fatal_and_typed(self, tmp_path):
        faults = FaultInjector(seed=5, corrupt_rate=1.0)
        store = FileStore(tmp_path / "s", faults=faults, verify_reads=True)
        state = small_state(seed=10)
        faults.corrupt_rate = 0.0
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        faults.corrupt_rate = 1.0
        with pytest.raises(StoreCorruptionError):  # no retry policy: surfaces
            store.recover_state_chunks(file_id)


class TestNetworkAccounting:
    def test_failed_upload_charges_nothing(self, tmp_path):
        faults = FaultInjector(seed=0, error_rate=1.0)
        store = SimulatedNetworkFileStore(
            tmp_path / "s", NetworkModel(bandwidth_bytes_per_s=1e6),
            sleep=False, faults=faults,
        )
        with pytest.raises(TransientStoreError):
            store.save_bytes(b"x" * 10_000)
        assert store.bytes_sent == 0

    def test_retried_upload_charges_once(self, tmp_path):
        faults = FaultInjector(seed=1, error_rate=0.5, max_consecutive_failures=2)
        store = SimulatedNetworkFileStore(
            tmp_path / "s", NetworkModel(bandwidth_bytes_per_s=1e6),
            sleep=False, faults=faults, retry=no_sleep_policy(),
        )
        payload = b"y" * 4_096
        file_id = store.save_bytes(payload)
        assert store.recover_bytes(file_id) == payload
        # charged for the one successful upload, not per attempt
        assert store.bytes_sent == len(payload)


class TestCrashPoints:
    def test_crash_point_is_not_an_exception(self):
        assert not issubclass(CrashPoint, Exception)

    def test_crash_is_one_shot_and_matches_op(self):
        faults = FaultInjector(seed=0)
        faults.arm_crash(2, op="chunk.")
        faults.fail_point("file.write")  # not a chunk op: doesn't count
        faults.fail_point("chunk.write")  # match #1
        with pytest.raises(CrashPoint):
            faults.fail_point("chunk.read")  # match #2: dies here
        faults.fail_point("chunk.read")  # disarmed: repair code runs clean
        assert faults.stats["crashes"] == 1

    def test_crash_mid_save_leaves_journal_for_rollback(self, tmp_path):
        faults = FaultInjector(seed=0)
        store = FileStore(tmp_path / "s", faults=faults)
        state = small_state(seed=6)
        store.begin_journal()
        faults.arm_crash(3, op="chunk.write")
        with pytest.raises(CrashPoint):
            store.save_state_chunks(state, state_dict_hashes(state))
        store.abandon_journal()  # the "process" died; journal stays on disk

        reopened = FileStore(tmp_path / "s")
        incomplete = reopened.incomplete_journals()
        assert len(incomplete) == 1
        stats = reopened.rollback_journal(incomplete[0])
        assert stats["chunks_removed"] == 2  # the two chunks written pre-crash
        assert len(reopened.chunks) == 0
        assert reopened.file_ids() == []
        assert reopened.incomplete_journals() == []
