"""Segment-based chunk store: append-only segments, group fsync, compaction."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.hashing import state_dict_hashes
from repro.errors import StoreCorruptionError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkNotFoundError, ChunkStore, FileStore
from repro.filestore import segments
from repro.filestore.segments import SEGMENT_SUFFIX, WRITEBACK_BYTES
from tests.filestore.helpers import locate


def payload(index: int, size: int = 512) -> bytes:
    return bytes((index + offset) % 251 for offset in range(size))


def digest_for(index: int) -> str:
    return f"{index:08d}" + "ab" * 12


def fill(store, count: int, size: int = 512) -> dict[str, bytes]:
    data = {digest_for(i): payload(i, size) for i in range(count)}
    for digest, blob in data.items():
        assert store.put(digest, blob) is True
    store.flush()
    return data


class TestSegmentBasics:
    def test_round_trip_and_dedup(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        data = fill(store, 8)
        for digest, blob in data.items():
            assert store.has(digest)
            assert store.get(digest) == blob
            # size_of is the at-rest size: a raw record is the payload
            assert store.size_of(digest) == len(blob)
        assert store.put(digest_for(0), payload(0)) is False  # dedup
        path, offset, length = locate(store, digest_for(0))
        assert path.suffix == SEGMENT_SUFFIX
        with open(path, "rb") as fileobj:
            fileobj.seek(offset)
            assert fileobj.read(length) == payload(0)
        with pytest.raises(ChunkNotFoundError):
            store.get("ffffffff" + "cd" * 12)

    def test_group_fsync_is_one_barrier_per_batch(self, tmp_path):
        obs.reset()
        store = ChunkStore(tmp_path / "s")
        for index in range(20):
            store.put(digest_for(index), payload(index))
        assert store.flush() == 1
        assert store.flush() == 0  # nothing new to sync
        snapshot = obs.registry().snapshot()

        def total(family):
            return sum(s["value"] for s in snapshot[family]["series"])

        assert total("mmlib_segment_appends_total") == 20
        assert total("mmlib_segment_fsync_batches_total") == 1
        assert total("mmlib_chunk_fsyncs_total") == 1
        obs.reset()

    def test_rolls_seal_segments_with_footers(self, tmp_path):
        store = ChunkStore(tmp_path / "s", segment_bytes=2048)
        data = fill(store, 12)
        stats = store.segment_stats()
        assert stats["segment_count"] > 1
        assert stats["sealed_segments"] >= 1
        for digest, blob in data.items():
            assert store.get(digest) == blob

    def test_reopen_after_close_reads_footers_only(self, tmp_path, monkeypatch):
        """``close`` seals the active segment: a reopen scans no record."""
        store = ChunkStore(tmp_path / "s", segment_bytes=2048)
        data = fill(store, 12)
        store.close()
        scans = []
        monkeypatch.setattr(ChunkStore, "_scan_records_locked",
                            lambda self, fileobj, name, meta: scans.append(name))
        reopened = ChunkStore(tmp_path / "s", segment_bytes=2048)
        assert scans == []
        assert all(meta["sealed"] for meta in reopened._segmeta.values())
        for digest, blob in data.items():
            assert reopened.get(digest) == blob

    def test_reopen_after_a_kill_scans_the_unsealed_tail(self, tmp_path):
        """No close: the footers and a scan of the tail find it all."""
        store = ChunkStore(tmp_path / "s", segment_bytes=2048)
        data = fill(store, 13)
        assert not store._segmeta[store._active_name]["sealed"]
        del store
        reopened = ChunkStore(tmp_path / "s", segment_bytes=2048)
        assert sorted(reopened.chunk_ids()) == sorted(data)
        for digest, blob in data.items():
            assert reopened.get(digest) == blob

    def test_deleted_chunk_stays_deleted_after_reopen(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        fill(store, 6)
        assert store.drop(digest_for(2)) is True
        store.close()
        reopened = ChunkStore(tmp_path / "s")
        assert not reopened.has(digest_for(2))
        assert reopened.get(digest_for(3)) == payload(3)


class TestTornAppends:
    def test_torn_append_then_retry_converges(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        fill(store, 2)
        store.write_torn(digest_for(9), payload(9))
        assert not store.has(digest_for(9))
        assert store.put(digest_for(9), payload(9)) is True  # overwrites the tear
        store.flush()
        assert store.get(digest_for(9)) == payload(9)
        assert store.get(digest_for(1)) == payload(1)

    def test_torn_append_then_crash_is_truncated_by_audit(self, tmp_path):
        store = ChunkStore(tmp_path / "s", tmp_grace_s=0.0)
        data = fill(store, 4)
        torn = store.write_torn(digest_for(9), payload(9))
        del store  # crash: no close, the tear stays on disk
        assert torn.exists()
        reopened = ChunkStore(tmp_path / "s", tmp_grace_s=0.0)
        assert not reopened.has(digest_for(9))
        outcome = reopened.audit(repair=True, verify=True)
        assert torn.name in outcome["torn_segments"]
        assert outcome["crc_failures"] == []
        for digest, blob in data.items():
            assert reopened.get(digest) == blob
        second = reopened.audit(repair=True, verify=True)
        assert second["torn_segments"] == []
        assert second["entries_dropped"] == []

    def test_audit_flags_bit_rot_with_verify(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        fill(store, 3)
        path, offset, _length = locate(store, digest_for(1))
        with open(path, "r+b") as fileobj:
            fileobj.seek(offset)
            byte = fileobj.read(1)
            fileobj.seek(offset)
            fileobj.write(bytes([byte[0] ^ 0xFF]))
        assert store.audit(repair=True, verify=False)["crc_failures"] == []
        outcome = store.audit(repair=True, verify=True)
        assert outcome["crc_failures"] == [digest_for(1)]
        with pytest.raises(StoreCorruptionError):
            store.get(digest_for(1))


class TestDamagedLengthField:
    """A flipped high bit in a record's length field: the scan bounds the
    length by the bytes left in the file, so the record is bad, not a
    256 GiB (bit 38) or 4 EiB (bit 62) allocation."""

    @staticmethod
    def damage_first_record(root, bit: int = 38) -> dict[str, bytes]:
        """Four records; the first's length field gets ``bit`` flipped."""
        store = ChunkStore(root, tmp_grace_s=0.0)
        data = fill(store, 4)
        path, offset, _length = locate(store, digest_for(0))
        del store  # crash: no checkpoint, so the reopen scans the segment
        length_field = offset - len(digest_for(0)) - 8
        with open(path, "r+b") as fileobj:
            fileobj.seek(length_field + bit // 8)
            byte = fileobj.read(1)
            fileobj.seek(length_field + bit // 8)
            fileobj.write(bytes([byte[0] ^ (1 << bit % 8)]))
        return data

    @pytest.mark.parametrize("bit", [38, 62])
    def test_reopen_and_audit_report_it_and_keep_every_other_record(self, tmp_path, bit):
        data = self.damage_first_record(tmp_path / "s", bit)
        reopened = ChunkStore(tmp_path / "s", tmp_grace_s=0.0)
        outcome = reopened.audit(repair=True, verify=True)
        assert outcome["crc_failures"] == [digest_for(0)]
        assert outcome["torn_segments"] == []
        assert not reopened.has(digest_for(0))
        for digest, blob in list(data.items())[1:]:
            assert reopened.get(digest) == blob

    def test_the_report_lasts_as_long_as_the_damaged_record(self, tmp_path):
        data = self.damage_first_record(tmp_path / "s")
        reopened = ChunkStore(tmp_path / "s", tmp_grace_s=0.0)
        reopened.close()
        # the checkpoint the close wrote carries the finding over a reopen
        reopened = ChunkStore(tmp_path / "s", tmp_grace_s=0.0)
        assert reopened.audit(repair=False)["crc_failures"] == [digest_for(0)]
        # the chunk written again reads back whole: nothing left to report
        reopened.put(digest_for(0), data[digest_for(0)])
        reopened.flush()
        assert reopened.audit(repair=False)["crc_failures"] == []
        reopened.drop(digest_for(0))
        assert reopened.audit(repair=False)["crc_failures"] == [digest_for(0)]
        # every record unmarked: gc unlinks the segment, and its damage
        reopened.gc(set())
        assert reopened.audit(repair=False)["crc_failures"] == []

    def test_a_scan_reads_no_further_than_the_size_it_saw(self, tmp_path, monkeypatch):
        """Another process appends while a scan runs: the scan ends on a
        record boundary at the size ``fstat`` gave it, and the records past
        that boundary wait for the next refresh instead of breaking this one."""
        writer = ChunkStore(tmp_path / "s")
        fill(writer, 2)
        reader = ChunkStore(tmp_path / "s")
        assert reader.get(digest_for(1)) == payload(1)
        data = {digest_for(i): payload(i) for i in range(2, 6)}
        for digest, blob in data.items():
            writer.put(digest, blob)
        writer.flush()
        path, offset, length = locate(writer, digest_for(2))
        seen = offset + length  # the fstat saw one of the four appends
        segment = os.stat(path).st_ino
        real_fstat = os.fstat

        def fstat(fd):
            result = real_fstat(fd)
            if result.st_ino != segment:
                return result
            fields = list(result)
            fields[6] = seen  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", fstat)
        assert reader.get(digest_for(2)) == payload(2)
        assert not reader.has(digest_for(3))
        monkeypatch.setattr(os, "fstat", real_fstat)
        for digest, blob in data.items():
            assert reader.get(digest) == blob
        assert reader.audit(repair=False)["crc_failures"] == []


class TestCompaction:
    def build_fragmented(self, root, count=40):
        """Interleaved deletes leave every sealed segment ~1/3 live."""
        store = ChunkStore(root, segment_bytes=4096, tmp_grace_s=0.0)
        data = fill(store, count)
        for index in range(count):
            if index % 3 != 0:
                store.drop(digest_for(index))
                del data[digest_for(index)]
        return store, data

    def test_compaction_rewrites_low_live_segments(self, tmp_path):
        store, data = self.build_fragmented(tmp_path / "s")
        before = store.segment_stats()
        assert before["compaction_debt_bytes"] > 0
        result = store.compact()
        assert result["segments_compacted"] > 0
        assert result["records_moved"] > 0
        assert result["bytes_reclaimed"] > 0
        after = store.segment_stats()
        assert after["live_ratio"] > before["live_ratio"]
        assert after["compaction_debt_bytes"] == 0
        for digest, blob in data.items():
            assert store.get(digest) == blob

    def test_gc_runs_compaction(self, tmp_path):
        store, data = self.build_fragmented(tmp_path / "s")
        stats = store.gc(set(data))
        assert stats["segments_compacted"] > 0
        for digest, blob in data.items():
            assert store.get(digest) == blob

    def test_a_corrupt_live_record_keeps_only_its_segment_out_of_the_pass(self, tmp_path):
        """A flipped bit in a live record of one victim: every gc still
        compacts the other victim and leaves that one whole, where fsck's
        audit reports the record; every other record reads back."""
        store = ChunkStore(tmp_path / "s", segment_bytes=64 * 1024, tmp_grace_s=0.0)
        data = fill(store, 40, size=4096)
        released = [digest_for(i) for i in (*range(13), *range(16, 25))]
        store.drop_many(released)
        for digest in released:
            del data[digest]
        bad = digest_for(14)
        path, offset, length = locate(store, bad)
        with open(path, "r+b") as fileobj:
            fileobj.seek(offset + length // 2)
            byte = fileobj.read(1)
            fileobj.seek(offset + length // 2)
            fileobj.write(bytes([byte[0] ^ 0x01]))

        stats = store.gc()
        assert stats["segments_skipped"] == 1
        assert stats["segments_compacted"] == 1
        assert path.exists() and locate(store, bad) == (path, offset, length)
        with pytest.raises(StoreCorruptionError):
            store.get(bad)
        for digest, blob in data.items():
            if digest != bad:
                assert store.get(digest) == blob
        assert store.audit(repair=True, verify=True)["crc_failures"] == [bad]
        assert store.gc()["segments_skipped"] == 1

    def test_crash_at_every_compaction_point_recovers_bitwise(self, tmp_path):
        """Kill compaction at op 1, 2, 3, ...; a reopen + audit always heals,
        and the next compaction leaves no segment the index does not name."""
        crashes = 0
        for at in range(1, 60):
            root = tmp_path / f"crash-{at}"
            store, data = self.build_fragmented(root)
            faults = FaultInjector(seed=0)
            store.fault_hook = faults.fail_point
            faults.arm_crash(at, op="chunk.compact")
            try:
                store.compact()
            except CrashPoint:
                crashes += 1
            else:
                break  # compaction outran the armed crash: all points covered
            del store  # crash: no close
            reopened = ChunkStore(
                root, segment_bytes=4096, tmp_grace_s=0.0
            )
            outcome = reopened.audit(repair=True, verify=True)
            assert outcome["crc_failures"] == [], f"crash at {at}"
            for digest, blob in data.items():
                assert reopened.get(digest) == blob, f"crash at {at}: {digest}"
            second = reopened.audit(repair=True, verify=True)
            assert second["torn_segments"] == [], f"crash at {at}"
            # the interrupted run never loses ground: compacting again works
            reopened.compact()
            for digest, blob in data.items():
                assert reopened.get(digest) == blob, f"crash at {at}: {digest}"
            # of a record left twice, the copy the index skips went with its segment
            on_disk = {path.name for path in reopened.segments_dir.glob(f"*{SEGMENT_SUFFIX}")}
            assert on_disk == {entry[0] for entry in reopened._index.values()}, f"crash at {at}"
            assert not (root / "compaction.json").exists()
        else:
            pytest.fail("compaction never completed")
        assert crashes >= 5, f"only {crashes} distinct crash points hit"

    def test_a_destination_absorbed_before_the_resume_keeps_its_records(self, tmp_path):
        """Another process's read miss absorbs a committed destination while
        the victims still hold its records; what it indexes, its gc and a
        later reopen read back whole."""
        crashes = 0
        for at in range(1, 60):
            root = tmp_path / f"crash-{at}"
            store, data = self.build_fragmented(root)
            other = ChunkStore(root, segment_bytes=4096, tmp_grace_s=0.0)
            faults = FaultInjector(seed=0)
            store.fault_hook = faults.fail_point
            faults.arm_crash(at, op="chunk.compact")
            try:
                store.compact()
            except CrashPoint:
                crashes += 1
            else:
                break
            del store  # crash: no close
            with other._mutex:
                other._refresh_locked()  # what a read miss does
            assert other.audit(repair=True, verify=True)["crc_failures"] == []
            other.gc()
            for digest, blob in data.items():
                assert other.get(digest) == blob, f"crash at {at}: {digest}"
            reopened = ChunkStore(root, segment_bytes=4096, tmp_grace_s=0.0)
            for digest, blob in data.items():
                assert reopened.get(digest) == blob, f"crash at {at}: {digest}"
        else:
            pytest.fail("compaction never completed")
        assert crashes >= 5, f"only {crashes} distinct crash points hit"

    def test_orphan_partial_segments_get_grace_swept(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        data = fill(store, 3)
        fresh = store.segments_dir / "seg-rewrite.seg.tmp"
        fresh.write_bytes(b"mid-flight compaction copy")
        expired = store.segments_dir / "seg-crashed.seg.tmp"
        expired.write_bytes(b"orphaned by a crash mid-compaction")
        stale = time.time() - 3600
        os.utime(expired, (stale, stale))
        store.gc()
        assert fresh.exists()
        assert not expired.exists()


class TestFileStoreIntegration:
    def small_state(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            f"layer{i}": rng.standard_normal(64).astype(np.float32)
            for i in range(4)
        }

    def test_save_state_chunks_round_trip(self, tmp_path):
        store = FileStore(tmp_path / "s")
        state = self.small_state(seed=1)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        restored = store.recover_state_chunks(file_id)
        for key, value in state.items():
            assert np.array_equal(restored[key], value), key

    def test_save_round_trips_after_reopen(self, tmp_path):
        state = self.small_state(seed=2)
        file_id = FileStore(tmp_path / "s").save_state_chunks(
            state, state_dict_hashes(state)
        )
        restored = FileStore(tmp_path / "s").recover_state_chunks(file_id)
        for key, value in state.items():
            assert np.array_equal(restored[key], value), key

    def test_sharded_store_over_segment_members(self, tmp_path):
        from repro.cluster import ShardedFileStore

        members = {
            f"shard-{i}": FileStore(tmp_path / f"shard-{i}")
            for i in range(3)
        }
        store = ShardedFileStore(tmp_path / "meta", members, replicas=2)
        state = self.small_state(seed=3)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        restored = store.recover_state_chunks(file_id)
        for key, value in state.items():
            assert np.array_equal(restored[key], value), key

        outcome = store.chunks.audit(repair=True, verify=True)
        assert outcome["layout"] == "sharded"
        assert outcome["segments_checked"] >= 1
        assert outcome["crc_failures"] == []
        stats = store.chunks.segment_stats()
        assert stats["segment_count"] >= 1
        assert set(stats["members"]) == set(members)

    def test_a_footer_catalogs_records_and_tombstones(self, tmp_path):
        """A sealed segment says all a reopen needs; nothing else is written."""
        store = ChunkStore(tmp_path / "s")
        store.put(digest_for(99), payload(99))
        store.put(digest_for(98), payload(98))
        store.drop(digest_for(98))
        name = store._active_name
        store.close()
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [".lock", "segments"]
        with open(tmp_path / "s" / "segments" / name, "rb") as fileobj:
            catalog = store._read_footer(fileobj, os.fstat(fileobj.fileno()).st_size)
        assert [record[0] for record in catalog["records"]] == [digest_for(99)]
        [(digest, segment, offset)] = catalog["tombstones"]
        assert (digest, segment) == (digest_for(98), name)
        assert catalog["total"] == 2 * len(payload(0))
        reopened = ChunkStore(tmp_path / "s")
        assert reopened.chunk_ids() == [digest_for(99)]


@pytest.fixture
def hints(monkeypatch):
    """``(fd, offset, nbytes, flags)`` of every writeback hint issued; each
    hinted range is already in the file when its hint is issued."""
    calls = []

    def recording(fd, offset, nbytes, flags):
        assert os.fstat(fd).st_size >= offset + nbytes
        calls.append((fd, offset, nbytes, flags))
        return 0

    monkeypatch.setattr(segments, "_sync_file_range", recording)
    return calls


def fsyncs() -> float:
    snapshot = obs.registry().snapshot()
    return sum(s["value"] for s in snapshot["mmlib_chunk_fsyncs_total"]["series"])


def segment_bytes(store) -> list[bytes]:
    return [path.read_bytes() for path in sorted(store.segments_dir.glob("*" + SEGMENT_SUFFIX))]


class TestWritebackHint:
    """Every :data:`WRITEBACK_BYTES` of a batch's appends start their
    writeback; the batch's one fsync is still its only barrier."""

    def test_a_large_batch_hints_inside_its_appends_and_fsyncs_once(self, tmp_path, hints):
        store = ChunkStore(tmp_path / "s")
        fill(store, 2)
        [path] = store.segments_dir.glob("*" + SEGMENT_SUFFIX)
        batch_start = path.stat().st_size
        before = fsyncs()
        for index in range(10, 50):  # 40 x 64 KiB = 2.5 MiB
            store.put(digest_for(index), payload(index, 64 * 1024))
        batch_end = path.stat().st_size
        assert batch_end - batch_start >= 2 * WRITEBACK_BYTES
        assert len(hints) >= 2
        assert fsyncs() == before  # a hint is no barrier
        end = batch_start
        for _fd, offset, nbytes, flags in hints:
            assert flags == segments._SYNC_FILE_RANGE_WRITE
            assert offset == end and nbytes >= WRITEBACK_BYTES
            end = offset + nbytes
        assert end <= batch_end
        assert store.flush() == 1
        assert fsyncs() == before + 1

    def test_a_hinted_record_is_unsynced_until_flushed(self, tmp_path, hints):
        store = ChunkStore(tmp_path / "s")
        fill(store, 1)
        big = digest_for(7)
        store.put(big, payload(7, 2 * WRITEBACK_BYTES))
        assert hints
        assert store.synced(big) is False
        assert store.synced(digest_for(0)) is True
        store.flush()
        assert store.synced(big) is True

    def test_without_the_symbol_the_bytes_and_fsyncs_are_the_same(
        self, tmp_path, hints, monkeypatch
    ):
        def save(root):
            store = ChunkStore(root)
            before = fsyncs()
            for index in range(40):
                store.put(digest_for(index), payload(index, 64 * 1024))
            store.flush()
            return store, fsyncs() - before

        hinted, hinted_fsyncs = save(tmp_path / "hinted")
        assert hints
        monkeypatch.setattr(segments, "_sync_file_range", None)
        unhinted, unhinted_fsyncs = save(tmp_path / "unhinted")
        assert segment_bytes(hinted) == segment_bytes(unhinted)
        assert hinted_fsyncs == unhinted_fsyncs == 1

    def test_the_resolved_hint_keeps_every_byte(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segments, "_sync_file_range", segments._UNRESOLVED)
        store = ChunkStore(tmp_path / "s")
        data = fill(store, 40, size=64 * 1024)
        if sys.platform.startswith("linux"):
            assert callable(segments._sync_file_range)
        del store  # crash after the flush
        reopened = ChunkStore(tmp_path / "s")
        for digest, blob in data.items():
            assert reopened.get(digest) == blob

    def test_compaction_hints_its_destination(self, tmp_path, hints, monkeypatch):
        monkeypatch.setattr(segments, "WRITEBACK_BYTES", 4096)
        store, data = TestCompaction().build_fragmented(tmp_path / "s")
        hints.clear()
        result = store.compact()
        assert result["records_moved"] * 512 > 4096
        assert hints
        for digest, blob in data.items():
            assert store.get(digest) == blob


def chunk_byte_counters() -> dict[str, float]:
    snapshot = obs.registry().snapshot()
    return {
        kind: sum(s["value"] for s in snapshot[f"mmlib_chunks_{kind}_bytes_total"]["series"])
        for kind in ("logical", "dedup", "stored")
    }


class TestPutAccounting:
    """Each put is accounted once, under the store's mutex: logical bytes
    offered, bytes deduplicated, record payload bytes written."""

    def test_a_mixed_batch_is_accounted_exactly(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        before = chunk_byte_counters()
        puts = [  # (digest, payload, written)
            (digest_for(0), payload(0, 700), True),
            (digest_for(1), b"", True),  # zero-length, fresh
            (digest_for(0), payload(0, 700), False),  # deduplicated
            (digest_for(2), memoryview(np.arange(64, dtype=np.float32)), True),
            (digest_for(1), b"", False),  # zero-length, deduplicated
            (digest_for(2), np.arange(64, dtype=np.float32).tobytes(), False),
            (digest_for(3), payload(3, 1), True),
        ]
        for digest, blob, written in puts:
            assert store.put(digest, blob) is written
        store.flush()

        logical = sum(memoryview(blob).nbytes for _, blob, _ in puts)
        dedup = sum(memoryview(blob).nbytes for _, blob, written in puts if not written)
        assert (logical, dedup) == (700 + 256 + 1 + 700 + 256, 700 + 256)
        assert store.dedup_stats() == {
            "logical_bytes": logical,
            "dedup_bytes": dedup,
            "stored_bytes": logical - dedup,
            "dedup_ratio": round(logical / (logical - dedup), 4),
        }
        after = chunk_byte_counters()
        assert {kind: after[kind] - before[kind] for kind in after} == {
            "logical": logical, "dedup": dedup, "stored": logical - dedup}
        store.close()

    def test_concurrent_puts_lose_no_byte(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        blobs = {digest_for(index): payload(index, 64 + index) for index in range(40)}
        barrier = threading.Barrier(4)

        def putter():
            barrier.wait()
            for digest, blob in blobs.items():
                store.put(digest, blob)

        threads = [threading.Thread(target=putter) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = sum(len(blob) for blob in blobs.values())
        stats = store.dedup_stats()
        assert stats["logical_bytes"] == 4 * total
        assert stats["stored_bytes"] == total
        assert stats["dedup_bytes"] == 3 * total
        store.close()


class TestDirectoryEntriesAreDurable:
    """A segment's name outlives a crash as its records do: one fsync of
    ``segments/`` when a segment is created — for records or for a drop's
    tombstones — and one after a compaction's rename.
    ``mmlib_chunk_fsyncs_total`` counts the file barriers only."""

    def test_one_directory_fsync_per_segment_created_or_renamed(
        self, tmp_path, directory_fsyncs, monkeypatch
    ):
        every = []
        counted = os.fsync  # the spy's, which records directories
        monkeypatch.setattr(os, "fsync", lambda fd: (every.append(fd), counted(fd))[1])
        obs.reset()
        try:
            store = ChunkStore(tmp_path / "s", segment_bytes=2048, tmp_grace_s=0.0)
            fill(store, 4)  # creates one segment, appends to it, rolls it
            store.close()
            assert directory_fsyncs == [store.segments_dir]
            other = ChunkStore(tmp_path / "s", segment_bytes=2048, tmp_grace_s=0.0)
            other.drop(digest_for(1))  # a segment for its tombstone
            other.drop_many([digest_for(2), digest_for(3)])  # appended to it
            assert directory_fsyncs == [store.segments_dir] * 2
            assert other.gc()["segments_compacted"] == 1  # renamed into place
            assert directory_fsyncs == [store.segments_dir] * 3
            files = obs.registry().value("mmlib_chunk_fsyncs_total")
            assert files == len(every) - len(directory_fsyncs) > 0
        finally:
            obs.reset()
