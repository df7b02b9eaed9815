"""Chunk-store bookkeeping: the refcount log and the segment index checkpoint.

A save's bookkeeping costs what the save touches (DESIGN.md §17): taking
references appends one record to ``refcounts.json``, appended records are
their own index entries until something seals or deletes, and the gauges
come from running totals.  Everything here is counted or compared against
a from-scratch recount — nothing is timed.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.core import ModelManager, ModelSaveInfo
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RECORD_HEADER, RecordLog
from tests.conftest import make_tiny_cnn
from tests.core.test_crash_consistency import SERVICES, assert_states_equal, tiny_arch
from tests.filestore.older_release import as_older_release


def open_stores(tmp_path, service_cls):
    """``(files, service, manager)`` over the stores under ``tmp_path`` —
    called again, the process that reopens them after a kill."""
    files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
    service = service_cls(
        DocumentStore(tmp_path / "docs"), files, scratch_dir=tmp_path / "scratch")
    return files, service, ModelManager(service)


def digest_for(index: int) -> str:
    return f"{index:08d}" + "cd" * 12


def payload(index: int, size: int = 64) -> bytes:
    return bytes((index + offset) % 251 for offset in range(size))


def log_lines(store) -> list[dict]:
    """The refcount log's records, oldest first."""
    return RecordLog(store._refs_path).replay()


@pytest.fixture(params=["segments"])
def layout(request):
    """The one chunk layout (the parameter keeps the test ids)."""
    return request.param


@pytest.fixture(params=[ChunkStore], ids=["segments"])
def store_cls(request):
    """The one chunk store (the parameter keeps the test ids)."""
    return request.param


# -- the refcount log ----------------------------------------------------------


class TestRefcountLog:
    def test_taking_references_appends_one_line_of_absolute_counts(
        self, store_cls, tmp_path
    ):
        store = store_cls(tmp_path / "c")
        store.add_refs(["a", "b"])
        store.add_refs(["b", "c", "c"])
        assert log_lines(store) == [{"a": 1, "b": 1}, {"b": 2, "c": 2}]
        assert store.export_refs() == {"a": 1, "b": 2, "c": 2}
        # replay is idempotent: the same records twice are the same table
        raw = store._refs_path.read_bytes()
        store._refs_path.write_bytes(raw + raw)
        assert store_cls(tmp_path / "c").export_refs() == {"a": 1, "b": 2, "c": 2}

    def test_an_add_costs_its_batch_whatever_the_table_holds(self, store_cls, tmp_path):
        grown = []
        for held in (10, 1000):
            store = store_cls(tmp_path / f"c{held}")
            store.add_refs([digest_for(i) for i in range(held)])
            before = store._refs_path.stat()
            store.add_refs([digest_for(held + i) for i in range(4)])
            after = store._refs_path.stat()
            assert after.st_ino == before.st_ino  # appended, not rewritten
            grown.append(after.st_size - before.st_size)
        assert grown[0] == grown[1]

    def test_a_release_folds_the_log_into_one_record(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c")
        held = {digest_for(index): 1 for index in range(4)}  # appends stay appends
        store.add_refs(["a", "a", "a", "b", *held])
        store.add_refs(["c"])
        store.add_refs(["b"])
        assert len(log_lines(store)) == 3
        assert store.release_refs(["a"]) == []
        assert log_lines(store) == [{"a": 2, "b": 2, "c": 1, **held}]
        assert store.release_refs(["a", "a", "c"]) == ["a", "c"]
        assert log_lines(store) == [{"b": 2, **held}]  # 0 is gone, not stored

    def test_dead_bytes_are_bounded_by_folding(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c")
        digests = [digest_for(i) for i in range(8)]
        sizes = []
        for _ in range(40):
            store.add_refs(digests)
            sizes.append(store._refs_path.stat().st_size)
        folded = len(json.dumps(store.export_refs(), separators=(",", ":")))
        assert max(sizes) <= 2 * (folded + RECORD_HEADER.size) + 16
        assert min(sizes[1:]) < max(sizes)  # it did fold on the way
        assert store.export_refs() == {digest: 40 for digest in digests}
        assert store_cls(tmp_path / "c").export_refs() == store.export_refs()

    def test_import_and_forget_append(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c")
        store.add_refs([digest_for(i) for i in range(20)])
        inode = store._refs_path.stat().st_ino
        store.import_refs({"x": 3, "y": 0, digest_for(0): 7})
        store.forget_refs([digest_for(1), "never-seen"])
        assert store._refs_path.stat().st_ino == inode
        assert log_lines(store)[1:] == [{"x": 3, digest_for(0): 7}, {digest_for(1): 0}]
        expected = {digest_for(i): 1 for i in range(2, 20)}
        expected.update({"x": 3, digest_for(0): 7})
        assert store.export_refs() == expected
        assert store_cls(tmp_path / "c").export_refs() == expected

    def test_the_parents_one_object_file_is_a_log_of_one_record(
        self, store_cls, tmp_path
    ):
        root = tmp_path / "c"
        root.mkdir()
        counts = {digest_for(i): 1 + i % 3 for i in range(20)}
        legacy = json.dumps({**counts, "gone": 0}, sort_keys=True)
        (root / "refcounts.json").write_text(legacy)  # no trailing newline
        store = store_cls(root)
        assert store.export_refs() == counts
        store.add_refs([digest_for(0), "c"])
        # its first append rewrites it in the framing, its record first
        assert log_lines(store) == [{**counts, "gone": 0}, {digest_for(0): 2, "c": 1}]
        counts.update({digest_for(0): 2, "c": 1})
        assert store_cls(root).export_refs() == counts
        assert sorted(path.name for path in root.glob("refcounts*")) == [
            "refcounts.json"]

    def test_another_instances_appends_and_folds_are_seen(self, store_cls, tmp_path):
        """Two instances stand in for two processes (the real thing is
        ``TestTwoProcesses``): the reader replays a tail, and notices every
        fold — it pins the inode it last read, so a recycled inode number
        cannot pass for the old file."""
        ours, theirs = store_cls(tmp_path / "c"), store_cls(tmp_path / "c")
        ours.add_refs(["a"])
        theirs.add_refs(["a", "b"])
        assert ours.refcount("a") == 2 and ours.refcount("b") == 1
        for round_ in range(1, 8):  # each release folds: tmp + rename
            theirs.add_refs(["a"])
            theirs.release_refs(["b"])
            theirs.add_refs(["b"])
            assert ours.export_refs() == {"a": 2 + round_, "b": 1}
            assert ours.export_refs() == theirs.export_refs()
        ours.add_refs(["c"])
        assert theirs.refcount("c") == 1


    def test_threads_on_two_instances_lose_no_update(self, store_cls, tmp_path):
        """The table is now state shared between calls: six threads (more
        than cores) over two instances, switching every 10 us, interleave
        appends, folds and reads; one lost update breaks the final count."""
        instances = [store_cls(tmp_path / "c"), store_cls(tmp_path / "c")]
        errors = []

        def work(worker):
            store = instances[worker % 2]
            try:
                for step in range(60):
                    store.add_refs(["shared", f"own-{worker}"])
                    if step % 7 == 0:
                        store.release_refs([f"own-{worker}"])  # folds
                        store.add_refs([f"own-{worker}"])
                    assert store.refcount(f"own-{worker}") == step + 1
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        expected = {"shared": 360, **{f"own-{n}": 60 for n in range(6)}}
        for store in (*instances, store_cls(tmp_path / "c")):
            assert store.export_refs() == expected


class TestDamagedRefcountLog:
    """A damaged file must never read as "nothing is referenced"."""

    @pytest.mark.parametrize("tail", [b'\n{"c":1,"d', b"\n{", b'\n{"c":'])
    def test_a_torn_final_line_is_dropped_and_the_file_cut_back(
        self, store_cls, tmp_path, tail
    ):
        store = store_cls(tmp_path / "c")
        store.add_refs(["a", "b"])
        store.add_refs(["a"])
        whole = store._refs_path.read_bytes()
        store._refs_path.write_bytes(whole + tail)  # an append that never returned
        for reader in (store, store_cls(tmp_path / "c")):
            assert reader.export_refs() == {"a": 2, "b": 1}
        assert store._refs_path.read_bytes() in (whole, whole + b"\n")
        store.add_refs(["c"])
        assert store_cls(tmp_path / "c").export_refs() == {"a": 2, "b": 1, "c": 1}

    def test_a_bad_line_with_records_after_it_raises_and_sweeps_nothing(
        self, store_cls, tmp_path
    ):
        store = store_cls(tmp_path / "c")
        for index in range(3):
            store.put(digest_for(index), payload(index))
            store.add_refs([digest_for(index)])
        store.flush()
        assert len(log_lines(store)) == 3
        damaged = bytearray(store._refs_path.read_bytes())
        damaged[RECORD_HEADER.size] ^= 0xFF  # the first record's payload
        damaged = bytes(damaged)
        store._refs_path.write_bytes(damaged)
        del store  # its table was right; a process that has to read the file:
        victim = store_cls(tmp_path / "c")
        for operation in (
            lambda: victim.add_refs(["x"]),
            lambda: victim.release_refs([digest_for(0)]),
            lambda: victim.refcount(digest_for(0)),
            victim.export_refs,
            victim.gc,
        ):
            with pytest.raises(StoreCorruptionError, match="refcounts"):
                operation()
        assert len(victim.chunk_ids()) == 3  # gc swept no live chunk
        assert victim._refs_path.read_bytes() == damaged  # untouched

        # fsck's step: rebuild the table from what the manifests reference
        expected = {digest_for(index): 1 for index in range(3)}
        audit = victim.reconcile(expected, repair=False)
        assert set(audit["ref_fixes"]) == set(expected)
        assert victim._refs_path.read_bytes() == damaged
        victim.reconcile(expected, repair=True)
        assert victim.export_refs() == expected
        assert victim.reconcile(expected)["ref_fixes"] == {}
        assert store_cls(tmp_path / "c").gc()["chunks_removed"] == 0

    def test_an_unreadable_log_nothing_references_is_still_rewritten(
        self, store_cls, tmp_path
    ):
        store = store_cls(tmp_path / "c")
        store._refs_path.write_bytes(b"\x00garbage\n{}")
        assert store.reconcile({}, repair=True)["ref_fixes"] == {}
        assert store.export_refs() == {}
        store.add_refs(["a"])
        assert store_cls(tmp_path / "c").export_refs() == {"a": 1}

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_fsck_rebuilds_a_damaged_log_from_the_live_manifests(
        self, service_cls, layout, tmp_path
    ):
        files, service, _manager = open_stores(tmp_path, service_cls)
        models = {}
        for seed in (1, 2, 3):
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        counts = files.chunks.export_refs()
        path = files.chunks._refs_path
        assert len(RecordLog(path).replay()) >= 2
        raw = bytearray(path.read_bytes())
        raw[RECORD_HEADER.size] ^= 0xFF  # one bad byte in the first record
        path.write_bytes(bytes(raw))

        files, service, manager = open_stores(tmp_path, service_cls)
        with pytest.raises(StoreCorruptionError):
            service.save_model(ModelSaveInfo(make_tiny_cnn(seed=4), tiny_arch()))
        with pytest.raises(StoreCorruptionError):
            files.gc_chunks()
        report = manager.fsck(verify_chunks=True)
        assert not report.unrepaired, report.summary()
        assert {issue.kind for issue in report.repaired} >= {"refcount_mismatch"}
        assert manager.fsck(verify_chunks=True).clean
        assert files.chunks.export_refs() == counts
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)


class TestRefcountLogCrashPoints:
    """``chunk.refs`` fires after an append lands and between a fold's tmp
    write and its rename; whichever it dies on, a reopen reads a whole
    table and fsck's reconcile agrees with the survivors."""

    def arm(self, store, at=1):
        faults = FaultInjector(seed=0)
        store.fault_hook = faults.fail_point
        faults.arm_crash(at, op="chunk.refs")

    def test_crash_between_the_append_and_the_return(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c")
        store.add_refs(["a", "b"])
        self.arm(store)
        with pytest.raises(CrashPoint):
            store.add_refs(["b", "c"])
        # the line is whole: the references were taken, the caller never
        # heard — a leak fsck's reconcile corrects, never a loss
        for reader in (store, store_cls(tmp_path / "c")):
            assert reader.export_refs() == {"a": 1, "b": 2, "c": 1}
        fixes = store_cls(tmp_path / "c").reconcile({"a": 1, "b": 1})["ref_fixes"]
        assert fixes == {"b": (2, 1), "c": (1, 0)}
        assert store.export_refs() == {"a": 1, "b": 1}

    def test_crash_between_a_folds_tmp_write_and_its_rename(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c", tmp_grace_s=0.0)
        store.put("a", b"payload-a")
        store.add_refs(["a", "b"])
        store.add_refs(["a"])
        before = store._refs_path.read_bytes()
        self.arm(store)
        with pytest.raises(CrashPoint):
            store.release_refs(["a", "b"])
        assert store._refs_path.read_bytes() == before  # the old log, whole
        assert list(store.root.glob("refcounts-*.tmp"))
        for reader in (store, store_cls(tmp_path / "c", tmp_grace_s=0.0)):
            assert reader.export_refs() == {"a": 2, "b": 1}
            assert reader.has("a")
        # the release is simply retried; gc reaps the orphaned tmp
        assert store.release_refs(["a", "b"]) == ["b"]
        store.gc()
        assert not list(store.root.glob("*.tmp"))
        assert store_cls(tmp_path / "c").export_refs() == {"a": 1}

    def test_crash_in_the_fold_an_add_triggers(self, store_cls, tmp_path):
        store = store_cls(tmp_path / "c")
        store.add_refs(["a"])
        adds = 1
        with pytest.raises(CrashPoint):
            for _ in range(10):
                self.arm(store, at=2)  # 1: the append landed, 2: mid-fold
                store.add_refs(["a"])
                adds += 1
        # the append that triggered the fold is in the log the crash left
        assert store_cls(tmp_path / "c").refcount("a") == adds + 1
        store.fault_hook = None
        store.add_refs(["a"])
        assert store.refcount("a") == adds + 2


WORKER = r"""
import json, sys
from repro.filestore import ChunkStore
store = ChunkStore(sys.argv[1])
for line in sys.stdin:
    op, digests = json.loads(line)
    if op == "add":
        store.add_refs(digests)
    elif op == "release":
        store.release_refs(digests)
    print(json.dumps(store.export_refs(), sort_keys=True), flush=True)
"""


class TestTwoProcesses:
    def test_interleaved_adds_releases_and_folds_agree_after_every_step(
        self, store_cls, tmp_path
    ):
        """Test (b): a second *process* on the same directory."""
        ours = store_cls(tmp_path / "c")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(tmp_path / "c")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        reference: dict[str, int] = {}

        def apply(op, digests):
            for digest in digests:
                count = reference.get(digest, 0) + (1 if op == "add" else -1)
                if count > 0:
                    reference[digest] = count
                else:
                    reference.pop(digest, None)

        def step(who, op, digests):
            apply(op, digests)
            if who == "child":
                child.stdin.write(json.dumps([op, digests]) + "\n")
                child.stdin.flush()
                theirs = json.loads(child.stdout.readline())
            else:
                getattr(ours, f"{op}_refs")(digests)
                child.stdin.write(json.dumps(["read", []]) + "\n")
                child.stdin.flush()
                theirs = json.loads(child.stdout.readline())
            assert theirs == reference, (who, op, digests)
            assert ours.export_refs() == reference, (who, op, digests)

        try:
            step("ours", "add", ["a", "b"])
            step("child", "add", ["b", "c"])
            step("ours", "release", ["a"])        # folds under the child
            step("child", "add", ["c", "d"])
            step("child", "release", ["b"])       # folds under us
            step("ours", "add", ["a", "d"])
            inodes = set()
            for round_ in range(12):              # appends force folds on both sides
                step("ours" if round_ % 2 else "child", "add", ["a", "c", "d"])
                inodes.add(ours._refs_path.stat().st_ino)
            assert len(inodes) > 1, "no add ever folded"
            step("child", "release", ["b", "c", "d"])
            step("ours", "release", ["zz"])
        finally:
            child.stdin.close()
            assert child.wait(timeout=30) == 0


# -- the segment index checkpoint ------------------------------------------------


def recount(store) -> dict:
    """``segment_stats`` the slow way: one walk of the whole index."""
    live_by_seg: dict[str, int] = {}
    for seg, _off, length, _crc in store._index.values():
        live_by_seg[seg] = live_by_seg.get(seg, 0) + length
    live = sum(live_by_seg.values())
    total = sum(
        max(meta["total"], live_by_seg.get(name, 0))
        for name, meta in store._segmeta.items())
    for name, meta in store._segmeta.items():
        assert meta["live"] == live_by_seg.get(name, 0), name
    return {
        "segment_count": len(store._segmeta),
        "chunks": len(store._index),
        "live_bytes": live,
        "dead_bytes": max(0, total - live),
        "live_ratio": (live / total) if total else 1.0,
    }


def gauge(family: str) -> float:
    return sum(s["value"] for s in obs.registry().snapshot()[family]["series"])


class TestSegmentGauges:
    def assert_gauges(self, store):
        expected = recount(store)
        stats = store.segment_stats()
        assert {key: stats[key] for key in expected} == expected
        assert gauge("mmlib_segment_count") == expected["segment_count"]
        assert gauge("mmlib_segment_dead_bytes") == expected["dead_bytes"]
        assert gauge("mmlib_segment_live_ratio") == pytest.approx(expected["live_ratio"])

    def test_running_totals_equal_a_recount_after_every_step(self, tmp_path):
        obs.reset()
        try:
            store = ChunkStore(
                tmp_path / "s", segment_bytes=2048, tmp_grace_s=0.0)
            for save in range(10):
                for index in range(4):
                    store.put(digest_for(save * 4 + index), payload(save * 4 + index, 200))
                store.flush()
                store.add_refs([digest_for(save * 4 + index) for index in range(4)])
                self.assert_gauges(store)
            store.release_refs([digest_for(i) for i in range(40) if i % 3])
            self.assert_gauges(store)
            store.drop(digest_for(0))
            self.assert_gauges(store)
            assert store.compact()["segments_compacted"] > 0
            self.assert_gauges(store)
            store.gc()
            self.assert_gauges(store)
            reopened = ChunkStore(
                tmp_path / "s", segment_bytes=2048, tmp_grace_s=0.0)
            self.assert_gauges(reopened)
            assert reopened.segment_stats()["live_bytes"] == (
                store.segment_stats()["live_bytes"])
        finally:
            obs.reset()

    def test_a_flush_does_not_walk_the_index(self, tmp_path):
        class Unwalkable(dict):
            def values(self):
                raise AssertionError("flush walked the whole index")

            items = __iter__ = values

        store = ChunkStore(tmp_path / "s")
        store.put(digest_for(0), payload(0))
        store._index = Unwalkable(store._index)
        store.put(digest_for(1), payload(1))
        assert store.flush() == 1
        assert store.segment_stats()["chunks"] == 2


def bookkeeping_files(root) -> dict:
    """``name -> (inode, size)`` of everything that is not chunk payload."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_size)
        for path in root.iterdir() if path.is_file() and path.name != ".lock"
    }


class TestASaveCostsWhatItTouches:
    """Test (e), counted: bytes written to bookkeeping files, and files
    created, by one 4-chunk save — equal at 2x10^2 and 2x10^4 stored
    chunks (the parent: 27 KB vs 2.6 MB, two files each)."""

    def one_save_at(self, store_cls, root, held: int) -> tuple[int, int]:
        store = store_cls(root)
        for index in range(held):
            store.put(digest_for(index), payload(index, 16))
        store.flush()
        store.add_refs([digest_for(index) for index in range(held)])
        before = bookkeeping_files(store.root)

        fresh = [digest_for(held + index) for index in range(4)]
        for offset, digest in enumerate(fresh):
            store.put(digest, payload(held + offset, 16))
        store.flush()
        store.add_refs(fresh)

        written = created = 0
        for name, (inode, size) in bookkeeping_files(store.root).items():
            if name in before and before[name][0] == inode:
                written += size - before[name][1]  # appended in place
            else:
                written += size  # a new or rewritten file
                created += 1
        assert store.export_refs() == {
            digest_for(index): 1 for index in range(held + 4)}
        return written, created

    def test_bookkeeping_bytes_and_files_do_not_grow_with_the_store(
        self, store_cls, tmp_path
    ):
        small = self.one_save_at(store_cls, tmp_path / "small", 200)
        large = self.one_save_at(store_cls, tmp_path / "large", 20_000)
        assert small == large
        written, created = small
        assert created == 0
        assert 0 < written < 4 * 64  # one line naming four digests

    def test_a_kill_after_that_save_rescans_only_the_unsealed_tail(self, tmp_path):
        store = ChunkStore(tmp_path / "s", segment_bytes=64 * 1024)
        for index in range(3000):
            store.put(digest_for(index), payload(index, 100))
        store.flush()
        sealed = {n for n, m in store._segmeta.items() if m["sealed"]}
        assert len(sealed) >= 3
        del store  # kill -9: no close
        scanned = []
        scan = ChunkStore._scan_records_locked

        def spy(self, fileobj, name, meta):
            start = meta["scanned"]
            added = scan(self, fileobj, name, meta)
            scanned.append((name, meta["scanned"] - start))
            return added

        ChunkStore._scan_records_locked = spy
        try:
            reopened = ChunkStore(tmp_path / "s", segment_bytes=64 * 1024)
            assert [name for name, _ in scanned if name in sealed] == []
            assert len(scanned) == 1 and scanned[0][1] <= 64 * 1024
            assert len(reopened) == 3000
            # ... once: the open checkpointed what it found
            del reopened, scanned[:]
            assert len(ChunkStore(tmp_path / "s", segment_bytes=64 * 1024)) == 3000
            assert scanned == []
        finally:
            ChunkStore._scan_records_locked = scan


class TestReopenWithoutClose:
    """Test (a): the process dies after N acked saves, never having closed
    the store.  The index checkpoint on disk predates most of them."""

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_every_acked_save_survives_and_no_delete_is_undone(
        self, service_cls, layout, tmp_path
    ):
        def reopen():
            return open_stores(tmp_path, service_cls)

        files, service, manager = reopen()
        models = {}
        for seed in range(1, 5):
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(
                ModelSaveInfo(model, tiny_arch(), use_case=f"U_{seed}"))] = model
        doomed = next(iter(models))
        before = set(files.chunks.chunk_ids())
        manager.delete_model(doomed)
        del models[doomed]
        deleted = before - set(files.chunks.chunk_ids())
        assert deleted, "the delete freed no chunk"
        for seed in range(5, 8):  # appended after the delete's checkpoint
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(
                ModelSaveInfo(model, tiny_arch(), use_case=f"U_{seed}"))] = model
        acked = set(files.chunks.chunk_ids())
        counts = files.chunks.export_refs()
        torn = "f" * 40
        files.chunks.write_torn(torn, b"never acknowledged" * 8)

        del files, service, manager  # kill -9
        files, service, manager = reopen()
        chunks = files.chunks
        assert set(chunks.chunk_ids()) == acked  # found; nothing resurrected
        assert not any(chunks.has(digest) for digest in deleted)
        assert chunks.export_refs() == counts
        assert not chunks.has(torn)
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)

        # the torn record is debris fsck clears, not damage
        report = manager.fsck(verify_chunks=True)
        assert not report.unrepaired, report.summary()
        assert manager.fsck(verify_chunks=True).clean
        assert set(chunks.chunk_ids()) == acked
        assert chunks.put(torn, b"now for real") is True
        chunks.flush()
        assert bytes(FileStore(
            tmp_path / "files").chunks.get(torn)) == b"now for real"

    def test_the_next_put_overwrites_a_torn_record_in_place(self, tmp_path):
        store = ChunkStore(tmp_path / "s")
        store.put(digest_for(0), payload(0))
        store.flush()
        segment = store.write_torn(digest_for(1), payload(1, 400))
        torn_size = segment.stat().st_size
        store.put(digest_for(2), payload(2, 400))
        store.flush()
        assert segment.stat().st_size >= torn_size
        del store
        reopened = ChunkStore(tmp_path / "s")
        assert reopened.chunk_ids() == [digest_for(0), digest_for(2)]
        assert reopened.get(digest_for(2)) == payload(2, 400)


class TestAStoreInTheParentsFormat:
    """Test (c): a one-object ``refcounts.json`` and a full ``index.json``
    open, save, delete, GC and recover with no migration step."""

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_it_opens_and_carries_on(self, service_cls, layout, tmp_path):
        def reopen():
            return open_stores(tmp_path, service_cls)

        files, service, manager = reopen()
        models = {}
        for seed in (1, 2, 3):
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        counts = files.chunks.export_refs()
        files.chunks.close()  # the parent checkpointed on every flush
        root = files.chunks.root
        (root / "refcounts.json").write_text(json.dumps(counts, sort_keys=True))
        [index] = RecordLog(root / "index.json").replay()
        (root / "index.json").write_text(json.dumps(index, sort_keys=True))
        assert set(index) == {"version", "entries", "segments"}
        assert set(index["entries"]) == set(counts)
        assert all(set(meta) == {"scanned", "total", "sealed"}
                   for meta in index["segments"].values())
        as_older_release(tmp_path)  # the parent wrote no format marker
        del files, service, manager

        files, service, manager = reopen()
        assert files.chunks.export_refs() == counts
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        model = make_tiny_cnn(seed=4)
        models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        doomed = next(iter(models))
        manager.delete_model(doomed)
        del models[doomed]
        manager.garbage_collect()
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        assert manager.fsck(verify_chunks=True).clean
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == [
            ".lock", "index.json", "refcounts.json"]

        files, service, manager = reopen()
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        assert manager.fsck(verify_chunks=True).clean
