"""Chunk-store bookkeeping: the segment index checkpoint and the lock
several processes share.

A save's bookkeeping costs what the save touches (DESIGN.md §17): it
writes no bookkeeping file at all, appended records are their own index
entries until something seals or deletes, and the gauges come from running
totals.  A process that takes the store's lock first absorbs the deletes
another process checkpointed.  Everything here is counted or compared
against a from-scratch recount — nothing is timed.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import ModelManager, ModelSaveInfo
from repro.core.hashing import tensor_hash
from repro.docstore import DocumentStore
from repro.errors import OlderFormatError
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RecordLog
from repro.filestore.segments import StoreLock
from tests.conftest import make_tiny_cnn
from tests.core.test_crash_consistency import SERVICES, assert_states_equal, tiny_arch
from tests.filestore.older_release import as_older_release, imported


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


@pytest.fixture(params=["segments"])
def layout(request):
    """The one chunk layout (the parameter keeps the test ids)."""
    return request.param


@pytest.fixture(params=[ChunkStore], ids=["segments"])
def store_cls(request):
    """The one chunk store (the parameter keeps the test ids)."""
    return request.param


# -- two processes: saves beside deletes and sweeps ------------------------------


def small_state(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"w": rng.standard_normal(64).astype(np.float32),
            "b": rng.standard_normal(8).astype(np.float32)}


def save_state(files, seed: int) -> str:
    state = small_state(seed)
    return files.save_state_chunks(state, {name: tensor_hash(a) for name, a in state.items()})


WORKER = r"""
import json, sys
from repro.filestore import FileStore
from tests.filestore.test_bookkeeping import save_state
files = FileStore(sys.argv[1])
for line in sys.stdin:
    op, args = json.loads(line)
    if op == "save":
        result = save_state(files, args)
    elif op == "delete":
        result = files.delete_many(args)
    elif op == "gc":
        result = files.gc_chunks()["chunks_removed"]
    elif op == "files":
        result = files.file_ids()
    elif op == "churn":  # saves beside deletes and sweeps, unsynchronised
        ids = []
        for step in range(args):
            ids.append((save_state(files, step % 3), step % 3))
            if step % 2:
                files.delete_many([ids.pop(0)[0]])
            if step % 3 == 0:
                files.gc_chunks()
        result = ids
    print(json.dumps(result), flush=True)
"""


class TestStoreLock:
    """Saves hold the store's lock shared, a sweep holds it exclusive, and
    a holder enters again at once."""

    def test_a_sweep_waits_for_every_save(self, tmp_path):
        lock = StoreLock(tmp_path / ".lock")
        order, swept = [], threading.Event()

        def sweep():
            with lock.hold(exclusive=True):
                order.append("sweep")
            swept.set()

        with lock.hold():  # a save in flight
            with lock.hold():  # a nested save joins it
                sweeper = threading.Thread(target=sweep)
                sweeper.start()
                with StoreLock(tmp_path / ".lock").hold():  # another save
                    time.sleep(0.1)
                assert order == [] and not swept.is_set()
            order.append("save")
        sweeper.join(timeout=10)
        assert not sweeper.is_alive()
        assert order == ["save", "sweep"]

    def test_a_save_waits_for_a_sweep(self, tmp_path):
        lock = StoreLock(tmp_path / ".lock")
        order = []

        def save():
            with lock.hold():
                order.append("save")

        with lock.hold(exclusive=True):
            saver = threading.Thread(target=save)
            saver.start()
            time.sleep(0.1)
            order.append("sweep")
        saver.join(timeout=10)
        assert not saver.is_alive()
        assert order == ["sweep", "save"]

    def test_a_sweep_reenters_and_a_save_cannot_become_one(self, tmp_path):
        acquired = []
        lock = StoreLock(tmp_path / ".lock", on_acquire=acquired.append)
        with lock.hold(exclusive=True):
            with lock.hold(exclusive=True), lock.hold():
                pass
        with lock.hold(), pytest.raises(RuntimeError):
            with lock.hold(exclusive=True):
                pass
        assert acquired == [True, False]  # once per outermost hold


@contextlib.contextmanager
def second_process(root):
    """A second process over the store at ``root``; yields ``ask(op, args)``,
    which runs one of :data:`WORKER`'s ops there and returns its result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen(
        [sys.executable, "-c", WORKER, str(root)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def ask(op, args=None):
        child.stdin.write(json.dumps([op, args]) + "\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    try:
        yield ask
    finally:
        child.stdin.close()
        assert child.wait(timeout=60) == 0
        child.stdout.close()


def assert_fresh_open_recovers(root, acked):
    fresh = FileStore(root)
    for file_id, seed in acked:
        recovered = fresh.recover_state_chunks(file_id, verify=True)
        for name, array in small_state(seed).items():
            assert recovered[name].tobytes() == array.tobytes(), (file_id, name)


class TestTwoProcesses:
    """Two processes on one store directory: saves that deduplicate beside
    deletes and sweeps in another process.  Every acked manifest recovers
    bitwise from a fresh open."""

    def test_a_save_after_another_process_swept_its_chunks(self, tmp_path):
        root = tmp_path / "files"
        ours = FileStore(root)
        with second_process(root) as ask:
            # the other process frees the only manifest naming our chunks,
            # then our next save of the same state deduplicates against them
            first = save_state(ours, 1)
            assert ask("delete", [first]) == [first]
            ask("gc")
            second = save_state(ours, 1)
        assert_fresh_open_recovers(root, [(second, 1)])

    def test_a_sweep_marks_what_another_process_saved_since_it_looked(self, tmp_path):
        root = tmp_path / "files"
        ours = FileStore(root)
        first = save_state(ours, 7)
        with second_process(root) as ask:
            assert ask("files") == [first]  # it has indexed our chunks
            second = save_state(ours, 7)  # deduplicates against them
            assert ask("delete", [first]) == [first]  # the only other name
            ask("gc")
        assert_fresh_open_recovers(root, [(second, 7)])

    def test_saves_beside_deletes_and_gc_recover_bitwise_from_a_fresh_open(self, tmp_path):
        root = tmp_path / "files"
        ours = FileStore(root)
        with second_process(root) as ask:
            acked = []
            churn = threading.Thread(target=lambda: acked.extend(ask("churn", 30)))
            churn.start()
            mine = []
            for step in range(30):
                mine.append((save_state(ours, step % 3), step % 3))
                if step % 2:
                    ours.delete_many([mine.pop(0)[0]])
                if step % 5 == 0:
                    ours.gc_chunks()
            churn.join(timeout=120)
            assert not churn.is_alive()
        assert_fresh_open_recovers(root, mine + [tuple(entry) for entry in acked])


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
                self.assert_gauges(store)
            store.drop_many([digest_for(i) for i in range(40) if i % 3])
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
    created, by one 4-chunk save — none, at 2x10^2 and 2x10^4 stored
    chunks alike (before the refcount log went: one appended line; before
    that 27 KB vs 2.6 MB, two files each)."""

    def one_save_at(self, store_cls, root, held: int) -> tuple[int, int]:
        store = store_cls(root)
        for index in range(held):
            store.put(digest_for(index), payload(index, 16))
        store.flush()
        before = bookkeeping_files(store.root)

        fresh = [digest_for(held + index) for index in range(4)]
        for offset, digest in enumerate(fresh):
            store.put(digest, payload(held + offset, 16))
        store.flush()

        written = created = 0
        for name, (inode, size) in bookkeeping_files(store.root).items():
            if name in before and before[name][0] == inode:
                written += size - before[name][1]  # appended in place
            else:
                written += size  # a new or rewritten file
                created += 1
        assert len(store) == held + 4
        return written, created

    def test_bookkeeping_bytes_and_files_do_not_grow_with_the_store(
        self, store_cls, tmp_path
    ):
        small = self.one_save_at(store_cls, tmp_path / "small", 200)
        large = self.one_save_at(store_cls, tmp_path / "large", 20_000)
        assert small == large
        written, created = small
        assert created == 0
        assert written == 0  # a save writes no bookkeeping

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
        manager.garbage_collect()
        del models[doomed]
        deleted = before - set(files.chunks.chunk_ids())
        assert deleted, "the delete freed no chunk"
        for seed in range(5, 8):  # appended after the delete's checkpoint
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(
                ModelSaveInfo(model, tiny_arch(), use_case=f"U_{seed}"))] = model
        acked = set(files.chunks.chunk_ids())
        torn = "f" * 40
        files.chunks.write_torn(torn, b"never acknowledged" * 8)

        del files, service, manager  # kill -9
        files, service, manager = reopen()
        chunks = files.chunks
        assert set(chunks.chunk_ids()) == acked  # found; nothing resurrected
        assert not any(chunks.has(digest) for digest in deleted)
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
    are refused on open; imported, the store saves, deletes, GCs and
    recovers; the counts are never read, and the import deleted them."""

    @pytest.mark.parametrize("service_cls", SERVICES)
    def test_it_opens_and_carries_on(self, service_cls, layout, tmp_path):
        def reopen(root=tmp_path, docs="docs"):
            files = FileStore(root / "files", tmp_grace_s=0.0)
            service = service_cls(
                DocumentStore(root / docs), files, scratch_dir=root / "scratch")
            return files, service, ModelManager(service)

        files, service, manager = reopen()
        models = {}
        for seed in (1, 2, 3):
            model = make_tiny_cnn(seed=seed)
            models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        counts = dict.fromkeys(files.chunks.chunk_ids(), 1)
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
        with pytest.raises(OlderFormatError):
            reopen()

        new = imported(tmp_path)
        root = new / "files" / "chunks"
        files, service, manager = reopen(new, "documents")
        assert set(files.chunks.chunk_ids()) == set(counts)
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
        # nothing reads the parent's refcounts: the import deleted them
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == [
            ".lock", "index.json"]

        files, service, manager = reopen(new, "documents")
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        assert manager.fsck(verify_chunks=True).clean
