"""Chunk-store bookkeeping: tombstones, the segment a writer holds, and
the lock several processes share.

A save's bookkeeping costs what the save touches (DESIGN.md §17): it
writes no bookkeeping file at all, appended records are their own index
entries until something seals or deletes, and the gauges come from running
totals.  A process that takes the store's lock first absorbs the records
and tombstones other processes appended.  Everything here is counted or compared
against a from-scratch recount — nothing is timed.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.cluster import ShardedFileStore
from repro.core import BaselineSaveService, ModelManager, ModelSaveInfo
from repro.core.hashing import state_dict_hashes, tensor_hash
from repro.docstore import DocumentStore
from repro.errors import OlderFormatError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RECORD_HEADER, RecordLog, read_record
from repro.filestore.segments import HEADER, StoreLock, _parse_seq
from tests.conftest import make_tiny_cnn, replace_record
from tests.core.test_crash_consistency import SERVICES, assert_states_equal, tiny_arch
from tests.filestore.helpers import locate
from tests.filestore.older_release import as_v3_release, imported


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
            # ... once: the open sealed what its dead writer left
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
    """Test (c): a store the release before tombstones (v3) left — its
    deletes only in ``index.json``, the records they killed still in the
    segments, a heal's bad copy before the good one — and a one-object
    ``refcounts.json`` are refused on open; imported, no deleted record
    comes back, the store saves, deletes, GCs and recovers; the counts are
    never read, and the import deleted both files."""

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
        doomed = next(iter(models))
        manager.delete_model(doomed)
        del models[doomed]
        before = set(files.chunks.chunk_ids())
        manager.garbage_collect()
        swept = before - set(files.chunks.chunk_ids())
        assert swept
        # a heal: a bad copy under a digest no record holds yet, dropped,
        # then the good one put by the save
        model = make_tiny_cnn(seed=4)
        healed = max(state_dict_hashes(model.state_dict()).values())
        files.chunks.put(healed, b"a bad copy")
        files.chunks.drop(healed)
        models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        counts = dict.fromkeys(files.chunks.chunk_ids(), 1)
        files.chunks.close()
        root = files.chunks.root
        (root / "refcounts.json").write_text(json.dumps(counts, sort_keys=True))
        as_v3_release(tmp_path)
        [index] = RecordLog(root / "index.json").replay()
        assert set(index) == {"version", "entries", "segments"}
        assert set(index["entries"]) == set(counts)
        assert all(set(meta) == {"scanned", "total", "sealed"}
                   for meta in index["segments"].values())
        del files, service, manager
        with pytest.raises(OlderFormatError):
            reopen()

        new = imported(tmp_path)
        root = new / "files" / "chunks"
        files, service, manager = reopen(new, "documents")
        assert set(files.chunks.chunk_ids()) == set(counts)  # none of ``swept``
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        model = make_tiny_cnn(seed=5)
        models[service.save_model(ModelSaveInfo(model, tiny_arch()))] = model
        doomed = next(iter(models))
        manager.delete_model(doomed)
        del models[doomed]
        manager.garbage_collect()
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        assert manager.fsck(verify_chunks=True).clean
        # nothing reads the parent's refcounts or checkpoint: the import
        # deleted them
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == [".lock"]

        files, service, manager = reopen(new, "documents")
        for model_id, model in models.items():
            assert_states_equal(model, service.recover_model(model_id).model)
        assert manager.fsck(verify_chunks=True).clean


# -- tombstones --------------------------------------------------------------------


def tombstone_bytes(segments_dir) -> int:
    """Bytes the tombstone records in every segment under ``segments_dir``
    take, framing included."""
    total = 0
    for path in segments_dir.iterdir():
        stream = io.BytesIO(path.read_bytes())
        stream.seek(HEADER.size)
        while (record := read_record(stream.read)) is not None:
            if record[0].startswith(b"."):
                total += RECORD_HEADER.size + len(record[0]) + len(record[1])
    return total


def segment_names(store) -> set[str]:
    return {path.name for path in store.segments_dir.iterdir()}


class TestTombstones:
    """A drop is a tombstone naming the ``[segment, offset]`` of the record
    it kills, in the segments, durable once ``drop_many`` returns: the
    segments are the only record of what was deleted."""

    def test_a_dropped_record_stays_dropped(self, tmp_path):
        """(a): after a clean reopen, a ``kill -9`` reopen and compaction."""
        def store():
            return ChunkStore(tmp_path / "s", segment_bytes=2048, tmp_grace_s=0.0)

        first = store()
        for index in range(12):
            first.put(digest_for(index), payload(index, 400))
        first.flush()
        assert first.drop(digest_for(0))
        first.close()
        assert not store().has(digest_for(0))  # a clean reopen

        second = store()
        assert second.drop_many([digest_for(1), digest_for(2)]) == [
            digest_for(1), digest_for(2)]
        del second  # kill -9: no close, no flush beyond the drop's own
        third = store()
        assert not any(third.has(digest_for(i)) for i in range(3))
        third.drop_many([digest_for(i) for i in range(3, 12) if i % 3])
        assert third.gc()["segments_compacted"] >= 1
        kept = [digest_for(i) for i in range(3, 12) if i % 3 == 0]
        assert third.chunk_ids() == kept
        del third
        assert store().chunk_ids() == kept
        for digest in kept:
            assert store().get(digest) == payload(int(digest[:8]), 400)

    def test_a_dropped_record_stays_dropped_after_the_import(self, tmp_path):
        """(a): a record the v3 release dropped, and one this release
        swept, stay gone once the import of a v3 root is reopened."""
        def open_service():
            files = FileStore(tmp_path / "files", tmp_grace_s=0.0)
            return files, BaselineSaveService(
                DocumentStore(tmp_path / "docs"), files, scratch_dir=tmp_path / "scratch")

        files, service = open_service()
        models = [service.save_model(ModelSaveInfo(make_tiny_cnn(seed=seed), tiny_arch()))
                  for seed in (1, 2)]
        files.chunks.close()  # sealed: its footer lists what the sweep kills
        files, service = open_service()
        ModelManager(service).delete_model(models[0])
        before = set(files.chunks.chunk_ids())
        ModelManager(service).garbage_collect()
        swept = before - set(files.chunks.chunk_ids())
        assert swept
        files.chunks.close()
        as_v3_release(tmp_path)
        new = imported(tmp_path)
        reopened = FileStore(new / "files")
        assert not any(reopened.chunks.has(digest) for digest in swept)
        assert reopened.recover_state_chunks(
            service.documents.collection("models").get(models[1])["parameters_file"],
            verify=True)

    def test_a_put_after_a_drop_survives_a_reopen(self, tmp_path):
        """(b): the tombstone names the dropped record, not its digest."""
        store = ChunkStore(tmp_path / "s")
        store.put(digest_for(0), payload(0))
        store.drop(digest_for(0))
        store.put(digest_for(0), payload(0))
        store.flush()
        assert ChunkStore(tmp_path / "s").get(digest_for(0)) == payload(0)  # kill -9
        store.close()
        assert ChunkStore(tmp_path / "s").get(digest_for(0)) == payload(0)

    def test_a_put_after_a_drop_survives_a_compaction_that_outranks_it(self, tmp_path):
        """(b): another store carries the tombstone into a compaction output
        with a higher sequence than the segment the put went to."""
        root = tmp_path / "s"
        dropped, keep = digest_for(0), digest_for(1)
        first = ChunkStore(root)
        first.put(dropped, payload(0, 100))
        first.put(keep, payload(1, 300))  # keeps this segment live
        first.close()
        second = ChunkStore(root)
        second.drop(dropped)  # its tombstone, in a segment with two records
        second.put(digest_for(2), payload(2, 600))
        second.put(digest_for(3), payload(3, 100))
        second.close()
        writer = ChunkStore(root)
        writer.put(dropped, payload(0, 100))  # the put after the drop
        writer.flush()
        compactor = ChunkStore(root)
        compactor.drop(digest_for(2))
        assert compactor.compact()["segments_compacted"] == 1
        [output] = [name for name, meta in compactor._segmeta.items()
                    if meta["graves"] and name not in (*writer._segmeta, compactor._active_name)]
        assert _parse_seq(output) > _parse_seq(writer._active_name)
        assert compactor._segmeta[output]["graves"][0][0] == dropped
        for reader in (writer, compactor, ChunkStore(root)):
            reader.catch_up()
            assert reader.get(dropped) == payload(0, 100)
            assert reader.get(keep) == payload(1, 300)

    def test_a_heal_keeps_the_healed_copy(self, tmp_path):
        """(c): a 2-member cluster heals a member's bad copy (drop, then the
        good one put); a reopen serves the healed copy."""
        members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(2)}
        cluster = ShardedFileStore(tmp_path / "meta", members, replicas=2)
        service = BaselineSaveService(DocumentStore(), cluster)
        model = make_tiny_cnn(seed=1)
        model_id = service.save_model(ModelSaveInfo(model, tiny_arch()))
        digest = max(state_dict_hashes(model.state_dict()).values())
        intact = bytes(members["m0"].chunks.get(digest))
        replace_record(members["m0"], digest, bytes([intact[0] ^ 0xFF]) + intact[1:])
        cluster.read_manifest(service.documents.collection("models").get(
            model_id)["parameters_file"])  # what a deep heal checks copies against
        assert ModelManager(service).heal()["converged"]
        healed = locate(members["m0"].chunks, digest)
        assert bytes(members["m0"].chunks.get(digest)) == intact
        for closed in (False, True):  # kill -9, then a clean close
            if closed:
                members["m0"].close()
            reopened = FileStore(tmp_path / "m0").chunks
            assert locate(reopened, digest) == healed
            assert bytes(reopened.get(digest)) == intact

    def test_a_segment_of_tombstones_stays_while_one_it_names_does(self, tmp_path):
        """(d)"""
        def store():
            return ChunkStore(tmp_path / "s", tmp_grace_s=0.0)

        first = store()
        first.put(digest_for(0), payload(0))
        first.put(digest_for(1), payload(1))
        first.close()
        [target] = segment_names(first)
        dropper = store()
        dropper.drop(digest_for(0))  # a segment for its tombstone alone
        dropper.close()
        [graves] = segment_names(first) - {target}
        sweeper = store()
        sweeper.reap({digest_for(1)})  # sweeps nothing: the target stays live
        assert segment_names(first) == {target, graves}
        assert store().chunk_ids() == [digest_for(1)]
        sweeper.reap(set())  # the target dies: both go
        assert target not in segment_names(first) and graves not in segment_names(first)
        assert store().chunk_ids() == []
        sweeper.close()  # its own tombstone now names nothing on disk
        store().reap(set())
        assert segment_names(first) == set()

    def test_tombstone_bytes_stay_bounded_over_gc_cycles(self, tmp_path):
        """(e): each cycle puts a batch and sweeps the last one, then
        compacts.  A tombstone lives while the segment it names does, so the
        tombstones on disk never exceed those of the last two cycles."""
        store = ChunkStore(tmp_path / "s", segment_bytes=4096, tmp_grace_s=0.0)
        batch, on_disk = 8, []
        for cycle in range(20):
            live = [digest_for(cycle * batch + index) for index in range(batch)]
            for index, digest in enumerate(live):
                store.put(digest, payload(cycle * batch + index, 300))
            store.flush()
            store.gc(set(live))
            on_disk.append(tombstone_bytes(store.segments_dir))
        one = RECORD_HEADER.size + 1 + len(digest_for(0)) + len(json.dumps(
            [store._active_name, 10 ** 6]))
        assert max(on_disk) <= 2 * batch * one
        assert store.chunk_ids() == sorted(live)

    def test_a_compaction_cut_short_never_brings_back_what_a_victim_killed(self, tmp_path):
        """One victim holds tombstones naming records of the other (a lower
        sequence than the segment it kills in); a crash at every compaction
        point, then a reopen, finds none of those records again."""
        root = tmp_path / "s"
        killer = ChunkStore(root, segment_bytes=1 << 20)
        killer.put(digest_for(0), payload(0, 300))  # killer's segment comes first
        other = ChunkStore(root, segment_bytes=1 << 20)
        for index in range(10, 16):
            other.put(digest_for(index), payload(index, 300))
        other.close()
        killer.catch_up()
        killed = [digest_for(index) for index in range(10, 14)]
        killer.drop_many(killed)
        for index in range(1, 6):
            killer.put(digest_for(index), payload(index, 300))
        killer.drop_many([digest_for(index) for index in range(1, 5)])
        killer.close()
        [first, second] = sorted(segment_names(killer))
        assert any(grave[1] == second for grave in ChunkStore(root)._segmeta[first]["graves"])
        kept = {digest_for(index) for index in (0, 5, 14, 15)}
        crashes = 0
        for at in range(1, 60):
            copy = tmp_path / f"crash-{at}"
            shutil.copytree(root, copy)
            store = ChunkStore(copy, tmp_grace_s=0.0)
            faults = FaultInjector(seed=0)
            store.fault_hook = faults.fail_point
            faults.arm_crash(at, op="chunk.compact")
            try:
                store.compact()
            except CrashPoint:
                crashes += 1
            else:
                assert store.segment_stats()["chunks"] == len(kept)
                break
            del store  # crash: no close
            reopened = ChunkStore(copy, tmp_grace_s=0.0)
            assert set(reopened.chunk_ids()) == kept, f"crash at {at}"
            reopened.audit(repair=True)
            reopened.gc()
            del reopened
            reopened = ChunkStore(copy, tmp_grace_s=0.0)
            assert set(reopened.chunk_ids()) == kept, f"crash at {at}"
            for digest in kept:
                assert reopened.get(digest) == payload(int(digest[:8]), 300), f"crash at {at}"
        else:
            pytest.fail("compaction never completed")
        assert crashes >= 5, f"only {crashes} distinct crash points hit"


class TestAWriterHoldsItsSegment:
    """A writer holds an ``flock`` on its unsealed segment until it seals
    it: no other process seals or unlinks a segment someone still writes,
    and one whose writer is gone is sealed, so it is scanned once."""

    def test_an_idle_writers_segment_of_tombstones_outlives_another_sweep(self, tmp_path):
        """A writer whose segment holds only tombstones, naming a segment
        another process's sweep unlinks, idles past the grace age; its next
        acknowledged put is still found by a fresh open."""
        root = tmp_path / "s"
        seed = ChunkStore(root, tmp_grace_s=0.0)
        seed.put(digest_for(0), payload(0))
        seed.close()
        writer = ChunkStore(root, tmp_grace_s=0.0)
        assert writer.drop(digest_for(0))  # its segment: that tombstone alone
        ChunkStore(root, tmp_grace_s=0.0).reap(set())
        assert writer._active_name in segment_names(writer)
        writer.put(digest_for(1), payload(1))
        writer.flush()
        assert ChunkStore(root).get(digest_for(1)) == payload(1)

    def test_a_sweep_seals_what_a_dead_writer_left_and_not_what_a_live_one_holds(
        self, tmp_path
    ):
        root = tmp_path / "s"
        live, dead, sweeper = (ChunkStore(root) for _ in range(3))
        for index, writer in enumerate((live, dead)):
            writer.put(digest_for(index), payload(index))
            writer.flush()
        live_name, dead_name = live._active_name, dead._active_name
        del writer
        del dead  # kill -9: no close
        sweeper.reap()
        assert {name for name, meta in sweeper._segmeta.items() if meta["sealed"]} == {
            dead_name}
        live.put(digest_for(2), payload(2))
        live.flush()
        reopened = ChunkStore(root)
        assert not reopened._segmeta[live_name]["sealed"]
        assert reopened.chunk_ids() == [digest_for(index) for index in range(3)]
