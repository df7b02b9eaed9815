"""File store: save/recover, integrity, management."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cluster import ShardedFileStore
from repro.core.hashing import tensor_hash
from repro.filestore import FileNotFoundInStoreError, FileStore


class TestSaveRecover:
    def test_bytes_round_trip(self, file_store):
        file_id = file_store.save_bytes(b"hello world")
        assert file_store.recover_bytes(file_id) == b"hello world"

    def test_suffix_preserved_in_id(self, file_store):
        file_id = file_store.save_bytes(b"data", suffix=".params")
        assert file_id.endswith(".params")

    def test_same_content_gets_distinct_ids(self, file_store):
        a = file_store.save_bytes(b"same")
        b = file_store.save_bytes(b"same")
        assert a != b
        assert file_store.recover_bytes(a) == file_store.recover_bytes(b)

    def test_save_file_copies_contents(self, file_store, tmp_path):
        source = tmp_path / "model.code"
        source.write_bytes(b"def model(): ...")
        file_id = file_store.save_file(source)
        assert file_store.recover_bytes(file_id) == b"def model(): ..."

    def test_recover_to_destination(self, file_store, tmp_path):
        file_id = file_store.save_bytes(b"payload")
        out = file_store.recover_to(file_id, tmp_path / "sub" / "out.bin")
        assert out.read_bytes() == b"payload"

    def test_empty_payload(self, file_store):
        file_id = file_store.save_bytes(b"")
        assert file_store.recover_bytes(file_id) == b""


class TestIntegrity:
    def test_missing_file_raises(self, file_store):
        with pytest.raises(FileNotFoundInStoreError):
            file_store.recover_bytes("deadbeefdeadbeef-000000000000")

    def test_corruption_detected(self, file_store):
        file_id = file_store.save_bytes(b"original")
        # a record with a valid CRC over bytes its id's digest disowns
        file_store.chunks.drop(file_id)
        file_store.chunks.put(file_id, b"tampered")
        with pytest.raises(IOError, match="corrupt"):
            file_store.recover_bytes(file_id)

    @pytest.mark.parametrize("bad_id", ["../escape", ".hidden"])
    def test_path_traversal_rejected(self, file_store, bad_id):
        with pytest.raises(ValueError):
            file_store.recover_bytes(bad_id)


class TestManagement:
    def test_exists_and_delete(self, file_store):
        file_id = file_store.save_bytes(b"x")
        assert file_store.exists(file_id)
        assert file_store.delete(file_id)
        assert not file_store.exists(file_id)
        assert not file_store.delete(file_id)

    def test_size_and_total(self, file_store):
        a = file_store.save_bytes(b"12345")
        file_store.save_bytes(b"1234567890")
        assert file_store.size(a) == 5
        assert file_store.total_bytes() == 15

    def test_size_of_a_file_that_starts_with_the_frame_magic(self, file_store):
        """Such a file is stored escape-framed; its size is still its own."""
        for data in (b"MMCZ", b"MMCZ" + bytes(100)):
            file_id = file_store.save_bytes(data)
            assert file_store.recover_bytes(file_id) == data
            assert file_store.size(file_id) == len(data)

    def test_size_of_missing_raises(self, file_store):
        with pytest.raises(FileNotFoundInStoreError):
            file_store.size("deadbeefdeadbeef-000000000000")

    def test_file_ids_listing(self, file_store):
        ids = {file_store.save_bytes(b"a"), file_store.save_bytes(b"b")}
        assert set(file_store.file_ids()) == ids

    def test_clear_empties_store(self, file_store):
        file_store.save_bytes(b"x")
        file_store.clear()
        assert file_store.total_bytes() == 0
        assert file_store.file_ids() == []


def _state(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {"w": rng.standard_normal(64).astype(np.float32),
            "b": rng.standard_normal(8).astype(np.float32)}


def _save(store, state) -> str:
    return store.save_state_chunks(state, {name: tensor_hash(a) for name, a in state.items()})


def _bitwise(store, file_id, state) -> bool:
    recovered = store.recover_state_chunks(file_id)
    return all(np.array_equal(recovered[name], array) for name, array in state.items())


@pytest.fixture(params=["single", "cluster"])
def any_store(request, tmp_path):
    if request.param == "single":
        return FileStore(tmp_path / "files")
    members = {f"m{index}": FileStore(tmp_path / f"m{index}") for index in range(3)}
    return ShardedFileStore(tmp_path / "meta", members, replicas=2)


class TestASaveBesideAFree:
    """A delete or gc that frees records while a save sits between its
    puts and its barrier must not leave the save's manifest naming a
    missing record: a delete drops only file records, and a sweep waits for
    the save's hold."""

    def free_once_at_the_barrier(self, store, monkeypatch, free):
        flush, freed = store.chunks.flush, []

        def freeing_flush():
            if not freed:
                freed.append(None)  # before ``free``, which may flush itself
                freed[0] = free()
            return flush()

        monkeypatch.setattr(store.chunks, "flush", freeing_flush)
        return freed

    def test_a_delete_of_the_only_other_manifest(self, any_store, monkeypatch):
        state = _state()
        first = _save(any_store, state)
        freed = self.free_once_at_the_barrier(
            any_store, monkeypatch, lambda: any_store.delete_many([first]))
        second = _save(any_store, state)  # dedups against first's chunks
        assert freed == [[first]]
        assert _bitwise(any_store, second, state)
        assert all(any_store.chunks.has(tensor_hash(a)) for a in state.values())
        any_store.gc_chunks()
        assert _bitwise(any_store, second, state)

    def test_a_gc_in_the_same_window(self, any_store, monkeypatch):
        state = _state(1)
        gc_results = []

        def gc_beside():  # another thread's gc, started inside the window
            sweeper = threading.Thread(
                target=lambda: gc_results.append(any_store.gc_chunks()))
            sweeper.start()
            sweeper.join(timeout=0.3)
            return sweeper

        freed = self.free_once_at_the_barrier(any_store, monkeypatch, gc_beside)
        file_id = _save(any_store, state)
        sweeper = freed[0]
        assert gc_results == []  # it waited for the save's hold
        sweeper.join(timeout=30)
        assert not sweeper.is_alive()
        assert gc_results[0]["chunks_removed"] == 0  # the save names them all
        assert _bitwise(any_store, file_id, state)
        assert any_store.chunks.has(file_id)


DROP_STORES = """
import gc, sys
from pathlib import Path
import numpy as np
from repro.cluster import ShardedFileStore
from repro.core.hashing import tensor_hash
from repro.filestore import FileStore

root, close = Path(sys.argv[1]), sys.argv[2] == "close"
members = {f"m{index}": FileStore(root / f"m{index}") for index in range(3)}
for store in (FileStore(root / "files"), ShardedFileStore(root / "meta", members, replicas=2)):
    state = {"w": np.arange(64, dtype=np.float32)}
    store.recover_state_chunks(store.save_state_chunks(state, {"w": tensor_hash(state["w"])}))
    if close:
        store.close()
del members, store
gc.collect()
"""


class TestClose:
    """A store that saved and read holds segment handles (``wb`` and
    ``rb``); ``close()`` releases them, a cluster's through its members."""

    @pytest.mark.parametrize("close", [True, False])
    def test_a_closed_store_leaves_no_descriptor_open(self, tmp_path, close):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", DROP_STORES,
             str(tmp_path), "close" if close else "drop"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        unclosed = [line for line in done.stderr.splitlines() if "unclosed file" in line]
        if close:
            assert unclosed == []
        else:  # the check sees what a dropped store leaves open
            assert any(".seg' mode='wb'" in line for line in unclosed), done.stderr

    def test_a_closed_store_opens_again_on_use(self, any_store):
        state = _state(2)
        file_id = _save(any_store, state)
        any_store.close()
        any_store.close()
        assert _bitwise(any_store, file_id, state)
        assert _bitwise(any_store, _save(any_store, _state(3)), _state(3))
