"""File store: save/recover, integrity, management."""

import pytest

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
