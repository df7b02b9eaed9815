"""Chunk payload frames: what older releases stored, decoded by the import.

A save stores every chunk raw.  Older releases could store zlib (or lz4)
frames, and escape-framed a chunk whose bytes start with the frame magic;
those are built here with the test-side writer, and the import converts
a copy of the store they are in: its records decode, verify and fsck
exactly like raw ones (DESIGN.md §11).
"""

import struct

import numpy as np
import pytest

from repro import importer as chunk_codecs
from repro.core import ArchitectureRef, BaselineSaveService, ModelManager, ModelSaveInfo
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.filestore import ChunkStore, FileStore
from repro.filestore.store import is_file_id
from repro.core.hashing import state_dict_hashes
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import copy_state
from tests.filestore.helpers import locate
from tests.filestore.older_release import as_older_release, imported
from tests.filestore.retired_formats import RetiredFormatStore, zlib_frame

#: a model wide enough that framing shows: a 64-channel tiny CNN whose
#: 102 400-float head is zero, so it compresses
WIDE = {"num_classes": 100, "channels": 64}
ARCH = ArchitectureRef.from_factory("tests.conftest", "make_tiny_cnn", WIDE)


def saved_by_older_writer(tmp_path, seed=0, **writer_kwargs):
    """One model saved by a :class:`RetiredFormatStore` built with
    ``writer_kwargs``: ``(writer, model id, state)``."""
    writer = RetiredFormatStore(tmp_path / "files", **writer_kwargs)
    model = make_tiny_cnn(**WIDE, seed=seed)
    state = copy_state(model.state_dict())
    state["5.weight"][...] = 0.0
    model.load_state_dict(state)
    service = BaselineSaveService(DocumentStore(tmp_path / "docs"), writer)
    return writer, service.save_model(ModelSaveInfo(model, ARCH)), state


def imported_service(tmp_path, writer, **kwargs) -> BaselineSaveService:
    """The writer's deployment as an older release left it, imported and
    opened: its file store built with ``kwargs``."""
    writer.chunks.close()
    as_older_release(writer.root)
    new = imported(tmp_path)
    return BaselineSaveService(
        DocumentStore(new / "documents"), FileStore(new / "files", **kwargs))


def raw_bytes(state) -> int:
    """What the layers of ``state`` take raw: a framed store holds less."""
    return sum(array.nbytes for array in state.values())


def assert_state(recovered, state) -> None:
    assert list(recovered) == list(state)
    for key in state:
        assert np.array_equal(recovered[key], state[key]), key


def compressible(nbytes=200_000):
    return (b"0123456789ABCDEF" * (nbytes // 16 + 1))[:nbytes]


def incompressible(nbytes=200_000, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8
    ).tobytes()


class TestFraming:
    def test_none_codec_is_passthrough(self, tmp_path):
        data = incompressible(1000)
        store = ChunkStore(tmp_path / "chunks")
        store.put("ab" * 32, memoryview(data))
        path, offset, length = locate(store, "ab" * 32)
        assert path.read_bytes()[offset:offset + length] == data
        assert chunk_codecs.decode(data) is data

    def test_zlib_round_trip_shrinks(self):
        data = compressible()
        payload = zlib_frame(data)
        assert len(payload) < len(data)
        assert payload[:4] == chunk_codecs.FRAME_MAGIC
        assert chunk_codecs.decode(payload) == data

    def test_digest_semantics_are_uncompressed(self, tmp_path):
        """Chunk ids never depend on the at-rest framing: same content,
        same id, raw or zlib-framed."""
        state = {"w": np.zeros(50_000, dtype=np.float32)}
        hashes = state_dict_hashes(state)
        plain = FileStore(tmp_path / "plain")
        packed = RetiredFormatStore(tmp_path / "packed", zlib=True)
        id_a = plain.save_state_chunks(state, hashes)
        id_b = packed.save_state_chunks(state, hashes)
        assert [d for d in plain.chunks.chunk_ids() if not is_file_id(d)] == [
            d for d in packed.chunks.chunk_ids() if not is_file_id(d)]
        assert plain.chunks.total_bytes() > packed.chunks.total_bytes()
        for store, file_id in ((plain, id_a), (packed, id_b)):
            assert chunk_codecs.decode(store.chunks.get(hashes["w"])) == state["w"].tobytes()
        assert plain.recover_state_chunks(id_a)["w"].tobytes() == state["w"].tobytes()


class TestCorruption:
    def test_truncated_frame(self):
        payload = zlib_frame(compressible())
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(payload[:8])

    def test_unknown_codec_id(self):
        frame = struct.pack("<4sBQ", chunk_codecs.FRAME_MAGIC, 99, 10) + b"x" * 10
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(frame)

    def test_corrupt_compressed_body(self):
        payload = bytearray(zlib_frame(compressible()))
        payload[20] ^= 0xFF
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(bytes(payload))

    def test_length_mismatch(self):
        data = compressible()
        payload = bytearray(zlib_frame(data))
        # lie about the uncompressed length in the frame header
        struct.pack_into("<Q", payload, 5, len(data) + 1)
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(bytes(payload))

    def test_lz4_payload_without_lz4_module(self):
        if chunk_codecs._lz4 is not None:
            pytest.skip("lz4 is importable here")
        frame = struct.pack(
            "<4sBQ", chunk_codecs.FRAME_MAGIC, chunk_codecs.CODEC_LZ4, 10
        ) + b"x" * 10
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(frame)


@pytest.mark.parametrize("layout", ["segments"])
class TestStoreIntegration:
    def test_round_trip_and_accounting(self, tmp_path, layout):
        writer, model_id, state = saved_by_older_writer(tmp_path, zlib=True)
        stats = writer.chunks.dedup_stats()
        assert set(stats) == {"logical_bytes", "dedup_bytes", "stored_bytes", "dedup_ratio"}
        assert stats["stored_bytes"] < raw_bytes(state)
        service = imported_service(tmp_path, writer)
        recovered = service.recover_model(model_id, verify=True)
        assert recovered.verified is True
        assert_state(recovered.model.state_dict(), state)

    def test_plain_store_reads_compressed_chunks(self, tmp_path, layout):
        """Decode is frame-driven: a plain store understands what a zlib
        writer stored, once it is imported."""
        writer, model_id, state = saved_by_older_writer(tmp_path, seed=2, zlib=True)
        service = imported_service(tmp_path, writer)
        file_id = service.documents.collection("models").get(model_id)["parameters_file"]
        assert_state(service.files.recover_state_chunks(file_id, verify=True), state)

    def test_fsck_clean_on_compressed_store(self, tmp_path, layout):
        writer, _model_id, _state = saved_by_older_writer(tmp_path, zlib=True)
        service = imported_service(tmp_path, writer)
        report = ModelManager(service).fsck(verify_chunks=True)
        assert report.clean, report.summary()

    def test_cdc_composes_with_compression(self, tmp_path, layout):
        """v2 pieces in zlib frames: both retired formats at once, both
        converted by one import."""
        writer, model_id, state = saved_by_older_writer(
            tmp_path, seed=3, manifest="v2", zlib=True, piece_bytes=16 * 1024)
        assert writer.chunks.dedup_stats()["stored_bytes"] < raw_bytes(state)
        service = imported_service(tmp_path, writer)
        file_id = service.documents.collection("models").get(model_id)["parameters_file"]
        assert_state(service.files.recover_state_chunks(file_id, verify=True), state)
        assert_state(service.recover_model(model_id, verify=True).model.state_dict(), state)
