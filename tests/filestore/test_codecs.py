"""Chunk payload framing: raw at rest, escape frames, legacy codec frames.

A save stores every chunk raw, escape-framed only when its bytes start
with the frame magic.  Older releases could also store zlib (or lz4)
frames; those are built here with the test-side writer and must decode,
verify and fsck exactly like raw records.
"""

import struct

import numpy as np
import pytest

from repro.errors import StoreCorruptionError
from repro.filestore import ChunkStore, FileStore
from repro.filestore import codecs as chunk_codecs
from repro.core.hashing import state_dict_hashes
from tests.filestore.retired_formats import RetiredFormatStore, zlib_frame


def compressible(nbytes=200_000):
    return (b"0123456789ABCDEF" * (nbytes // 16 + 1))[:nbytes]


def incompressible(nbytes=200_000, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8
    ).tobytes()


class TestFraming:
    def test_none_codec_is_passthrough(self):
        data = incompressible(1000)
        view = memoryview(data)
        assert ChunkStore._encode(view) is view
        assert chunk_codecs.decode(data) is data

    def test_zlib_round_trip_shrinks(self):
        data = compressible()
        payload = zlib_frame(data)
        assert len(payload) < len(data)
        assert payload[:4] == chunk_codecs.FRAME_MAGIC
        assert chunk_codecs.decode(payload) == data

    def test_magic_collision_is_escape_framed(self):
        """Raw bytes that happen to start with the frame magic must still
        decode unambiguously — the writer wraps them as 'stored'."""
        data = chunk_codecs.FRAME_MAGIC + incompressible(100)
        payload = ChunkStore._encode(memoryview(data))
        assert bytes(payload) != data
        assert payload[4] == chunk_codecs.CODEC_STORED
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
        assert sorted(plain.chunks.chunk_ids()) == sorted(packed.chunks.chunk_ids())
        assert plain.chunks.total_bytes() > packed.chunks.total_bytes()
        for store, file_id in ((plain, id_a), (FileStore(tmp_path / "packed"), id_b)):
            recovered = store.recover_state_chunks(file_id)
            assert np.array_equal(recovered["w"], state["w"])


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
    def state(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "dense.weight": rng.standard_normal(60_000).astype(np.float32),
            "sparse.weight": np.zeros(80_000, dtype=np.float32),
        }

    def test_round_trip_and_accounting(self, tmp_path, layout):
        store = RetiredFormatStore(tmp_path / "files", zlib=True)
        state = self.state()
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = store.recover_state_chunks(file_id, verify=True)
        for key in state:
            assert np.array_equal(recovered[key], state[key])
        stats = store.chunks.dedup_stats()
        assert set(stats) == {"logical_bytes", "dedup_bytes", "stored_bytes", "dedup_ratio"}
        assert stats["stored_bytes"] < stats["logical_bytes"]

    def test_plain_store_reads_compressed_chunks(self, tmp_path, layout):
        """Decode is frame-driven: a plain store understands what a zlib
        writer stored in the same directory."""
        state = self.state(seed=2)
        writer = RetiredFormatStore(tmp_path / "files", zlib=True)
        file_id = writer.save_state_chunks(state, state_dict_hashes(state))
        reader = FileStore(tmp_path / "files")
        recovered = reader.recover_state_chunks(file_id, verify=True)
        for key in state:
            assert np.array_equal(recovered[key], state[key])

    def test_fsck_clean_on_compressed_store(self, tmp_path, layout):
        from repro.core import ArchitectureRef, ModelManager, ModelSaveInfo
        from repro.core.baseline import BaselineSaveService
        from repro.docstore import DocumentStore
        from tests.conftest import make_tiny_cnn

        service = BaselineSaveService(
            DocumentStore(),
            RetiredFormatStore(tmp_path / "files", zlib=True),
        )
        arch = ArchitectureRef.from_factory(
            "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
        )
        service.save_model(ModelSaveInfo(make_tiny_cnn(), arch))
        report = ModelManager(service).fsck(verify_chunks=True)
        assert report.clean, report.summary()

    def test_cdc_composes_with_compression(self, tmp_path, layout):
        """v2 pieces in zlib frames: both retired formats at once."""
        store = RetiredFormatStore(
            tmp_path / "files", manifest="v2", zlib=True, piece_bytes=16 * 1024)
        state = self.state(seed=3)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = FileStore(tmp_path / "files").recover_state_chunks(file_id, verify=True)
        for key in state:
            assert np.array_equal(recovered[key], state[key])
        stats = store.chunks.dedup_stats()
        assert stats["stored_bytes"] < stats["logical_bytes"] - stats["dedup_bytes"]
