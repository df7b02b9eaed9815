"""Per-chunk compression codecs: framing, round trips, corruption."""

import struct

import numpy as np
import pytest

from repro.errors import StoreCorruptionError
from repro.filestore import FileStore, available_codecs, resolve_codec
from repro.filestore import codecs as chunk_codecs
from repro.core.hashing import state_dict_hashes


def compressible(nbytes=200_000):
    return (b"0123456789ABCDEF" * (nbytes // 16 + 1))[:nbytes]


def incompressible(nbytes=200_000, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=nbytes, dtype=np.uint8
    ).tobytes()


class TestCodecRegistry:
    def test_none_and_zlib_always_available(self):
        names = available_codecs()
        assert "none" in names and "zlib" in names

    def test_lz4_gated_on_importability(self):
        if chunk_codecs._lz4 is None:
            assert "lz4" not in available_codecs()
            with pytest.raises(ValueError):
                resolve_codec("lz4")
        else:
            assert "lz4" in available_codecs()
            assert resolve_codec("lz4") == "lz4"

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            resolve_codec("snappy")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(chunk_codecs.CODEC_ENV_VAR, "zlib")
        assert resolve_codec(None) == "zlib"
        monkeypatch.delenv(chunk_codecs.CODEC_ENV_VAR)
        assert resolve_codec(None) == "none"


class TestFraming:
    def test_none_codec_is_passthrough(self):
        data = incompressible(1000)
        assert chunk_codecs.encode("none", data) is data
        assert chunk_codecs.decode(data) == data

    def test_zlib_round_trip_shrinks(self):
        data = compressible()
        payload = chunk_codecs.encode("zlib", data)
        assert len(bytes(payload)) < len(data)
        assert bytes(payload[:4]) == chunk_codecs.FRAME_MAGIC
        assert chunk_codecs.decode(payload) == data

    def test_incompressible_data_stays_raw(self):
        data = incompressible()
        payload = chunk_codecs.encode("zlib", data)
        assert payload is data  # the sniff skipped compression entirely

    def test_magic_collision_is_escape_framed(self):
        """Raw bytes that happen to start with the frame magic must still
        decode unambiguously — the writer wraps them as 'stored'."""
        data = chunk_codecs.FRAME_MAGIC + incompressible(100)
        payload = chunk_codecs.encode("none", data)
        assert payload is not data
        assert chunk_codecs.decode(payload) == data
        payload = chunk_codecs.encode("zlib", data)
        assert chunk_codecs.decode(bytes(payload)) == data

    def test_digest_semantics_are_uncompressed(self, tmp_path):
        """Chunk ids never change with the codec: same content, same id,
        whatever the at-rest framing."""
        state = {"w": np.zeros(50_000, dtype=np.float32)}
        hashes = state_dict_hashes(state)
        plain = FileStore(tmp_path / "plain", codec="none")
        packed = FileStore(tmp_path / "packed", codec="zlib")
        id_a = plain.save_state_chunks(state, hashes)
        id_b = packed.save_state_chunks(state, hashes)
        assert sorted(plain.chunks.chunk_ids()) == sorted(packed.chunks.chunk_ids())
        assert plain.chunks.total_bytes() > packed.chunks.total_bytes()
        for store, file_id in ((plain, id_a), (packed, id_b)):
            recovered = store.recover_state_chunks(file_id)
            assert np.array_equal(recovered["w"], state["w"])


class TestCorruption:
    def test_truncated_frame(self):
        payload = bytes(chunk_codecs.encode("zlib", compressible()))
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(payload[:8])

    def test_unknown_codec_id(self):
        frame = struct.pack("<4sBQ", chunk_codecs.FRAME_MAGIC, 99, 10) + b"x" * 10
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(frame)

    def test_corrupt_compressed_body(self):
        payload = bytearray(chunk_codecs.encode("zlib", compressible()))
        payload[20] ^= 0xFF
        with pytest.raises(StoreCorruptionError):
            chunk_codecs.decode(bytes(payload))

    def test_length_mismatch(self):
        data = compressible()
        payload = bytearray(chunk_codecs.encode("zlib", data))
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
        store = FileStore(tmp_path / "files", codec="zlib")
        state = self.state()
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = store.recover_state_chunks(file_id, verify=True)
        for key in state:
            assert np.array_equal(recovered[key], state[key])
        stats = store.chunks.dedup_stats()
        assert stats["codec"] == "zlib"
        assert stats["stored_bytes"] < stats["logical_bytes"]
        assert stats["compression_ratio"] > 1.0

    def test_plain_store_reads_compressed_chunks(self, tmp_path, layout):
        """Decode is frame-driven: a codec=none reader understands what a
        codec=zlib writer stored in the same directory."""
        state = self.state(seed=2)
        writer = FileStore(tmp_path / "files", codec="zlib")
        file_id = writer.save_state_chunks(state, state_dict_hashes(state))
        reader = FileStore(tmp_path / "files", codec="none")
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
            FileStore(tmp_path / "files", codec="zlib"),
        )
        arch = ArchitectureRef.from_factory(
            "tests.conftest", "make_tiny_cnn", {"num_classes": 10}
        )
        service.save_model(ModelSaveInfo(make_tiny_cnn(), arch))
        report = ModelManager(service).fsck()
        assert report.clean, report.summary()

    def test_cdc_composes_with_compression(self, tmp_path, layout):
        store = FileStore(
            tmp_path / "files", codec="zlib",
            cdc=True, cdc_target_bytes=16 * 1024,
        )
        state = self.state(seed=3)
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        recovered = store.recover_state_chunks(file_id, verify=True)
        for key in state:
            assert np.array_equal(recovered[key], state[key])
        stats = store.chunks.dedup_stats()
        assert stats["compression_ratio"] > 1.0
