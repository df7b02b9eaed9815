"""v2 manifests are upgraded on open.

Older releases could save a state as content-defined (v2) manifests: each
layer a run of sha256-addressed pieces.  Saves write whole-layer (v1)
manifests only, and the first service opened over a store an older release
left saves every v2 level its catalog names again as a v1 manifest
(DESIGN.md §11).  These stores are built with the test-side writer.
"""

import json

import numpy as np
import pytest

from repro.core import BaselineSaveService, ModelManager
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.filestore import FileStore
from repro.filestore.store import MANIFEST_FORMAT, is_file_id
from repro.filestore.upgrade import FORMAT_MARKER, MANIFEST_FORMAT_V2
from tests.filestore.older_release import as_older_release
from tests.filestore.retired_formats import RetiredFormatStore

PIECE_BYTES = 64 * 1024


def v2_store(root, **kwargs):
    return RetiredFormatStore(root, manifest="v2", piece_bytes=PIECE_BYTES, **kwargs)


class TestV2Manifests:
    def state(self, seed=0, shift=0.0):
        rng = np.random.default_rng(seed)
        state = {
            "backbone.weight": rng.standard_normal(120_000).astype(np.float32),
            "head.weight": rng.standard_normal(5_000).astype(np.float32),
            "head.bias": np.zeros(10, dtype=np.float32),
        }
        if shift:
            state["head.bias"] = state["head.bias"] + np.float32(shift)
        return state

    def save(self, store, documents, state, model_id="m"):
        """One model document naming ``state`` saved as its parameters."""
        file_id = store.save_state_chunks(state, state_dict_hashes(state))
        documents.collection(MODELS).insert_one({"_id": model_id, "parameters_file": file_id})
        return file_id

    def upgraded(self, writer, documents, **kwargs):
        """The writer's root as an older release left it, opened by a save
        service: the upgraded store."""
        writer.chunks.close()
        as_older_release(writer.root)
        files = FileStore(writer.root, **kwargs)
        BaselineSaveService(documents, files)
        return files

    @staticmethod
    def parameters_file(documents, model_id="m"):
        return documents.collection(MODELS).get(model_id)["parameters_file"]

    def test_round_trip_is_bitwise(self, tmp_path):
        state, documents = self.state(), DocumentStore()
        writer = v2_store(tmp_path / "files")
        v2_id = self.save(writer, documents, state)
        assert json.loads(writer.recover_bytes(v2_id))["format"] == MANIFEST_FORMAT_V2
        store = self.upgraded(writer, documents)
        file_id = self.parameters_file(documents)
        assert file_id != v2_id and not store.exists(v2_id)
        assert store.read_manifest(file_id)["format"] == MANIFEST_FORMAT
        recovered = store.recover_state_chunks(file_id)
        for key, want in state.items():
            got = recovered[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_mixed_v1_and_v2_manifests_coexist(self, tmp_path):
        documents = DocumentStore()
        writer = v2_store(tmp_path / "files")
        v2_id = self.save(writer, documents, self.state(seed=6), "v2")
        writer.manifest = "v3"
        v1_id = self.save(writer, documents, self.state(seed=5), "v1")

        # today's level is kept as it is, the v2 one saved again
        store = self.upgraded(writer, documents)
        assert self.parameters_file(documents, "v1") == v1_id
        assert self.parameters_file(documents, "v2") != v2_id
        for model_id, seed in (("v1", 5), ("v2", 6)):
            recovered = store.recover_state_chunks(self.parameters_file(documents, model_id))
            want = self.state(seed=seed)
            for key in want:
                assert np.array_equal(recovered[key], want[key])

    def test_delete_releases_all_chunk_refs(self, tmp_path):
        """The upgrade releases every piece with its v2 manifest: deleting
        the manifest it saved leaves nothing after a gc."""
        documents, writer = DocumentStore(), v2_store(tmp_path / "files")
        self.save(writer, documents, self.state())
        store = self.upgraded(writer, documents)
        # the layers, the manifest and its spec record
        assert len(store.chunks) == len(self.state()) + 2
        store.delete(self.parameters_file(documents))
        store.gc_chunks()
        assert len(store.chunks) == 0

    @staticmethod
    def replace_payload(store, digest):
        """Bytes that are not ``digest``'s content, in an intact record —
        damage only the content digest can see, not the record CRC."""
        payload = bytearray(store.chunks.get(digest))
        payload[len(payload) // 2] ^= 0xFF
        store.chunks.drop(digest)
        store.chunks.put(digest, bytes(payload))
        store.chunks.flush()

    def test_corrupt_chunk_detected_on_recovery(self, tmp_path):
        """A piece whose bytes are not its content fails its layer's hash:
        the level is not saved again, its recover fails, the store stays
        unmarked, and fsck reports the level and keeps its pieces."""
        documents = DocumentStore()
        writer = v2_store(tmp_path / "files")
        v2_id = self.save(writer, documents, self.state())
        pieces = [d for _, meta in json.loads(writer.recover_bytes(v2_id))["layers"]
                  for d in meta["chunks"]]
        self.replace_payload(writer, pieces[0])
        store = self.upgraded(writer, documents)
        assert self.parameters_file(documents) == v2_id
        assert not any(store.chunks.has(d) for d in state_dict_hashes(self.state()).values())
        with pytest.raises(StoreCorruptionError):
            store.recover_state_chunks(v2_id, verify=True)
        assert not store.one_format and not (store.root / FORMAT_MARKER).exists()
        report = ModelManager(BaselineSaveService(documents, store)).fsck(verify_chunks=True)
        assert [issue.kind for issue in report.unrepaired] == ["retired_level"]
        assert all(store.chunks.has(d) for d in set(pieces))

    def test_parallel_recovery_matches_serial(self, tmp_path):
        """A level upgraded through a store that writes with four workers
        recovers as the serial one does."""
        state, documents = self.state(seed=9), DocumentStore()
        writer = v2_store(tmp_path / "files")
        self.save(writer, documents, state)
        store = self.upgraded(writer, documents, workers=4)
        recovered = store.recover_state_chunks(self.parameters_file(documents))
        for key in state:
            assert np.array_equal(recovered[key], state[key])
        assert not any(is_file_id(d) and d.endswith(".params") for d in store.chunks.chunk_ids())
