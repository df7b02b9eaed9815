"""v2 manifests are converted by the import.

Older releases could save a state as content-defined (v2) manifests: each
layer a run of sha256-addressed pieces.  Saves write whole-layer (v3)
manifests only, and the import saves every v2 level a catalog names again
as a v3 manifest (DESIGN.md §11).  These stores are built with the
test-side writer.
"""

import json

import numpy as np
import pytest

from repro.core import BaselineSaveService, ModelManager, ModelSaveInfo
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS
from repro.docstore import DocumentStore
from repro.filestore.store import MANIFEST_FORMAT, is_file_id
from repro.importer import MANIFEST_FORMAT_V2, ImportFailedError
from tests.conftest import make_tiny_cnn
from tests.core.test_recovery_plan import copy_state
from tests.filestore.older_release import as_older_release, imported, tree_hash
from tests.filestore.retired_formats import RetiredFormatStore
from tests.filestore.test_codecs import ARCH, WIDE, assert_state, imported_service

PIECE_BYTES = 64 * 1024


class TestV2Manifests:
    def state(self, seed=0, shift=0.0):
        state = copy_state(make_tiny_cnn(**WIDE, seed=seed).state_dict())
        if shift:
            state["5.bias"] += np.float32(shift)
        return state

    def writer(self, tmp_path):
        """A v2 writer and a save service over it and a catalog of its own."""
        writer = RetiredFormatStore(tmp_path / "files", manifest="v2", piece_bytes=PIECE_BYTES)
        return writer, BaselineSaveService(DocumentStore(tmp_path / "docs"), writer)

    @staticmethod
    def save(service, state) -> str:
        model = make_tiny_cnn(**WIDE)
        model.load_state_dict(state)
        return service.save_model(ModelSaveInfo(model, ARCH))

    @staticmethod
    def parameters_file(service, model_id):
        return service.documents.collection(MODELS).get(model_id)["parameters_file"]

    def test_round_trip_is_bitwise(self, tmp_path):
        state = self.state()
        writer, older = self.writer(tmp_path)
        model_id = self.save(older, state)
        v2_id = self.parameters_file(older, model_id)
        assert json.loads(writer.recover_bytes(v2_id))["format"] == MANIFEST_FORMAT_V2
        service = imported_service(tmp_path, writer)
        store, file_id = service.files, self.parameters_file(service, model_id)
        assert file_id != v2_id and not store.exists(v2_id)
        assert store.read_manifest(file_id)["format"] == MANIFEST_FORMAT
        recovered = store.recover_state_chunks(file_id)
        for key, want in state.items():
            got = recovered[key]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_mixed_v1_and_v2_manifests_coexist(self, tmp_path):
        writer, older = self.writer(tmp_path)
        v2_model = self.save(older, self.state(seed=6))
        v2_id = self.parameters_file(older, v2_model)
        writer.manifest = "v3"
        v3_model = self.save(older, self.state(seed=5))
        v3_id = self.parameters_file(older, v3_model)

        # today's level is kept as it is, the v2 one saved again
        service = imported_service(tmp_path, writer)
        assert self.parameters_file(service, v3_model) == v3_id
        assert self.parameters_file(service, v2_model) != v2_id
        for model_id, seed in ((v3_model, 5), (v2_model, 6)):
            recovered = service.files.recover_state_chunks(self.parameters_file(service, model_id))
            assert_state(recovered, self.state(seed=seed))

    def test_delete_releases_all_chunk_refs(self, tmp_path):
        """The import releases every piece with its v2 manifest: deleting
        the model leaves nothing after a gc."""
        state = self.state()
        writer, older = self.writer(tmp_path)
        model_id = self.save(older, state)
        service = imported_service(tmp_path, writer)
        store = service.files
        # the layers, the manifest, its spec record and the code file
        assert len(store.chunks) == len(set(state_dict_hashes(state).values())) + 3
        manager = ModelManager(service)
        manager.delete_model(model_id)
        manager.garbage_collect()
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
        the import fails naming the level, creates nothing and leaves the
        store it read as it was."""
        writer, older = self.writer(tmp_path)
        model_id = self.save(older, self.state())
        v2_id = self.parameters_file(older, model_id)
        pieces = [d for _, meta in json.loads(writer.recover_bytes(v2_id))["layers"]
                  for d in meta["chunks"]]
        self.replace_payload(writer, pieces[-1])
        writer.chunks.close()
        as_older_release(writer.root)
        before = tree_hash(tmp_path)
        with pytest.raises(ImportFailedError, match=v2_id):
            imported(tmp_path)
        assert tree_hash(tmp_path) == before
        assert not tmp_path.with_name(f"{tmp_path.name}-imported").exists()
        assert not tmp_path.with_name(f"{tmp_path.name}-imported.importing").exists()

    def test_parallel_recovery_matches_serial(self, tmp_path):
        """A level converted and then read through a store that writes with
        four workers recovers as the serial one does."""
        state = self.state(seed=9)
        writer, older = self.writer(tmp_path)
        model_id = self.save(older, state)
        service = imported_service(tmp_path, writer, workers=4)
        assert_state(service.files.recover_state_chunks(
            self.parameters_file(service, model_id)), state)
        assert not any(is_file_id(d) and d.endswith(".params")
                       for d in service.files.chunks.chunk_ids())
