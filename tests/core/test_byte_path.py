"""The byte path of a recover: who owns a buffer, what is adopted, what is
never initialised — and that every integrity check still fires.

Counts and identities, not timings (DESIGN.md "Byte path").
"""

import itertools
import threading
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveInfo,
    ProvenanceSaveService,
    RecoveryCache,
    TrainRunSpec,
    hashing,
)
from repro.core.errors import VerificationError
from repro.distsim import SharedStores
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.faults import FaultInjector
from repro.filestore import (
    FileStore,
    NetworkModel,
    SimulatedNetworkFileStore,
    chunk_intact,
    segments,
    store,
)
from repro.nn import init, rng
from repro.nn.models import MODEL_REGISTRY, create_model
from repro.retry import RetryPolicy
from tests.filestore.older_release import reopened
from tests.filestore.retired_formats import RetiredFormatStore, older_release

PIECE_BYTES = 2048


def build_twin_mlp(width=48):
    """Importable factory: two same-shaped hidden layers and a head.

    :func:`twin_model` makes the two hidden layers bitwise identical, so their
    chunks share a digest, and each is several v2 pieces long.
    """
    return nn.Sequential(
        nn.Linear(width, width), nn.ReLU(), nn.Linear(width, width), nn.ReLU(),
        nn.Linear(width, 4),
    )


def twin_arch():
    return ArchitectureRef.from_factory("tests.core.test_byte_path", "build_twin_mlp", {})


def twin_model(seed):
    nn.manual_seed(seed)
    model = build_twin_mlp()
    state = model.state_dict()
    state["2.weight"][...] = state["0.weight"]
    state["2.bias"][...] = state["0.bias"]
    return model


def copy_state(model):
    return {key: value.copy() for key, value in model.state_dict().items()}


def assert_state_equals(model, expected):
    state = model.state_dict()
    assert list(state) == list(expected)
    for key, value in expected.items():
        assert state[key].dtype == value.dtype and state[key].shape == value.shape, key
        assert np.array_equal(state[key], value), key


def assert_no_shared_memory(*groups):
    """No array of any group overlaps any other array, of any group."""
    arrays = [array for group in groups for array in group]
    for left, right in itertools.combinations(arrays, 2):
        assert not np.shares_memory(left, right)


def cached_payloads(files):
    if files.chunk_cache is None:
        return []
    return [np.frombuffer(data, dtype=np.uint8)
            for data in files.chunk_cache._entries.values() if data]


def spy_on_recover_state_chunks(files):
    """Every state dict ``files.recover_state_chunks`` returns from now on."""
    returned = []
    recover_state_chunks = files.recover_state_chunks

    def spy(*args, **kwargs):
        returned.append(recover_state_chunks(*args, **kwargs))
        return returned[-1]

    files.recover_state_chunks = spy
    return returned


# "v1": today's manifests (the id predates v3); "cdc": the v2 manifests of
# pieces the retired content-defined writer left, upgraded when the store is
# next opened (:func:`opened_again`)
@pytest.fixture(params=["v3", "v2"], ids=["v1", "cdc"])
def manifest(request):
    return request.param


def opened_again(service):
    """``service`` as the next process opens it: over a store of retired
    v2 pieces, one the upgrade rewrote, with the same cache and workers."""
    files = service.files
    if files.manifest == "v3":
        return service
    return reopened(service, chunk_cache=files.chunk_cache, workers=files.workers)


@pytest.fixture(params=[None, 1 << 20], ids=["nocache", "cache"])
def chunk_cache(request):
    return request.param


@pytest.fixture(params=[0, 4], ids=["serial", "workers4"])
def workers(request):
    return request.param


@pytest.fixture
def files(tmp_path, manifest, chunk_cache, workers):
    return RetiredFormatStore(tmp_path / "files", manifest=manifest, piece_bytes=PIECE_BYTES,
                              chunk_cache=chunk_cache, workers=workers)


class TestOwnership:
    def test_snapshot_recovers_share_nothing(self, files):
        service = BaselineSaveService(DocumentStore(), files)
        model = twin_model(seed=3)
        saved = copy_state(model)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        service = opened_again(service)
        files = service.files

        first = service.recover_model(model_id).model
        second = service.recover_model(model_id).model
        assert_no_shared_memory(
            first.state_dict().values(), second.state_dict().values(),
            model.state_dict().values(), cached_payloads(files))

        for array in first.state_dict().values():
            array[...] = 7  # a caller may do what it likes with its model
        third = service.recover_model(model_id)
        assert third.verified is True
        assert_state_equals(third.model, saved)
        assert_state_equals(second, saved)

    def test_chain_tip_and_ancestor_share_nothing(self, files):
        service = ParameterUpdateSaveService(DocumentStore(), files)
        if files.manifest != "v3":
            older_release(service)
        base = twin_model(seed=4)
        base_saved = copy_state(base)
        base_id = service.save_model(ModelSaveInfo(base, twin_arch()))
        tip = twin_model(seed=4)
        tip.state_dict()["4.weight"][...] += 1
        tip_saved = copy_state(tip)
        tip_id = service.save_model(
            ModelSaveInfo(tip, twin_arch(), base_model_id=base_id))
        service = opened_again(service)

        recovered_tip = service.recover_model(tip_id).model
        recovered_base = service.recover_model(base_id).model
        assert_no_shared_memory(
            recovered_tip.state_dict().values(), recovered_base.state_dict().values(),
            cached_payloads(service.files))
        for array in recovered_tip.state_dict().values():
            array[...] = 0
        assert_state_equals(service.recover_model(base_id).model, base_saved)
        again = service.recover_model(tip_id)
        assert again.verified is True and again.recovery_depth == 0
        assert_state_equals(again.model, tip_saved)

    def test_recovery_cache_keeps_private_copies(self, files, tmp_path):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, files)
        base_id = service.save_model(ModelSaveInfo(twin_model(seed=5), twin_arch()))
        tip_id = save_mpa_level(documents, files, tmp_path, base_id, seed=5)
        tip_saved = copy_state(twin_model(seed=5))
        tip_saved["4.bias"] += 2.0
        service = opened_again(service)

        cache = RecoveryCache()
        service.recover_model(tip_id, cache=cache)  # replayed, then cached
        # a hit hands out a copy of the cached state
        first = service.recover_model(tip_id, cache=cache).model
        assert cache.hits == 1 and set(cache._states) == {tip_id}
        assert_state_equals(first, tip_saved)
        held = [array for state, _, _ in cache._states.values() for array in state.values()]
        assert_no_shared_memory(first.state_dict().values(), held)
        for array in first.state_dict().values():
            array[...] = -1
        second = service.recover_model(tip_id, cache=cache)
        assert cache.hits == 2
        assert_state_equals(second.model, tip_saved)
        held = [array for state, _, _ in cache._states.values() for array in state.values()]
        assert_no_shared_memory(second.model.state_dict().values(), held)


class TestAdoption:
    def test_recovered_parameters_are_the_fetched_arrays(self, tmp_path):
        """On the default store nothing is copied between the segment read
        and the model: each parameter *is* the array the store returned."""
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=6), twin_arch()))
        returned = spy_on_recover_state_chunks(files)
        recovered = service.recover_model(model_id)
        assert recovered.verified is True and len(returned) == 1
        state = recovered.model.state_dict()
        assert list(state) == list(returned[0])
        for key, array in returned[0].items():
            assert array.flags.writeable and array.flags.owndata is False, key
            assert state[key] is array, key

    def test_param_update_leaves_unchanged_layers_in_place(self, tmp_path):
        """A chain is one read: unchanged layers come from the base's chunks,
        changed ones from the update's, and each is adopted as fetched."""
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        base = twin_model(seed=7)
        base_id = service.save_model(ModelSaveInfo(base, twin_arch()))
        tip = twin_model(seed=7)
        tip.state_dict()["4.bias"][...] += 1
        tip_id = service.save_model(
            ModelSaveInfo(tip, twin_arch(), base_model_id=base_id))
        tip_saved = copy_state(tip)
        returned = spy_on_recover_state_chunks(files)
        recovered = service.recover_model(tip_id)
        assert recovered.verified is True and recovered.recovery_depth == 0
        [merged] = returned  # one manifest names both levels' chunks
        state = recovered.model.state_dict()
        assert list(state) == list(merged)
        for key, array in merged.items():
            assert state[key] is array, key
        assert_state_equals(recovered.model, tip_saved)

    def test_recover_peak_memory_holds_no_copy_of_the_state(self, tmp_path):
        """Peak = the adopted state + transients: 1.04x here.  The model is
        assembled from a cached skeleton that allocates no array; one more
        copy of the bytes anywhere makes it 2x, and the ``np.empty`` arrays
        a construction per recover allocated made it 2.04x."""
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        arch = ArchitectureRef.from_factory(
            "repro.nn.models", "resnet18", {"num_classes": 10, "scale": 0.35})
        model = arch.build()
        state_bytes = sum(array.nbytes for array in model.state_dict().values())
        assert state_bytes >= 4 << 20
        model_id = service.save_model(ModelSaveInfo(model, arch))
        service.recover_model(model_id)  # imports, lazy handles, executor
        del model

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            recovered = service.recover_model(model_id)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert recovered.verified is True
        assert peak < 1.25 * state_bytes, f"peak {peak} vs state {state_bytes}"


class TestSkipInit:
    @pytest.mark.parametrize("name", list(MODEL_REGISTRY))
    def test_build_from_equals_build_then_load(self, name):
        kwargs = {"num_classes": 10, "scale": 0.125}
        arch = ArchitectureRef.from_factory("repro.nn.models", name, kwargs)
        source = create_model(name, seed=11, **kwargs)
        state = copy_state(source)

        rng.manual_seed(5)
        before = rng.get_rng_state()
        skeleton = arch.build_from(state)
        assert rng.get_rng_state() == before  # nothing was drawn

        reference = arch.build()
        reference.load_state_dict(state)
        assert rng.get_rng_state() != before  # an initialised build draws
        assert_state_equals(skeleton, copy_state(reference))
        assert_state_equals(skeleton, state)
        assert_no_shared_memory(skeleton.state_dict().values(), state.values())

    @pytest.mark.parametrize("name", list(MODEL_REGISTRY))
    def test_build_from_is_strict(self, name):
        kwargs = {"num_classes": 10, "scale": 0.125}
        arch = ArchitectureRef.from_factory("repro.nn.models", name, kwargs)
        state = create_model(name, seed=11, **kwargs).state_dict()
        state.pop(next(reversed(state)))
        with pytest.raises(KeyError, match="missing"):
            arch.build_from(state)
        state["not.a.layer"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(KeyError):
            arch.build_from(state)

    def test_build_from_assign_adopts_owned_arrays_only(self):
        arch = twin_arch()
        state = copy_state(twin_model(seed=8))
        frozen = state["0.weight"]
        frozen.flags.writeable = False
        strided = np.zeros((4, 96), dtype=np.float32)[:, ::2]
        strided[...] = state["4.weight"]
        state["4.weight"] = strided
        model = arch.build_from(state, assign=True)
        built = model.state_dict()
        for key, array in state.items():
            assert np.array_equal(built[key], array), key
            if key in ("0.weight", "4.weight"):
                assert not np.shares_memory(built[key], array), key
                assert built[key].flags.writeable and built[key].flags.c_contiguous
            else:
                assert built[key] is array, key

    @pytest.mark.parametrize("name", list(MODEL_REGISTRY))
    def test_initialised_construction_did_not_move_a_draw(self, name, monkeypatch):
        """``create_model(seed=…)`` equals a build through reference
        initializers that know nothing of ``skip_init``."""
        kwargs = {"num_classes": 10, "scale": 0.125}
        actual = create_model(name, seed=7, **kwargs)
        actual_rng = rng.get_rng_state()

        def uniform_(tensor, low=0.0, high=1.0):
            tensor.data[...] = rng.generator().uniform(
                low, high, size=tensor.shape).astype(tensor.dtype)
            return tensor

        def normal_(tensor, mean=0.0, std=1.0):
            tensor.data[...] = rng.generator().normal(
                mean, std, size=tensor.shape).astype(tensor.dtype)
            return tensor

        def trunc_normal_(tensor, std=0.01, bound=2.0):
            generator = rng.generator()
            out = np.empty(tensor.data.size, dtype=np.float64)
            filled = 0
            while filled < out.size:
                draw = generator.standard_normal(max(1024, out.size - filled))
                draw = draw[np.abs(draw) <= bound]
                take = min(draw.size, out.size - filled)
                out[filled : filled + take] = draw[:take]
                filled += take
            tensor.data[...] = (out * std).reshape(tensor.shape).astype(tensor.dtype)
            return tensor

        def constant_(tensor, value):
            tensor.data[...] = value
            return tensor

        for reference in (uniform_, normal_, trunc_normal_, constant_):
            monkeypatch.setattr(init, reference.__name__, reference)
        expected = create_model(name, seed=7, **kwargs)
        assert rng.get_rng_state() == actual_rng
        assert_state_equals(actual, copy_state(expected))

    def test_service_recover_leaves_caller_rng_alone(self, tmp_path):
        service = BaselineSaveService(DocumentStore(), FileStore(tmp_path / "files"))
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=9), twin_arch()))
        rng.manual_seed(21)
        before = rng.get_rng_state()
        service.recover_model(model_id)
        assert rng.get_rng_state() == before


def flip_stored_bit(files, digest):
    path, offset, length = files.chunks.locate(digest)
    assert length > 0
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(offset + length // 2)
        handle.write(bytes([byte[0] ^ 0x01]))


class TestIntegrity:
    """ROADMAP item 3's gate: a flipped bit is caught on default recover,
    on the uncached and on the cached read path."""

    @pytest.mark.parametrize("layout", ["segments"])
    def test_flipped_bit_on_disk_fails_default_recover(self, tmp_path, layout):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model = twin_model(seed=12)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        assert service.recover_model(model_id).verified is True

        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        flip_stored_bit(files, dict(manifest["layers"])["4.weight"]["chunk"])
        with pytest.raises((StoreCorruptionError, VerificationError)):
            service.recover_model(model_id)

    def _saved_with_cache(self, tmp_path, **store_options):
        files = FileStore(tmp_path / "files", chunk_cache=1 << 20, **store_options)
        service = BaselineSaveService(DocumentStore(), files)
        model = twin_model(seed=13)
        saved = copy_state(model)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        assert service.recover_model(model_id).verified is True  # fills the cache
        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        digest = dict(manifest["layers"])["4.weight"]["chunk"]
        good = files.chunk_cache.get(digest)
        assert good is not None
        poisoned = bytearray(good)
        poisoned[len(poisoned) // 2] ^= 0x01
        with files.chunk_cache._lock:
            files.chunk_cache._entries[digest] = bytes(poisoned)
        return service, files, model_id, digest, good, saved

    def test_poisoned_cache_entry_fails_check_hash(self, tmp_path):
        service, files, model_id, digest, _good, _saved = self._saved_with_cache(tmp_path)
        assert files.verify_reads is False
        with pytest.raises(VerificationError):
            service.recover_model(model_id)
        assert service.recover_model(model_id, verify=False).verified is None

    def test_poisoned_cache_entry_heals_with_verify_reads(self, tmp_path):
        service, files, model_id, digest, good, saved = self._saved_with_cache(
            tmp_path, verify_reads=True,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0))
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, saved)
        assert files.chunk_cache.get(digest) == good  # re-read from the store
        assert_no_shared_memory(
            recovered.model.state_dict().values(), cached_payloads(files))

    def test_in_transit_corruption_is_retried_to_a_bitwise_recover(self, tmp_path):
        faults = FaultInjector(seed=5, corrupt_rate=0.3)
        retry = RetryPolicy(max_attempts=8, base_delay_s=0.0, sleep=lambda s: None)
        files = FileStore(tmp_path / "files", faults=faults, retry=retry)
        service = BaselineSaveService(DocumentStore(), files, retry=retry)
        model = twin_model(seed=14)
        saved = copy_state(model)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        for _ in range(3):
            recovered = service.recover_model(model_id)
            assert recovered.verified is True
            assert_state_equals(recovered.model, saved)
        assert faults.stats["corruptions"] > 0


@pytest.fixture
def checks(monkeypatch):
    """What the integrity checks cover from now on: every array handed to
    ``tensor_hash`` (``hashed``) and the byte count of every CRC-32, a
    record's or a cache entry's (``crced``).  ``start()`` forgets what was
    seen so far."""
    seen = SimpleNamespace(hashed=[], crced=[])
    tensor_hash = hashing.tensor_hash
    crc32 = zlib.crc32

    def hash_spy(array):
        seen.hashed.append(array)
        return tensor_hash(array)

    def crc_spy(data, *args):
        seen.crced.append(memoryview(data).nbytes)
        return crc32(data, *args)

    def start():
        seen.hashed.clear()
        seen.crced.clear()

    seen.start = start
    monkeypatch.setattr(hashing, "tensor_hash", hash_spy)
    monkeypatch.setattr(segments, "zlib", SimpleNamespace(crc32=crc_spy))
    monkeypatch.setattr(store, "zlib", SimpleNamespace(crc32=crc_spy))
    return seen


def times_hashed(hashed, array):
    return sum(1 for seen in hashed if seen is array)


#: The layers of :func:`twin_model` rebuilt as copies of another layer's
#: fetched payload (they share its chunk), so that layer's check covers them.
TWIN_COPIES = ("2.weight", "2.bias")


def assert_each_parameter_hashed_once(hashed, model, copies=()):
    """Every parameter was hashed exactly once — except a layer the recover
    made by copying another fetched layer's verified payload, never."""
    state = model.state_dict()
    for name, array in state.items():
        assert times_hashed(hashed, array) == (0 if name in copies else 1), name
    assert len(hashed) == len(state) - len(copies)


def save_mpa_level(documents, files, tmp_path, base_id, seed):
    """An MPA level over ``base_id`` (a :func:`twin_model` of ``seed``)
    whose replay adds 2 to ``4.bias``; returns its id."""
    from tests.core.test_recovery_plan import ShiftTrainService

    trained = twin_model(seed=seed)
    trained.state_dict()["4.bias"][...] += 2.0
    dataset = tmp_path / "data"
    dataset.mkdir(exist_ok=True)
    (dataset / "sample.bin").write_bytes(b"replay needs a dataset to unpack")
    service = ProvenanceSaveService(documents, files, scratch_dir=tmp_path / "scratch")
    return service.save_model(ProvenanceSaveInfo(
        base_model_id=base_id,
        train_service=ShiftTrainService(["4.bias"], 2.0),
        train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=0),
        rng_state=rng.get_rng_state(),
        dataset_dir=dataset,
        expected_model=trained,
    ))


def save_pua_tip(service, base_id, seed, layer, base_shift=0.0):
    """A PUA tip over ``base_id`` holding a :func:`twin_model` of ``seed``
    with ``layer`` + 1 (and ``4.bias`` + ``base_shift``, what an MPA base
    from :func:`save_mpa_level` added)."""
    tip = twin_model(seed=seed)
    tip.state_dict()["4.bias"][...] += base_shift
    tip.state_dict()[layer][...] += 1
    saved = copy_state(tip)
    tip_id = service.save_model(ModelSaveInfo(tip, twin_arch(), base_model_id=base_id))
    return tip_id, saved


class TestOneCheckPerByte:
    """Each recovered byte gets one integrity check, the strongest that
    applies, at fetch (DESIGN.md §14 "Verify once").  Counted, not timed."""

    def test_default_recover_hashes_each_byte_once_and_crcs_none(self, tmp_path, checks):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model = twin_model(seed=21)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        checks.start()
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, copy_state(model))
        assert_each_parameter_hashed_once(checks.hashed, recovered.model, TWIN_COPIES)
        assert checks.crced == []

    def test_unverified_recover_hashes_none_and_crcs_every_record(self, tmp_path, checks):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=22), twin_arch()))
        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        records = {meta["chunk"] for _, meta in manifest["layers"]}
        checks.start()
        assert service.recover_model(model_id, verify=False).verified is None
        assert checks.hashed == []
        assert sorted(checks.crced) == sorted(files.chunks.size_of(d) for d in records)

    def test_a_model_saved_without_a_root_keeps_its_crc(self, tmp_path, checks):
        """No stored root, nothing to refuse an unhealed layer: a default
        recover hashes nothing, CRCs every record, and a flipped bit raises."""
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model_id = service.save_model(
            ModelSaveInfo(twin_model(seed=29), twin_arch(), store_checksums=False))
        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        records = {meta["chunk"] for _, meta in manifest["layers"]}
        checks.start()
        assert service.recover_model(model_id).verified is None
        assert checks.hashed == []
        assert sorted(checks.crced) == sorted(files.chunks.size_of(d) for d in records)

        flip_stored_bit(files, dict(manifest["layers"])["4.weight"]["chunk"])
        with pytest.raises(StoreCorruptionError):
            service.recover_model(model_id)

    def test_tip_over_a_cached_base_hashes_only_what_it_did_not_fetch(
        self, tmp_path, checks
    ):
        documents, files = DocumentStore(), FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(documents, files)
        base_id = service.save_model(ModelSaveInfo(twin_model(seed=23), twin_arch()))
        mpa_id = save_mpa_level(documents, files, tmp_path, base_id, seed=23)
        tip_id, tip_saved = save_pua_tip(
            service, mpa_id, seed=23, layer="0.bias", base_shift=2.0)
        cache = RecoveryCache()
        service.recover_model(mpa_id, cache=cache)
        fetched = spy_on_recover_state_chunks(files)
        checks.start()
        # the tip stored every layer (its base has no manifest): one fetch,
        # no replay, the cache untouched
        recovered = service.recover_model(tip_id, cache=cache)
        assert recovered.verified is True and cache.hits == 0
        assert_state_equals(recovered.model, tip_saved)
        [state] = fetched
        assert list(state) == list(tip_saved)
        assert recovered.model.state_dict()["0.bias"] is state["0.bias"]
        # 0.bias changed, so only 2.weight still shares its twin's chunk
        assert_each_parameter_hashed_once(checks.hashed, recovered.model, ("2.weight",))

    def test_tip_over_an_mpa_base_hashes_only_what_it_did_not_fetch(
        self, tmp_path, checks
    ):
        documents, files = DocumentStore(), FileStore(tmp_path / "files")
        pua = ParameterUpdateSaveService(documents, files)
        base_id = pua.save_model(ModelSaveInfo(twin_model(seed=24), twin_arch()))
        mpa_id = save_mpa_level(documents, files, tmp_path, base_id, seed=24)
        tip_id, tip_saved = save_pua_tip(
            pua, mpa_id, seed=24, layer="0.bias", base_shift=2.0)

        checks.start()
        recovered = pua.recover_model(tip_id)
        assert recovered.verified is True and recovered.recovery_depth == 0
        assert_state_equals(recovered.model, tip_saved)
        assert_each_parameter_hashed_once(checks.hashed, recovered.model, ("2.weight",))

    def test_a_layer_copied_at_load_is_hashed_again(self, tmp_path, checks):
        files = FileStore(tmp_path / "files")
        service = BaselineSaveService(DocumentStore(), files)
        model = twin_model(seed=25)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        recover_state_chunks = files.recover_state_chunks
        fetched = []

        def frozen_head(*args, **kwargs):
            state = recover_state_chunks(*args, **kwargs)
            state["4.weight"].flags.writeable = False  # the build must copy it
            fetched.append(state)
            return state

        files.recover_state_chunks = frozen_head
        checks.start()
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, copy_state(model))
        state = recovered.model.state_dict()
        [loaded] = fetched
        assert state["4.weight"] is not loaded["4.weight"]
        assert times_hashed(checks.hashed, loaded["4.weight"]) == 1  # at fetch
        assert times_hashed(checks.hashed, state["4.weight"]) == 1  # for the root
        for name, array in state.items():
            if name != "4.weight":
                expected = 0 if name in TWIN_COPIES else 1
                assert times_hashed(checks.hashed, array) == expected, name
        assert len(checks.hashed) == len(state) + 1 - len(TWIN_COPIES)

    def test_every_corruption_is_still_caught_on_every_read_path(
        self, tmp_path, chunk_cache, workers
    ):
        """A flipped bit on disk and a poisoned cache entry, cached and
        uncached, with and without ``workers``: the CRC is skipped under the
        digest check, so the digest check must be what catches them."""
        files = FileStore(tmp_path / "files", chunk_cache=chunk_cache, workers=workers)
        service = BaselineSaveService(DocumentStore(), files)
        model_id = service.save_model(ModelSaveInfo(twin_model(seed=28), twin_arch()))
        assert service.recover_model(model_id).verified is True
        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        digest = dict(manifest["layers"])["0.weight"]["chunk"]  # the twins' chunk
        if chunk_cache:
            poisoned = bytearray(files.chunk_cache.get(digest))
            poisoned[len(poisoned) // 2] ^= 0x01
            with files.chunk_cache._lock:
                files.chunk_cache._entries[digest] = bytes(poisoned)
            with pytest.raises(VerificationError):
                service.recover_model(model_id)
            files.chunk_cache.clear()
        flip_stored_bit(files, digest)
        with pytest.raises((StoreCorruptionError, VerificationError)):
            service.recover_model(model_id)

    def test_chain_over_a_link_moves_no_more_than_one_read_per_layer(self, tmp_path):
        """Per chunk, the pre-batch recover paid one round trip and the
        layer's bytes (a digest two layers share, twice); the plan's one
        batch pays at most that, and here one pipelined window per eight."""
        link = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.01)
        files = SimulatedNetworkFileStore(tmp_path / "files", link)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        base_id = service.save_model(ModelSaveInfo(twin_model(seed=26), twin_arch()))
        ids = [base_id]
        changes = ("4.bias", "2.bias", "4.weight")
        for depth in range(1, len(changes) + 1):
            tip = twin_model(seed=26)
            for changed in changes[:depth]:
                tip.state_dict()[changed][...] += depth
            ids.append(service.save_model(
                ModelSaveInfo(tip, twin_arch(), base_model_id=ids[-1])))
        saved = copy_state(tip)

        blobs = []
        recover_bytes = files.recover_bytes
        files.recover_bytes = lambda file_id: _tally(blobs, recover_bytes(file_id))
        files.reset_accounting()
        recovered = service.recover_model(ids[-1])
        assert recovered.verified is True and recovered.recovery_depth == 0
        assert_state_equals(recovered.model, saved)

        layers = list(saved.values())
        unique = len(set(hashing.state_dict_hashes(saved).values()))
        assert unique < len(layers)  # the twin layers share their chunks
        per_layer_round_trips = len(blobs) + len(layers)
        per_layer_bytes = sum(blobs) + sum(array.nbytes for array in layers)
        assert files.round_trips <= per_layer_round_trips
        assert files.bytes_received <= per_layer_bytes
        assert files.round_trips == len(blobs) + -(-unique // files.pipeline_depth)

    def test_a_corrupt_replica_still_fails_over_and_is_repaired(self, tmp_path):
        """The member's record CRC is what classifies a bad replica
        ``corrupt``: it is never skipped under a sharded store."""
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
        stores = SharedStores.cluster_at(tmp_path / "cluster", shards=3, replicas=2, retry=retry)
        files = stores.files
        assert files.verify_reads is True
        service = BaselineSaveService(stores.documents, files, retry=retry)
        model = twin_model(seed=27)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        manifest = files.read_manifest(
            service._get_model_document(model_id)["parameters_file"])
        layer = dict(manifest["layers"])["4.weight"]
        primary = files.members[files.ring.owners(layer["chunk"])[0]]
        flip_stored_bit(primary, layer["chunk"])
        with pytest.raises(StoreCorruptionError):
            primary.chunks.get(layer["chunk"])

        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, copy_state(model))
        assert files.cluster_stats["failover_reads"] >= 1
        assert files.cluster_stats["read_repairs"] >= 1
        assert chunk_intact(layer["chunk"], primary.chunks.get(layer["chunk"]), layer)


def _tally(sizes, data):
    sizes.append(len(data))
    return data


@pytest.fixture
def cached_service(tmp_path):
    """``make(kind)``: a service over a store with a chunk cache — a plain
    one, one with ``verify_reads``, or a 3x2 cluster whose cache sits on
    the ``ShardedFileStore`` (``verify_reads`` on there, as its retry
    policy turns it on).  The stores are closed after the test."""
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
    made = []

    def make(kind, cache_bytes=1 << 20, approach=ParameterUpdateSaveService):
        if kind == "3x2":
            stores = SharedStores.cluster_at(
                tmp_path / "cluster", shards=3, replicas=2, chunk_cache_bytes=cache_bytes,
                retry=retry)
            service = approach(stores.documents, stores.files)
        else:
            options = {"verify_reads": True, "retry": retry} if kind == "verify_reads" else {}
            service = approach(DocumentStore(), FileStore(
                tmp_path / "files", chunk_cache=cache_bytes, **options))
        made.append(service.files)
        return service

    yield make
    for files in made:
        files.close()


def layer_chunks(service, model_id):
    """``name -> manifest entry`` of a model's layers."""
    return dict(service.files.read_manifest(
        service._get_model_document(model_id)["parameters_file"])["layers"])


def chunk_sizes(files, entries):
    """The byte count of each distinct chunk the manifest entries name."""
    return [files.chunks.size_of(digest) for digest in {meta["chunk"] for meta in entries}]


def poison(cache, digest):
    """Flip one bit of the cached payload of ``digest``; returns the bytes."""
    poisoned = bytearray(cache.get(digest))
    poisoned[len(poisoned) // 2] ^= 0x01
    with cache._lock:
        cache._entries[digest] = bytes(poisoned)
    return bytes(poisoned)


class TestVouchedCacheHits:
    """A payload is digest-checked once per process: a verified recover
    vouches for the cache entries it checked, and a later hit whose bytes
    match its entry's CRC-32 is not hashed again (DESIGN.md §14 "Verify
    once").  Every other hit is hashed as a miss is.  Counted, not timed."""

    @pytest.mark.parametrize("kind", ["single", "3x2"])
    def test_a_warm_recover_hashes_its_misses_and_crcs_each_vouched_hit_once(
        self, cached_service, checks, kind
    ):
        service = cached_service(kind)
        files = service.files
        base = twin_model(seed=31)
        base_id = service.save_model(ModelSaveInfo(base, twin_arch()))
        tip_id, tip_saved = save_pua_tip(service, base_id, seed=31, layer="4.weight")
        assert service.recover_model(base_id).verified is True  # vouches
        layers = layer_chunks(service, tip_id)
        fresh = layers["4.weight"]["chunk"]
        assert fresh not in files.chunk_cache

        checks.start()
        recovered = service.recover_model(tip_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, tip_saved)
        state = recovered.model.state_dict()
        # only the miss is hashed; each payload is CRCed once: a hit against
        # its vouch, the miss by its record CRC, which is then its vouch
        assert [times_hashed(checks.hashed, state[name]) for name in state] == [
            name == "4.weight" for name in state]
        assert len(checks.hashed) == 1
        assert sorted(checks.crced) == sorted(chunk_sizes(files, layers.values()))

        checks.start()
        again = service.recover_model(tip_id)
        assert again.verified is True
        assert_state_equals(again.model, tip_saved)
        assert checks.hashed == []
        assert sorted(checks.crced) == sorted(chunk_sizes(files, layers.values()))
        assert_no_shared_memory(
            again.model.state_dict().values(), recovered.model.state_dict().values(),
            cached_payloads(files))

    @pytest.mark.parametrize("kind", ["single", "verify_reads", "3x2"])
    def test_a_vouched_entry_changed_after_vouching_is_hashed(
        self, cached_service, checks, kind
    ):
        service = cached_service(kind, approach=BaselineSaveService)
        files = service.files
        model = twin_model(seed=32)
        saved = copy_state(model)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        assert service.recover_model(model_id).verified is True  # vouches
        digest = layer_chunks(service, model_id)["4.weight"]["chunk"]
        poisoned = poison(files.chunk_cache, digest)

        checks.start()
        if not files.verify_reads:
            with pytest.raises(VerificationError):
                service.recover_model(model_id)
            assert [array.tobytes() for array in checks.hashed].count(poisoned) >= 1
            assert digest not in files.chunk_cache
            return
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, saved)
        # the poisoned hit, then the re-read that healed it (and vouches)
        assert [array.tobytes() for array in checks.hashed] == [
            poisoned, saved["4.weight"].tobytes()]
        assert files.chunk_cache.get(digest) == saved["4.weight"].tobytes()
        checks.start()
        assert service.recover_model(model_id).verified is True
        assert checks.hashed == []

    # a 3x2 cluster has ``verify_reads`` on: its every recover is verified
    @pytest.mark.parametrize("kind,filled_by", [
        ("single", "put"), ("single", "get_chunks"), ("single", "unverified_recover"),
        ("3x2", "put"), ("3x2", "get_chunks"),
    ])
    def test_an_entry_no_verified_recover_checked_is_hashed(
        self, cached_service, checks, filled_by, kind
    ):
        service = cached_service(kind, approach=BaselineSaveService)
        files = service.files
        model = twin_model(seed=33)
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        layers = layer_chunks(service, model_id)
        if filled_by == "put":
            for meta in layers.values():
                files.chunk_cache.put(meta["chunk"], bytes(files.chunks.get(meta["chunk"])))
        elif filled_by == "get_chunks":
            files.get_chunks([meta["chunk"] for meta in layers.values()])
        else:
            assert service.recover_model(model_id, verify=False).verified is None
        assert all(meta["chunk"] in files.chunk_cache for meta in layers.values())

        checks.start()
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, copy_state(model))
        assert_each_parameter_hashed_once(checks.hashed, recovered.model, TWIN_COPIES)
        # each payload that passed now vouches for its entry: one CRC-32 each
        assert sorted(checks.crced) == sorted(chunk_sizes(files, layers.values()))

        checks.start()
        assert service.recover_model(model_id).verified is True
        assert checks.hashed == []

    @pytest.mark.parametrize("kind", ["single", "3x2"])
    def test_an_evicted_entry_is_hashed_again_when_fetched_again(
        self, cached_service, checks, kind
    ):
        model = twin_model(seed=34)
        state_bytes = sum(array.nbytes for array in model.state_dict().values())
        service = cached_service(kind, state_bytes, approach=BaselineSaveService)
        files = service.files
        model_id = service.save_model(ModelSaveInfo(model, twin_arch()))
        assert service.recover_model(model_id).verified is True  # vouches
        layers = layer_chunks(service, model_id)
        cache = files.chunk_cache
        cache.put("filler", bytes(cache.max_bytes - cache.current_bytes + 1))  # evicts the LRU
        evicted = {meta["chunk"] for meta in layers.values()} - {
            meta["chunk"] for meta in layers.values() if meta["chunk"] in cache}
        assert evicted and cache.evictions == len(evicted) and "filler" in cache

        checks.start()
        recovered = service.recover_model(model_id)
        assert recovered.verified is True
        assert_state_equals(recovered.model, copy_state(model))
        state = recovered.model.state_dict()
        hashed = {name for name, array in state.items()
                  if times_hashed(checks.hashed, array)}
        assert hashed == {name for name, meta in layers.items()
                          if meta["chunk"] in evicted and name not in TWIN_COPIES}
        assert len(checks.hashed) == len(hashed)


class TestSkipInitThreads:
    def test_skip_init_is_per_thread_and_nests(self):
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def other_thread():
            assert inside.wait(timeout=5)
            seen["other"] = init.constant_(nn.Tensor(np.zeros(3)), 2.0).data.copy()
            release.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with init.skip_init():
            with init.skip_init():
                assert np.all(init.ones_(nn.Tensor(np.zeros(3))).data == 0)
            # still skipping after the inner block exits
            assert np.all(init.ones_(nn.Tensor(np.zeros(3))).data == 0)
            inside.set()
            assert release.wait(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert np.all(seen["other"] == 2.0)
        assert np.all(init.ones_(nn.Tensor(np.zeros(3))).data == 1)

    def test_skip_init_is_restored_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with init.skip_init():
                raise RuntimeError("factory failed")
        assert np.all(init.ones_(nn.Tensor(np.zeros(3))).data == 1)

    def test_every_initializer_is_skipped_and_draws_nothing(self):
        rng.manual_seed(3)
        before = rng.get_rng_state()
        weight = nn.Tensor(np.full((6, 5), 9.0))
        with init.skip_init():
            for initializer in (
                init.uniform_, init.normal_, init.trunc_normal_, init.zeros_,
                init.ones_, init.kaiming_uniform_, init.kaiming_normal_,
                init.xavier_uniform_, init.xavier_normal_,
            ):
                assert initializer(weight) is weight
            assert init.constant_(weight, 1.0) is weight
        assert np.all(weight.data == 9.0)
        assert rng.get_rng_state() == before
