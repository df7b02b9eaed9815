"""The recovery plan: a chain is resolved, then read once (DESIGN.md §16).

Counts and identities, not clocks: what a recover builds, what it asks the
store for, what crosses the link — and that every lineage still recovers
bitwise under every store configuration.
"""

import threading
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArchitectureRef,
    BaselineSaveService,
    ChainCompactor,
    ChainPrefetcher,
    ModelManager,
    ModelSaveInfo,
    ParameterUpdateSaveService,
    ProvenanceSaveInfo,
    ProvenanceSaveService,
    RecoveryCache,
    TrainRunSpec,
)
from repro.core.errors import ModelNotFoundError, RecoveryError, VerificationError
from repro.core.hashing import state_dict_hashes
from repro.core.schema import MODELS, TRAIN_INFO
from repro.core.train_service import TrainService
from repro.docstore import DocumentStore
from repro.errors import StoreCorruptionError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.filestore.store import is_file_id, layer_chunk_digests
from repro.nn import rng
from repro.nn.modules import Module
from tests.conftest import make_tiny_cnn
from tests.filestore.retired_formats import RetiredFormatStore

FLOAT_LAYERS = [
    key for key, value in make_tiny_cnn().state_dict().items()
    if value.dtype.kind == "f"
]
COMPACT_OPS = (
    "compact.artifacts", "compact.journal", "compact.commit",
    "compact.cleanup", "compact.discard",
)


def build_probe_model(num_classes=10):
    """Importable factory for architecture refs."""
    return make_tiny_cnn(num_classes=num_classes)


def tiny_arch():
    return ArchitectureRef.from_factory(
        "tests.core.test_recovery_plan", "build_probe_model", {"num_classes": 10}
    )


def model_holding(state):
    model = make_tiny_cnn()
    model.load_state_dict(state)
    return model


def copy_state(state):
    return OrderedDict((key, value.copy()) for key, value in state.items())


def assert_recovers(service, model_id, expected, **kwargs):
    recovered = service.recover_model(model_id, **kwargs)
    assert recovered.verified is True
    state = recovered.model.state_dict()
    assert list(state) == list(expected)
    for key, value in expected.items():
        assert state[key].dtype == value.dtype and np.array_equal(state[key], value), key
    return recovered


def save_pua_chain(service, depth, layers=("5.bias",), seed=1):
    """A root snapshot plus ``depth`` updates of ``layers``, each level by
    its own noise; returns (ids, states)."""
    noise = np.random.default_rng(seed)
    model = make_tiny_cnn(seed=seed)
    ids = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
    states = [copy_state(model.state_dict())]
    for _ in range(depth):
        state = copy_state(states[-1])
        for key in layers:
            state[key] += noise.standard_normal(state[key].shape).astype(state[key].dtype)
        ids.append(service.save_model(
            ModelSaveInfo(model_holding(state), tiny_arch(), base_model_id=ids[-1])))
        states.append(state)
    return ids, states


class ShiftTrainService(TrainService):
    """'Training' that adds a recorded amount to recorded layers: an MPA
    level whose replay needs no dataset."""

    def __init__(self, layers, amount):
        self.layers = list(layers)
        self.amount = float(amount)

    def train(self, model, number_epochs=1, number_batches=None):
        state = model.state_dict()
        for key in self.layers:
            state[key] += self.amount
        return model

    def save(self, collections, file_store):
        return collections.collection(TRAIN_INFO).insert_one({
            "service_class": f"{__name__}.ShiftTrainService",
            "layers": self.layers, "amount": self.amount,
        })

    @classmethod
    def restore(cls, payload, collections, file_store, refs):
        return cls(payload["layers"], payload["amount"])


# -- (a) every lineage, every store configuration ---------------------------

LEVELS = st.lists(
    st.tuples(
        st.sampled_from(["BA", "PUA", "PUA", "MPA"]),
        st.integers(min_value=0, max_value=7),  # which earlier model is the base
        st.one_of(
            st.just(frozenset()), st.just(frozenset(FLOAT_LAYERS)),
            st.frozensets(st.sampled_from(FLOAT_LAYERS), min_size=1, max_size=3),
        ),
        st.booleans(),  # compact this model once it is saved
    ),
    min_size=1, max_size=7,
)


@settings(max_examples=30, deadline=None)
@given(
    levels=LEVELS,
    manifest=st.sampled_from(["v1", "v2"]),
    zlib=st.booleans(),
    workers=st.sampled_from([0, 4]),
    chunk_cache=st.sampled_from([None, 1 << 20]),
    monolithic_level=st.integers(min_value=0, max_value=6),
    shared_cache=st.booleans(),
)
def test_property_every_lineage_recovers_bitwise(
    tmp_path_factory, levels, manifest, zlib, workers, chunk_cache, monolithic_level,
    shared_cache,
):
    """Lineages mixing BA / PUA / MPA levels, with none, some or all layers
    changed, one monolithic level and compactions in between: every model
    recovers bitwise and verified, whatever the store is configured as and
    whichever format (v1 or the retired v2, raw or zlib-framed records)
    its chunked levels were written in."""
    root = tmp_path_factory.mktemp("plan")
    documents = DocumentStore()
    files = RetiredFormatStore(root / "files", manifest=manifest, zlib=zlib,
                               piece_bytes=256, workers=workers, chunk_cache=chunk_cache)
    services = {
        "BA": BaselineSaveService(documents, files),
        "PUA": ParameterUpdateSaveService(documents, files),
        "MPA": ProvenanceSaveService(documents, files, scratch_dir=root / "scratch"),
    }
    recover_with = services["PUA"]  # recovery is driven by the document alone
    compactor = ChainCompactor(recover_with)
    dataset_dir = root / "data"
    dataset_dir.mkdir()
    (dataset_dir / "sample.bin").write_bytes(b"replay needs a dataset to unpack")

    first = make_tiny_cnn(seed=3)
    ids = [services["PUA"].save_model(ModelSaveInfo(first, tiny_arch()))]
    states = [copy_state(first.state_dict())]
    for level, (kind, base_draw, changed, compact) in enumerate(levels):
        base = base_draw % len(ids)
        state = copy_state(states[base])
        for key in changed:
            state[key] += level + 1.0
        model = model_holding(state)
        if kind == "MPA":
            info = ProvenanceSaveInfo(
                base_model_id=ids[base],
                train_service=ShiftTrainService(sorted(changed), level + 1.0),
                train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=level),
                rng_state=rng.get_rng_state(),
                dataset_dir=dataset_dir,
                expected_model=model,
            )
        else:
            info = ModelSaveInfo(model, tiny_arch(), base_model_id=ids[base])
        # one PUA level is the whole-state ``.update`` blob older releases wrote
        files.manifest = "params" if kind == "PUA" and level == monolithic_level else manifest
        ids.append(services[kind].save_model(info))
        files.manifest = manifest
        states.append(state)
        if compact:
            compactor.compact_model(ids[-1])  # a no-op on a snapshot

    cache = RecoveryCache() if shared_cache else None
    for order in (range(len(ids)), reversed(range(len(ids)))):
        for index in order:
            assert_recovers(recover_with, ids[index], states[index], cache=cache)


# -- (b) counts, not clocks -------------------------------------------------


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def spy_on_chunk_reads(files):
    """Every digest the store is asked to read from now on, in order."""
    reads = []
    read_chunk = files._read_chunk

    def spy(digest, *already_read):
        if not is_file_id(digest):  # a manifest or code file is a record too
            reads.append(digest)
        return read_chunk(digest, *already_read)

    files._read_chunk = spy
    return reads


class TestCounts:
    """The gate ``make chaos`` runs: a later change that reintroduces a
    per-level build or fetch fails here, whatever the clock says."""

    def test_depth_16_recover_builds_once_and_reads_only_the_tip(
        self, tmp_path, monkeypatch
    ):
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 16, layers=FLOAT_LAYERS)

        builds = count_calls(monkeypatch, ArchitectureRef, "build_from")
        loads = count_calls(monkeypatch, Module, "load_state_dict")
        reads = spy_on_chunk_reads(files)
        recovered = assert_recovers(service, ids[-1], states[-1])
        assert recovered.recovery_depth == 16
        assert len(builds) == 1 and len(loads) == 1
        # one read per layer of the tip, of the tip's own chunks: nothing a
        # later level overrides is fetched, nothing is fetched twice
        assert Counter(reads) == Counter(state_dict_hashes(states[-1]).values())

    def test_partial_chain_reads_each_layer_from_its_last_writer(self, tmp_path):
        files = FileStore(tmp_path / "files", workers=4)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 16)
        reads = spy_on_chunk_reads(files)
        assert_recovers(service, ids[-1], states[-1])
        assert sorted(reads) == sorted(set(state_dict_hashes(states[-1]).values()))

    @pytest.mark.parametrize("prefetch", [False, True], ids=["plain", "prefetcher"])
    def test_fully_updated_chain_moves_one_model_over_the_link(self, tmp_path, prefetch):
        """Depth 8, every layer changed at every level: the tip's recover
        receives one model's chunk bytes (the recursion received nine)."""
        link = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.01)
        files = SimulatedNetworkFileStore(
            tmp_path / "files", link, chunk_cache=(1 << 20) if prefetch else None)
        prefetcher = ChainPrefetcher(files) if prefetch else None
        service = ParameterUpdateSaveService(
            DocumentStore(), files, prefetcher=prefetcher)
        every_layer = list(make_tiny_cnn().state_dict())
        ids, states = save_pua_chain(service, 8, layers=every_layer)
        model_bytes = sum(array.nbytes for array in states[-1].values())
        assert len(set(state_dict_hashes(states[-1]).values())) == len(every_layer)

        if prefetch:
            files.chunk_cache.clear()
        files.reset_accounting()
        chunk_bytes = []
        charged_read, charged_read_many = files._charged_read, files._charged_read_many
        files._charged_read = lambda digest: (
            charged_read(digest) if is_file_id(digest)
            else _tally(chunk_bytes, charged_read(digest)))
        files._charged_read_many = lambda digests, workers: _tally_many(
            chunk_bytes, charged_read_many(digests, workers))
        try:
            recovered = assert_recovers(service, ids[-1], states[-1])
            if prefetch:
                prefetcher.drain()
                assert prefetcher.stats()["errors"] == 0
                assert prefetcher.stats()["chunks_prefetched"] == len(every_layer)
        finally:
            if prefetch:
                prefetcher.close()
        assert recovered.recovery_depth == 8
        # (bytes_received also counts the nine manifests and the code file)
        assert sum(chunk_bytes) == model_bytes


def _tally(sizes, data):
    sizes.append(len(data))
    return data


def _tally_many(sizes, payloads):
    sizes.extend(len(data) for data in payloads.values())
    return payloads


# -- the walk fails before it reads -------------------------------------------


class TestWalk:
    def test_missing_base_fails_before_any_chunk_is_read(self, tmp_path):
        files = FileStore(tmp_path / "files")
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, files)
        ids, _ = save_pua_chain(service, 3)
        documents.collection(MODELS).delete_one(ids[1])
        reads = spy_on_chunk_reads(files)
        with pytest.raises(ModelNotFoundError):
            service.recover_model(ids[3])
        assert reads == []

    def test_cycle_in_the_chain_is_a_recovery_error(self, tmp_path):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        ids, _ = save_pua_chain(service, 2)
        models = documents.collection(MODELS)
        root = models.get(ids[0])
        # the root loses its snapshot and points back at the tip
        root.pop("parameters_file")
        root.update(approach="param_update", base_model=ids[2],
                    update_file=models.get(ids[1])["update_file"])
        models.replace_one(ids[0], root)
        with pytest.raises(RecoveryError, match="cycle"):
            service.recover_model(ids[2])


# -- (c) recovery_depth still counts chain levels ---------------------------


class TestRecoveryDepth:
    def test_depth_is_the_level_count(self, tmp_path):
        service = ParameterUpdateSaveService(
            DocumentStore(), FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 8)
        for depth, model_id in enumerate(ids):
            assert assert_recovers(service, model_id, states[depth]).recovery_depth == depth

        ModelManager(service).compact(max_depth=3)  # ids[3] and ids[6] become bases
        expected = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        for model_id, state, depth in zip(ids, states, expected):
            assert assert_recovers(service, model_id, state).recovery_depth == depth

    def test_depth_counts_from_a_cached_base(self, tmp_path):
        service = ParameterUpdateSaveService(
            DocumentStore(), FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 6)
        cache = RecoveryCache()
        assert_recovers(service, ids[2], states[2], cache=cache)
        recovered = assert_recovers(service, ids[6], states[6], cache=cache)
        assert recovered.recovery_depth == 6 and cache.hits == 1
        # only what was asked for is materialised, so only that is cached
        assert set(cache._states) == {ids[2], ids[6]}


# -- (d) the checks did not move --------------------------------------------


def flip_stored_bit(files, digest):
    path, offset, length = files.chunks.locate(digest)
    assert length > 0
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(offset + length // 2)
        handle.write(bytes([byte[0] ^ 0x01]))


class TestIntegrityOfThePlan:
    @pytest.mark.parametrize("level", [0, 2, 4], ids=["snapshot", "middle", "tip"])
    def test_flipped_bit_in_a_chunk_the_plan_reads_fails_recover(self, tmp_path, level):
        """Level ``level`` is the last writer of one layer of the tip."""
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        layer = {0: "0.weight", 2: "5.weight", 4: "5.bias"}[level]
        model = make_tiny_cnn(seed=5)
        ids = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
        state = copy_state(model.state_dict())
        for depth in range(1, 5):
            state = copy_state(state)
            state["5.bias"] += 1.0
            if depth <= 2:
                state["5.weight"] += 1.0
            ids.append(service.save_model(
                ModelSaveInfo(model_holding(state), tiny_arch(), base_model_id=ids[-1])))
        assert_recovers(service, ids[-1], state)

        flip_stored_bit(files, state_dict_hashes(state)[layer])
        with pytest.raises((StoreCorruptionError, VerificationError)):
            service.recover_model(ids[-1])

    @pytest.mark.parametrize("retired", ["v2", "zlib", "params"])
    def test_flipped_bit_in_a_retired_format_level_fails_recover(self, tmp_path, retired):
        """The tip's last level was written in a retired format: a flipped
        bit in what the plan reads from it still fails the recover."""
        files = RetiredFormatStore(tmp_path / "files", piece_bytes=64)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 1, layers=("5.weight",))
        files.manifest, files.zlib = {
            "v2": ("v2", False), "zlib": ("v1", True), "params": ("params", False)}[retired]
        tip = copy_state(states[-1])
        tip["5.weight"] += 1.0
        ids.append(service.save_model(
            ModelSaveInfo(model_holding(tip), tiny_arch(), base_model_id=ids[-1])))
        assert_recovers(service, ids[-1], tip)

        update = service.documents.collection(MODELS).get(ids[-1])["update_file"]
        if retired == "params":
            flip_stored_bit(files, update)
        else:
            [entry] = [meta for name, meta in files.read_manifest(update)["layers"]
                       if name == "5.weight"]
            flip_stored_bit(files, layer_chunk_digests(entry)[0])
        for verify in (True, False):
            with pytest.raises((StoreCorruptionError, VerificationError)):
                service.recover_model(ids[-1], verify=verify)

    def test_poisoned_cache_entry_of_an_update_fails_check_hash(self, tmp_path):
        files = FileStore(tmp_path / "files", chunk_cache=1 << 20)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 3)
        assert_recovers(service, ids[-1], states[-1])  # fills the cache
        digest = state_dict_hashes(states[-1])["5.bias"]
        poisoned = bytearray(files.chunk_cache.get(digest))
        poisoned[len(poisoned) // 2] ^= 0x01
        with files.chunk_cache._lock:
            files.chunk_cache._entries[digest] = bytes(poisoned)
        assert files.verify_reads is False
        with pytest.raises(VerificationError):
            service.recover_model(ids[-1])
        assert service.recover_model(ids[-1], verify=False).verified is None

    def test_overridden_chunk_is_not_read_and_fsck_is_its_guard(self, tmp_path):
        files = FileStore(tmp_path / "files")
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 2)
        flip_stored_bit(files, state_dict_hashes(states[1])["5.bias"])
        assert_recovers(service, ids[2], states[2])  # its own 5.bias wins
        with pytest.raises((StoreCorruptionError, VerificationError)):
            service.recover_model(ids[1])
        report = ModelManager(service).fsck(repair=False, verify_chunks=True)
        assert not report.clean


# -- (e) a recover beside a compaction --------------------------------------


class TestRecoverBesideCompaction:
    @pytest.mark.parametrize("op", COMPACT_OPS)
    def test_recover_at_each_compaction_step_is_bitwise(self, tmp_path, op):
        """A recover that runs, on another thread, while ``compact_model``
        stands at ``op`` sees either side of the commit point — and the
        same bytes."""
        service = ParameterUpdateSaveService(
            DocumentStore(), FileStore(tmp_path / "files", workers=2))
        ids, states = save_pua_chain(service, 5)
        compactor = ChainCompactor(service, max_depth=4)
        outcomes = []

        def recover_all():
            try:
                for model_id, state in zip(ids, states):
                    assert_recovers(service, model_id, state)
                outcomes.append("bitwise")
            except BaseException as exc:  # reported on the test's thread
                outcomes.append(exc)

        def at_step(name):
            if name == op:
                thread = threading.Thread(target=recover_all)
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()

        compactor.fault_hook = at_step
        compactor.compact_model(ids[4])
        assert outcomes == ["bitwise"]
        for model_id, state in zip(ids, states):
            assert_recovers(service, model_id, state)
        assert service.recover_model(ids[5]).recovery_depth == 1

    @pytest.mark.parametrize("op", COMPACT_OPS)
    def test_recover_after_a_crash_at_each_step_is_bitwise(self, tmp_path, op):
        service = ParameterUpdateSaveService(
            DocumentStore(), FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 5)
        faults = FaultInjector(seed=0)
        compactor = ChainCompactor(service, max_depth=4)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op=op)
        with pytest.raises(CrashPoint):
            compactor.compact_model(ids[4])
        for model_id, state in zip(ids, states):
            assert_recovers(service, model_id, state)
