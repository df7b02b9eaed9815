"""The recovery plan: a chain is resolved, then read once (DESIGN.md §16).

Counts and identities, not clocks: what a recover builds, what it asks the
store for, what crosses the link — and that every lineage still recovers
bitwise under every store configuration.
"""

import json
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
from repro.filestore.store import is_file_id
from repro.importer import ImportFailedError
from repro.nn import rng
from repro.nn.modules import Module, Skeleton
from tests.conftest import make_tiny_cnn
from tests.filestore.helpers import locate
from tests.filestore.older_release import as_older_release, reopened
from tests.filestore.retired_formats import RetiredFormatStore, older_release

FLOAT_LAYERS = [
    key for key, value in make_tiny_cnn().state_dict().items()
    if value.dtype.kind == "f"
]
COMPACT_OPS = ("compact.artifacts", "compact.commit", "compact.cleanup")


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


def save_mpa_chain(documents, files, root, depth, layers=("5.bias",)):
    """A root snapshot plus ``depth`` MPA levels, each a
    :class:`ShiftTrainService` replay over the one before; returns
    (the MPA service, ids, states)."""
    service = ProvenanceSaveService(documents, files, scratch_dir=root / "scratch")
    dataset = root / "data"
    dataset.mkdir(exist_ok=True)
    (dataset / "sample.bin").write_bytes(b"replay needs a dataset to unpack")
    model = make_tiny_cnn(seed=1)
    ids = [service.save_model(ModelSaveInfo(model, tiny_arch()))]
    states = [copy_state(model.state_dict())]
    for level in range(1, depth + 1):
        state = copy_state(states[-1])
        for key in layers:
            state[key] += float(level)
        ids.append(service.save_model(ProvenanceSaveInfo(
            base_model_id=ids[-1],
            train_service=ShiftTrainService(layers, level),
            train_spec=TrainRunSpec(number_epochs=1, number_batches=1, seed=level),
            rng_state=rng.get_rng_state(),
            dataset_dir=dataset,
            expected_model=model_holding(state),
        )))
        states.append(state)
    return service, ids, states


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
    manifest=st.sampled_from(["v3", "v2"]),
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
    changed, one monolithic level and compactions: every model recovers
    bitwise and verified, whatever the store is configured as and whichever
    format (today's v3 or the retired v2, raw or zlib-framed records, PUA
    delta levels) its chunked levels were written in — a retired one
    imported before this release opens it, the compactions run after
    that."""
    root = tmp_path_factory.mktemp("plan")
    documents = DocumentStore()
    files = RetiredFormatStore(root / "files", manifest=manifest, zlib=zlib,
                               piece_bytes=256, workers=workers, chunk_cache=chunk_cache)
    services = {
        "BA": BaselineSaveService(documents, files),
        "PUA": ParameterUpdateSaveService(documents, files),
        "MPA": ProvenanceSaveService(documents, files, scratch_dir=root / "scratch"),
    }
    # a draw writing a retired format saves documents as the releases that
    # wrote it did; any other saves today's, each table read off manifests
    monolithic = monolithic_level < len(levels) and levels[monolithic_level][0] == "PUA"
    if manifest == "v2" or zlib or monolithic:
        for service in services.values():
            older_release(service)
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

    # recovery is driven by the document alone
    recover_with = reopened(services["PUA"], workers=workers, chunk_cache=chunk_cache)
    compactor = ChainCompactor(recover_with)
    for model_id, (_, _, _, compact) in zip(ids[1:], levels):
        if compact:
            compactor.compact_model(model_id)  # a no-op on a snapshot
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

        # every build looks its skeleton up once and assembles it once
        builds = count_calls(monkeypatch, ArchitectureRef, "skeleton")
        walks = count_calls(monkeypatch, Skeleton, "assemble")
        loads = count_calls(monkeypatch, Module, "load_state_dict")
        reads = spy_on_chunk_reads(files)
        recovered = assert_recovers(service, ids[-1], states[-1])
        assert recovered.recovery_depth == 0  # its own manifest names every layer
        assert len(builds) == 1 and len(walks) == 1 and loads == []
        # one read per layer of the tip, of the tip's own chunks: nothing an
        # ancestor held alone is fetched, nothing is fetched twice
        assert Counter(reads) == Counter(state_dict_hashes(states[-1]).values())

    def test_partial_chain_reads_each_layer_from_its_last_writer(self, tmp_path):
        files = FileStore(tmp_path / "files", workers=4)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 16)
        reads = spy_on_chunk_reads(files)
        assert_recovers(service, ids[-1], states[-1])
        assert sorted(reads) == sorted(set(state_dict_hashes(states[-1]).values()))

    @pytest.mark.parametrize("chunk_cache", [None, 1 << 20], ids=["plain", "chunk-cache"])
    def test_fully_updated_chain_moves_one_model_over_the_link(self, tmp_path, chunk_cache):
        """Depth 8, every layer changed at every level: the tip's recover
        receives one model's chunk bytes (the recursion received nine),
        with or without a (cold) chunk cache in front of the link."""
        link = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.01)
        files = SimulatedNetworkFileStore(tmp_path / "files", link, chunk_cache=chunk_cache)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        every_layer = list(make_tiny_cnn().state_dict())
        ids, states = save_pua_chain(service, 8, layers=every_layer)
        model_bytes = sum(array.nbytes for array in states[-1].values())
        assert len(set(state_dict_hashes(states[-1]).values())) == len(every_layer)

        if chunk_cache:
            files.chunk_cache.clear()
        files.reset_accounting()
        chunk_bytes = []
        fetch_many = files._fetch_many
        files._fetch_many = lambda digests, *args, **kwargs: _tally_many(
            chunk_bytes, fetch_many(digests, *args, **kwargs))
        recovered = assert_recovers(service, ids[-1], states[-1])
        assert recovered.recovery_depth == 0
        # (bytes_received also counts the manifest, its spec and the code file)
        assert sum(chunk_bytes) == model_bytes


def _tally_many(sizes, payloads):
    sizes.extend(len(data) for key, data in payloads.items() if not is_file_id(key))
    return payloads


# -- the walk fails before it reads -------------------------------------------


class TestWalk:
    def test_a_missing_base_leaves_the_tip_whole(self, tmp_path):
        """A PUA model is its own recovery base: with an ancestor's
        document gone, its recover reads only its own chunks."""
        files = FileStore(tmp_path / "files")
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, files)
        ids, states = save_pua_chain(service, 3)
        documents.collection(MODELS).delete_one(ids[1])
        reads = spy_on_chunk_reads(files)
        assert_recovers(service, ids[3], states[3])
        assert sorted(reads) == sorted(set(state_dict_hashes(states[3]).values()))
        with pytest.raises(ModelNotFoundError):
            service.base_chain(ids[3])

    def test_cycle_in_the_chain_is_a_recovery_error(self, tmp_path):
        documents = DocumentStore()
        service = ParameterUpdateSaveService(documents, FileStore(tmp_path / "files"))
        ids, states = save_pua_chain(service, 2)
        models = documents.collection(MODELS)
        root = models.get(ids[0])
        root["base_model"] = ids[2]  # the root points back at the tip
        models.replace_one(ids[0], root)
        with pytest.raises(RecoveryError, match="cycle"):
            service.base_chain(ids[2])
        assert_recovers(service, ids[2], states[2])  # no walk to loop in

    def test_a_cycle_of_mpa_levels_is_a_recovery_error(self, tmp_path):
        documents = DocumentStore()
        service, ids, _states = save_mpa_chain(
            documents, FileStore(tmp_path / "files"), tmp_path, 2)
        models = documents.collection(MODELS)
        level = models.get(ids[1])
        level["base_model"] = ids[2]  # two MPA levels, each the other's base
        models.replace_one(ids[1], level)
        cycle = f"{ids[2]} -> {ids[1]} -> {ids[2]}"
        with pytest.raises(RecoveryError, match=f"cycle in base-model chain: {cycle}"):
            service.recover_model(ids[2])


# -- (c) recovery_depth counts the replayed levels -------------------------


class TestRecoveryDepth:
    def test_depth_is_the_level_count(self, tmp_path):
        """An MPA level replays its base: its depth is the levels replayed,
        and a compaction every three levels bounds it.  A PUA model
        replays nothing: depth 0 at any lineage depth."""
        service, ids, states = save_mpa_chain(
            DocumentStore(), FileStore(tmp_path / "files"), tmp_path, 8)
        for depth, model_id in enumerate(ids):
            assert assert_recovers(service, model_id, states[depth]).recovery_depth == depth

        ModelManager(service).compact(max_depth=3)  # ids[3] and ids[6] become bases
        expected = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        for model_id, state, depth in zip(ids, states, expected):
            assert assert_recovers(service, model_id, state).recovery_depth == depth

        pua = ParameterUpdateSaveService(service.documents, service.files)
        pua_ids, pua_states = save_pua_chain(pua, 8)
        for model_id, state in zip(pua_ids, pua_states):
            assert assert_recovers(pua, model_id, state).recovery_depth == 0

    def test_depth_counts_from_a_cached_base(self, tmp_path):
        service, ids, states = save_mpa_chain(
            DocumentStore(), FileStore(tmp_path / "files"), tmp_path, 6)
        cache = RecoveryCache()
        assert_recovers(service, ids[2], states[2], cache=cache)
        recovered = assert_recovers(service, ids[6], states[6], cache=cache)
        assert recovered.recovery_depth == 6 and cache.hits == 1
        # every replayed level is cached, and only those: the root is a read
        assert set(cache._states) == set(ids[1:])


# -- (d) the checks did not move --------------------------------------------


def flip_stored_bit(files, digest):
    path, offset, length = locate(files.chunks, digest)
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
        bit in what the plan reads from it fails the import, which names
        the level or the record, creates nothing and leaves the store it
        read as it was."""
        files = RetiredFormatStore(tmp_path / "files", manifest="v3", piece_bytes=64)
        service = ParameterUpdateSaveService(DocumentStore(), files)
        ids, states = save_pua_chain(service, 1, layers=("5.weight",))
        files.manifest, files.zlib = {
            "v2": ("v2", False), "zlib": ("v1", True), "params": ("params", False)}[retired]
        tip = copy_state(states[-1])
        tip["5.weight"] += 1.0
        older = older_release(ParameterUpdateSaveService(service.documents, files))
        ids.append(older.save_model(  # a delta level, as older releases saved it
            ModelSaveInfo(model_holding(tip), tiny_arch(), base_model_id=ids[-1])))

        update = service.documents.collection(MODELS).get(ids[-1])["update_file"]
        flipped = update
        if retired != "params":
            [entry] = [meta for name, meta in json.loads(files.recover_bytes(update))["layers"]
                       if name == "5.weight"]
            flipped = entry.get("chunk") or entry["chunks"][0]
        flip_stored_bit(files, flipped)
        files.chunks.close()
        as_older_release(files.root)
        before = {p: p.read_bytes() for p in files.root.rglob("*") if p.is_file()}
        with pytest.raises(ImportFailedError, match=f"{update}|{flipped}"):
            reopened(service)
        assert {p: p.read_bytes() for p in files.root.rglob("*") if p.is_file()} == before
        assert not files.root.with_name("files-imported").exists()

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
        service, ids, states = save_mpa_chain(
            DocumentStore(), FileStore(tmp_path / "files", workers=2), tmp_path, 5)
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
        service, ids, states = save_mpa_chain(
            DocumentStore(), FileStore(tmp_path / "files"), tmp_path, 5)
        faults = FaultInjector(seed=0)
        compactor = ChainCompactor(service, max_depth=4)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op=op)
        with pytest.raises(CrashPoint):
            compactor.compact_model(ids[4])
        for model_id, state in zip(ids, states):
            assert_recovers(service, model_id, state)
        # the crash left unreferenced records only: one pass repairs them
        manager = ModelManager(service)
        report = manager.fsck()
        assert not report.unrepaired, report.summary()
        assert manager.fsck().clean
        for model_id, state in zip(ids, states):
            assert_recovers(service, model_id, state)
