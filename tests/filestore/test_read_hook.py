"""One read hook: every record a file store reads goes through ``_fetch_many``.

A recover's chunks, a manifest, a spec record, a code file, a heal's
re-fetch and a single-flight waiter whose leader failed all reach the one
hook a subclass overrides, on a plain store, a simulated-network store and
a 3×2 sharded store alike.
"""

import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.cluster import ShardedFileStore
from repro.cluster.replica import audit_reads
from repro.core.hashing import state_dict_hashes
from repro.errors import TransientStoreError
from repro.filestore import FileStore, NetworkModel, SimulatedNetworkFileStore
from repro.retry import RetryPolicy

LINK = NetworkModel(bandwidth_bytes_per_s=1_000_000, latency_s=0.01)
CODE = b"def make_model():\n    return None\n"
KINDS = ["file", "network", "sharded-3x2"]


def open_store(kind, root, **kwargs):
    """A store of ``kind`` over ``root``, a heal re-fetch allowed."""
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
    if kind == "file":
        return FileStore(root / "files", retry=retry, **kwargs)
    if kind == "network":
        return SimulatedNetworkFileStore(root / "files", LINK, retry=retry, **kwargs)
    members = {f"m{index}": FileStore(root / f"m{index}") for index in range(3)}
    return ShardedFileStore(root / "meta", members, replicas=2, retry=retry, **kwargs)


def small_state(seed=0, layers=10):
    rng = np.random.default_rng(seed)
    return OrderedDict(
        (f"layer{index}.weight", rng.standard_normal((8, 8)).astype(np.float32))
        for index in range(layers))


def save(store, seed=0):
    state = small_state(seed)
    hashes = state_dict_hashes(state)
    return state, hashes, store.save_state_chunks(state, hashes)


def assert_bitwise(state, restored):
    assert list(state) == list(restored)
    assert all(np.array_equal(state[name], restored[name]) for name in state)


class FetchSpy:
    """Every batch of keys a store's ``_fetch_many`` is asked for, in order;
    the first payload of ``poison`` it returns is zeroed."""

    def __init__(self, store):
        self.calls = []
        self.poison = None
        fetch_many = store._fetch_many

        def spy(digests, *args, **kwargs):
            payloads = fetch_many(digests, *args, **kwargs)
            self.calls.append(list(digests))
            if self.poison in payloads:
                payloads[self.poison] = bytearray(len(payloads[self.poison]))
                self.poison = None
            return payloads

        store._fetch_many = spy

    @property
    def keys(self):
        return [key for call in self.calls for key in call]


@pytest.mark.parametrize("kind", KINDS)
class TestOneReadHook:
    def test_a_recover_reads_its_manifest_and_chunks_through_the_hook(self, kind, tmp_path):
        store = open_store(kind, tmp_path)
        state, hashes, manifest = save(store)
        spy = FetchSpy(store)
        assert_bitwise(state, store.recover_state_chunks(manifest, verify=True))
        assert spy.calls[0] == [manifest]
        assert sorted(spy.keys[1:]) == sorted(hashes.values())

    def test_read_manifest_reads_through_the_hook(self, kind, tmp_path):
        store = open_store(kind, tmp_path)
        _state, _hashes, manifest = save(store)
        spy = FetchSpy(store)
        store.read_manifest(manifest)
        assert spy.calls == [[manifest]]

    def test_the_first_read_of_a_spec_record_goes_through_the_hook(self, kind, tmp_path):
        writer = open_store(kind, tmp_path)
        _state, _hashes, manifest = save(writer)
        writer.close()
        store = open_store(kind, tmp_path)  # a store that has not met the spec
        spy = FetchSpy(store)
        spec = store.read_manifest(manifest)["spec"]
        assert spy.calls == [[manifest], [spec]]
        store.read_manifest(manifest)
        assert spy.calls[2:] == [[manifest]]  # the parsed spec is kept by key

    def test_a_code_file_reads_through_the_hook(self, kind, tmp_path):
        store = open_store(kind, tmp_path)
        file_id = store.save_bytes(CODE, suffix=".py")
        spy = FetchSpy(store)
        assert store.recover_bytes(file_id) == CODE
        assert spy.calls == [[file_id]]

    def test_a_heal_refetches_through_the_hook(self, kind, tmp_path):
        store = open_store(kind, tmp_path)
        state, hashes, manifest = save(store)
        spy = FetchSpy(store)
        spy.poison = hashes["layer3.weight"]
        assert_bitwise(state, store.recover_state_chunks(manifest, verify=True))
        assert spy.calls[-1] == [hashes["layer3.weight"]]
        assert spy.keys.count(hashes["layer3.weight"]) == 2

    def test_a_waiter_whose_leader_failed_reads_through_the_hook(self, kind, tmp_path):
        store = open_store(kind, tmp_path, chunk_cache=1 << 20)
        state, hashes, _manifest = save(store)
        digest = hashes["layer0.weight"]
        leading, release, waiting = threading.Event(), threading.Event(), threading.Event()
        calls = []
        fetch_many = store._fetch_many

        def failing_first(digests, *args, **kwargs):
            calls.append(list(digests))
            if len(calls) == 1:
                leading.set()
                release.wait(timeout=5)
                raise TransientStoreError("the leader's read failed")
            return fetch_many(digests, *args, **kwargs)

        begin = store._singleflight.begin

        def begin_and_tell(key):
            event = begin(key)
            if event is not None:
                waiting.set()
            return event

        store._fetch_many = failing_first
        store._singleflight.begin = begin_and_tell
        results, errors = [], []

        def read():
            try:
                results.append(store.get_chunks([digest])[digest])
            except TransientStoreError as exc:
                errors.append(exc)

        leader = threading.Thread(target=read)
        leader.start()
        assert leading.wait(timeout=5)
        waiter = threading.Thread(target=read)
        waiter.start()
        assert waiting.wait(timeout=5)  # the waiter waits on the leader's flight
        release.set()
        leader.join(timeout=5)
        waiter.join(timeout=5)
        assert len(errors) == 1
        assert [bytes(data) for data in results] == [state["layer0.weight"].tobytes()]
        assert calls == [[digest], [digest]]


class TestLinkCharges:
    """A simulated link charges what it did when files and spec records
    took a route of their own (numbers pinned from that route)."""

    def test_a_verified_recover_and_a_file_read_cost_what_they_did(self, tmp_path):
        writer = SimulatedNetworkFileStore(tmp_path / "files", LINK)
        state, _hashes, manifest = save(writer)
        file_id = writer.save_bytes(CODE, suffix=".py")
        writer.close()
        store = SimulatedNetworkFileStore(tmp_path / "files", LINK)

        assert_bitwise(state, store.recover_state_chunks(manifest, verify=True))
        # manifest, spec record, then 10 chunks in two windows of 8
        assert (store.bytes_received, store.round_trips, store.round_trips_saved) == (
            3267, 4, 8)
        assert store.recover_bytes(file_id) == CODE
        assert (store.bytes_received, store.round_trips, store.round_trips_saved) == (
            3267 + len(CODE), 5, 8)


class TestAFailedReadIsNotRepeated:
    def test_an_owner_missing_a_key_is_read_once_per_route(self, tmp_path):
        """The primary's one-record batch raises its miss without reading
        again; the failover read asks the primary once more, then the
        secondary, which serves the key."""
        store = open_store("sharded-3x2", tmp_path)
        state, hashes, _manifest = save(store)
        digest = hashes["layer0.weight"]
        primary, secondary = store.ring.owners(digest)
        store.members[primary].chunks.drop(digest)
        reads = []

        def counted(name, get_many):
            def read(digests, *args, **kwargs):
                reads.append(name)
                return get_many(digests, *args, **kwargs)
            return read

        for name in (primary, secondary):
            chunks = store.members[name].chunks
            chunks.get_many = counted(name, chunks.get_many)
        with audit_reads():  # no read repair: count the reads alone
            data = store.get_chunks([digest])[digest]
        assert bytes(data) == state["layer0.weight"].tobytes()
        assert reads == [primary, primary, secondary]
