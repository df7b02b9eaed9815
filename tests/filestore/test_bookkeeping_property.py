"""Random save / delete / gc / reopen sequences against reachability.

A :class:`FileStore` counts no references: a chunk lives while a stored
manifest names it.  Whatever sequence of saves (which deduplicate, the
layers being drawn from a small pool), deletes, sweeps and reopens (with
and without ``close``) ran, every stored manifest recovers bitwise, after
every gc the stored records are exactly the stored files and the chunks
their manifests name, and the segment gauges equal a recount.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.hashing import tensor_hash
from repro.filestore import FileStore
from tests.filestore.test_bookkeeping import recount

#: Three layers, each one of three arrays: saves share chunks.
POOL = [np.full(16, value, dtype=np.float32) for value in (1.0, 2.0, 3.0)]
CHOICES = st.tuples(*[st.integers(0, len(POOL) - 1)] * 3)


class ReachabilityAgainstDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.root = Path(self.directory.name) / "files"
        self.saved: dict[str, dict] = {}  # file id -> the state it holds
        self.open()

    def open(self):
        self.files = FileStore(self.root, tmp_grace_s=0.0)

    def teardown(self):
        self.files.chunks.close()
        self.directory.cleanup()

    @rule(choice=CHOICES)
    def save(self, choice):
        state = {name: POOL[index] for name, index in zip("abc", choice)}
        hashes = {name: tensor_hash(array) for name, array in state.items()}
        self.saved[self.files.save_state_chunks(state, hashes)] = state

    @rule(data=st.data())
    def delete(self, data):
        if not self.saved:
            return
        file_id = data.draw(st.sampled_from(sorted(self.saved)))
        assert self.files.delete_many([file_id]) == [file_id]
        del self.saved[file_id]

    @rule()
    def gc(self):
        self.files.gc_chunks()
        named = {key for file_id in self.saved for key in self.files.manifest_keys(file_id)}
        assert set(self.files.chunks.chunk_ids()) == named | set(self.saved)

    @rule(clean=st.booleans())
    def reopen(self, clean):
        if clean:
            self.files.chunks.close()
        self.open()  # otherwise: killed, the handles just go away

    @invariant()
    def every_stored_manifest_recovers_bitwise(self):
        assert set(self.files.file_ids()) == set(self.saved)
        for file_id, state in self.saved.items():
            recovered = self.files.recover_state_chunks(file_id, verify=True)
            for name, array in state.items():
                assert recovered[name].tobytes() == array.tobytes()
        store = self.files.chunks
        stats = store.segment_stats()
        expected = recount(store)
        assert {key: stats[key] for key in expected} == expected


TestReachabilityAgainstDict = ReachabilityAgainstDict.TestCase
TestReachabilityAgainstDict.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
