"""Random refcount / payload operation sequences against a plain-dict model.

``add`` / ``release`` / ``import`` / ``forget`` / ``gc`` / reopen (with and
without ``close``): the refcount log, whatever mix of appended lines and
folds a sequence produced, always replays to the model's table, and the
segment gauges always equal a recount.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.filestore import ChunkStore
from repro.filestore.recordlog import RECORD_HEADER
from tests.filestore.test_bookkeeping import recount

DIGESTS = st.sampled_from([f"{i:02d}" + "ef" * 8 for i in range(8)])
BATCHES = st.lists(DIGESTS, min_size=1, max_size=5)


class SegmentRefcountsAgainstDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.root = Path(self.directory.name) / "c"
        self.refs: dict[str, int] = {}
        self.stored: set[str] = set()
        self.open()

    def open(self):
        # small segments roll, so gc also compacts
        self.store = ChunkStore(self.root, tmp_grace_s=0.0, segment_bytes=256)

    def teardown(self):
        self.store.close()
        self.directory.cleanup()

    @rule(digest=DIGESTS)
    def put(self, digest):
        assert self.store.put(digest, digest.encode() * 3) == (digest not in self.stored)
        self.store.flush()
        self.stored.add(digest)

    @rule(digests=BATCHES)
    def add(self, digests):
        self.store.add_refs(digests)
        for digest in digests:
            self.refs[digest] = self.refs.get(digest, 0) + 1

    @rule(digests=BATCHES)
    def release(self, digests):
        expected = set()
        for digest in digests:
            count = self.refs.get(digest, 0) - 1
            if count > 0:
                self.refs[digest] = count
            else:
                self.refs.pop(digest, None)
                self.stored.discard(digest)
                expected.add(digest)
        assert sorted(self.store.release_refs(digests)) == sorted(expected)

    @rule(counts=st.dictionaries(DIGESTS, st.integers(0, 12), max_size=4))
    def import_(self, counts):
        self.store.import_refs(counts)
        self.refs.update({d: c for d, c in counts.items() if c > 0})

    @rule(digests=BATCHES)
    def forget(self, digests):
        self.store.forget_refs(digests)
        for digest in digests:
            self.refs.pop(digest, None)

    @rule()
    def gc(self):
        doomed = self.stored - set(self.refs)
        assert self.store.gc()["chunks_removed"] >= len(doomed)
        self.stored -= doomed

    @rule(clean=st.booleans())
    def reopen(self, clean):
        if clean:
            self.store.close()
        self.open()  # otherwise: killed, the handles just go away

    @invariant()
    def state_agrees(self):
        assert self.store.export_refs() == self.refs
        assert set(self.store.chunk_ids()) == self.stored
        path = self.store._refs_path
        if path.exists():
            folded = len(json.dumps(self.refs, separators=(",", ":")))
            assert path.stat().st_size <= 2 * (folded + RECORD_HEADER.size) + 16
        stats = self.store.segment_stats()
        expected = recount(self.store)
        assert {key: stats[key] for key in expected} == expected


TestSegmentRefcountsAgainstDict = SegmentRefcountsAgainstDict.TestCase
TestSegmentRefcountsAgainstDict.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
