"""Stores whose logs the parent release wrote open and recover bitwise.

The parent wrote every log in a format of its own: JSON lines (catalog
collections, the refcount log, hinted-handoff files, rebalance journals,
one file per save under ``journal/``) or one JSON document (``index.json``,
``compaction.json``, the indented ``chain-compaction/*.json``).
:func:`to_parent_format` rewrites every log under a root that way, and
writes the files the parent kept beside what this release keeps without
one: the chain-compaction intents beside a swap and the save journals
beside a save (both committed by a document alone), the segment
compaction journal beside a compaction (committed by its rename), the
rebalance journals beside a membership change (the placement says what is
left), the hint files beside a degraded write (the sweep finds what a
replica is owed) and the refcount log beside the records (liveness is what
the catalog reaches).  Each
store here is caught mid-crash first — an open save, a pending chain
compaction, a pending segment compaction, a pending rebalance, undelivered
hints — so the parent-format files are exactly what a crashed parent left.
This release refuses to open it; the import reframes its logs, deletes the
side logs unread and sweeps what the crash left, and every model of the
imported deployment recovers bitwise.
"""

import json

import pytest

from repro.core import ModelManager, ParameterUpdateSaveService
from repro.core.hashing import state_dict_hashes
from repro.distsim.environment import SharedStores
from repro.docstore import DocumentStore
from repro.errors import OlderFormatError
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RECORD_MAGIC, RecordLog
from repro.filestore.segments import SEGMENT_SUFFIX
from tests.core.test_recovery_plan import assert_recovers, copy_state, save_pua_chain
from tests.filestore.older_release import as_older_release, imported


def records_of(path) -> list:
    log = RecordLog(path)
    records = log.replay()
    log.close()
    return records


def json_lines(records, **dumps) -> str:
    return "".join(json.dumps(record, **dumps) + "\n" for record in records)


def to_parent_format(root, swaps=(), saves=(), compaction=None, moves=None,
                     hints=None) -> set[str]:
    """Rewrite every framed log under ``root`` as the parent wrote it, and
    write each of ``swaps`` (a pending chain compaction: ``model_id``,
    ``old_update_file``, ``manifest_file``, ``code_file``) and of ``saves``
    (an open save's intents) as the parent's intent under
    ``root / "files"``, ``compaction`` (``victims``, ``dest``) as its
    segment compaction journal there, ``moves`` (the keys a membership
    change copied) as its rebalance journal under ``root / "cluster-meta"``
    and ``hints`` (``{member: keys it missed}``) as its pending hints
    there, and takes the format markers away; returns the kinds of log
    written."""
    kinds = set()
    for index in sorted(root.rglob("index.json")):  # a count per indexed record
        counts = dict.fromkeys(records_of(index)[-1]["entries"], 1)
        (index.parent / "refcounts.json").write_text(
            json.dumps(counts, sort_keys=True, separators=(",", ":")))
        kinds.add("refcounts.json")
    if compaction is not None:
        path = root / "files" / "chunks" / "compaction.json"
        path.write_text(json.dumps(compaction, sort_keys=True))
        kinds.add("compaction.json")
    if moves is not None:
        journals = root / "cluster-meta" / "rebalance"
        journals.mkdir()
        (journals / "5f0c1d2e3a4b.jsonl").write_text(
            json_lines({"kind": "chunk", "key": key} for key in moves))
        kinds.add("rebalance")
    for member, keys in (hints or {}).items():
        pending = root / "cluster-meta" / "hints"
        pending.mkdir(exist_ok=True)
        (pending / f"{member}.jsonl").write_text(json_lines(
            ({"op": "hint", "kind": "chunk", "key": key, "recorded_at": 0.0} for key in keys),
            sort_keys=True))
        kinds.add("hints")
    for swap in swaps:
        intents = root / "files" / "chain-compaction"
        intents.mkdir(exist_ok=True)
        (intents / f"{swap['model_id']}.json").write_text(json.dumps(swap, indent=0))
        kinds.add("chain compaction")
    for index, entries in enumerate(saves):
        journal = root / "files" / "journal"
        journal.mkdir(exist_ok=True)
        (journal / f"save-{index:016x}.jsonl").write_text(
            json_lines(entries, sort_keys=True))
        kinds.add("save journal")
    for path in sorted(root.rglob("*")):
        if (not path.is_file() or path.suffix == ".seg"
                or path.read_bytes()[:4] != RECORD_MAGIC):
            continue
        records = records_of(path)
        if path.name == "index.json":
            kind, text = path.name, json.dumps(records[-1], sort_keys=True)
        else:
            kind, text = "catalog", json_lines(records, sort_keys=True)
        path.write_text(text)
        kinds.add(kind)
    as_older_release(root)
    return kinds


def open_single(root, segment_bytes=None, docs="docs"):
    files = FileStore(root / "files", tmp_grace_s=0.0)
    if segment_bytes is not None:  # a few tiny models then seal several segments
        files._chunks = ChunkStore(
            files.root / "chunks", segment_bytes=segment_bytes, tmp_grace_s=0.0)
    service = ParameterUpdateSaveService(
        DocumentStore(root / docs), files, scratch_dir=root / "scratch")
    return files, service, ModelManager(service)


class TestASingleStore:
    def test_an_open_save_and_a_pending_chain_compaction_finish(self, tmp_path):
        files, service, manager = open_single(tmp_path)
        ids, states = save_pua_chain(service, depth=4, layers=("5.bias", "5.weight"))
        expected = dict(zip(ids, states))
        manager.delete_model(ids[-1])
        manager.garbage_collect()  # an index checkpoint
        del expected[ids[-1]]
        # the artifacts of a chain compaction that died before its commit
        artifacts = {
            "py": files.save_bytes(b"def build(): ...  # a copy", suffix=".py"),
            "manifest": files.save_state_chunks(states[2], state_dict_hashes(states[2])),
        }
        swap = {
            "model_id": ids[2],
            "old_update_file": service.documents.collection("models").get(
                ids[2])["parameters_file"],
            "manifest_file": artifacts["manifest"],
            "code_file": artifacts["py"],
        }
        # a save that died after its files, before its document, and the
        # intents the parent journaled for it
        crashed = copy_state(states[0])
        crashed["5.bias"] += 7.0
        digests = state_dict_hashes(crashed)
        code = files.save_bytes(b"def build(): ...", suffix=".py")
        manifest = files.save_state_chunks(crashed, digests)
        open_save = [
            {"op": "refs", "digests": [code]},
            {"op": "chunk", "digest": digests["5.bias"]},
            {"op": "chunk", "digest": manifest},
            {"op": "refs", "digests": [*digests.values(), manifest]},
        ]
        del files, service, manager

        assert to_parent_format(tmp_path, swaps=[swap], saves=[open_save]) == {
            "catalog", "refcounts.json", "index.json", "chain compaction",
            "save journal"}
        with pytest.raises(OlderFormatError):
            open_single(tmp_path)
        new = imported(tmp_path)
        files, service, manager = open_single(new, docs="documents")
        assert manager.fsck(verify_chunks=True).clean
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        # the open save's files and the uncommitted swap's manifest and
        # code copy are plain orphans, as is the chunk only the save wrote
        for file_id in (code, manifest, swap["manifest_file"], swap["code_file"]):
            assert not files.exists(file_id)
        assert not files.chunks.has(digests["5.bias"])
        assert not (new / "files" / "chain-compaction").exists()
        assert not (new / "files" / "journal").exists()
        assert not (new / "files" / "chunks" / "refcounts.json").exists()
        assert (tmp_path / "files" / "journal").exists()  # the import only read it
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)

    def test_a_pending_segment_compaction_rolls_forward(self, tmp_path):
        """Killed past its rename, the parent's journal says what the
        segments do: each moved record is on disk twice, the copy the index
        names is served, and the next ``gc`` leaves no unnamed segment."""
        files, service, manager = open_single(tmp_path, segment_bytes=2048)
        expected = {}
        for seed in range(1, 7):
            ids, states = save_pua_chain(service, depth=0, seed=seed)
            expected.update(zip(ids, states))
        for model_id in list(expected)[1::2]:
            manager.delete_model(model_id)
            del expected[model_id]
        chunks = files.chunks
        reached = manager._walk().files  # the deleted models' code files go too
        files.delete_many([f for f in files.file_ids() if f not in reached])
        chunks.sweep(files.mark(files.file_ids())[0])  # every sealed segment part dead
        records = {digest: bytes(chunks.get(digest)) for digest in chunks.chunk_ids()}
        with chunks._mutex:
            victims = chunks._compaction_victims_locked()
        before = {path.name for path in chunks.segments_dir.iterdir()}
        tmps_seen = []

        def die_after_the_rename(op):
            tmps_seen.append(bool(list(chunks.segments_dir.glob("*.tmp"))))
            if any(tmps_seen) and not tmps_seen[-1]:
                raise CrashPoint("killed after the destination's rename")

        chunks.fault_hook = die_after_the_rename
        with pytest.raises(CrashPoint):
            chunks.compact()
        after = {path.name for path in chunks.segments_dir.iterdir()}
        [dest] = after - before
        assert victims and set(victims) <= after  # every moved record twice
        del files, service, manager, chunks

        # the parent journaled the compaction before writing its destination
        assert to_parent_format(
            tmp_path, compaction={"victims": victims, "dest": dest}) == {
            "catalog", "refcounts.json", "index.json", "compaction.json"}
        new = imported(tmp_path)
        files, service, manager = open_single(new, segment_bytes=2048, docs="documents")
        chunks = files.chunks
        assert {d: bytes(chunks.get(d)) for d in chunks.chunk_ids()} == records
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        assert manager.fsck(verify_chunks=True).clean
        assert not (new / "files" / "chunks" / "compaction.json").exists()
        chunks.gc()
        on_disk = {path.name for path in chunks.segments_dir.glob(f"*{SEGMENT_SUFFIX}")}
        assert on_disk == {chunks.locate(d)[0].name for d in chunks.chunk_ids()}
        assert {d: bytes(chunks.get(d)) for d in chunks.chunk_ids()} == records
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)


class TestACluster:
    def test_a_pending_rebalance_and_undelivered_hints_finish(self, tmp_path):
        """A 3x2 cluster whose second member missed writes, with the
        parent's hint files for them and a rebalance journal: the import
        deletes both unread, and its fsck puts every missed copy in place."""
        faults = {f"shard-{index}": FaultInjector(seed=1) for index in range(3)}
        stores = SharedStores.cluster_at(
            tmp_path, shards=3, replicas=2, write_quorum=1, member_faults=faults)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        faults["shard-1"].set_down(True)
        ids, states = save_pua_chain(service, depth=2)
        expected = dict(zip(ids, states))
        faults["shard-1"].set_down(False)
        owed = sorted(key for kind, key in stores.files.degraded_keys if kind == "chunk")
        assert owed
        moved = stores.files.members["shard-2"].chunks.chunk_ids()
        for member in stores.files.members.values():
            member.chunks.close()
        del stores, service

        assert to_parent_format(tmp_path, moves=moved, hints={"shard-1": owed}) >= {
            "catalog", "refcounts.json", "hints", "rebalance"}
        new = imported(tmp_path, cluster=True)
        assert not (new / "cluster-meta" / "rebalance").exists()
        assert not (new / "cluster-meta" / "hints").exists()
        stores = SharedStores.cluster_at(new, shards=3, replicas=2)
        assert not stores.files.degraded_keys  # the hint files are not read
        assert all(stores.files.members["shard-1"].chunks.has(key) for key in owed)
        service = ParameterUpdateSaveService(
            stores.documents, stores.files, scratch_dir=stores.scratch_dir)
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        assert ModelManager(service).fsck(verify_chunks=True).clean
