"""Stores whose logs the parent release wrote open and recover bitwise.

The parent wrote every log in a format of its own: JSON lines (catalog
collections, the refcount log, hint files, rebalance journals, one file
per save under ``journal/``) or one JSON document (``index.json``,
``compaction.json``, the indented ``chain-compaction/*.json``).
:func:`to_parent_format` rewrites every log under a root that way, and
writes the chain-compaction intents the parent kept beside a swap (this
release commits a swap by its document alone and writes none).  Each
store here is caught mid-crash first — an open save, a pending chain
compaction, a pending segment compaction, a pending rebalance, undelivered
hints — so the parent-format files are exactly what a crashed parent left.
Opened by this release, with no migration step, fsck finishes what the
crash left and every model recovers bitwise.
"""

import json

import pytest

from repro.cluster import ClusterRebalancer, HintDeliverer, HintLog, ShardedFileStore
from repro.core import ModelManager, ParameterUpdateSaveService
from repro.core.compaction import ChainCompactor
from repro.core.hashing import state_dict_hashes
from repro.docstore import DocumentStore
from repro.faults import CrashPoint, FaultInjector
from repro.filestore import ChunkStore, FileStore
from repro.filestore.recordlog import RECORD_MAGIC, RecordLog
from tests.core.test_recovery_plan import assert_recovers, copy_state, save_pua_chain


def records_of(path) -> list:
    log = RecordLog(path)
    records = log.replay()
    log.close()
    return records


def json_lines(records, **dumps) -> str:
    return "".join(json.dumps(record, **dumps) + "\n" for record in records)


def to_parent_format(root, swaps=()) -> set[str]:
    """Rewrite every framed log under ``root`` as the parent wrote it, and
    write each of ``swaps`` (a pending chain compaction: ``model_id``,
    ``old_update_file``, ``manifest_file``, ``code_file``) as the parent's
    intent under ``root / "files"``; returns the kinds of log written."""
    kinds = set()
    for swap in swaps:
        intents = root / "files" / "chain-compaction"
        intents.mkdir(exist_ok=True)
        (intents / f"{swap['model_id']}.json").write_text(json.dumps(swap, indent=0))
        kinds.add("chain compaction")
    for path in sorted(root.rglob("*")):
        if (not path.is_file() or path.suffix == ".seg"
                or path.read_bytes()[:4] != RECORD_MAGIC):
            continue
        records = records_of(path)
        if path.name.startswith("intents-"):
            kind = "save journal"
            saves: dict[str, list] = {}
            for record in records:
                saves.setdefault(record["save"], []).extend(record["entries"])
            for save_id, entries in saves.items():
                if not any(entry["op"] in ("commit", "discard") for entry in entries):
                    (path.parent / f"{save_id}.jsonl").write_text(
                        json_lines(entries, sort_keys=True))
            path.unlink()
            kinds.add(kind)
            continue
        if path.name in ("index.json", "compaction.json"):
            kind, text = path.name, json.dumps(records[-1], sort_keys=True)
        elif path.name == "refcounts.json":
            kind, text = path.name, "\n".join(
                json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
        elif path.parent.name == "hints":
            pending = {}
            for record in records:  # the parent kept pending hints only
                key = (record["kind"], record["key"], record.get("collection"))
                if record["op"] == "hint":
                    pending.setdefault(key, record)
                else:
                    pending.pop(key, None)
            kind, text = "hints", json_lines(pending.values(), sort_keys=True)
        elif path.parent.name == "rebalance":
            kind, text = "rebalance", json_lines(records)
        else:
            kind, text = "catalog", json_lines(records, sort_keys=True)
        path.write_text(text)
        kinds.add(kind)
    return kinds


def open_single(root):
    files = FileStore(root / "files", tmp_grace_s=0.0)
    service = ParameterUpdateSaveService(
        DocumentStore(root / "docs"), files, scratch_dir=root / "scratch")
    return files, service, ModelManager(service)


class TestASingleStore:
    def test_an_open_save_and_a_pending_chain_compaction_finish(self, tmp_path):
        files, service, manager = open_single(tmp_path)
        ids, states = save_pua_chain(service, depth=4, layers=("5.bias", "5.weight"))
        expected = dict(zip(ids, states))
        manager.delete_model(ids[-1])  # a fold and an index checkpoint
        del expected[ids[-1]]
        compactor, faults = ChainCompactor(service, max_depth=2), FaultInjector(seed=0)
        compactor.fault_hook = faults.fail_point
        faults.arm_crash(1, op="compact.commit")  # artifacts written, not committed
        before = set(files.file_ids())
        with pytest.raises(CrashPoint):
            compactor.run()
        artifacts = {f.rpartition(".")[2]: f for f in set(files.file_ids()) - before}
        swap = {
            "model_id": ids[2],
            "old_update_file": service.documents.collection("models").get(
                ids[2])["update_file"],
            "manifest_file": artifacts["manifest"],
            "code_file": artifacts["py"],
        }
        # a save that died after its files, before its document
        files.begin_journal()
        crashed = copy_state(states[0])
        crashed["5.bias"] += 7.0
        files.save_bytes(b"def build(): ...", suffix=".py")
        files.save_state_chunks(crashed, state_dict_hashes(crashed))
        files.abandon_journal()
        del files, service, manager

        assert to_parent_format(tmp_path, swaps=[swap]) == {
            "catalog", "refcounts.json", "index.json", "chain compaction",
            "save journal"}
        files, service, manager = open_single(tmp_path)
        assert len(files.incomplete_journals()) == 1
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        report = manager.fsck(verify_chunks=True)
        assert not report.unrepaired, report.summary()
        kinds = {issue.kind for issue in report.repaired}
        # the uncommitted swap's manifest and code copy are plain orphans
        assert {"incomplete_save", "orphan_file", "refcount_mismatch"} <= kinds
        assert not files.exists(swap["manifest_file"])
        assert not files.exists(swap["code_file"])
        assert not (tmp_path / "files" / "chain-compaction").exists()
        assert manager.fsck(verify_chunks=True).clean
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        assert sorted(p.name for p in files.journal_dir.iterdir()) == []

    def test_a_pending_segment_compaction_rolls_forward(self, tmp_path):
        store = ChunkStore(tmp_path / "c", segment_bytes=2048, tmp_grace_s=0.0)
        payloads = {f"{i:08d}" + "ab" * 12: bytes([i]) * 300 for i in range(24)}
        for digest, payload in payloads.items():
            store.put(digest, payload)
        store.flush()
        store.add_refs(payloads)
        gone = [digest for index, digest in enumerate(sorted(payloads)) if index % 3]
        store.release_refs(gone)
        for digest in gone:
            del payloads[digest]
        tmps_seen = []

        def die_after_the_rename(op):
            tmps_seen.append(bool(list(store.segments_dir.glob("*.tmp"))))
            if any(tmps_seen) and not tmps_seen[-1]:
                raise CrashPoint("killed after the destination's rename")

        store.fault_hook = die_after_the_rename
        with pytest.raises(CrashPoint):
            store.compact()
        assert store._compaction_path.exists()
        segments = {path.name for path in store.segments_dir.iterdir()}
        del store

        assert to_parent_format(tmp_path) == {
            "refcounts.json", "index.json", "compaction.json"}
        store = ChunkStore(tmp_path / "c", segment_bytes=2048, tmp_grace_s=0.0)
        assert not store._compaction_path.exists()
        left = {path.name for path in store.segments_dir.iterdir()}
        assert left < segments  # rolled forward: the victims are gone
        assert {d: bytes(store.get(d)) for d in store.chunk_ids()} == payloads
        assert store.export_refs() == {digest: 1 for digest in payloads}
        audit = store.audit(verify=True)
        assert audit["crc_failures"] == [] and audit["entries_dropped"] == []


class TestACluster:
    def test_a_pending_rebalance_and_undelivered_hints_finish(self, tmp_path):
        def open_cluster(names):
            faults = {name: FaultInjector(seed=1) for name in names}
            members = {name: FileStore(tmp_path / name, faults=faults[name])
                       for name in names}
            hints = HintLog(tmp_path / "hints")
            store = ShardedFileStore(
                tmp_path / "meta", members, replicas=2, write_quorum=1, hint_log=hints)
            service = ParameterUpdateSaveService(
                DocumentStore(tmp_path / "docs"), store, scratch_dir=tmp_path / "s")
            return store, service, faults, hints

        store, service, faults, hints = open_cluster(["m0", "m1", "m2"])
        faults["m1"].set_down(True)
        ids, states = save_pua_chain(service, depth=2)
        expected = dict(zip(ids, states))
        faults["m1"].set_down(False)
        assert hints.total_pending() > 0
        rebalancer = ClusterRebalancer(store, workers=1)
        original, failed = rebalancer._move_chunk, []

        def flaky_move(digest, new_owners):
            if not failed:
                failed.append(digest)
                raise OSError("the rebalancer died mid-stream")
            return original(digest, new_owners)

        rebalancer._move_chunk = flaky_move
        moved = rebalancer.add_member("m3", FileStore(tmp_path / "m3"))
        assert moved["failed"] == 1 and moved["chunks_moved"] > 0
        del store, service, rebalancer

        assert to_parent_format(tmp_path) >= {
            "catalog", "refcounts.json", "hints", "rebalance"}
        store, service, faults, hints = open_cluster(["m0", "m1", "m2", "m3"])
        assert hints.total_pending() > 0
        resumed = ClusterRebalancer(store, workers=1).resume(moved["journal_id"])
        assert resumed["failed"] == 0 and resumed["resumed_skips"] > 0
        assert HintDeliverer(hints, None, store.hint_appliers()).drain() is True
        assert not (tmp_path / "meta" / "rebalance" / f"{moved['journal_id']}.jsonl").exists()
        for model_id, state in expected.items():
            assert_recovers(service, model_id, state)
        manager = ModelManager(service)
        report = manager.fsck(verify_chunks=True)
        assert not report.unrepaired, report.summary()
        assert manager.fsck(verify_chunks=True).clean
