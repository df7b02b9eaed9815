"""Per-layer metrics of a traced run, derived from its spans and counters.

A metric whose layer the workload does not run reads 0: the contract wants
every name from every workload, and the README's table says which apply.
"""

from __future__ import annotations

from repro import obs

import breakdown
from harness import median, ms, percentile

#: metric -> span whose median duration it is
SPAN_MEDIANS = {
    "core.manager.get_ms_p50": "core.manager.get",
    "core.manager.find_ms_p50": "core.manager.find_by_use_case",
    "core.manager.lineage_ms_p50": "core.manager.lineage",
    "core.manager.delete_ms_p50": "core.manager.delete_model",
    "core.manager.gc_ms_p50": "core.manager.garbage_collect",
    "core.compaction.compact_ms_p50": "core.compaction.compact",
    "filestore.save_chunks_ms_p50": "filestore.save_state_chunks",
    "filestore.recover_chunks_ms_p50": "filestore.recover_state_chunks",
    "filestore.save_bytes_ms_p50": "filestore.save_bytes",
    "filestore.recover_bytes_ms_p50": "filestore.recover_bytes",
    "docstore.insert_ms_p50": "docstore.insert_one",
    "docstore.get_ms_p50": "docstore.get",
    "docstore.find_ms_p50": "docstore.find",
    "docstore.replace_ms_p50": "docstore.replace_one",
    "cluster.files.save_chunks_ms_p50": "cluster.files.save_state_chunks",
    "cluster.files.recover_chunks_ms_p50": "cluster.files.recover_state_chunks",
    "cluster.docs.insert_ms_p50": "cluster.docs.insert_one",
    "cluster.docs.get_ms_p50": "cluster.docs.get",
}

JOURNAL_CALLS = ("begin_journal", "journal_active", "journal_record",
                 "commit_journal")
FILE_LAYERS = ("filestore.", "cluster.files.")
DOCUMENT_LAYERS = ("docstore.", "cluster.docs.")

CHUNK_COUNTERS = {
    "logical": "mmlib_chunks_logical_bytes_total",
    "dedup": "mmlib_chunks_dedup_bytes_total",
}


def chunk_counters() -> dict:
    registry = obs.registry()
    return {key: registry.value(name) for key, name in CHUNK_COUNTERS.items()}


def client_metrics(durations: dict) -> dict:
    """The driver's view: tails and sample counts, context for ``ops_s``."""
    everything = [value for values in durations.values() for value in values]
    return {
        "client.tts_ms_p95": ms(percentile(durations.get("save", []), 95)),
        "client.ttr_ms_p95": ms(percentile(durations.get("recover", []), 95)),
        "client.query_ms_p95": ms(percentile(durations.get("query", []), 95)),
        "client.max_op_ms": ms(max(everything, default=0.0)),
        "client.samples_save": len(durations.get("save", [])),
        "client.samples_recover": len(durations.get("recover", [])),
    }


def span_metrics(records: list[dict], saves: int) -> dict:
    """Medians by span name and the per-save call counts, timed phase only."""
    own = breakdown.self_times(records)
    by_name: dict[str, list[float]] = {}
    save_self: list[float] = []
    journal_seconds = 0.0
    file_calls = document_calls = 0
    save_ops = {r["op"] for r in records if r["timed"] and r["name"] == "client.save"}
    for record, self_seconds in zip(records, own):
        if not record["timed"]:
            continue
        name, seconds = record["name"], record["end"] - record["start"]
        by_name.setdefault(name, []).append(seconds)
        if name == "core.service.save_model":
            save_self.append(self_seconds)
        if record["op"] in save_ops:
            if name.startswith(FILE_LAYERS):
                file_calls += 1
                if name.rsplit(".", 1)[1] in JOURNAL_CALLS:
                    journal_seconds += seconds
            elif name.startswith(DOCUMENT_LAYERS):
                document_calls += 1
    out = {metric: ms(median(by_name.get(span, [])))
           for metric, span in SPAN_MEDIANS.items()}
    out["core.service.save_self_ms_p50"] = ms(median(save_self))
    per_save = 1.0 / saves if saves else 0.0
    out["filestore.journal_ms_per_save"] = ms(journal_seconds) * per_save
    out["filestore.calls_per_save"] = file_calls * per_save
    out["docstore.calls_per_save"] = document_calls * per_save
    return out


def recover_metrics(timings: list[dict], depths: list[int]) -> dict:
    """The paper's Fig. 12 split, from ``RecoveredModelInfo.timings``."""
    return {
        "core.service.recover_load_ms_p50": ms(median(t["load"] for t in timings)),
        "core.service.recover_rebuild_ms_p50": ms(
            median(t["recover"] for t in timings)),
        "core.service.recover_check_hash_ms_p50": ms(
            median(t["check_hash"] for t in timings)),
        "core.service.recovery_depth_p50": median(depths),
        "core.service.recovery_depth_max": max(depths, default=0),
    }


def chunk_metrics(offered: float, deduped: float, cache_stats: dict) -> dict:
    """Useful work ÷ attempts of the chunk store, and the chunk cache's counts."""
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    return {
        "filestore.chunks.new_chunk_share": 1 - deduped / offered if offered else 0.0,
        "filestore.cache.hit_ratio": cache_stats.get("hits", 0) / lookups if lookups else 0.0,
        "filestore.cache.evictions": cache_stats.get("evictions", 0),
    }


def document_metrics(documents) -> dict:
    return {
        "docstore.storage_bytes": documents.storage_bytes(),
        "docstore.docs": sum(
            documents.collection(name).count()
            for name in documents.collection_names()
        ),
    }
