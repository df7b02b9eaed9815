"""Layer probes: the bench calls a layer's public function on the workload's
own inputs and times it.

These are the layers a save spends its time in but the stores' proxies
cannot see, because the service calls them itself: the environment
snapshot, hashing, the Merkle tree, serialization, the chunk store below
``FileStore``, and the client's half of the gateway's wire format.
"""

from __future__ import annotations

import base64
from collections import OrderedDict
from pathlib import Path

from repro.core import MerkleTree, collect_environment, state_dict_hashes
from repro.filestore import FileStore
from repro.gateway.protocol import decode_line, encode_line
from repro.nn import serialization

from harness import median, ms, perf, perturb, state_nbytes

REPEATS = 7
SMOKE_REPEATS = 3


def _time(function, *args) -> tuple[float, object]:
    started = perf()
    result = function(*args)
    return perf() - started, result


def _median_seconds(repeats: int, function, *args) -> float:
    return median(_time(function, *args)[0] for _ in range(repeats))


def environment(repeats: int) -> dict:
    return {"core.environment.collect_ms_p50": ms(
        _median_seconds(repeats, collect_environment))}


def hashing(state: dict, repeats: int) -> dict:
    seconds = _median_seconds(repeats, state_dict_hashes, state)
    return {
        "core.hashing.hash_ms_p50": ms(seconds),
        "core.hashing.mb_s": state_nbytes(state) / 1e6 / seconds,
    }


def merkle(state: dict, changing: list[str], repeats: int) -> dict:
    """Build the tree a save builds; diff it as a derived save does."""
    hashes = state_dict_hashes(state)
    base = MerkleTree.from_layer_hashes(hashes)
    changed = OrderedDict(hashes)
    for key in changing:
        changed[key] = hashes[key][::-1]
    current = MerkleTree.from_layer_hashes(changed)
    return {
        "core.merkle.build_ms_p50": ms(
            _median_seconds(repeats, MerkleTree.from_layer_hashes, hashes)),
        "core.merkle.diff_ms_p50": ms(_median_seconds(repeats, current.diff, base)),
    }


def serialize(state: dict, repeats: int) -> dict:
    megabytes = state_nbytes(state) / 1e6
    payload = serialization.dumps(state)
    return {
        "nn.serialization.dumps_mb_s": megabytes
        / _median_seconds(repeats, serialization.dumps, state),
        "nn.serialization.loads_mb_s": megabytes
        / _median_seconds(repeats, serialization.loads, payload),
    }


def chunks(state: dict, scratch: Path, file_store_options: dict,
           batches: int = 3) -> dict:
    """put / flush / get on a scratch chunk store, the workload's payloads.

    ``batches`` times a fresh version of every float layer; a batch
    ends with the flush a save ends with.  Only puts that wrote are timed:
    a fresh model has many identical layers, and a put that finds its
    digest stored is the dedup path, which ``new_chunk_share`` counts.
    """
    store = FileStore(scratch, **{**file_store_options, "chunk_cache": None}).chunks
    puts, gets, flushes = [], [], []
    trial = {key: array.copy() for key, array in state.items()}
    changing = [key for key, array in trial.items() if array.dtype.kind == "f"]
    for batch in range(batches):
        perturb(trial, changing, 1e-3 * (batch + 1))
        digests = state_dict_hashes(trial)
        for key, array in trial.items():
            buffer = memoryview(array).cast("B") if array.nbytes else b""
            seconds, written = _time(store.put, digests[key], buffer)
            if written:
                puts.append(seconds)
        flushes.append(_time(store.flush)[0])
        for key in trial:
            gets.append(_time(store.get, digests[key])[0])
    return {
        "filestore.chunks.put_ms_p50": ms(median(puts)),
        "filestore.chunks.get_ms_p50": ms(median(gets)),
        "filestore.chunks.flush_ms_p50": ms(median(flushes)),
    }


def wire(state: dict, repeats: int) -> dict:
    """The client's half of one gateway save and one recover, no socket."""
    def encode() -> bytes:
        body = base64.b64encode(serialization.dumps(state)).decode("ascii")
        return encode_line({"id": 1, "op": "save", "tenant": "t", "state_b64": body})

    def decode(line: bytes):
        return serialization.loads(base64.b64decode(decode_line(line)["state_b64"]))

    line = encode()
    return {
        "gateway.client_encode_ms_p50": ms(_median_seconds(repeats, encode)),
        "gateway.client_decode_ms_p50": ms(_median_seconds(repeats, decode, line)),
        "gateway.wire_bytes_per_state_byte": len(line) / state_nbytes(state),
    }


def all_probes(state: dict, changing: list[str], scratch: Path,
               file_store_options: dict, smoke: bool = False) -> dict:
    repeats = SMOKE_REPEATS if smoke else REPEATS
    out = {}
    out.update(environment(repeats))
    out.update(hashing(state, repeats))
    out.update(merkle(state, changing[-2:], repeats))
    out.update(serialize(state, repeats))
    out.update(chunks(state, scratch, file_store_options, 1 if smoke else 3))
    out.update(wire(state, repeats))
    return out
