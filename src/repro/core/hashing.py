"""Hashing of tensors and state dicts.

The paper generates checksums "by hashing the tensor objects" (Section 3.1)
and, for the PUA, keeps one hash per layer so that changed layers can be
identified without recovering the base model's parameters (Section 3.2).

A *layer* is a state-dict entry; hashes cover dtype + shape + raw bytes so
that two tensors hash equal iff they are bitwise identical arrays of the
same type and shape.

Hot-path properties (the per-save hashing cost dominates BA/PUA
time-to-save, paper §4.3):

* :func:`tensor_hash` feeds SHA-256 straight from the array's buffer via
  ``memoryview`` — already-contiguous arrays are hashed without the full
  ``tobytes()`` copy;
* :func:`state_dict_hashes` hashes layers on a thread pool when there are
  enough payload bytes to amortize it — ``hashlib`` releases the GIL for
  large buffers, so SHA-256 over layers runs genuinely in parallel.  The
  layer list is cut into at most ``_MAX_WORKERS`` contiguous runs of about
  equal bytes, one task each, and the first run is hashed by the caller:
  a call costs at most ``_MAX_WORKERS - 1`` submissions however many
  layers the model has (one task per layer cost more than SHA-256 itself
  on a 932-layer ResNet-152).

Digests are identical to the sequential single-buffer implementation.
"""

from __future__ import annotations

import hashlib
import os
from bisect import bisect_left
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

import numpy as np

__all__ = ["tensor_hash", "state_dict_hashes", "combine_hashes", "state_dict_root_hash"]

#: Below this many total payload bytes a thread pool costs more than it buys.
_PARALLEL_THRESHOLD_BYTES = 1 << 20

_MAX_WORKERS = min(8, os.cpu_count() or 1)
_EXECUTOR: ThreadPoolExecutor | None = None


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = ThreadPoolExecutor(
            max_workers=_MAX_WORKERS, thread_name_prefix="repro-hash"
        )
    return _EXECUTOR


def _reset_executor() -> None:
    global _EXECUTOR
    _EXECUTOR = None


if hasattr(os, "register_at_fork"):
    # a forked child inherits a dead pool; recreate it lazily there
    os.register_at_fork(after_in_child=_reset_executor)


def tensor_hash(array: np.ndarray) -> str:
    """SHA-256 hex digest of one tensor (dtype, shape, and contents)."""
    # ``ascontiguousarray`` (ndmin=1) is a no-op for contiguous ndim>=1
    # arrays; keeping it preserves historical digests (0-d arrays hash with
    # shape ``(1,)``) while letting the contiguous case stay zero-copy.
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(str(array.shape).encode())
    if array.nbytes:  # cast() rejects views with zeros in shape
        digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


def _hash_run(arrays: list) -> list[str]:
    return [tensor_hash(array) for array in arrays]


def _byte_balanced_runs(sizes: list[int], parts: int) -> list[tuple[int, int]]:
    """Cut ``range(len(sizes))`` into at most ``parts`` contiguous, non-empty
    ``(start, stop)`` runs of about equal total size."""
    cumulative = []
    total = 0
    for size in sizes:
        total += size
        cumulative.append(total)
    cuts = {bisect_left(cumulative, total * k / parts) + 1 for k in range(1, parts)}
    bounds = [0, *sorted(cut for cut in cuts if cut < len(sizes)), len(sizes)]
    return list(zip(bounds, bounds[1:]))


def state_dict_hashes(state_dict: Mapping[str, np.ndarray]) -> "OrderedDict[str, str]":
    """Per-layer hashes for a state dict, preserving layer order."""
    names = list(state_dict)
    arrays = list(state_dict.values())
    sizes = [
        array.nbytes if isinstance(array, np.ndarray) else 0 for array in arrays
    ]
    if (
        len(arrays) > 1
        and _MAX_WORKERS > 1
        and sum(sizes) >= _PARALLEL_THRESHOLD_BYTES
    ):
        (_, first_stop), *rest = _byte_balanced_runs(sizes, _MAX_WORKERS)
        futures = [
            _executor().submit(_hash_run, arrays[start:stop]) for start, stop in rest
        ]
        digests = _hash_run(arrays[:first_stop])
        for future in futures:
            digests.extend(future.result())
    else:
        digests = _hash_run(arrays)
    return OrderedDict(zip(names, digests))


def combine_hashes(left: str, right: str) -> str:
    """Parent hash of two child hashes (Merkle inner-node rule)."""
    return hashlib.sha256((left + right).encode()).hexdigest()


def state_dict_root_hash(state_dict: Mapping[str, np.ndarray]) -> str:
    """Single hash covering the whole model's parameters.

    Computed through the same Merkle construction the PUA uses, so a root
    stored at save time can later be compared against a recovered model.
    """
    from .merkle import root_of

    return root_of(list(state_dict_hashes(state_dict).values()))
