"""Recovery read-ahead: overlap chunk transfers with recovery work.

A recover resolves its chain to one list of chunk digests before it reads
any of them (DESIGN.md §16), and the file store hands that list to
:meth:`ChainPrefetcher.prefetch` once, just before it reads the first
chunk.  The prefetcher fetches the list as one pipelined batch on a small
worker pool, landing payloads in the file store's shared hot-chunk cache
(:class:`~repro.filestore.store.ChunkCache`), so a serial reader finds the
next layers' chunks already there while it verifies and rebuilds this one.
What is read ahead is exactly what is read: the prefetcher resolves
nothing itself.

Prefetching is strictly an optimization: every fetch error is swallowed
(and counted), because the synchronous recovery path will re-fetch and
surface real failures with its own retry/verify machinery.  The store's
single-flight coalescing ensures a chunk raced by prefetcher and
recovery crosses the link once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

from .. import obs

__all__ = ["ChainPrefetcher"]


class ChainPrefetcher:
    """Background read-ahead of the chunks a recover is about to read.

    ``workers`` bounds concurrent prefetch tasks.  ``retry``
    (a :class:`~repro.retry.RetryPolicy`, typically the one shared with
    the stores) re-attempts a failed fetch before it lands in ``errors``
    — on a flaky link a transient drop would otherwise waste the whole
    read-ahead and leave the synchronous path cold.  Use as a context
    manager, or call :meth:`close` when done — in-flight work is drained
    either way.
    """

    def __init__(self, file_store, workers: int = 2, retry=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.files = file_store
        self.retry = retry
        self._pool = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="mmlib-prefetch"
        )
        self._lock = threading.Lock()
        self._inflight: set = set()
        self._closed = False
        self.chunks_prefetched = 0
        self.errors = 0
        registry = obs.registry()
        self._obs_tracer = obs.tracer()
        self._obs_events = obs.events()
        self._obs_chunks = registry.counter(
            "mmlib_prefetch_chunks_total", "Chunks read ahead")
        self._obs_errors = registry.counter(
            "mmlib_prefetch_errors_total", "Prefetch tasks that failed")

    def usable(self) -> bool:
        """Prefetch pays off only when fetched chunks land somewhere shared.

        Without a hot-chunk cache on the file store, read-ahead would
        fetch payloads just to throw them away (and on a simulated link,
        charge for them twice).
        """
        return (
            getattr(self.files, "chunk_cache", None) is not None
            and hasattr(self.files, "get_chunks")
        )

    # -- scheduling --------------------------------------------------------

    def prefetch(self, digests) -> None:
        """Read ahead one recover's chunks (its plan's digest list)."""
        digests = list(dict.fromkeys(digests))
        if not digests or not self.usable():
            return
        # captured on the submitting thread so the worker-thread span joins
        # the caller's trace tree (the recover_model span, typically)
        parent = self._obs_tracer.current_id()
        with self._lock:
            if self._closed:
                return
            future = self._pool.submit(self._run, parent, digests)
            self._inflight.add(future)
        future.add_done_callback(self._finished)

    def _finished(self, future) -> None:
        with self._lock:
            self._inflight.discard(future)

    def _run(self, parent, digests: list[str]) -> None:
        try:
            with self._obs_tracer.attach(parent):
                with self._obs_tracer.span("prefetch.chain", n=len(digests)):
                    fetch = partial(self.files.get_chunks, digests)
                    if self.retry is not None:
                        # retry transient drops under the shared policy; only a
                        # final failure counts as a lost prefetch
                        self.retry.call(fetch, op="prefetch.fetch")
                    else:
                        fetch()
        except Exception as exc:
            with self._lock:
                self.errors += 1
            self._obs_errors.inc()
            self._obs_events.emit(
                "prefetch_error", n=len(digests), exception=type(exc).__name__)
            return
        with self._lock:
            self.chunks_prefetched += len(digests)
        self._obs_chunks.inc(len(digests))

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Block until every scheduled prefetch has finished."""
        while True:
            with self._lock:
                futures = list(self._inflight)
            if not futures:
                return
            wait(futures)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.drain()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ChainPrefetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return {
                "chunks_prefetched": self.chunks_prefetched,
                "errors": self.errors,
                "inflight": len(self._inflight),
            }
