"""ChunkCache byte-accounting under concurrent put/evict/replace.

The cache sits between concurrent recovers (gateway workers serving one
hot model) and the sharded store's read path — all hammering it at once.  These tests drive
it from many threads and then audit the invariant the LRU budget relies
on: ``current_bytes`` equals the sum of the resident payload lengths and
never exceeds ``max_bytes``.
"""

import random
import threading

from repro.filestore.store import ChunkCache

PAYLOADS = {f"digest-{index:03d}": bytes([index % 251]) * (100 + 37 * index)
            for index in range(120)}


def audit(cache: ChunkCache) -> None:
    """The accounting invariant; taken under the cache's own lock."""
    with cache._lock:
        resident = sum(len(data) for data in cache._entries.values())
        assert cache.current_bytes == resident
        assert cache.current_bytes <= cache.max_bytes


def hammer(cache: ChunkCache, seed: int, rounds: int, barrier, failures) -> None:
    rng = random.Random(seed)
    digests = list(PAYLOADS)
    barrier.wait()
    try:
        for _ in range(rounds):
            digest = rng.choice(digests)
            action = rng.random()
            if action < 0.45:
                cache.put(digest, PAYLOADS[digest])
            elif action < 0.80:
                data = cache.get(digest)
                if data is not None:
                    assert data == PAYLOADS[digest]
            elif action < 0.95:
                cache.discard(digest)
            else:
                # replace: discard + put of the same digest back to back
                cache.discard(digest)
                cache.put(digest, PAYLOADS[digest])
    except BaseException as exc:  # pragma: no cover - only on invariant breach
        failures.append(exc)
        raise


def run_threads(cache: ChunkCache, threads: int = 8, rounds: int = 400) -> None:
    barrier = threading.Barrier(threads)
    failures: list[BaseException] = []
    workers = [
        threading.Thread(target=hammer, args=(cache, seed, rounds, barrier, failures))
        for seed in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not failures


class TestConcurrentByteAccounting:
    def test_large_budget_no_eviction_pressure(self):
        cache = ChunkCache(max_bytes=1 << 24)
        run_threads(cache)
        audit(cache)

    def test_tight_budget_constant_eviction(self):
        # budget fits only a handful of payloads: every put evicts
        cache = ChunkCache(max_bytes=10_000)
        run_threads(cache)
        audit(cache)
        assert cache.evictions > 0

    def test_concurrent_clear_while_hammering(self):
        cache = ChunkCache(max_bytes=1 << 20)
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                cache.clear()
                audit(cache)

        cleaner = threading.Thread(target=clearer)
        cleaner.start()
        try:
            run_threads(cache, threads=6, rounds=300)
        finally:
            stop.set()
            cleaner.join()
        audit(cache)

    def test_oversized_payload_is_rejected_without_accounting_drift(self):
        cache = ChunkCache(max_bytes=64)
        cache.put("big", b"x" * 65)
        assert "big" not in cache
        audit(cache)
        cache.put("fits", b"x" * 64)
        assert "fits" in cache
        audit(cache)

    def test_final_state_is_a_consistent_lru(self):
        cache = ChunkCache(max_bytes=50_000)
        run_threads(cache, threads=4, rounds=500)
        audit(cache)
        stats = cache.stats()
        assert stats["bytes"] == cache.current_bytes
        assert stats["entries"] == len(cache)
