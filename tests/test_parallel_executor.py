"""Tests for the parallel sync executor and the hash-index cache."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.bench import OursMethod
from repro.collection import sync_collection
from repro.hashing import DecomposableAdler, HashIndex, PrefixHasher
from repro.parallel import (
    FileTask,
    HashIndexCache,
    SyncExecutor,
    default_cache,
    reset_default_cache,
)
from repro.syncmethod import MethodOutcome, SyncMethod
from repro.workloads import gcc_like

from tests.test_faults_collection import _DoomedMethod
from tests.test_parallel_sync import _assert_reports_identical


class _CountingMethod(SyncMethod):
    """Deterministic toy method: total_bytes = len(new)."""

    name = "counting"

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return MethodOutcome(
            total_bytes=len(new),
            server_to_client=len(new),
            breakdown={"s2c/full": len(new)},
        )


class _UnpicklableMethod(SyncMethod):
    name = "unpicklable"

    def __init__(self) -> None:
        self._closure = lambda: None  # defeats pickling

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        return MethodOutcome(total_bytes=len(new))


def _tasks(count: int) -> list[FileTask]:
    return [
        FileTask(f"f{i:03d}", b"old" * i, bytes([i % 251]) * (10 + i))
        for i in range(count)
    ]


class TestSyncExecutor:
    def test_serial_preserves_order(self):
        batch = SyncExecutor(workers=1).run(_CountingMethod(), _tasks(9))
        assert [r.name for r in batch.files] == [f"f{i:03d}" for i in range(9)]
        assert batch.workers_used == 1

    def test_parallel_matches_serial(self):
        tasks = _tasks(13)
        serial = SyncExecutor(workers=1).run(_CountingMethod(), tasks)
        parallel = SyncExecutor(workers=2, chunk_size=3).run(
            _CountingMethod(), tasks
        )
        assert [r.name for r in parallel.files] == [r.name for r in serial.files]
        assert [r.outcome.total_bytes for r in parallel.files] == [
            r.outcome.total_bytes for r in serial.files
        ]
        assert parallel.workers_used == 2

    def test_single_task_stays_serial(self):
        batch = SyncExecutor(workers=4).run(_CountingMethod(), _tasks(1))
        assert batch.workers_used == 1

    def test_unpicklable_method_falls_back_to_serial(self):
        batch = SyncExecutor(workers=2).run(_UnpicklableMethod(), _tasks(5))
        assert batch.workers_used == 1
        assert [r.name for r in batch.files] == [f"f{i:03d}" for i in range(5)]

    def test_empty_task_list(self):
        batch = SyncExecutor(workers=2).run(_CountingMethod(), [])
        assert batch.files == []
        assert batch.cpu_seconds == 0.0

    def test_workers_none_uses_cpu_count(self):
        assert SyncExecutor(workers=None).workers == (os.cpu_count() or 1)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SyncExecutor(workers=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            SyncExecutor(workers=2, chunk_size=0)

    def test_per_file_timing_recorded(self):
        batch = SyncExecutor(workers=1).run(_CountingMethod(), _tasks(3))
        assert all(r.elapsed_seconds >= 0.0 for r in batch.files)
        assert all(r.cpu_seconds >= 0.0 for r in batch.files)


class _SigkilledOutsideParent(SyncMethod):
    """SIGKILLs any process other than the one that built it: a worker
    lost mid-chunk, which a serial retry in the parent cures."""

    name = "sigkilled-outside-parent"
    supports_pickle = True

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        if os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return MethodOutcome(total_bytes=len(new), server_to_client=len(new))


class TestErrorHandlingParity:
    """The pool reports exactly what the serial path reports."""

    files_old = {
        "good.txt": b"old-good " * 50,
        "bad.txt": b"POISON old " * 50,
        "also.txt": b"more old " * 50,
    }
    files_new = {
        "good.txt": b"new-good " * 50,
        "bad.txt": b"POISON new " * 50,
        "also.txt": b"more new " * 50,
    }

    @pytest.mark.parametrize("on_error", ["skip", "fallback"])
    def test_capture_errors_parity(self, on_error):
        serial, pool = (
            sync_collection(
                self.files_old,
                self.files_new,
                _DoomedMethod("POISON"),
                workers=workers,
                on_error=on_error,
            )
            for workers in (1, 2)
        )
        assert pool.workers == 2
        _assert_reports_identical(serial, pool)
        assert serial.failed == pool.failed
        assert serial.fallbacks == pool.fallbacks

    def test_fault_injection_parity(self):
        """Under injected channel faults two pool runs (same workers, same
        chunking, hence identical per-worker fault-plan streams) produce
        identical reports, whatever order the workers finish in, and both
        reconstruct the target.  The serial run is *not* compared
        byte-for-byte: the fault plan is one RNG stream advanced in file
        order, so partitioning files across workers legitimately realises
        different faults than the serial order does."""
        from repro.net import FaultPlan
        from repro.resilience import SyncSupervisor

        tree = gcc_like(scale=0.05, seed=42)

        def run():
            return sync_collection(
                tree.old,
                tree.new,
                SyncSupervisor(
                    OursMethod(), fault_plan=FaultPlan.uniform(0.1, seed=7)
                ),
                on_error="fallback",
                workers=2,
            )

        first, second = run(), run()
        _assert_reports_identical(first, second)
        assert first.reconstructed == tree.new


class TestCrashIsolation:
    def test_sigkilled_worker_retried(self):
        """A worker SIGKILLed mid-chunk loses nothing: the parent retries
        the lost chunks from its own payload bytes, and the batch equals
        the serial one."""
        tasks = [
            FileTask(f"f{index}", b"old " * 64, f"new-{index} ".encode() * 64)
            for index in range(8)
        ]
        serial = SyncExecutor(workers=1).run(_SigkilledOutsideParent(), tasks)
        batch = SyncExecutor(workers=2, chunk_size=2).run(
            _SigkilledOutsideParent(), tasks
        )
        assert batch.chunk_retries >= 1
        assert [result.name for result in batch.files] == [
            task.name for task in tasks
        ]
        assert all(result.error is None for result in batch.files)
        assert [result.outcome for result in batch.files] == [
            result.outcome for result in serial.files
        ]


HASHER = DecomposableAdler(seed=5)


class TestHashIndexCache:
    def test_prefix_sums_hit_on_same_content(self):
        cache = HashIndexCache()
        data = b"the same bytes" * 50
        first = cache.prefix_sums(data, HASHER)
        second = cache.prefix_sums(bytes(data), HASHER)  # distinct object
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_content_misses(self):
        cache = HashIndexCache()
        cache.prefix_sums(b"aaaa", HASHER)
        cache.prefix_sums(b"bbbb", HASHER)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_distinct_hashers_do_not_alias(self):
        cache = HashIndexCache()
        data = b"shared content" * 20
        first = cache.prefix_sums(data, DecomposableAdler(seed=1))
        second = cache.prefix_sums(data, DecomposableAdler(seed=2))
        assert first is not second
        assert cache.stats.misses == 2

    def test_hash_index_matches_direct_build(self):
        cache = HashIndexCache()
        data = b"abcdefgh" * 64
        cached = cache.hash_index(data, 16, HASHER)
        direct = HashIndex(data, 16, HASHER)
        assert cached.position_count == direct.position_count
        for position in range(0, cached.position_count, 37):
            assert cached.full_hash_at(position) == direct.full_hash_at(position)
        value = direct.packed_hash_at(5, 12)
        assert cached.lookup(value, 12) == direct.lookup(value, 12)

    def test_hash_index_reuses_prefix_sums(self):
        cache = HashIndexCache()
        data = b"xyz" * 300
        cache.prefix_sums(data, HASHER)
        assert cache.stats.misses == 1
        cache.hash_index(data, 8, HASHER)
        # index miss, but its prefix-sum dependency is a hit
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = HashIndexCache(max_entries=2)
        cache.prefix_sums(b"one", HASHER)
        cache.prefix_sums(b"two", HASHER)
        cache.prefix_sums(b"three", HASHER)  # evicts "one"
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.prefix_sums(b"one", HASHER)  # rebuilt: a miss
        assert cache.stats.misses == 4

    def test_clear_and_reset(self):
        cache = HashIndexCache()
        cache.prefix_sums(b"data", HASHER)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1  # counters survive clear()
        cache.reset_stats()
        assert cache.stats.lookups == 0

    def test_snapshot_keys_stable(self):
        stats = HashIndexCache().stats
        assert list(stats.snapshot()) == [
            "evicted_bytes",
            "evictions",
            "hits",
            "misses",
        ]

    def test_default_cache_is_replaceable(self):
        original = default_cache()
        try:
            replacement = reset_default_cache(max_entries=4)
            assert default_cache() is replacement
            assert replacement.max_entries == 4
        finally:
            # restore a fresh default-sized cache for other tests
            reset_default_cache()
        assert default_cache() is not original


class TestPrefixSumSharing:
    def test_prefix_hasher_accepts_cached_sums(self):
        from repro.hashing import prefix_sums

        data = b"shared buffer" * 40
        sums = prefix_sums(data, HASHER)
        shared = PrefixHasher(data, HASHER, sums=sums)
        fresh = PrefixHasher(data, HASHER)
        for start, length in ((0, 8), (17, 64), (len(data) - 5, 5)):
            assert shared.block_pair(start, length) == fresh.block_pair(
                start, length
            )

    def test_mismatched_sums_rejected(self):
        from repro.hashing import prefix_sums

        sums = prefix_sums(b"short", HASHER)
        with pytest.raises(ValueError):
            PrefixHasher(b"rather longer data", HASHER, sums=sums)

    def test_window_hashes_from_sums_identical(self):
        from repro.hashing import prefix_sums, window_hashes, window_hashes_from_sums

        data = bytes(range(256)) * 8
        sums = prefix_sums(data, HASHER)
        for length in (1, 7, 64, 512):
            np.testing.assert_array_equal(
                window_hashes_from_sums(sums, length),
                window_hashes(data, length, HASHER),
            )
