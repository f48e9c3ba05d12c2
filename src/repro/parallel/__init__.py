"""Parallel execution engine and content-keyed caches.

Two pieces turn the per-file protocol into a collection-scale engine:

* :class:`~repro.parallel.executor.SyncExecutor` fans per-file
  synchronizations out over a process pool with deterministic result
  ordering, size-aware (LPT) chunk scheduling, and a serial fallback
  (``workers=1`` or no pool available).
* :class:`~repro.parallel.cache.HashIndexCache` keys the expensive numpy
  window-hash indexes and prefix-sum buffers by
  ``(file_fingerprint, block_length, hash_table_id)`` so repeated syncs
  of the same data — version chains, benchmark repetitions — skip the
  rebuild entirely.

See DESIGN.md §8 ("Scaling the collection phase") and §11 ("Dispatch
substrate").
"""

from repro.parallel.cache import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_REFERENCE_ENTRIES,
    CacheStats,
    ContentKeyedCache,
    HashIndexCache,
    ReferenceIndexCache,
    default_cache,
    default_reference_cache,
    reset_default_cache,
    reset_default_reference_cache,
)
from repro.parallel.executor import (
    BatchResult,
    FileResult,
    FileTask,
    SyncExecutor,
)

__all__ = [
    "BatchResult",
    "CacheStats",
    "ContentKeyedCache",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_REFERENCE_ENTRIES",
    "FileResult",
    "FileTask",
    "HashIndexCache",
    "ReferenceIndexCache",
    "SyncExecutor",
    "default_cache",
    "default_reference_cache",
    "reset_default_cache",
    "reset_default_reference_cache",
]
