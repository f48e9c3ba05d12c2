"""Process-local LRU caches of hash indexes, prefix sums, and seed indexes.

Every :class:`~repro.core.client.ClientSession` (and server session) used
to rebuild its numpy window-hash indexes and prefix sums from scratch,
even when synchronizing the same bytes again — the common case for
version-chained syncs and benchmark repetitions over a large replicated
collection.  These caches key the expensive arrays by *content*, so any
session observing the same data under the same hash function reuses them:

* prefix-sum buffers are keyed by ``(file_fingerprint, hash_table_id)``;
* :class:`~repro.hashing.scan.HashIndex` arrays additionally carry the
  window ``block_length``;
* delta :class:`~repro.delta.matcher.ReferenceMatcher` seed indexes (all
  reference window hashes, sorted with their positions) are keyed by
  ``(file_fingerprint, seed_length)`` in a separate
  :class:`ReferenceIndexCache`, so multi-round syncs and repeated
  references skip the index rebuild entirely.

``hash_table_id`` is the (seed, substitution-table) identity of the
:class:`~repro.hashing.decomposable.DecomposableAdler` in use, so the
retry-with-a-fresh-seed path can never alias entries.  Because keys are
content fingerprints, a hit is always byte-identical to a rebuild — the
caches change wall-clock, never wire traffic.

Both caches are process-local: each worker of the parallel
:class:`~repro.parallel.executor.SyncExecutor` owns one pair (seeded by
fork from the parent's), and hit/miss counters are folded back into the
parent's accounting alongside the transfer statistics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.hashing.decomposable import DecomposableAdler
from repro.hashing.scan import (
    HashIndex,
    PrefixSums,
    prefix_sums,
    window_hashes_from_sums,
)
from repro.hashing.strong import file_fingerprint

#: Default number of cached entries (prefix-sum pairs + hash indexes).
DEFAULT_MAX_ENTRIES = 256

#: Default entry count for the reference-index cache.  Each entry holds
#: the reference bytes plus ~12 bytes of index per position, so the
#: budget is deliberately tighter than the hash-index cache's.
DEFAULT_REFERENCE_ENTRIES = 128


@dataclass
class CacheStats:
    """Hit/miss accounting, mirroring ``TransferStats``-style breakdowns."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict[str, int]:
        """Counter view for reports, in stable key order."""
        return {
            "evicted_bytes": self.evicted_bytes,
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
        }


class ContentKeyedCache:
    """Thread-safe LRU core shared by the content-keyed caches.

    Entries are immutable-by-convention numpy-backed objects, so they
    can be shared freely between sessions.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.current_bytes = 0
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._sizes: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Entry sizing (for the optional byte budget)
    # ------------------------------------------------------------------
    @staticmethod
    def _entry_bytes(entry: object) -> int:
        """Best-effort resident size of one entry.

        numpy-backed objects advertise ``nbytes``; raw payloads are
        bytes-like; containers sum their parts.  Anything opaque counts
        as zero — the entry-count limit still bounds those.
        """
        nbytes = getattr(entry, "nbytes", None)
        if isinstance(nbytes, int):
            return nbytes
        if isinstance(entry, (bytes, bytearray, memoryview)):
            return len(entry)
        if isinstance(entry, (tuple, list)):
            return sum(ContentKeyedCache._entry_bytes(item) for item in entry)
        return 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _get_or_build(self, key: tuple, build) -> object:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        # Build outside the lock: misses on distinct keys proceed in
        # parallel, and a racing duplicate build is merely redundant work.
        entry = build()
        size = self._entry_bytes(entry)
        with self._lock:
            if key not in self._entries:
                self.current_bytes += size
                self._sizes[key] = size
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._evict_over_budget()
        return entry

    def _evict_over_budget(self) -> None:
        """Drop LRU entries past either budget (caller holds the lock).

        The just-inserted (MRU) entry is never evicted: an oversized
        single entry would otherwise thrash forever without a hit.
        """
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_entries
            or (
                self.max_bytes is not None
                and self.current_bytes > self.max_bytes
            )
        ):
            key, _entry = self._entries.popitem(last=False)
            size = self._sizes.pop(key, 0)
            self.current_bytes -= size
            self.stats.evictions += 1
            self.stats.evicted_bytes += size

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def ensure_capacity(self, min_entries: int) -> None:
        """Grow ``max_entries`` to at least ``min_entries`` (never shrink).

        The parallel executor pre-sizes each worker's cache for the batch
        it is about to process, so a large collection cannot evict-thrash
        its own entries mid-run.
        """
        with self._lock:
            if min_entries > self.max_entries:
                self.max_entries = min_entries

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.current_bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


class HashIndexCache(ContentKeyedCache):
    """LRU cache of :class:`PrefixSums` buffers and :class:`HashIndex` arrays.

    A ``HashIndex`` miss first consults the prefix-sum entry for the same
    data, so indexing a file at several window lengths pays the
    byte-substitution cumsum only once.
    """

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    @staticmethod
    def _table_id(hasher: DecomposableAdler) -> tuple:
        # The table tuple itself participates in the key: exact identity,
        # no digest collisions, and the same tuple object is shared by all
        # entries for one hasher.
        return (hasher.seed, hasher.table)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def prefix_sums(
        self,
        data: bytes,
        hasher: DecomposableAdler,
        fingerprint: bytes | None = None,
    ) -> PrefixSums:
        """Shared prefix-sum pair for ``data``, building it on first use."""
        if fingerprint is None:
            fingerprint = file_fingerprint(data)
        key = ("sums", fingerprint, self._table_id(hasher))
        return self._get_or_build(key, lambda: prefix_sums(data, hasher))

    def hash_index(
        self,
        data: bytes,
        length: int,
        hasher: DecomposableAdler,
        fingerprint: bytes | None = None,
    ) -> HashIndex:
        """Shared :class:`HashIndex` of ``data`` at window ``length``."""
        if fingerprint is None:
            fingerprint = file_fingerprint(data)
        key = ("index", fingerprint, length, self._table_id(hasher))

        def build() -> HashIndex:
            sums = self.prefix_sums(data, hasher, fingerprint)
            full = window_hashes_from_sums(sums, length)
            return HashIndex(data, length, hasher, full=full)

        return self._get_or_build(key, build)


class ReferenceIndexCache(ContentKeyedCache):
    """LRU cache of delta :class:`~repro.delta.matcher.ReferenceMatcher`
    seed indexes, keyed by ``(content fingerprint, seed_length)``.

    The delta coders consult it through
    :func:`~repro.delta.matcher.compute_instructions`, so syncing several
    targets against one reference — version chains, supervisor retries,
    zdelta *and* vcdiff encodes of the same pair — sorts the seed index
    once.  The seed hasher is the module-fixed ``_SEED_HASHER`` of
    :mod:`repro.delta.matcher`, so no hash-table id is needed in the key.
    """

    def __init__(self, max_entries: int = DEFAULT_REFERENCE_ENTRIES) -> None:
        super().__init__(max_entries)

    def matcher(
        self,
        reference: bytes,
        seed_length: int,
        fingerprint: bytes | None = None,
    ):
        """Shared matcher for ``reference`` at ``seed_length``."""
        from repro.delta.matcher import ReferenceMatcher

        if fingerprint is None:
            fingerprint = file_fingerprint(reference)
        key = ("refidx", fingerprint, seed_length)

        def build() -> ReferenceMatcher:
            # Cached entries must own their bytes: a caller may pass a
            # mutable bytearray (or a view of one) and change it after
            # the call, which would silently corrupt the cached index.
            data = (
                reference
                if isinstance(reference, bytes)
                else bytes(reference)
            )
            return ReferenceMatcher(data, seed_length, fingerprint=fingerprint)

        return self._get_or_build(key, build)


_default_cache = HashIndexCache()
_default_reference_cache = ReferenceIndexCache()


def default_cache() -> HashIndexCache:
    """The process-wide cache shared by all sessions by default."""
    return _default_cache


def reset_default_cache(max_entries: int | None = None) -> HashIndexCache:
    """Replace the process-wide cache (tests, memory-pressure tuning)."""
    global _default_cache
    _default_cache = HashIndexCache(
        max_entries if max_entries is not None else DEFAULT_MAX_ENTRIES
    )
    return _default_cache


def default_reference_cache() -> ReferenceIndexCache:
    """The process-wide reference-index cache used by the delta coders."""
    return _default_reference_cache


def reset_default_reference_cache(
    max_entries: int | None = None,
) -> ReferenceIndexCache:
    """Replace the process-wide reference-index cache (tests, tuning)."""
    global _default_reference_cache
    _default_reference_cache = ReferenceIndexCache(
        max_entries if max_entries is not None else DEFAULT_REFERENCE_ENTRIES
    )
    return _default_reference_cache
