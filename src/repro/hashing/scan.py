"""Vectorised window-hash scans and the candidate position index.

The client must compare each received block hash against *every* window of
its own file.  Doing that with a per-byte Python rolling loop would make
the benchmarks CPU-bound and meaningless, so this module computes the
decomposable-Adler hash of all windows at once with numpy prefix sums:

* ``a``-component of window ``[i, i+L)`` is a difference of prefix sums of
  the substituted bytes;
* ``b``-component is ``(L + i) * (S[i+L] - S[i]) - (W[i+L] - W[i])`` where
  ``W`` is the prefix sum of ``j * m[j]``.

All arithmetic uses uint64 wraparound, which is exact modulo ``2**64`` and
therefore exact modulo ``2**16`` after masking.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.hashing.decomposable import DecomposableAdler, component_widths

class PrefixSums(NamedTuple):
    """The two prefix-sum arrays behind every window-hash computation.

    ``prefix[i]`` is the sum of the substituted bytes ``T[data[0..i)]``
    and ``second[i]`` the sum of ``prefix[1..i]`` (prefix sums of the
    prefix sums), both uint32 arrays of length ``len(data) + 1`` that wrap
    modulo ``2**32`` — only the low 16 bits of each hash component are
    ever used.  The window ``[p, p + L)`` then hashes to::

        a = prefix[p + L] - prefix[p]
        b = second[p + L] - second[p] - L * prefix[p]

    since ``b = sum((L + p - i) * T[i])`` over the window.
    :func:`window_hashes` and :class:`PrefixHasher` share one pair of
    buffers across every window length and every sync of the same data
    (the hash-index cache keeps them).
    """

    prefix: np.ndarray
    second: np.ndarray

    @property
    def data_length(self) -> int:
        return len(self.prefix) - 1

    @property
    def nbytes(self) -> int:
        """Memory footprint of both buffers (cache budgeting)."""
        return int(self.prefix.nbytes + self.second.nbytes)


def prefix_sums(data: bytes, hasher: DecomposableAdler) -> PrefixSums:
    """Compute the shared prefix-sum pair for ``data`` under ``hasher``."""
    n = len(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    table = np.asarray(hasher.table, dtype=np.uint32)
    prefix = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(table[raw], out=prefix[1:])
    second = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(prefix[1:], out=second[1:])
    return PrefixSums(prefix, second)


def _pack_pairs(
    prefix: np.ndarray, second: np.ndarray, starts, ends, lengths
) -> np.ndarray:
    """Packed ``a | (b << 16)`` of windows, from the two prefix arrays."""
    low = prefix[starts]
    a = (prefix[ends] - low) & np.uint32(0xFFFF)
    b = second[ends] - second[starts] - lengths * low
    return a | (b << np.uint32(16))


def window_hashes_from_sums(sums: PrefixSums, length: int) -> np.ndarray:
    """Packed 32-bit hashes of every window, from precomputed prefix sums."""
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    n = sums.data_length
    if n < length:
        return np.empty(0, dtype=np.uint32)
    return _pack_pairs(
        sums.prefix,
        sums.second,
        slice(None, n - length + 1),
        slice(length, None),
        np.uint32(length),
    )


def window_hashes(
    data: bytes, length: int, hasher: DecomposableAdler
) -> np.ndarray:
    """Packed 32-bit hashes ``a | (b << 16)`` of every window of ``length``.

    Returns an array of ``len(data) - length + 1`` uint32 values (empty if
    the file is shorter than one window).
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if len(data) < length:
        return np.empty(0, dtype=np.uint32)
    return window_hashes_from_sums(prefix_sums(data, hasher), length)


#: Arrays this long or longer no longer fit their positions in the low
#: 32 bits of a packed sort key; :func:`sort_with_order` falls back.
_PACKED_SORT_LIMIT = 1 << 32


def sort_with_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values[order], order)`` for a uint32 array, ``order`` its stable
    argsort.

    numpy has no fast stable sort for 32-bit keys, but sorting the
    uint64 keys ``value << 32 | position`` with one in-place ``sort()``
    gives the same order: equal values tie-break on the position in the
    low half, so they come out ascending, exactly as a stable sort
    leaves them.  Both halves are then read back out of the sorted
    keys.  About 8x faster than ``argsort(kind="stable")`` at 8,000
    entries and 6x at 48,000 (slower below about 400, by a few µs).
    """
    if values.dtype != np.uint32:
        raise TypeError(f"expected a uint32 array, got {values.dtype}")
    if values.size >= _PACKED_SORT_LIMIT:
        order = np.argsort(values, kind="stable")
        return values[order], order
    keys = values.astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= np.arange(values.size, dtype=np.uint64)
    keys.sort()
    # Truncating to uint32 keeps the low half: the position.
    order = keys.astype(np.uint32).astype(np.int64)
    keys >>= np.uint64(32)
    return keys.astype(np.uint32), order


def sorted_range_pair(
    sorted_values: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[lo, hi)`` range of every query in ``sorted_values``, batch-resolved.

    One vectorised ``searchsorted`` pair answers all queries at once —
    this is what turns a per-position Python lookup loop into a single
    numpy pass.  The (uint32) queries are sorted first
    (:func:`sort_with_order`) so the binary searches walk
    ``sorted_values`` monotonically (cache-friendly; ~2x faster than
    querying in file order on large scans) and the results are
    scattered back to the original query order, so the output is
    byte-identical to querying one position at a time.
    """
    if queries.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ordered, order = sort_with_order(queries)
    lo = np.searchsorted(sorted_values, ordered, side="left")
    hi = np.searchsorted(sorted_values, ordered, side="right")
    out_lo = np.empty_like(lo)
    out_hi = np.empty_like(hi)
    out_lo[order] = lo
    out_hi[order] = hi
    return out_lo, out_hi


def next_occupied_table(occupied: np.ndarray) -> np.ndarray:
    """Jump table: ``table[i]`` is the smallest ``j >= i`` with
    ``occupied[j]``, or ``len(occupied)`` when no such ``j`` exists.

    A reversed ``minimum.accumulate`` over position markers builds the
    whole table in one vectorised pass; the greedy matching loops use it
    to hop over candidate-free stretches in O(1) per hop instead of
    re-running a binary search (or a per-byte scan) at every position.
    """
    size = int(occupied.size)
    markers = np.where(occupied, np.arange(size, dtype=np.int64), size)
    if size:
        markers = np.minimum.accumulate(markers[::-1])[::-1]
    return markers


def pack_to_width(full: np.ndarray, width: int) -> np.ndarray:
    """Vectorised :meth:`DecomposableAdler.pack` over packed 32-bit hashes."""
    a_bits, b_bits = component_widths(width)
    a = full & np.uint32((1 << a_bits) - 1)
    if b_bits:
        b = (full >> np.uint32(16)) & np.uint32((1 << b_bits) - 1)
        return a | (b << np.uint32(a_bits))
    return a


def pack_to_widths(full: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """:func:`pack_to_width` with a *per-element* width array.

    Mixed sub-phase plans (global + local hashes in one message) pack
    each block's hash at its own width; per-element shift/mask arrays
    keep that a single numpy pass instead of a per-block branch.
    """
    widths = np.asarray(widths, dtype=np.uint32)
    a_bits = (widths + np.uint32(1)) >> np.uint32(1)
    b_bits = widths - a_bits
    a = full & ((np.uint32(1) << a_bits) - np.uint32(1))
    b = (full >> np.uint32(16)) & ((np.uint32(1) << b_bits) - np.uint32(1))
    return a | (b << a_bits)


def _unpack_widths(
    packed: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element inverse of :func:`pack_to_widths`: the ``(a, b)`` low bits."""
    packed = np.asarray(packed, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.uint64)
    a_bits = (widths + np.uint64(1)) >> np.uint64(1)
    a = packed & ((np.uint64(1) << a_bits) - np.uint64(1))
    b = (packed >> a_bits) & (
        (np.uint64(1) << (widths - a_bits)) - np.uint64(1)
    )
    return a, b


def decompose_right_widths(
    parents: np.ndarray,
    parent_widths: np.ndarray,
    lefts: np.ndarray,
    widths: np.ndarray,
    right_lengths: np.ndarray,
) -> np.ndarray:
    """Batched truncate-then-:meth:`DecomposableAdler.decompose_right_packed`.

    Each parent value (packed at ``parent_widths``) is truncated to the
    child's ``widths`` and the right child's packed hash is solved from
    it and the left child's; modular arithmetic on the low bits, exactly
    as the scalar method.
    """
    widths = np.asarray(widths, dtype=np.uint64)
    parent_a, parent_b = _unpack_widths(parents, parent_widths)
    left_a, left_b = _unpack_widths(lefts, widths)
    a_bits = (widths + np.uint64(1)) >> np.uint64(1)
    a_mask = (np.uint64(1) << a_bits) - np.uint64(1)
    b_mask = (np.uint64(1) << (widths - a_bits)) - np.uint64(1)
    a = (parent_a - left_a) & a_mask
    b = (
        parent_b
        - left_b
        - np.asarray(right_lengths, dtype=np.uint64) * left_a
    ) & b_mask
    return a | (b << a_bits)


class PrefixHasher:
    """O(1) decomposable-hash evaluation of arbitrary file regions.

    Precomputes the two prefix-sum arrays once; ``block_pair`` then
    evaluates the hash of any ``[start, start + length)`` region in
    constant time.  The server uses this to hash every block it transmits
    without re-reading block bytes; the client uses it to check
    continuation hashes at expected positions.
    """

    def __init__(
        self,
        data: bytes,
        hasher: DecomposableAdler,
        sums: PrefixSums | None = None,
    ) -> None:
        self._length = len(data)
        if sums is None:
            sums = prefix_sums(data, hasher)
        elif sums.data_length != len(data):
            raise ValueError(
                f"prefix sums cover {sums.data_length} bytes, data has "
                f"{len(data)}"
            )
        self._prefix = sums.prefix
        self._second = sums.second

    @property
    def data_length(self) -> int:
        return self._length

    def block_pair(self, start: int, length: int):
        """The ``(a, b)`` hash pair of ``data[start : start + length]``."""
        from repro.hashing.decomposable import HashPair

        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if start < 0 or start + length > self._length:
            raise ValueError(
                f"region [{start}, {start + length}) outside data of "
                f"length {self._length}"
            )
        packed = int(
            _pack_pairs(
                self._prefix,
                self._second,
                np.asarray([start]),
                np.asarray([start + length]),
                np.uint32(length),
            )[0]
        )
        return HashPair(packed & 0xFFFF, packed >> 16)

    def packed(self, start: int, length: int, width: int) -> int:
        """Packed ``width``-bit hash of the region."""
        return DecomposableAdler.pack(self.block_pair(start, length), width)

    def block_pairs(self, starts, lengths) -> np.ndarray:
        """Packed 32-bit hashes ``a | (b << 16)`` of many regions at once.

        The batched counterpart of :meth:`block_pair`: one numpy pass
        evaluates every ``[start, start + length)`` region, which is what
        lets the protocol engines build a whole round's MAP message (and
        probe every expected candidate position) without a per-block
        loop.  Widths are applied separately via :func:`pack_to_width` /
        :func:`pack_to_widths`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.size == 0:
            return np.empty(0, dtype=np.uint32)
        ends = starts + lengths
        if np.count_nonzero(
            (lengths <= 0) | (starts < 0) | (ends > self._length)
        ):
            raise ValueError(
                f"regions outside data of length {self._length} "
                "(or non-positive lengths)"
            )
        return _pack_pairs(
            self._prefix, self._second, starts, ends,
            lengths.astype(np.uint32),
        )


#: :meth:`HashIndex.lookup_many` scans the windows once per query up
#: to this many queries, and probes a presence table above it.  On a
#: 2-CPU x86_64 container, over 2,000-48,000 windows at widths 8-32,
#: the table path costs about as much as 16-24 per-query scans (its
#: fixed cost is a few passes over the windows), and over the captured
#: batches of one update of each ``perf/run.py`` workload any limit
#: from 8 to 24 was within noise of the best.
_PER_QUERY_LIMIT = 16

#: Low bits of the packed hash that address the lookup presence table:
#: 64 KiB of flags, small enough to stay in cache while every window
#: probes it.
_TABLE_BITS = 16


class _WidthIndex:
    """Sorted lookup structure for one truncated hash width."""

    def __init__(self, full_hashes: np.ndarray, width: int) -> None:
        self._sorted, self._order = sort_with_order(
            pack_to_width(full_hashes, width)
        )

    def lookup(self, value: int, max_results: int) -> list[int]:
        """Window start positions whose truncated hash equals ``value``.

        Positions come back ascending: :func:`sort_with_order` keeps
        equal hashes in original (positional) order.
        """
        lo = int(np.searchsorted(self._sorted, value, side="left"))
        hi = int(np.searchsorted(self._sorted, value, side="right"))
        if hi - lo > max_results:
            hi = lo + max_results
        # tolist() converts the whole slice to Python ints in C, instead
        # of boxing one numpy scalar per element.
        return self._order[lo:hi].tolist()


class HashIndex:
    """All-position hash index of one file for a fixed window length.

    Built once per protocol round; answers "which positions of my file have
    this truncated hash?" queries in ``O(log n + k)``.
    """

    def __init__(
        self,
        data: bytes,
        length: int,
        hasher: DecomposableAdler,
        full: np.ndarray | None = None,
    ) -> None:
        self._data = data
        self._length = length
        self._hasher = hasher
        if full is None:
            full = window_hashes(data, length, hasher)
        self._full = full
        self._by_width: dict[int, _WidthIndex] = {}

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the hash arrays (cache budgeting)."""
        total = int(self._full.nbytes)
        for index in self._by_width.values():
            total += int(index._order.nbytes + index._sorted.nbytes)
        return total

    @property
    def length(self) -> int:
        """Window length this index covers."""
        return self._length

    @property
    def position_count(self) -> int:
        """Number of indexed window positions."""
        return int(self._full.size)

    def full_hash_at(self, position: int) -> int:
        """Packed 32-bit hash of the window starting at ``position``."""
        return int(self._full[position])

    def packed_hash_at(self, position: int, width: int) -> int:
        """Truncated ``width``-bit hash of the window at ``position``."""
        return DecomposableAdler.truncate(int(self._full[position]), 32, width)

    def lookup(self, value: int, width: int, max_results: int = 8) -> list[int]:
        """Positions whose ``width``-bit truncated hash equals ``value``."""
        if self._full.size == 0:
            return []
        index = self._by_width.get(width)
        if index is None:
            index = _WidthIndex(self._full, width)
            self._by_width[width] = index
        return index.lookup(value, max_results)

    def lookup_many(self, values, width: int) -> np.ndarray:
        """Batched :meth:`lookup` head: first matching position per value.

        Returns an int64 array (``-1`` = no position has that truncated
        hash).  Byte-identical to calling ``lookup(value, width)[0]`` per
        value — this is the whole-round candidate lookup both protocol
        engines use instead of N scalar probes.

        The batch is answered from the cached window hashes, never from
        a sorted :class:`_WidthIndex`: a whole protocol round needs each
        ``(length, width)`` combination only once or twice, so its
        ``O(n log n)`` sort would never pay for itself.  Up to
        :data:`_PER_QUERY_LIMIT` queries, each query is one equality scan
        of the windows.  A larger batch first marks its queries in a
        presence table (:meth:`_first_through_table`), so only windows
        that can match reach the exact comparison.
        """
        values = np.asarray(values)
        queries = values.astype(np.uint32).ravel()
        first = np.full(queries.size, -1, dtype=np.int64)
        if self._full.size and queries.size:
            if queries.size <= _PER_QUERY_LIMIT:
                self._first_per_query(queries, width, first)
            else:
                self._first_through_table(queries, width, first)
        return first.reshape(values.shape)

    def _first_per_query(
        self, queries: np.ndarray, width: int, first: np.ndarray
    ) -> None:
        """:meth:`lookup_many` for a small batch: one scan per query.

        The windows are compared in their own ``a | b << 16`` layout,
        masked to the width's low bits, and each query is spread into
        that layout: one mask over the windows instead of a whole
        :func:`pack_to_width`.
        """
        a_bits, b_bits = component_widths(width)
        a_mask = (1 << a_bits) - 1
        masked = self._full & np.uint32(a_mask | ((1 << b_bits) - 1) << 16)
        spread = (queries & np.uint32(a_mask)) | (
            queries >> np.uint32(a_bits) << np.uint32(16)
        )
        for at, value in enumerate(spread.tolist()):
            hits = masked == np.uint32(value)
            position = int(hits.argmax())
            if hits[position]:
                first[at] = position

    def _first_through_table(
        self, queries: np.ndarray, width: int, first: np.ndarray
    ) -> None:
        """:meth:`lookup_many` for a large batch, filtered by a presence
        table.

        The table has one flag per value of the packed hash's low
        ``min(width, _TABLE_BITS)`` bits (``a``'s low bits, then as many
        of ``b``'s as fit), set for every query.  One probe per window
        keeps the windows that share those bits with some query, and
        only they are packed and binary-searched among the sorted
        queries.  At ``width <= 16`` the table is exact.
        """
        full = self._full
        a_bits, _ = component_widths(width)
        key_bits = min(width, _TABLE_BITS)
        a_mask = np.uint32((1 << a_bits) - 1)
        key_mask = np.uint32((1 << key_bits) - 1)
        keys = full & a_mask
        if key_bits > a_bits:
            keys |= (full >> np.uint32(16 - a_bits)) & (key_mask ^ a_mask)
        present = np.zeros(1 << key_bits, dtype=bool)
        present[queries & key_mask] = True
        # Every key is below the table size, so "clip" never clips; it
        # only skips the bounds check.
        positions = np.flatnonzero(present.take(keys, mode="clip"))
        packed = pack_to_width(full[positions], width)
        sorted_queries, order = sort_with_order(queries)
        slot = np.searchsorted(sorted_queries, packed)
        np.minimum(slot, sorted_queries.size - 1, out=slot)
        exact = sorted_queries[slot] == packed
        slot = slot[exact]
        positions = positions[exact]
        first_sorted = np.full(sorted_queries.size, -1, dtype=np.int64)
        # Reversed assignment: with duplicate slots the LAST write wins,
        # so reversing makes the lowest position stick — the same "first
        # match" the width index (sorted stably) would return.
        first_sorted[slot[::-1]] = positions[::-1]
        # Duplicate query values occupy distinct slots but searchsorted
        # maps every hit to the leftmost equal slot; fan the result back
        # out to all duplicates before undoing the query sort.
        representative = np.searchsorted(
            sorted_queries, sorted_queries, side="left"
        )
        first[order] = first_sorted[representative]

    def lookup_in_range(
        self, value: int, width: int, lo: int, hi: int, max_results: int = 8
    ) -> list[int]:
        """Matching positions restricted to ``[lo, hi)`` (local hashes)."""
        lo = max(lo, 0)
        hi = min(hi, int(self._full.size))
        if lo >= hi:
            return []
        index = self._by_width.get(width)
        if index is not None:
            # The sorted width index already exists: an O(log n) probe
            # beats re-packing and scanning the whole slice.  Matches
            # are ascending (:func:`sort_with_order`), exactly like the
            # scan below.
            matches = index.lookup(value, int(self._full.size))
            return [p for p in matches if lo <= p < hi][:max_results]
        packed = pack_to_width(self._full[lo:hi], width)
        positions = np.flatnonzero(packed == np.uint32(value))[:max_results]
        return (positions + lo).tolist()
