"""Tests for the vectorised window scans, prefix hasher, and hash index."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.matcher import ReferenceMatcher
from repro.hashing import DecomposableAdler, HashIndex, PrefixHasher, window_hashes
from repro.hashing import scan
from repro.hashing.scan import _WidthIndex, pack_to_width, sort_with_order

HASHER = DecomposableAdler(seed=5)


class TestWindowHashes:
    def test_empty_for_short_data(self):
        assert window_hashes(b"ab", 5, HASHER).size == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            window_hashes(b"abc", 0, HASHER)

    def test_count(self):
        assert window_hashes(b"abcdef", 3, HASHER).size == 4

    @given(st.binary(min_size=1, max_size=400), st.integers(1, 48))
    @settings(max_examples=60)
    def test_matches_direct_hash(self, data, length):
        hashes = window_hashes(data, length, HASHER)
        expected_count = max(0, len(data) - length + 1)
        assert hashes.size == expected_count
        for i in range(0, expected_count, max(1, expected_count // 7)):
            pair = HASHER.hash_block(data[i : i + length])
            assert int(hashes[i]) == pair.a | (pair.b << 16)

    def test_uint64_wraparound_consistency(self):
        """Large inputs exercise the modular wraparound path."""
        rng = random.Random(9)
        data = bytes(rng.randrange(256) for _ in range(100_000))
        hashes = window_hashes(data, 64, HASHER)
        for i in (0, 50_000, len(data) - 64):
            pair = HASHER.hash_block(data[i : i + 64])
            assert int(hashes[i]) == pair.a | (pair.b << 16)


class TestPackToWidth:
    @given(st.binary(min_size=16, max_size=64), st.integers(1, 32))
    @settings(max_examples=40)
    def test_matches_scalar_pack(self, data, width):
        hashes = window_hashes(data, 8, HASHER)
        packed = pack_to_width(hashes, width)
        for i in range(hashes.size):
            assert int(packed[i]) == DecomposableAdler.truncate(
                int(hashes[i]), 32, width
            )


class TestPrefixHasher:
    def test_matches_hash_block(self):
        rng = random.Random(2)
        data = bytes(rng.randrange(256) for _ in range(5000))
        prefix = PrefixHasher(data, HASHER)
        for start, length in ((0, 1), (17, 100), (4000, 1000), (4999, 1)):
            assert prefix.block_pair(start, length) == HASHER.hash_block(
                data[start : start + length]
            )

    def test_bounds_checked(self):
        prefix = PrefixHasher(b"abcdef", HASHER)
        with pytest.raises(ValueError):
            prefix.block_pair(4, 10)
        with pytest.raises(ValueError):
            prefix.block_pair(-1, 2)
        with pytest.raises(ValueError):
            prefix.block_pair(0, 0)

    def test_packed_matches_pack(self):
        data = b"some longer test data for the prefix hasher"
        prefix = PrefixHasher(data, HASHER)
        assert prefix.packed(5, 10, 13) == DecomposableAdler.pack(
            HASHER.hash_block(data[5:15]), 13
        )


class TestHashIndex:
    def test_lookup_finds_planted_window(self):
        rng = random.Random(4)
        data = bytes(rng.randrange(256) for _ in range(4000))
        index = HashIndex(data, 32, HASHER)
        value = index.packed_hash_at(1234, 20)
        assert 1234 in index.lookup(value, 20)

    def test_lookup_respects_cap(self):
        data = b"\x00" * 1000  # every window identical
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(0, 12)
        assert len(index.lookup(value, 12, max_results=5)) == 5

    def test_lookup_on_empty_index(self):
        index = HashIndex(b"ab", 16, HASHER)
        assert index.lookup(0, 12) == []
        assert index.position_count == 0

    def test_lookup_in_range(self):
        data = b"prefix " + b"NEEDLEBLOCKDATA!" + b" middle " + b"NEEDLEBLOCKDATA!" + b" end"
        index = HashIndex(data, 16, HASHER)
        first = data.index(b"NEEDLEBLOCKDATA!")
        second = data.index(b"NEEDLEBLOCKDATA!", first + 1)
        value = index.packed_hash_at(first, 16)
        everywhere = index.lookup(value, 16)
        assert first in everywhere and second in everywhere
        only_second = index.lookup_in_range(value, 16, second - 3, second + 3)
        assert only_second == [second]

    def test_lookup_in_range_clamps_bounds(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 8, HASHER)
        value = index.packed_hash_at(0, 10)
        assert 0 in index.lookup_in_range(value, 10, -100, 10_000)

    def test_full_hash_at(self):
        data = b"window hashing test data"
        index = HashIndex(data, 8, HASHER)
        pair = HASHER.hash_block(data[3:11])
        assert index.full_hash_at(3) == pair.a | (pair.b << 16)

    def test_distinct_widths_cached_independently(self):
        data = bytes(range(200))
        index = HashIndex(data, 16, HASHER)
        v8 = index.packed_hash_at(10, 8)
        v24 = index.packed_hash_at(10, 24)
        assert 10 in index.lookup(v8, 8)
        assert 10 in index.lookup(v24, 24)


class TestLookupTypesAndEquivalence:
    """lookup/lookup_in_range return plain ints, and the width-index
    shortcut in lookup_in_range is equivalent to the packed-slice scan."""

    def test_lookup_returns_python_ints(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(40, 14)
        positions = index.lookup(value, 14)
        assert positions and all(type(p) is int for p in positions)

    def test_lookup_in_range_returns_python_ints(self):
        data = bytes(range(256)) * 4
        index = HashIndex(data, 16, HASHER)
        value = index.packed_hash_at(40, 14)
        # No width index built for width 15 yet: slice-scan branch.
        fresh = HashIndex(data, 16, HASHER)
        positions = fresh.lookup_in_range(value, 14, 0, 10_000)
        assert all(type(p) is int for p in positions)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_range_lookup_same_with_and_without_width_index(self, seed):
        rng = random.Random(seed)
        data = bytes(rng.randrange(8) for _ in range(1500))  # many collisions
        width = 10
        queries = []
        probe = HashIndex(data, 12, HASHER)
        for _ in range(12):
            position = rng.randrange(probe.position_count)
            lo = rng.randrange(probe.position_count)
            hi = lo + rng.randrange(1, 400)
            queries.append((probe.packed_hash_at(position, width), lo, hi))

        cold = HashIndex(data, 12, HASHER)  # never builds a width index
        warm = HashIndex(data, 12, HASHER)
        warm.lookup(queries[0][0], width)  # force the width index to exist
        assert width in warm._by_width and width not in cold._by_width
        for value, lo, hi in queries:
            assert warm.lookup_in_range(value, width, lo, hi) == (
                cold.lookup_in_range(value, width, lo, hi)
            )

    def test_range_lookup_cap_applies_on_both_branches(self):
        data = b"\x00" * 1200  # every window identical
        width = 10
        cold = HashIndex(data, 16, HASHER)
        warm = HashIndex(data, 16, HASHER)
        value = warm.packed_hash_at(0, width)
        warm.lookup(value, width)
        for index in (cold, warm):
            positions = index.lookup_in_range(
                value, width, 100, 900, max_results=5
            )
            assert positions == list(range(100, 105))


def _stable(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    return values[order], order


def _assert_stable_sort(values: np.ndarray) -> None:
    got_values, got_order = sort_with_order(values)
    want_values, want_order = _stable(values)
    assert got_order.dtype == want_order.dtype
    assert got_values.dtype == np.uint32
    np.testing.assert_array_equal(got_order, want_order)
    np.testing.assert_array_equal(got_values, want_values)


_UINT32 = st.integers(0, 0xFFFFFFFF)


class TestSortWithOrder:
    """The packed-key sort returns exactly the stable argsort."""

    @given(
        st.one_of(
            st.lists(_UINT32, max_size=300),
            # Heavy duplicates, including the largest value.
            st.lists(
                st.sampled_from([0, 1, 7, 0xFFFFFFFE, 0xFFFFFFFF]), max_size=300
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort(self, values):
        _assert_stable_sort(np.asarray(values, dtype=np.uint32))

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0xFFFFFFFF],
            [5] * 50,
            [0xFFFFFFFF] * 9 + [0] * 9,
            [3, 1, 3, 1, 3, 1, 0xFFFFFFFF, 0],
        ],
        ids=["empty", "one", "all-equal", "extremes", "duplicates"],
    )
    def test_edge_arrays(self, values):
        _assert_stable_sort(np.asarray(values, dtype=np.uint32))

    def test_large_random_with_duplicates(self):
        rng = np.random.default_rng(3)
        _assert_stable_sort(rng.integers(0, 5000, 60_000).astype(np.uint32))

    def test_rejects_other_dtypes(self):
        with pytest.raises(TypeError):
            sort_with_order(np.arange(4, dtype=np.int64))

    def test_falls_back_at_the_position_limit(self, monkeypatch):
        """At or above the limit the positions would not fit the low half
        of the key: the stable argsort runs instead, with the same result."""
        values = np.asarray([9, 2, 9, 2, 0xFFFFFFFF, 2], dtype=np.uint32)
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        monkeypatch.setattr(scan, "_PACKED_SORT_LIMIT", values.size + 1)
        sort_with_order(values)
        assert calls == []
        monkeypatch.setattr(scan, "_PACKED_SORT_LIMIT", values.size)
        got_values, got_order = sort_with_order(values)
        assert calls == ["stable"]
        monkeypatch.setattr(np, "argsort", argsort)
        want_values, want_order = _stable(values)
        np.testing.assert_array_equal(got_order, want_order)
        np.testing.assert_array_equal(got_values, want_values)

    def test_indexes_hold_the_stable_argsort(self):
        rng = random.Random(11)
        # Few distinct bytes: many equal window hashes to tie-break.
        data = bytes(rng.randrange(4) for _ in range(20_000))
        matcher = ReferenceMatcher(data, 16)
        want_values, want_order = _stable(
            window_hashes(data, 16, DecomposableAdler(seed=0x5EED))
        )
        np.testing.assert_array_equal(matcher._order, want_order)
        np.testing.assert_array_equal(matcher._sorted, want_values)
        full = window_hashes(data, 24, HASHER)
        for width in (6, 12, 32):
            index = _WidthIndex(full, width)
            want_values, want_order = _stable(pack_to_width(full, width))
            np.testing.assert_array_equal(index._order, want_order)
            np.testing.assert_array_equal(index._sorted, want_values)

    @pytest.mark.parametrize(
        "count",
        [1, scan._PER_QUERY_LIMIT, scan._PER_QUERY_LIMIT + 1, 100, 129, 2000],
    )
    def test_lookup_many_is_lookup_head(self, count):
        """Both batch paths (one scan per query up to
        ``_PER_QUERY_LIMIT``, the presence table above it) give
        ``lookup(value)[0]``, with and without a width index, for
        present, duplicate and absent queries.

        Widths 4 and 14 key the table on the whole packed hash (at 4 it
        admits nearly every window); at 20 and 32 the key is the low
        ``_TABLE_BITS`` only, and the queries include present hashes
        with a bit flipped above the key, which the table admits and
        only the exact comparison can reject.
        """
        rng = np.random.default_rng(count)
        data = rng.integers(0, 3, 6000, dtype=np.uint8).tobytes()
        for width in (4, 14, 20, 32):
            index = HashIndex(data, 12, HASHER)
            present = [
                index.packed_hash_at(position, width)
                for position in rng.integers(0, 5989, count).tolist()
            ]
            pool = present + present[:7] + [(1 << width) - 1] * 3
            if width > scan._TABLE_BITS:
                pool += [value ^ 1 << (width - 1) for value in present[:9]]
            pool += rng.integers(0, 1 << width, count).tolist()
            queries = rng.permutation(np.asarray(pool, dtype=np.uint32))[:count]
            assert queries.size == count
            want = [
                (index.lookup(v, width) or [-1])[0] for v in queries.tolist()
            ]
            cold = HashIndex(data, 12, HASHER)  # no width index
            assert cold.lookup_many(queries, width).tolist() == want
            assert index.lookup_many(queries, width).tolist() == want
            if count > scan._PER_QUERY_LIMIT and width > 4:
                assert -1 in want and any(p >= 0 for p in want)
