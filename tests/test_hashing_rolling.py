"""Tests for rsync's rolling checksum, ``DecomposableAdler.identity()``.

With the identity substitution table the decomposable hash is rsync's
plain Adler checksum: ``a = sum(x[j])`` and ``b = sum((L - j) * x[j])``,
both mod ``2**16``, packed ``a | (b << 16)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import DecomposableAdler, HashPair, PrefixHasher

ADLER = DecomposableAdler.identity()


def closed_form(window: bytes) -> int:
    """The packed checksum, summed straight from its definition."""
    length = len(window)
    a = sum(window) % (1 << 16)
    b = sum((length - j) * byte for j, byte in enumerate(window)) % (1 << 16)
    return a | (b << 16)


def packed(pair: HashPair) -> int:
    return DecomposableAdler.pack(pair, 32)


class TestAdlerRolling:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            PrefixHasher(b"abc", ADLER).block_pairs([0], [0])

    def test_of_matches_constructor(self):
        """The vectorised block checksum equals the scalar one."""
        data = b"the quick brown fox"
        (vectorised,) = PrefixHasher(data, ADLER).block_pairs([0], [len(data)])
        assert int(vectorised) == packed(ADLER.hash_block(data))

    def test_components_pack_into_value(self):
        pair = ADLER.hash_block(b"abcd")
        assert packed(pair) == pair.a | (pair.b << 16)
        assert packed(pair) == closed_form(b"abcd")

    def test_single_roll(self):
        data = b"abcdef"
        pair = ADLER.roll(ADLER.hash_block(data[0:4]), 4, data[0], data[4])
        assert pair == ADLER.hash_block(data[1:5])

    def test_known_small_values(self):
        # Window "ab": a = 97 + 98, b = 2*97 + 1*98.
        assert ADLER.hash_block(b"ab") == (195, 292)

    @given(st.binary(min_size=9, max_size=200))
    def test_rolling_equals_direct_everywhere(self, data):
        window = 8
        pair = ADLER.hash_block(data[:window])
        for i in range(1, len(data) - window + 1):
            pair = ADLER.roll(pair, window, data[i - 1], data[i + window - 1])
            assert packed(pair) == closed_form(data[i : i + window])
