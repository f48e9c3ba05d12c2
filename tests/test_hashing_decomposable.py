"""Algebraic properties of the decomposable Adler hash — the paper's
technique (d)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import DecomposableAdler, HashPair
from repro.hashing.decomposable import component_widths


@pytest.fixture(scope="module")
def hasher() -> DecomposableAdler:
    return DecomposableAdler(seed=99)


class TestConstruction:
    def test_same_seed_same_table(self):
        assert DecomposableAdler(5).table == DecomposableAdler(5).table

    def test_different_seed_different_table(self):
        assert DecomposableAdler(5).table != DecomposableAdler(6).table

    def test_identity_table(self):
        hasher = DecomposableAdler.identity()
        assert hasher.table == tuple(range(256))

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            DecomposableAdler(table=(1, 2, 3))

    def test_identity_matches_plain_adler(self):
        """rsync's checksum: a = sum(x[j]), b = sum((L - j) * x[j])."""
        data = b"hello rolling world"
        pair = DecomposableAdler.identity().hash_block(data)
        length = len(data)
        assert (pair.a, pair.b) == (
            sum(data) % 65536,
            sum((length - j) * byte for j, byte in enumerate(data)) % 65536,
        )


class TestComponentWidths:
    def test_a_gets_extra_bit(self):
        assert component_widths(13) == (7, 6)
        assert component_widths(16) == (8, 8)
        assert component_widths(1) == (1, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            component_widths(0)
        with pytest.raises(ValueError):
            component_widths(33)

    def test_a_width_never_below_b_width(self):
        for width in range(1, 33):
            a_bits, b_bits = component_widths(width)
            assert a_bits >= b_bits
            assert a_bits + b_bits == width


class TestAlgebra:
    @given(st.binary(min_size=2, max_size=300))
    def test_compose_splits_anywhere(self, data):
        hasher = DecomposableAdler(seed=3)
        for cut in (1, len(data) // 2, len(data) - 1):
            left, right = data[:cut], data[cut:]
            assert hasher.compose(
                hasher.hash_block(left), hasher.hash_block(right), len(right)
            ) == hasher.hash_block(data)

    @given(st.binary(min_size=2, max_size=200))
    def test_decompose_inverts_compose(self, data):
        hasher = DecomposableAdler(seed=3)
        cut = len(data) // 2 or 1
        left, right = data[:cut], data[cut:]
        parent = hasher.hash_block(data)
        left_pair = hasher.hash_block(left)
        right_pair = hasher.hash_block(right)
        assert hasher.decompose_right(parent, left_pair, len(right)) == right_pair
        assert hasher.decompose_left(parent, right_pair, len(right)) == left_pair

    @given(st.binary(min_size=10, max_size=200))
    def test_rolling_matches_direct(self, data):
        hasher = DecomposableAdler(seed=11)
        window = 9
        pair = hasher.hash_block(data[:window])
        for i in range(1, len(data) - window + 1):
            pair = hasher.roll(pair, window, data[i - 1], data[i + window - 1])
            assert pair == hasher.hash_block(data[i : i + window])


class TestPacking:
    def test_pack_unpack_width_16(self):
        pair = HashPair(0x12, 0x34)
        packed = DecomposableAdler.pack(pair, 16)
        assert DecomposableAdler.unpack(packed, 16) == pair

    def test_pack_width_1_uses_a_only(self):
        assert DecomposableAdler.pack(HashPair(1, 0xFFFF), 1) == 1
        assert DecomposableAdler.pack(HashPair(0, 0xFFFF), 1) == 0

    def test_truncate_keeps_low_bits(self):
        pair = HashPair(0b1011, 0b1101)
        wide = DecomposableAdler.pack(pair, 8)  # 4 bits each
        narrow = DecomposableAdler.truncate(wide, 8, 4)  # 2 bits each
        assert DecomposableAdler.unpack(narrow, 4) == HashPair(0b11, 0b01)

    def test_truncate_cannot_widen(self):
        with pytest.raises(ValueError):
            DecomposableAdler.truncate(0, 8, 16)

    @given(st.binary(min_size=2, max_size=120), st.integers(1, 32))
    def test_truncated_decomposition(self, data, width):
        """Bit-prefix decomposability: the identity holds at every width."""
        hasher = DecomposableAdler(seed=17)
        cut = len(data) // 2 or 1
        left, right = data[:cut], data[cut:]
        parent_packed = hasher.packed_hash(data, width)
        left_packed = hasher.packed_hash(left, width)
        right_packed = hasher.packed_hash(right, width)
        assert (
            DecomposableAdler.decompose_right_packed(
                parent_packed, left_packed, width, len(right)
            )
            == right_packed
        )

    @given(st.binary(min_size=2, max_size=120), st.integers(4, 32), st.integers(1, 32))
    def test_truncation_consistency(self, data, wide, narrow):
        """Truncating a packed hash equals packing at the narrow width."""
        if narrow > wide:
            narrow = wide
        hasher = DecomposableAdler(seed=23)
        assert DecomposableAdler.truncate(
            hasher.packed_hash(data, wide), wide, narrow
        ) == hasher.packed_hash(data, narrow)


class TestDistribution:
    def test_substitution_separates_permutations(self):
        """The 'a' component of the *plain* checksum is permutation
        invariant; the substituted 'b' component is what separates them."""
        hasher = DecomposableAdler(seed=0)
        packed1 = hasher.packed_hash(b"abcdef", 32)
        packed2 = hasher.packed_hash(b"fedcba", 32)
        assert packed1 != packed2

    def test_collision_rate_reasonable_at_16_bits(self):
        import random

        rng = random.Random(0)
        hasher = DecomposableAdler(seed=0)
        seen = set()
        collisions = 0
        for _ in range(2000):
            block = bytes(rng.randrange(256) for _ in range(32))
            value = hasher.packed_hash(block, 16)
            if value in seen:
                collisions += 1
            seen.add(value)
        # Birthday bound: ~2000^2 / 2^17 ≈ 30 expected; allow slack.
        assert collisions < 120


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=32),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=1 << 20),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_batched_decomposition_matches_scalar(rows):
    """decompose_right_widths == truncate + decompose_right_packed."""
    import numpy as np

    from repro.hashing.scan import decompose_right_widths

    widths, parent_widths, parents, lefts, lengths = [], [], [], [], []
    expected = []
    for width, extra, parent, left, length in rows:
        parent_width = min(32, width + extra)
        parent &= (1 << parent_width) - 1
        left &= (1 << width) - 1
        expected.append(
            DecomposableAdler.decompose_right_packed(
                DecomposableAdler.truncate(parent, parent_width, width),
                left, width, length,
            )
        )
        widths.append(width)
        parent_widths.append(parent_width)
        parents.append(parent)
        lefts.append(left)
        lengths.append(length)
    got = decompose_right_widths(
        np.asarray(parents, dtype=np.uint64),
        np.asarray(parent_widths),
        np.asarray(lefts, dtype=np.uint64),
        np.asarray(widths),
        np.asarray(lengths),
    )
    assert got.tolist() == expected
