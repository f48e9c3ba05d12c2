"""Property suite for the min-hash sketch substrate (DESIGN §17).

The sibling-reference machinery is only sound if the sketch behaves
like a true min-wise signature: order- and multiplicity-independent,
lattice-compatible under set union, and in exact agreement with the
brute-force scalar definition the vectorised kernel replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reuse import (
    NUM_PERM,
    content_shingles,
    estimate_resemblance,
    minhash_signature,
    sketch,
)
from repro.reuse.sketch import _PARAMS_A, _PARAMS_B, EMPTY_SLOT

shingle_sets = st.lists(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    min_size=0,
    max_size=64,
)


def _as_array(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


class TestSignatureProperties:
    @given(shingle_sets, st.randoms(use_true_random=False))
    def test_permutation_independent(self, values, rng):
        reference = minhash_signature(_as_array(values))
        shuffled = list(values)
        rng.shuffle(shuffled)
        np.testing.assert_array_equal(
            minhash_signature(_as_array(shuffled)), reference
        )

    @given(shingle_sets)
    def test_multiplicity_independent(self, values):
        reference = minhash_signature(_as_array(values))
        np.testing.assert_array_equal(
            minhash_signature(_as_array(values + values)), reference
        )

    @given(shingle_sets, shingle_sets)
    def test_union_is_slotwise_minimum(self, left, right):
        """sig(A ∪ B)[i] == min(sigA[i], sigB[i]) — the lattice property
        that makes min-hash estimates unbiased."""
        union = minhash_signature(_as_array(left + right))
        expected = np.minimum(
            minhash_signature(_as_array(left)),
            minhash_signature(_as_array(right)),
        )
        np.testing.assert_array_equal(union, expected)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=1,
            max_size=16,
        )
    )
    def test_matches_scalar_brute_force(self, values):
        """The one-block vectorised kernel equals min(a*x + b) mod 2**64
        computed one shingle and one slot at a time."""
        signature = minhash_signature(_as_array(values))
        a, b = _PARAMS_A, _PARAMS_B
        for slot in range(NUM_PERM):
            expected = min(
                (int(a[slot]) * value + int(b[slot])) % (1 << 64)
                for value in set(values)
            )
            assert int(signature[slot]) == expected

    def test_empty_set_signs_as_sentinel(self):
        signature = minhash_signature(np.empty(0, dtype=np.uint64))
        assert (signature == EMPTY_SLOT).all()


class TestResemblanceProperties:
    @given(shingle_sets, shingle_sets)
    def test_symmetric_and_bounded(self, left, right):
        first = minhash_signature(_as_array(left))
        second = minhash_signature(_as_array(right))
        estimate = estimate_resemblance(first, second)
        assert estimate == estimate_resemblance(second, first)
        assert 0.0 <= estimate <= 1.0

    @given(shingle_sets)
    def test_identical_sets_estimate_one(self, values):
        signature = minhash_signature(_as_array(values))
        assert estimate_resemblance(signature, signature) == 1.0

    @given(shingle_sets, shingle_sets)
    def test_containment_bounds_union(self, left, right):
        """A ⊆ A∪B: every slot of sig(A∪B) that came from A agrees with
        sig(A), so the estimate is at least the fraction of slots A won."""
        left_sig = minhash_signature(_as_array(left))
        union_sig = minhash_signature(_as_array(left + right))
        agreeing = estimate_resemblance(left_sig, union_sig)
        slots_a_won = float(
            np.count_nonzero(union_sig == left_sig)
        ) / float(union_sig.size)
        assert agreeing >= slots_a_won  # equality by construction

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_resemblance(
                np.zeros(4, dtype=np.uint64), np.zeros(8, dtype=np.uint64)
            )


class TestContentShingles:
    @given(st.binary(min_size=0, max_size=4096))
    def test_deterministic_and_sorted(self, data):
        first = content_shingles(data)
        second = content_shingles(bytes(data))
        np.testing.assert_array_equal(first, second)
        assert (np.diff(first.astype(object)) > 0).all() if first.size > 1 \
            else True

    @given(st.binary(min_size=1, max_size=2048), st.binary(min_size=8,
                                                           max_size=64))
    def test_local_edit_preserves_most_shingles(self, prefix, suffix):
        """Content-defined boundaries: appending bytes never invalidates
        the shingles wholly inside the untouched prefix region."""
        base = prefix * 8  # enough content for several chunks
        appended = base + suffix
        base_set = set(content_shingles(base).tolist())
        appended_set = set(content_shingles(appended).tolist())
        if len(base_set) > 2:
            # All but the final (boundary-straddling) chunk survive.
            assert len(base_set & appended_set) >= len(base_set) - 2

    def test_sketch_roundtrip_on_similar_files(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 256, size=32_768, dtype=np.uint8).tobytes()
        edited = bytearray(base)
        edited[1000:1040] = bytes(40)
        similar = estimate_resemblance(
            sketch(base).signature, sketch(bytes(edited)).signature
        )
        unrelated = estimate_resemblance(
            sketch(base).signature,
            sketch(
                rng.integers(0, 256, size=32_768, dtype=np.uint8).tobytes()
            ).signature,
        )
        assert similar > 0.8
        assert unrelated < 0.2
