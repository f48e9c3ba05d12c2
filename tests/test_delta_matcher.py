"""Tests for the greedy reference matcher behind both delta coders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import Add, Copy, ReferenceMatcher, apply_instructions, compute_instructions


def _naive_prefix(a, b) -> int:
    limit = min(len(a), len(b))
    count = 0
    while count < limit and a[count] == b[count]:
        count += 1
    return count


def _naive_suffix(a, b, limit) -> int:
    limit = min(limit, len(a), len(b))
    count = 0
    while count < limit and a[len(a) - 1 - count] == b[len(b) - 1 - count]:
        count += 1
    return count


class TestCommonPrefixLength:
    """The chunked XOR scan must agree with the per-byte definition."""

    def _check(self, a: bytes, b: bytes) -> None:
        from repro.delta.matcher import _common_prefix_length

        assert _common_prefix_length(
            memoryview(a), memoryview(b)
        ) == _naive_prefix(a, b)

    def test_boundary_cases(self):
        self._check(b"", b"")
        self._check(b"", b"abc")
        self._check(b"a", b"a")
        self._check(b"a", b"b")
        self._check(b"same", b"same")
        self._check(b"same-prefix-X", b"same-prefix-Y")

    def test_mismatch_at_every_offset_near_chunk_edges(self):
        base = bytes(range(256)) * 2
        for at in (0, 1, 62, 63, 64, 65, 127, 128, 200, 511):
            mutated = bytearray(base)
            mutated[at] ^= 0xFF
            self._check(base, bytes(mutated))

    def test_long_identical_run_then_mismatch(self):
        a = b"\x7f" * 100_000 + b"A"
        b = b"\x7f" * 100_000 + b"B"
        self._check(a, b)

    @given(st.binary(max_size=300), st.binary(max_size=300))
    @settings(max_examples=80)
    def test_matches_naive_on_arbitrary_pairs(self, a, b):
        self._check(a, b)

    @given(st.binary(min_size=1, max_size=500), st.integers(0, 499))
    @settings(max_examples=80)
    def test_single_flip(self, data, position):
        position %= len(data)
        mutated = bytearray(data)
        mutated[position] ^= 0x01
        self._check(data, bytes(mutated))


class TestCommonSuffixLength:
    def _check(self, a: bytes, b: bytes, limit: int) -> None:
        from repro.delta.matcher import _common_suffix_length

        assert _common_suffix_length(
            memoryview(a), memoryview(b), limit
        ) == _naive_suffix(a, b, limit)

    def test_boundary_cases(self):
        self._check(b"", b"", 10)
        self._check(b"abc", b"", 10)
        self._check(b"xyz-tail", b"abc-tail", 100)
        self._check(b"tail", b"tail", 0)  # limit zero: no match allowed
        self._check(b"tail", b"tail", 2)

    def test_limit_caps_the_scan(self):
        from repro.delta.matcher import _common_suffix_length

        a = b"AAAA" + b"same" * 30
        b = b"BBBB" + b"same" * 30
        assert _common_suffix_length(memoryview(a), memoryview(b), 7) == 7

    def test_mismatch_near_chunk_edges(self):
        base = bytes(range(256))
        for at in (0, 1, 63, 64, 65, 191, 192, 255):
            mutated = bytearray(base)
            mutated[at] ^= 0xFF
            self._check(base, bytes(mutated), len(base))

    @given(
        st.binary(max_size=300), st.binary(max_size=300), st.integers(0, 300)
    )
    @settings(max_examples=80)
    def test_matches_naive_on_arbitrary_pairs(self, a, b, limit):
        self._check(a, b, limit)


class TestReferenceMatcher:
    def test_bad_seed_length_rejected(self):
        with pytest.raises(ValueError):
            ReferenceMatcher(b"data", seed_length=0)

    def test_candidates_for_planted_seed(self):
        reference = b"A" * 50 + b"UNIQUESEEDBLOCK!" + b"B" * 50
        matcher = ReferenceMatcher(reference, seed_length=16)
        import repro.delta.matcher as m

        from repro.hashing.scan import window_hashes

        target_hash = int(
            window_hashes(b"UNIQUESEEDBLOCK!", 16, m._SEED_HASHER)[0]
        )
        assert 50 in matcher.candidates(target_hash)

    def test_empty_reference_has_no_candidates(self):
        matcher = ReferenceMatcher(b"", seed_length=16)
        assert matcher.candidates(12345).size == 0

    def test_mismatched_matcher_rejected(self):
        matcher = ReferenceMatcher(b"one reference here", seed_length=4)
        with pytest.raises(ValueError):
            compute_instructions(b"another reference!", b"target", matcher=matcher)

    @pytest.mark.parametrize("reference_length", [0, 1, 17, 5000])
    def test_candidate_ranges_match_the_unfiltered_search(
        self, reference_length
    ):
        """Batches on both sides of ``_PRESENCE_MIN_POSITIONS`` give the
        rows of one unfiltered :func:`sorted_range_pair`, capped.

        The targets hold indexed hashes, random ones, and indexed hashes
        with their lowest bit flipped: those share an indexed hash's
        presence bits (the top ones) and differ below them, so the table
        admits them and only the search can reject them.
        """
        import numpy as np

        from repro.delta.matcher import _PRESENCE_MIN_POSITIONS
        from repro.hashing.scan import sorted_range_pair

        rng = np.random.default_rng(reference_length)
        matcher = ReferenceMatcher(
            rng.integers(0, 4, reference_length, dtype=np.uint8).tobytes()
        )
        indexed = matcher._sorted
        assert (1 << matcher._present_bits) <= max(matcher._order.nbytes, 1)
        assert matcher.nbytes == (
            matcher._order.nbytes + indexed.nbytes + (1 << matcher._present_bits)
        )
        picks = (
            indexed[rng.integers(0, indexed.size, 400)]
            if indexed.size
            else np.empty(0, dtype=np.uint32)
        )
        near = picks ^ np.uint32(1)
        target = rng.permutation(
            np.concatenate(
                [picks, near, rng.integers(0, 1 << 32, 400, dtype=np.uint64)]
            ).astype(np.uint32)
        )
        order = matcher._order
        for size in (_PRESENCE_MIN_POSITIONS, target.size):
            hashes = target[:size]
            lo, hi = matcher.candidate_ranges(hashes, cap=3)
            want_lo, want_hi = sorted_range_pair(indexed, hashes)
            want_hi = np.minimum(want_hi, want_lo + 3)
            assert [order[a:b].tolist() for a, b in zip(lo, hi)] == [
                order[a:b].tolist() for a, b in zip(want_lo, want_hi)
            ]
        if indexed.size:
            shift = np.uint32(32 - matcher._present_bits)
            assert matcher._present[near >> shift].all()
            rejected = np.searchsorted(indexed, near)
            rejected = indexed[np.minimum(rejected, indexed.size - 1)] != near
            assert rejected.any()  # admitted false positives were searched


class TestComputeInstructions:
    def test_identical_files_single_copy(self):
        data = b"identical content that is long enough to match" * 4
        instructions = compute_instructions(data, data)
        assert instructions == [Copy(0, len(data))]

    def test_disjoint_files_all_literals(self):
        old = b"A" * 200
        new = b"B" * 200
        instructions = compute_instructions(old, new)
        assert all(isinstance(i, Add) for i in instructions)

    def test_insertion_produces_copy_add_copy(self):
        old = bytes(range(256)) * 4
        new = old[:500] + b"INSERTED-CONTENT-HERE" + old[500:]
        instructions = compute_instructions(old, new)
        assert apply_instructions(old, instructions) == new
        copies = [i for i in instructions if isinstance(i, Copy)]
        assert sum(c.length for c in copies) >= len(old) - 32

    def test_backward_extension_shrinks_literals(self):
        """A match is extended leftwards into pending literal bytes."""
        old = b"x" * 64 + b"0123456789abcdefghijklmnop" + b"y" * 64
        # New file starts cold (literals), then joins old content a few
        # bytes *before* a seed boundary would land.
        new = b"???" + b"6789abcdefghijklmnop" + b"y" * 64
        instructions = compute_instructions(old, new, seed_length=8)
        assert apply_instructions(old, instructions) == new
        literal_bytes = sum(
            len(i.data) for i in instructions if isinstance(i, Add)
        )
        assert literal_bytes <= 4

    def test_empty_target(self):
        assert compute_instructions(b"ref", b"") == []

    def test_empty_reference(self):
        instructions = compute_instructions(b"", b"new content")
        assert apply_instructions(b"", instructions) == b"new content"

    @given(st.binary(max_size=400), st.binary(max_size=400))
    @settings(max_examples=60)
    def test_roundtrip_arbitrary_pairs(self, reference, target):
        instructions = compute_instructions(reference, target, seed_length=8)
        assert apply_instructions(reference, instructions) == target

    def test_shared_matcher_consistent(self):
        reference = b"shared reference content " * 20
        matcher = ReferenceMatcher(reference)
        target = reference[10:200] + b"tail"
        with_shared = compute_instructions(reference, target, matcher=matcher)
        without = compute_instructions(reference, target)
        assert apply_instructions(reference, with_shared) == apply_instructions(
            reference, without
        )
