"""Scan parity and reference-index cache behaviour for the delta core.

:func:`compute_instructions` (the chunked scan, DESIGN §12) must emit
*byte-identical* instruction lists to the per-position ``_scan_scalar``
loop, called directly as the oracle, on every input — not merely
decode to the same target.  The first half of this module
attacks that property with structured adversarial cases, targets built
around the scan's chunk edges and hypothesis sweeps; the second half
pins down the
:class:`~repro.parallel.cache.ReferenceIndexCache` contract: repeated
references hit, both delta coders share one entry, per-worker counters
fold back into the executor's batch result.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import zdelta_encode
from repro.delta.instructions import Copy, apply_instructions
from repro.delta import matcher as matcher_module
from repro.delta.matcher import (
    _CHUNK_BASE,
    _PRESENCE_MIN_POSITIONS,
    _SEED_HASHER,
    ReferenceMatcher,
    _scan_scalar,
    compute_instructions,
)
from repro.hashing.scan import sorted_range_pair, window_hashes
from repro.delta.vcdiff import vcdiff_encode
from repro.parallel import FileTask, SyncExecutor
from repro.parallel.cache import (
    ReferenceIndexCache,
    default_reference_cache,
    reset_default_reference_cache,
)
from repro.parallel.executor import _worker_init
from repro.syncmethod import MethodOutcome, SyncMethod


@pytest.fixture(autouse=True)
def _fresh_reference_cache():
    """Every test starts from an empty process-wide reference cache."""
    reset_default_reference_cache()
    yield
    reset_default_reference_cache()


def scalar_instructions(
    reference: bytes,
    target: bytes,
    seed_length: int = 16,
    min_match: int | None = None,
) -> list:
    """The reference: window hashes plus the per-position scan."""
    matcher = ReferenceMatcher(reference, seed_length)
    return _scan_scalar(
        matcher,
        memoryview(reference),
        target,
        memoryview(target),
        window_hashes(target, seed_length, _SEED_HASHER),
        seed_length if min_match is None else min_match,
    )


def _assert_parity(reference: bytes, target: bytes, **kwargs) -> list:
    scalar = scalar_instructions(reference, target, **kwargs)
    matcher = ReferenceMatcher(reference, kwargs.get("seed_length", 16))
    chunked = compute_instructions(reference, target, matcher=matcher, **kwargs)
    assert scalar == chunked
    assert apply_instructions(reference, chunked) == target
    return chunked


def _spans(instructions: list) -> list[tuple[str, int, int]]:
    """``(kind, start, end)`` target range each instruction produces."""
    spans = []
    position = 0
    for instruction in instructions:
        if isinstance(instruction, Copy):
            end = position + instruction.length
            spans.append(("copy", position, end))
        else:
            end = position + len(instruction.data)
            spans.append(("add", position, end))
        position = end
    return spans


def _built_target(rng: random.Random, reference: bytes, length: int) -> bytes:
    """Copies of reference runs interleaved with novel runs, ~``length``."""
    out = bytearray()
    while len(out) < length:
        if reference and rng.random() < 0.5:
            start = rng.randrange(len(reference))
            out += reference[start : start + rng.randrange(1, 400)]
        else:
            out += rng.randbytes(rng.randrange(1, 600))
    return bytes(out)


def _structured_target(style: str, reference: bytes, rng: random.Random) -> bytes:
    if style == "all-copy":
        return reference
    if style == "all-literal":
        return rng.randbytes(len(reference) or 64)
    if style == "mixed":
        out = bytearray()
        position = 0
        while position < len(reference):
            take = rng.randrange(8, 120)
            out += reference[position : position + take]
            position += take
            out += rng.randbytes(rng.randrange(0, 40))
        return bytes(out)
    # "periodic": every position shares one seed hash — cap stress.
    unit = reference[:8] if len(reference) >= 8 else b"abcdefgh"
    return unit * 64 + rng.randbytes(17) + unit * 16


class TestEngineParity:
    def test_empty_inputs(self):
        _assert_parity(b"", b"")
        _assert_parity(b"reference bytes here", b"")
        _assert_parity(b"", b"target with no reference to draw from")

    def test_target_shorter_than_seed_window(self):
        _assert_parity(b"a reference that is long enough", b"tiny")

    @pytest.mark.parametrize("style", ["all-copy", "all-literal", "mixed",
                                       "periodic"])
    def test_structured_styles(self, style):
        rng = random.Random(5)
        for trial in range(25):
            reference = rng.randbytes(rng.randrange(0, 2048))
            target = _structured_target(style, reference, rng)
            _assert_parity(reference, target)

    @pytest.mark.parametrize("seed_length", [1, 2, 4, 8, 31])
    def test_seed_length_edges(self, seed_length):
        rng = random.Random(seed_length)
        for trial in range(10):
            reference = rng.randbytes(rng.randrange(seed_length, 512))
            target = _structured_target("mixed", reference, rng)
            _assert_parity(reference, target, seed_length=seed_length)

    @pytest.mark.parametrize("min_match", [1, 4, 40])
    def test_min_match_variants(self, min_match):
        rng = random.Random(min_match)
        for trial in range(10):
            reference = rng.randbytes(700)
            target = _structured_target("mixed", reference, rng)
            _assert_parity(reference, target, min_match=min_match)

    @given(st.binary(max_size=600), st.binary(max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_pairs(self, reference, target):
        _assert_parity(reference, target, seed_length=4)


class TestChunkEdges:
    """Targets laid out around the chunked scan's resolve boundaries.

    The first chunk resolves ``_CHUNK_BASE`` positions; a cursor that
    walks onto a chunk's end doubles the next one, and a COPY that jumps
    past it restarts at ``_CHUNK_BASE``.  None of that may show in the
    instruction stream.
    """

    def test_literal_run_spans_a_chunk_edge(self):
        rng = random.Random(31)
        reference = rng.randbytes(4096)
        target = reference[:100] + rng.randbytes(100) + reference[1000:1300]
        spans = _spans(_assert_parity(reference, target))
        assert ("add", 100, 200) in spans
        assert 100 < _CHUNK_BASE < 200

    def test_copy_ends_exactly_on_a_chunk_end(self):
        rng = random.Random(32)
        reference = rng.randbytes(4096)
        target = (
            reference[500 : 500 + _CHUNK_BASE]
            + rng.randbytes(64)
            + reference[2000:2400]
        )
        spans = _spans(_assert_parity(reference, target))
        assert spans[0] == ("copy", 0, _CHUNK_BASE)

    def test_copy_jumps_past_a_chunk_end(self):
        rng = random.Random(33)
        reference = rng.randbytes(8192)
        target = (
            reference[: 3 * _CHUNK_BASE + 7]
            + rng.randbytes(3)
            + reference[4000:4100]
            + rng.randbytes(_CHUNK_BASE)
            + reference[6000:7000]
        )
        _assert_parity(reference, target)

    def test_backward_extension_reaches_into_the_previous_chunk(self):
        # Every seed window inside ``word`` has nine earlier decoy
        # occurrences, so the candidate cap hides the true one and
        # ``word`` stays literal until the first window past it, at the
        # chunk edge; the COPY found there extends back over ``word``.
        rng = random.Random(34)
        word = rng.randbytes(12)
        decoys = b"".join(word + rng.randbytes(12) for _ in range(9))
        tail = rng.randbytes(200)
        reference = decoys + rng.randbytes(7) + word + tail
        true_offset = len(reference) - len(word) - len(tail)
        target = rng.randbytes(_CHUNK_BASE - 9) + word + tail
        instructions = _assert_parity(
            reference, target, seed_length=4, min_match=20
        )
        assert instructions[-1] == Copy(true_offset, len(word) + len(tail))
        assert _spans(instructions)[-1][1] == _CHUNK_BASE - 9

    def test_periodic_target_hits_the_candidate_cap_at_an_edge(self):
        rng = random.Random(35)
        unit = rng.randbytes(8)
        reference = rng.randbytes(300) + unit * 40 + rng.randbytes(300)
        for lead in range(_CHUNK_BASE - 20, _CHUNK_BASE):
            target = rng.randbytes(lead) + unit * 48 + rng.randbytes(50)
            spans = _spans(_assert_parity(reference, target))
            assert any(
                kind == "copy" and start < _CHUNK_BASE < end
                for kind, start, end in spans
            )

    @pytest.mark.parametrize("base", [1, 2, 3, 64])
    def test_small_chunk_bases(self, base):
        rng = random.Random(base)
        with mock.patch.object(matcher_module, "_CHUNK_BASE", base):
            for trial in range(20):
                reference = rng.randbytes(rng.randrange(1, 3000))
                target = _built_target(rng, reference, rng.randrange(0, 3000))
                _assert_parity(
                    reference,
                    target,
                    seed_length=rng.randrange(1, 32),
                    min_match=rng.randrange(1, 41),
                )

    def test_chunk_doubles_while_walking_and_restarts_after_a_copy(self):
        rng = random.Random(36)
        reference = rng.randbytes(8192)
        target = rng.randbytes(2000) + reference[:3000] + rng.randbytes(600)
        matcher = ReferenceMatcher(reference)
        sizes = []
        resolve = matcher.candidate_ranges

        def recording(target_hashes):
            sizes.append(int(target_hashes.size))
            return resolve(target_hashes)

        matcher.candidate_ranges = recording
        chunked = compute_instructions(reference, target, matcher=matcher)
        assert chunked == scalar_instructions(reference, target)
        base = _CHUNK_BASE
        assert sizes[:4] == [base, 2 * base, 4 * base, 8 * base]
        # The COPY of reference[:3000] jumps past the chunk it starts in.
        assert base in sizes[4:]

    def test_filtered_chunk_holds_matches_and_false_positives(self):
        """A chunk above ``_PRESENCE_MIN_POSITIONS`` goes through the
        presence table: positions it admits without a candidate (false
        positives) and positions it rejects must scan alike, and true
        matches inside the chunk must still be found."""
        rng = random.Random(37)
        reference = rng.randbytes(8192)
        target = (
            rng.randbytes(1000)
            + reference[100:400]
            + rng.randbytes(400)
            + reference[5000:5300]
            + rng.randbytes(100)
        )
        matcher = ReferenceMatcher(reference)
        chunks = []
        resolve = matcher.candidate_ranges

        def recording(target_hashes):
            chunks.append(target_hashes.copy())
            return resolve(target_hashes)

        matcher.candidate_ranges = recording
        chunked = compute_instructions(reference, target, matcher=matcher)
        assert chunked == scalar_instructions(reference, target)
        assert ("copy", 1000, 1300) in _spans(chunked)
        filtered = [c for c in chunks if c.size > _PRESENCE_MIN_POSITIONS]
        assert filtered
        hashes = np.concatenate(filtered)
        lo, hi = sorted_range_pair(matcher._sorted, hashes)
        shift = np.uint32(32 - matcher._present_bits)
        admitted = matcher._present[hashes >> shift]
        assert np.any(hi > lo)  # true matches
        assert np.any(admitted & (hi == lo))  # false positives

    @given(
        seed=st.integers(0, 2**32 - 1),
        reference_length=st.integers(0, 6000),
        target_length=st.integers(2000, 8000),
        seed_length=st.sampled_from([4, 8, 16]),
        min_match=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_kilobyte_sweep(
        self, seed, reference_length, target_length, seed_length, min_match
    ):
        rng = random.Random(seed)
        reference = rng.randbytes(reference_length)
        target = _built_target(rng, reference, target_length)
        _assert_parity(
            reference, target, seed_length=seed_length, min_match=min_match
        )


class TestEngineSelection:
    """One scan, no selection: only the argument guard is left."""

    def test_min_match_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_match"):
            compute_instructions(b"ref" * 20, b"tgt" * 20, min_match=0)


class TestMatcherReuseCheck:
    def test_equal_content_different_object_accepted(self):
        reference = b"the same reference content, two objects" * 8
        twin = bytes(bytearray(reference))
        assert twin is not reference
        matcher = ReferenceMatcher(reference)
        instructions = compute_instructions(twin, reference, matcher=matcher)
        assert apply_instructions(twin, instructions) == reference

    def test_same_length_different_content_rejected(self):
        matcher = ReferenceMatcher(b"A" * 64)
        with pytest.raises(ValueError, match="different reference"):
            compute_instructions(b"B" * 64, b"target", matcher=matcher)

    def test_prebuilt_matcher_bypasses_cache(self):
        reference = b"cached reference payload" * 16
        matcher = ReferenceMatcher(reference)
        cache = default_reference_cache()
        compute_instructions(reference, reference[32:], matcher=matcher)
        assert cache.stats.lookups == 0


class TestReferenceIndexCache:
    def test_repeat_encode_hits_across_rounds(self):
        cache = default_reference_cache()
        reference = b"version-chain base revision " * 40
        target = reference[:512] + b"!" + reference[512:]
        compute_instructions(reference, target)
        compute_instructions(reference, target)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_zdelta_and_vcdiff_share_one_entry(self):
        cache = default_reference_cache()
        reference = b"one reference, two coders " * 50
        target = reference[100:] + b"tail bytes"
        zdelta_encode(reference, target)
        vcdiff_encode(reference, target)
        assert len(cache) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_seed_length_is_part_of_the_key(self):
        cache = default_reference_cache()
        reference = b"seed length distinguishes entries " * 30
        compute_instructions(reference, reference, seed_length=16)
        compute_instructions(reference, reference, seed_length=8)
        assert len(cache) == 2
        assert cache.stats.misses == 2

    def test_cached_matcher_owns_its_bytes(self):
        backing = bytearray(b"mutable backing " * 30)
        window = memoryview(backing)
        cache = ReferenceIndexCache()
        matcher = cache.matcher(bytes(window), 16)
        assert isinstance(matcher.reference, bytes)
        matcher_again = cache.matcher(window, 16)
        assert matcher_again is matcher

    def test_worker_init_presizes_reference_cache(self):
        before = default_reference_cache().max_entries
        _worker_init(before + 512)
        assert default_reference_cache().max_entries == before + 512


class DeltaProbeMethod(SyncMethod):
    """Per-file zdelta encode — one reference-cache lookup per file."""

    name = "delta-probe"
    supports_pickle = True

    def sync_file(self, old: bytes, new: bytes) -> MethodOutcome:
        delta = zdelta_encode(old, new)
        return MethodOutcome(
            total_bytes=len(delta),
            server_to_client=len(delta),
            breakdown={"s2c/delta": len(delta)},
        )


class TestExecutorCounterFold:
    def test_shared_reference_counters_fold_into_batch(self):
        reference = b"shared reference across the whole batch " * 60
        tasks = [
            FileTask(f"f{index}.bin", reference,
                     reference[: 256 * index] + b"#" + reference[256 * index:])
            for index in range(1, 9)
        ]
        executor = SyncExecutor(workers=2)
        batch = executor.run(DeltaProbeMethod(), tasks)
        hits = batch.caches["ref_cache_hits"]
        misses = batch.caches["ref_cache_misses"]
        assert hits + misses == len(tasks)
        # Every worker (or the serial parent) builds the shared index at
        # most once; everything after that is a hit.
        assert 1 <= misses <= max(1, batch.workers_used)

    def test_serial_run_counts_against_parent_cache(self):
        reference = b"serial fallback shares the parent cache " * 60
        tasks = [
            FileTask("a.bin", reference, reference + b"a"),
            FileTask("b.bin", reference, reference + b"b"),
        ]
        executor = SyncExecutor(workers=1)
        batch = executor.run(DeltaProbeMethod(), tasks)
        assert batch.caches["ref_cache_misses"] == 1
        assert batch.caches["ref_cache_hits"] == 1
        assert default_reference_cache().stats.lookups == 2
