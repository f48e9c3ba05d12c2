"""Scan parity and reference-index cache behaviour for the delta core.

:func:`compute_instructions` (the batched scan, DESIGN §12) must emit
*byte-identical* instruction lists to the per-position ``_scan_scalar``
loop, called directly as the reference, on every input — not merely
decode to the same target.  The first half of this module
attacks that property with structured adversarial cases and a
hypothesis sweep; the second half pins down the
:class:`~repro.parallel.cache.ReferenceIndexCache` contract: repeated
references hit, both delta coders share one entry, per-worker counters
fold back into the executor's batch result.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import zdelta_encode
from repro.delta.instructions import apply_instructions
from repro.delta import matcher as matcher_module
from repro.delta.matcher import (
    _SEED_HASHER,
    ReferenceMatcher,
    _copy_dominated,
    _scan_scalar,
    compute_instructions,
)
from repro.hashing.scan import window_hashes
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


def _assert_parity(reference: bytes, target: bytes, **kwargs) -> None:
    scalar = scalar_instructions(reference, target, **kwargs)
    vectorized = compute_instructions(reference, target, cache=False, **kwargs)
    assert scalar == vectorized
    assert apply_instructions(reference, vectorized) == target


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


class TestEngineSelection:
    """The input, not a switch, picks the scan: a sampled probe sends
    copy-dominated targets to the per-position loop."""

    def test_min_match_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_match"):
            compute_instructions(b"ref" * 20, b"tgt" * 20, min_match=0)

    @staticmethod
    def _scalar_calls(monkeypatch, reference: bytes, target: bytes) -> int:
        calls = []

        def counting_scan(*args):
            calls.append(args)
            return _scan_scalar(*args)

        monkeypatch.setattr(matcher_module, "_scan_scalar", counting_scan)
        result = compute_instructions(reference, target, cache=False)
        assert apply_instructions(reference, result) == target
        return len(calls)

    def test_copy_dominated_target_selects_scalar(self, monkeypatch):
        rng = random.Random(11)
        reference = rng.randbytes(64 * 1024)
        target = reference[:30000] + b"edit" + reference[30000:]
        matcher = ReferenceMatcher(reference)
        assert _copy_dominated(
            matcher, window_hashes(target, 16, _SEED_HASHER)
        )
        assert self._scalar_calls(monkeypatch, reference, target) == 1

    def test_literal_heavy_target_stays_batched(self, monkeypatch):
        rng = random.Random(12)
        reference = rng.randbytes(64 * 1024)
        target = _structured_target("mixed", reference, rng)
        target += rng.randbytes(len(target))
        matcher = ReferenceMatcher(reference)
        assert not _copy_dominated(
            matcher, window_hashes(target, 16, _SEED_HASHER)
        )
        assert self._scalar_calls(monkeypatch, reference, target) == 0


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

    def test_cache_false_is_a_private_build(self):
        cache = default_reference_cache()
        reference = b"private build, no shared state " * 30
        compute_instructions(reference, reference, cache=False)
        assert cache.stats.lookups == 0
        assert len(cache) == 0

    def test_explicit_cache_instance_is_used(self):
        private = ReferenceIndexCache(max_entries=4)
        reference = b"explicitly routed cache " * 30
        compute_instructions(reference, reference, cache=private)
        compute_instructions(reference, reference, cache=private)
        assert private.stats.misses == 1
        assert private.stats.hits == 1
        assert default_reference_cache().stats.lookups == 0

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
