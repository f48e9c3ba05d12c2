"""Tests for the delta memo cache: byte-identity, gating, counter plumbing.

The memo's contract is strict (DESIGN §17): a hit changes wall-clock
only — instruction lists and payloads must be byte-identical to fresh
computation (and to the per-position reference scan).  The encoders
consult a memo only when one is handed in, so a default run leaves
reports untouched.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.methods import OursMethod
from repro.collection.sync import sync_collection
from repro.delta import (
    compute_instructions,
    vcdiff_decode,
    vcdiff_encode,
    zdelta_decode,
    zdelta_encode,
    zdelta_size,
)
from tests.test_delta_parity import scalar_instructions
from repro.reuse import (
    DeltaMemoCache,
    default_delta_memo,
    reset_default_delta_memo,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    reset_default_delta_memo()
    yield
    reset_default_delta_memo()


def _pair(seed: int = 11, nbytes: int = 20_000, edits: int = 8):
    rng = random.Random(seed)
    old = rng.randbytes(nbytes)
    new = bytearray(old)
    for _ in range(edits):
        at = rng.randrange(nbytes - 200)
        new[at : at + 50] = rng.randbytes(80)
    return old, bytes(new)


class TestGating:
    def test_default_off(self):
        old, new = _pair()
        zdelta_encode(old, new)
        zdelta_encode(old, new)
        assert default_delta_memo().stats.hits == 0
        assert default_delta_memo().stats.misses == 0

    def test_size_tier_always_memoized(self):
        old, new = _pair()
        first = zdelta_size(old, new)
        second = zdelta_size(old, new)
        assert first == second
        assert default_delta_memo().stats.hits >= 1


class TestByteIdentity:
    def test_payload_hit_is_byte_identical(self):
        old, new = _pair()
        cold = zdelta_encode(old, new)
        memo = DeltaMemoCache()
        primed = zdelta_encode(old, new, memo=memo)
        cached = zdelta_encode(old, new, memo=memo)
        assert memo.stats.hits >= 1
        assert primed == cold
        assert cached == cold
        assert zdelta_decode(old, cached) == new

    def test_vcdiff_payload_hit_is_byte_identical(self):
        old, new = _pair(seed=13)
        cold = vcdiff_encode(old, new)
        memo = DeltaMemoCache()
        vcdiff_encode(old, new, memo=memo)
        cached = vcdiff_encode(old, new, memo=memo)
        assert memo.stats.hits >= 1
        assert cached == cold
        assert vcdiff_decode(old, cached) == new

    def test_cross_engine_instruction_hit(self):
        """A hit serves the cached list itself, and that list equals both
        a cold run and the per-position reference scan."""
        old, new = _pair(seed=17)
        memo = DeltaMemoCache()
        primed = compute_instructions(old, new, memo=memo)
        served = compute_instructions(old, new, memo=memo)
        assert served is primed  # the same cached object
        assert served == compute_instructions(old, new)
        assert served == scalar_instructions(old, new)

    def test_explicit_memo_instance(self):
        old, new = _pair(seed=19)
        memo = DeltaMemoCache()
        first = zdelta_encode(old, new, memo=memo)
        second = zdelta_encode(old, new, memo=memo)
        assert memo.stats.hits == 1
        assert first == second
        assert default_delta_memo().stats.hits == 0


class TestCollectionParity:
    def test_clean_default_run_reports_zero_counters(self):
        old, new = _pair(seed=29, nbytes=6_000)
        report = sync_collection({"f": old}, {"f": new}, OursMethod())
        assert report.dedup_hits == 0
        assert report.delta_memo_hits == 0
        assert report.delta_memo_misses == 0
        assert report.sibling_refs_used == 0
        assert report.bytes_saved_vs_self_ref == 0

    def test_memo_counters_folded_back_serial(self):
        """OursMethod's protocol rounds don't consult the payload memo,
        so counter fold-back is pinned with a zdelta method, whose size
        probe always goes through the process-wide memo."""
        from repro.bench.methods import ZdeltaMethod

        rng = random.Random(31)
        old_side, new_side = {}, {}
        for i in range(3):
            old, new = _pair(seed=200 + i, nbytes=6_000, edits=4)
            old_side[f"f{i}"] = old
            new_side[f"f{i}"] = new
        first = sync_collection(old_side, new_side, ZdeltaMethod())
        assert first.delta_memo_misses > 0
        second = sync_collection(old_side, new_side, ZdeltaMethod())
        assert second.delta_memo_hits > 0


class TestByteBudget:
    def test_budget_evicts_and_counts_bytes(self):
        memo = DeltaMemoCache(max_entries=64, max_bytes=1_000)
        for i in range(8):
            memo.payload(
                "zdelta",
                bytes([i]) * 16,
                bytes([i + 1]) * 16,
                16,
                lambda: b"x" * 400,
            )
        assert memo.current_bytes <= 1_000
        assert memo.stats.evictions > 0
        assert memo.stats.evicted_bytes >= 400 * memo.stats.evictions
        assert memo.stats.snapshot()["evicted_bytes"] == (
            memo.stats.evicted_bytes
        )

    def test_mru_entry_survives_oversized_budget(self):
        memo = DeltaMemoCache(max_entries=64, max_bytes=10)
        payload = memo.payload(
            "zdelta", b"a" * 16, b"b" * 16, 16, lambda: b"y" * 100
        )
        assert payload == b"y" * 100
        assert len(memo) == 1  # never evict the entry just built
