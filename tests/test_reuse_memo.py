"""Tests for the delta memo cache: byte-identity, gating, counter plumbing.

The memo's contract is strict (DESIGN §17): a hit changes wall-clock
only — instruction lists and payloads must be byte-identical to fresh
computation (and to the per-position reference scan), on all executor
substrates,
and a default (switched-off) run must leave reports untouched.
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
    delta_memo_enabled,
    delta_memo_scope,
    reset_default_delta_memo,
    set_delta_memo_enabled,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    reset_default_delta_memo()
    set_delta_memo_enabled(False)
    yield
    reset_default_delta_memo()
    set_delta_memo_enabled(False)


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
        assert delta_memo_enabled() is False
        old, new = _pair()
        zdelta_encode(old, new)
        zdelta_encode(old, new)
        assert default_delta_memo().stats.hits == 0
        assert default_delta_memo().stats.misses == 0

    def test_explicit_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DELTA_MEMO", "1")  # no longer read
        assert delta_memo_enabled() is False
        set_delta_memo_enabled(True)
        assert delta_memo_enabled() is True
        set_delta_memo_enabled(False)
        assert delta_memo_enabled() is False

    def test_scope_restores_previous_state(self):
        set_delta_memo_enabled(False)
        with delta_memo_scope(True):
            assert delta_memo_enabled() is True
        assert delta_memo_enabled() is False
        set_delta_memo_enabled(True)
        with delta_memo_scope(False):  # a scope always sets the switch
            assert delta_memo_enabled() is False
        assert delta_memo_enabled() is True

    def test_size_tier_always_memoized(self):
        old, new = _pair()
        first = zdelta_size(old, new)
        second = zdelta_size(old, new)
        assert first == second
        assert default_delta_memo().stats.hits >= 1


class TestByteIdentity:
    def test_payload_hit_is_byte_identical(self):
        old, new = _pair()
        cold = zdelta_encode(old, new, memo=False)
        set_delta_memo_enabled(True)
        primed = zdelta_encode(old, new)
        cached = zdelta_encode(old, new)
        assert default_delta_memo().stats.hits >= 1
        assert primed == cold
        assert cached == cold
        assert zdelta_decode(old, cached) == new

    def test_vcdiff_payload_hit_is_byte_identical(self):
        old, new = _pair(seed=13)
        cold = vcdiff_encode(old, new, memo=False)
        set_delta_memo_enabled(True)
        vcdiff_encode(old, new)
        cached = vcdiff_encode(old, new)
        assert cached == cold
        assert vcdiff_decode(old, cached) == new

    def test_cross_engine_instruction_hit(self):
        """A hit serves the cached list itself, and that list equals both
        a cold run and the per-position reference scan."""
        old, new = _pair(seed=17)
        set_delta_memo_enabled(True)
        primed = compute_instructions(old, new)
        served = compute_instructions(old, new)
        assert served is primed  # the same cached object
        assert served == compute_instructions(old, new, memo=False)
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
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memoized_run_matches_cold_run(self, workers):
        rng = random.Random(23)
        old_side, new_side = {}, {}
        for i in range(6):
            old, new = _pair(seed=100 + i, nbytes=8_000, edits=4)
            old_side[f"f{i}"] = old
            new_side[f"f{i}"] = new
        # Duplicate content pair under another name: the memo's bread
        # and butter.
        old_side["twin"] = old_side["f0"]
        new_side["twin"] = new_side["f0"]

        cold = sync_collection(
            old_side, new_side, OursMethod(), workers=workers
        )
        reset_default_delta_memo()
        warm = sync_collection(
            old_side,
            new_side,
            OursMethod(),
            workers=workers,
            delta_memo=True,
        )
        assert warm.total_bytes == cold.total_bytes
        assert warm.reconstructed == cold.reconstructed
        for name, outcome in cold.per_file.items():
            assert warm.per_file[name].total_bytes == outcome.total_bytes

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
        so counter fold-back is pinned with a zdelta method instead."""
        from repro.bench.methods import ZdeltaMethod

        rng = random.Random(31)
        old_side, new_side = {}, {}
        for i in range(3):
            old, new = _pair(seed=200 + i, nbytes=6_000, edits=4)
            old_side[f"f{i}"] = old
            new_side[f"f{i}"] = new
        first = sync_collection(
            old_side, new_side, ZdeltaMethod(), delta_memo=True
        )
        assert first.delta_memo_misses > 0
        second = sync_collection(
            old_side, new_side, ZdeltaMethod(), delta_memo=True
        )
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
