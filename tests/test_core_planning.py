"""Tests for sub-phase hash planning (the mirrored pure functions)."""

from __future__ import annotations

import numpy as np

from repro.core import ProtocolConfig
from repro.core.blocks import (
    CONTINUATION,
    DERIVED,
    GLOBAL,
    LOCAL,
    BlockTracker,
)
from repro.core.planning import (
    apply_known_hashes,
    plan_continuation,
    plan_global,
    plan_mixed,
)


def tracker_with(config: ProtocolConfig, length: int = 4096) -> BlockTracker:
    return BlockTracker(length, config)


def match(tracker: BlockTracker, *rows: int) -> None:
    tracker.record_matches(np.asarray(rows, dtype=np.int64))


BASE = ProtocolConfig(
    start_block_size=1024,
    min_block_size=64,
    continuation_min_block_size=16,
    global_hash_bits=16,
)


class TestPlanContinuation:
    def test_empty_without_matches(self):
        tracker = tracker_with(BASE)
        assert plan_continuation(tracker).size == 0

    def test_adjacent_blocks_selected(self):
        tracker = tracker_with(BASE)
        match(tracker, 1)
        plan = plan_continuation(tracker)
        assert plan.starts.tolist() == [0, 2048]
        assert (plan.kinds == CONTINUATION).all()
        assert (plan.widths == BASE.continuation_hash_bits).all()

    def test_disabled_when_config_off(self):
        config = BASE.with_overrides(continuation_min_block_size=None)
        tracker = tracker_with(config)
        match(tracker, 1)
        assert plan_continuation(tracker).size == 0

    def test_blocks_below_floor_not_planned(self):
        tracker = tracker_with(BASE, length=64)
        match(tracker, 0)
        # Nothing active remains, so nothing can be planned.
        assert plan_continuation(tracker).size == 0


class TestPlanGlobal:
    def test_top_level_all_global(self):
        tracker = tracker_with(BASE)
        plan = plan_global(tracker, 16)
        assert plan.size == 4
        assert (plan.kinds == GLOBAL).all()
        assert plan.transmitted_bits == 4 * 16

    def test_derived_suppression_after_split(self):
        tracker = tracker_with(BASE)
        plan = plan_global(tracker, 16)
        apply_known_hashes(tracker, plan)
        tracker.advance_level()
        child_plan = plan_global(tracker, 16)
        assert child_plan.kinds.tolist() == [GLOBAL, DERIVED] * 4
        # Derived hashes cost nothing on the wire.
        assert child_plan.transmitted_bits == 4 * 16

    def test_no_suppression_without_decomposable(self):
        config = BASE.with_overrides(use_decomposable=False)
        tracker = tracker_with(config)
        plan = plan_global(tracker, 16)
        apply_known_hashes(tracker, plan)
        tracker.advance_level()
        child_plan = plan_global(tracker, 16)
        assert (child_plan.kinds == GLOBAL).all()

    def test_no_suppression_without_parent_value(self):
        """If the parent was never hashed (e.g. continuation-only), the
        right child cannot be derived."""
        tracker = tracker_with(BASE)
        tracker.advance_level()  # split without sending any hashes
        plan = plan_global(tracker, 16)
        assert (plan.kinds == GLOBAL).all()

    def test_no_suppression_when_left_sibling_not_global(self):
        tracker = tracker_with(BASE)
        apply_known_hashes(tracker, plan_global(tracker, 16))
        tracker.advance_level()
        tracker.continuation_failed[0] = True  # left child skipped
        plan = plan_global(tracker, 16)
        assert plan.rows.tolist() == [1, 2, 3, 4, 5, 6, 7]
        assert plan.kinds.tolist() == [GLOBAL] + [GLOBAL, DERIVED] * 3

    def test_skip_sibling_of_confirmed(self):
        tracker = tracker_with(BASE)
        apply_known_hashes(tracker, plan_global(tracker, 16))
        tracker.advance_level()
        match(tracker, 0)
        plan = plan_global(tracker, 16)
        assert 1 not in plan.rows.tolist()

    def test_skip_failed_continuation(self):
        tracker = tracker_with(BASE)
        tracker.continuation_failed[0] = True
        plan = plan_global(tracker, 16)
        assert 0 not in plan.rows.tolist()

    def test_no_skip_rules_when_single_phase(self):
        config = BASE.with_overrides(continuation_first=False)
        tracker = tracker_with(config)
        tracker.continuation_failed[0] = True
        plan = plan_global(tracker, 16)
        assert 0 in plan.rows.tolist()

    def test_small_blocks_skipped_without_local(self):
        tracker = tracker_with(BASE, length=64)  # single 64-byte root
        tracker.advance_level()  # 32-byte children < min_block 64
        assert plan_global(tracker, 16).size == 0

    def test_local_hash_for_anchored_small_blocks(self):
        config = BASE.with_overrides(use_local_hashes=True, local_hash_bits=10)
        tracker = tracker_with(config, length=128)
        tracker.advance_level()  # two 64-byte blocks... still >= min
        match(tracker, 0)
        tracker.advance_level()  # 32-byte children of right block
        plan = plan_global(tracker, 16)
        assert plan.size, "anchored small blocks should get local hashes"
        assert (plan.kinds == LOCAL).all()
        assert (plan.widths == 10).all()

    def test_odd_split_geometry_in_plan(self):
        tracker = tracker_with(BASE, length=2500)
        apply_known_hashes(tracker, plan_global(tracker, 16))
        tracker.advance_level()
        plan = plan_global(tracker, 16)
        assert plan.lengths.tolist() == [512, 512, 512, 512, 226, 226]
        tracker.advance_level()
        tail = tracker.lengths.tolist()[-4:]
        assert tail == [113, 113, 113, 113]


class TestPlanMixed:
    def test_mixed_covers_all_eligible(self):
        config = BASE.with_overrides(continuation_first=False)
        tracker = tracker_with(config)
        match(tracker, 1)
        plan = plan_mixed(tracker, 16)
        kinds = dict(zip(plan.starts.tolist(), plan.kinds.tolist()))
        assert kinds[0] == CONTINUATION
        assert kinds[2048] == CONTINUATION
        assert kinds[3072] == GLOBAL

    def test_sorted_by_offset(self):
        config = BASE.with_overrides(continuation_first=False)
        tracker = tracker_with(config)
        match(tracker, 2)
        plan = plan_mixed(tracker, 16)
        starts = plan.starts.tolist()
        assert starts == sorted(starts)
        assert plan.rows.tolist() == [0, 1, 3]


class TestApplyKnownHashes:
    def test_records_width_for_global_and_derived(self):
        tracker = tracker_with(BASE)
        plan = plan_global(tracker, 16)
        apply_known_hashes(tracker, plan)
        assert (tracker.known_width[plan.rows] == 16).all()

    def test_continuation_not_recorded(self):
        tracker = tracker_with(BASE)
        match(tracker, 1)
        plan = plan_continuation(tracker)
        apply_known_hashes(tracker, plan)
        assert not tracker.known_width[plan.rows].any()
