"""Tests for the mirrored block tree (the array frontier)."""

from __future__ import annotations

import numpy as np

from repro.core import ProtocolConfig
from repro.core.blocks import (
    BlockTracker,
    Frontier,
    partition_blocks,
    split_blocks,
)


def make_tracker(target_length: int = 4096, **overrides) -> BlockTracker:
    config = ProtocolConfig(
        start_block_size=overrides.pop("start_block_size", 1024),
        min_block_size=overrides.pop("min_block_size", 64),
        continuation_min_block_size=overrides.pop("continuation_min_block_size", 16),
        **overrides,
    )
    return BlockTracker(target_length, config)


def match(tracker: BlockTracker, *rows: int) -> None:
    tracker.record_matches(np.asarray(rows, dtype=np.int64))


def anchor_of(tracker: BlockTracker, row: int) -> int:
    return int(Frontier([tracker]).local_anchors(np.asarray([row]))[0])


class TestInitialPartition:
    def test_full_blocks_plus_tail(self):
        tracker = make_tracker(2500, start_block_size=1024)
        assert tracker.lengths.tolist() == [1024, 1024, 452]
        assert tracker.starts[0] == 0
        assert tracker.starts[-1] + tracker.lengths[-1] == 2500

    def test_empty_target(self):
        tracker = make_tracker(0)
        assert tracker.starts.size == 0
        assert not tracker.has_active()

    def test_tiny_target_one_block(self):
        tracker = make_tracker(100, start_block_size=1024)
        assert tracker.lengths.tolist() == [100]

    def test_partition_helper(self):
        starts, lengths = partition_blocks(2500, 1024)
        assert starts.tolist() == [0, 1024, 2048]
        assert lengths.tolist() == [1024, 1024, 452]
        assert partition_blocks(0, 1024)[0].size == 0


class TestSplitting:
    def test_split_halves_with_left_bias(self):
        tracker = make_tracker(101, start_block_size=128, min_block_size=16)
        assert tracker.advance_level()
        assert tracker.lengths.tolist() == [51, 50]
        assert tracker.starts.tolist() == [0, 51]
        # Row i's sibling is row i ^ 1; both share parent pair i // 2.
        match(tracker, 0)
        assert Frontier([tracker]).sibling_matched().tolist() == [False, True]
        # The geometry helper the multiround and broadcast walkers share
        # agrees, and interleaves the children of several parents.
        starts, lengths = split_blocks(
            np.asarray([0, 200], dtype=np.int64),
            np.asarray([101, 64], dtype=np.int64),
        )
        assert starts.tolist() == [0, 51, 200, 232]
        assert lengths.tolist() == [51, 50, 32, 32]

    def test_advance_splits_active_blocks(self):
        tracker = make_tracker(2048, start_block_size=1024)
        assert tracker.advance_level()
        assert tracker.lengths.tolist() == [512, 512, 512, 512]
        assert tracker.level == 1

    def test_matched_blocks_not_split(self):
        tracker = make_tracker(2048, start_block_size=1024)
        match(tracker, 0)
        tracker.advance_level()
        # Only the unmatched root split.
        assert tracker.starts.tolist() == [1024, 1536]

    def test_floor_stops_recursion(self):
        tracker = make_tracker(64, start_block_size=64,
                               min_block_size=32,
                               continuation_min_block_size=16)
        # 64 -> 32,32 -> 16x4 -> stop (children would be 8 < floor 16).
        assert tracker.advance_level()
        assert tracker.advance_level()
        assert not tracker.advance_level()
        assert tracker.starts.size == 0

    def test_exhausted_status_set(self):
        tracker = make_tracker(16, start_block_size=64,
                               min_block_size=16,
                               continuation_min_block_size=16)
        assert tracker.has_active()
        # The unmatched root is too small to split: it retires, leaving
        # an empty frontier with nothing active.
        assert not tracker.advance_level()
        assert tracker.starts.size == 0
        assert not tracker.has_active()

    def test_known_hash_moves_to_parent_pair(self):
        tracker = make_tracker(2048, start_block_size=1024)
        tracker.known_width[1] = 16
        tracker.known_value[1] = 12345
        tracker.advance_level()
        assert tracker.parent_known_width.tolist() == [0, 16]
        assert tracker.parent_known_value.tolist() == [0, 12345]
        assert not tracker.known_width.any()


class TestAdjacency:
    def test_continuation_eligibility(self):
        tracker = make_tracker(3072, start_block_size=1024)
        match(tracker, 1)
        # Row 0 ends where the match starts, row 2 starts where it ends.
        assert Frontier([tracker]).continuation_eligible().tolist() == [True, False, True]
        assert tracker.confirmed_starts.tolist() == [1024]
        assert tracker.confirmed_ends.tolist() == [2048]

    def test_no_eligibility_without_matches(self):
        tracker = make_tracker(2048, start_block_size=1024)
        assert not Frontier([tracker]).continuation_eligible().any()

    def test_eligibility_survives_splitting(self):
        tracker = make_tracker(2048, start_block_size=1024)
        match(tracker, 0)
        tracker.advance_level()
        assert tracker.starts[0] == 1024
        assert Frontier([tracker]).continuation_eligible().tolist() == [True, False]


class TestLocalAnchor:
    def test_nearby_match_found(self):
        tracker = make_tracker(8192, start_block_size=1024,
                               local_neighborhood=2048)
        match(tracker, 0)  # [0, 1024)
        assert anchor_of(tracker, 2) == 0  # [2048, 3072)

    def test_far_match_not_anchored(self):
        tracker = make_tracker(8192, start_block_size=1024,
                               local_neighborhood=512)
        match(tracker, 0)
        assert anchor_of(tracker, 4) == -1

    def test_prefers_closest(self):
        tracker = make_tracker(8192, start_block_size=1024,
                               local_neighborhood=8192)
        match(tracker, 0)
        match(tracker, 3)  # [3072, 4096)
        assert anchor_of(tracker, 4) == 3072

    def test_ties_go_to_earlier_confirmation(self):
        tracker = make_tracker(8192, start_block_size=1024,
                               local_neighborhood=8192)
        # Row 2 sits 1024 bytes from both row 0's end and row 4's start.
        match(tracker, 4, 0)
        assert anchor_of(tracker, 2) == 4096
        tracker = make_tracker(8192, start_block_size=1024,
                               local_neighborhood=8192)
        match(tracker, 0, 4)
        assert anchor_of(tracker, 2) == 0
